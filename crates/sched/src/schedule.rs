//! Greedy earliest-slot scheduling of a flow along a fixed path.

use std::sync::Arc;

use nptsn_topo::Path;

use crate::error::SchedError;
use crate::flow::FlowSpec;
use crate::state::FlowAssignment;
use crate::table::ScheduleTable;
use crate::tas::TasConfig;
use crate::Result;

/// Schedules `spec` along `path`, reserving the earliest feasible slot on
/// every hop (store-and-forward: strictly increasing slots within each
/// repetition's release window).
///
/// On success the reserved slots are recorded in `table` and the resulting
/// [`FlowAssignment`] is returned; it shares `path`. On infeasibility the
/// table is left untouched and `Ok(None)` is returned — the flow is
/// unschedulable on this path under the current occupancy, which is a
/// *recovery* failure, not an input error.
///
/// Each hop is the directed link from `path.nodes()[h]` over
/// `path.links()[h]`: the links the path carries, which no lookup
/// resolves again.
///
/// Greedy earliest-slot assignment is optimal for a fixed path: taking the
/// earliest feasible slot at each hop maximizes the remaining slack of all
/// later hops (exchange argument), so if the greedy fails no assignment
/// exists on this path.
///
/// # Errors
///
/// Returns an error for specification-level problems: frames larger than a
/// slot ([`SchedError::FrameTooLarge`]) or periods incompatible with the
/// TAS cycle.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use nptsn_sched::{schedule_flow_on_path, FlowSpec, ScheduleTable, TasConfig};
/// use nptsn_topo::{ConnectionGraph, Path};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s = gc.add_switch("s");
/// gc.add_candidate_link(a, s, 1.0).unwrap();
/// gc.add_candidate_link(s, b, 1.0).unwrap();
///
/// let tas = TasConfig::default();
/// let mut table = ScheduleTable::new(&gc, &tas);
/// let flow = FlowSpec::new(a, b, 500, 128);
/// let path = Arc::new(Path::new(&gc, vec![a, s, b]));
/// let assignment = schedule_flow_on_path(&mut table, &tas, &flow, &path)
///     .unwrap()
///     .expect("schedulable");
/// assert_eq!(assignment.rows().collect::<Vec<_>>(), [[0, 1]]);
/// assert!(Arc::ptr_eq(assignment.path(), &path));
/// ```
pub fn schedule_flow_on_path(
    table: &mut ScheduleTable,
    tas: &TasConfig,
    spec: &FlowSpec,
    path: &Arc<Path>,
) -> Result<Option<FlowAssignment>> {
    if spec.frame_bytes() > tas.slot_capacity_bytes() {
        return Err(SchedError::FrameTooLarge {
            frame_bytes: spec.frame_bytes(),
            slot_capacity_bytes: tas.slot_capacity_bytes(),
        });
    }
    let reps = tas.repetitions(spec.period_us())?;
    let window = tas.window_slots(reps);
    // Each hop as (sending node, link).
    let hops = || path.nodes().iter().copied().zip(path.links().iter().copied());
    // First pass: find slots for every repetition without mutating.
    let mut slots = Vec::with_capacity(reps * path.hop_count());
    for r in 0..reps {
        let (lo, hi) = (r * window, (r + 1) * window);
        let mut next_min = lo;
        for (from, link) in hops() {
            let Some(t) = table.first_free(from, link, next_min, hi) else {
                return Ok(None);
            };
            slots.push(t);
            next_min = t + 1;
        }
    }
    // Second pass: commit.
    for (&slot, (from, link)) in slots.iter().zip(hops().cycle()) {
        table.occupy(from, link, slot);
    }
    Ok(Some(FlowAssignment::from_slots(Arc::clone(path), reps, slots)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::{ConnectionGraph, NodeId};

    /// The rows of `asg`.
    fn rows(asg: &FlowAssignment) -> Vec<&[usize]> {
        asg.rows().collect()
    }

    fn line() -> (ConnectionGraph, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(s, b, 1.0).unwrap();
        (gc, a, b, s)
    }

    #[test]
    fn earliest_slots_are_taken() {
        let (gc, a, b, s) = line();
        let tas = TasConfig::default();
        let mut table = ScheduleTable::new(&gc, &tas);
        let spec = FlowSpec::new(a, b, 500, 128);
        let path = Arc::new(Path::new(&gc, vec![a, s, b]));
        let a0 = schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().unwrap();
        assert_eq!(rows(&a0), [[0, 1]]);
        // A second identical flow shifts by one slot on the shared links.
        let a1 = schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().unwrap();
        assert_eq!(rows(&a1), [[1, 2]]);
    }

    #[test]
    fn saturation_returns_none_and_leaves_table_clean() {
        let (gc, a, b, s) = line();
        // Tiny cycle: 2 slots. A 2-hop path needs slots {0,1}; a second
        // flow cannot fit.
        let tas = TasConfig::new(500, 2, 1000);
        let mut table = ScheduleTable::new(&gc, &tas);
        let spec = FlowSpec::new(a, b, 500, 128);
        let path = Arc::new(Path::new(&gc, vec![a, s, b]));
        assert!(schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().is_some());
        let before_used: usize = gc.links().map(|l| table.used_slots_bidirectional(l)).sum();
        assert!(schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().is_none());
        let after_used: usize = gc.links().map(|l| table.used_slots_bidirectional(l)).sum();
        assert_eq!(before_used, after_used, "failed scheduling must not reserve slots");
    }

    #[test]
    fn repetitions_respect_windows() {
        let (gc, a, b, s) = line();
        let tas = TasConfig::default(); // 20 slots
        let mut table = ScheduleTable::new(&gc, &tas);
        // Period 250 us = 2 repetitions, windows [0, 10) and [10, 20).
        let spec = FlowSpec::new(a, b, 250, 128);
        let path = Arc::new(Path::new(&gc, vec![a, s, b]));
        let asg = schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().unwrap();
        assert_eq!(rows(&asg), [[0, 1], [10, 11]]);
    }

    #[test]
    fn oversized_frames_error() {
        let (gc, a, b, s) = line();
        let tas = TasConfig::default();
        let mut table = ScheduleTable::new(&gc, &tas);
        let spec = FlowSpec::new(a, b, 500, 1_000_000);
        let path = Arc::new(Path::new(&gc, vec![a, s, b]));
        assert!(matches!(
            schedule_flow_on_path(&mut table, &tas, &spec, &path),
            Err(SchedError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn path_longer_than_window_is_unschedulable() {
        // 4-hop path with only 3 slots per window.
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        let s2 = gc.add_switch("s2");
        gc.add_candidate_link(a, s0, 1.0).unwrap();
        gc.add_candidate_link(s0, s1, 1.0).unwrap();
        gc.add_candidate_link(s1, s2, 1.0).unwrap();
        gc.add_candidate_link(s2, b, 1.0).unwrap();
        let tas = TasConfig::new(300, 3, 1000);
        let mut table = ScheduleTable::new(&gc, &tas);
        let spec = FlowSpec::new(a, b, 300, 64);
        let path = Arc::new(Path::new(&gc, vec![a, s0, s1, s2, b]));
        assert!(schedule_flow_on_path(&mut table, &tas, &spec, &path).unwrap().is_none());
    }
}
