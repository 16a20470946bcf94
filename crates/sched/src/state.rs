//! Flow states `FI`: per-flow paths with reserved time slots.

use std::sync::Arc;

use nptsn_topo::Path;

use crate::flow::FlowId;

/// The schedule of one flow: its path and the time slots reserved on each
/// hop, per repetition within the base period.
///
/// The path is shared: assignments that route a flow the same way can
/// hold one path, as every recovery of a
/// [`ShortestPathRecovery`](crate::ShortestPathRecovery) session that
/// spares a flow's nominal path does. The slots are one flat buffer,
/// repetition-major: [`rows`](FlowAssignment::rows) yields one row per
/// repetition, and slot `h` of row `r` is the slot in which repetition `r`
/// of the flow is transmitted over hop `h` of the path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAssignment {
    path: Arc<Path>,
    repetitions: usize,
    /// `slots[r * hop_count + h]`: repetition `r`, hop `h`.
    slots: Vec<usize>,
}

impl FlowAssignment {
    /// Creates an assignment; `rows` must contain one row per repetition,
    /// each with one slot per hop of `path`.
    ///
    /// # Panics
    ///
    /// Panics when a slot row's length differs from the path's hop count.
    pub fn new(path: impl Into<Arc<Path>>, rows: Vec<Vec<usize>>) -> FlowAssignment {
        let path = path.into();
        for row in &rows {
            assert_eq!(row.len(), path.hop_count(), "one slot per hop");
        }
        FlowAssignment::from_slots(path, rows.len(), rows.concat())
    }

    /// An assignment of `repetitions` rows whose `slots` are laid out flat,
    /// repetition-major.
    pub(crate) fn from_slots(
        path: Arc<Path>,
        repetitions: usize,
        slots: Vec<usize>,
    ) -> FlowAssignment {
        debug_assert_eq!(slots.len(), repetitions * path.hop_count());
        FlowAssignment { path, repetitions, slots }
    }

    /// The flow's path.
    pub fn path(&self) -> &Arc<Path> {
        &self.path
    }

    /// The reserved slots, one row per repetition, each with one slot per
    /// hop.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        let hops = self.path.hop_count();
        (0..self.repetitions).map(move |r| &self.slots[r * hops..(r + 1) * hops])
    }

    /// End-to-end latency of the first repetition in slots (arrival slot −
    /// departure slot + 1).
    pub fn latency_slots(&self) -> usize {
        match self.rows().next() {
            Some(row) if !row.is_empty() => row[row.len() - 1] - row[0] + 1,
            _ => 0,
        }
    }
}

/// The flow state `FI`: one optional assignment per flow (Section II-A).
///
/// `None` entries are flows the recovery failed to restore; their endpoint
/// pairs appear in the accompanying [`crate::ErrorReport`].
///
/// A state is checked against a network by executing it:
/// [`simulate`](crate::simulate) rejects every state that breaks the TAS
/// model on that network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowState {
    assignments: Vec<Option<FlowAssignment>>,
}

impl FlowState {
    /// An all-unassigned state for `flow_count` flows.
    pub fn unassigned(flow_count: usize) -> FlowState {
        FlowState { assignments: vec![None; flow_count] }
    }

    /// Sets the assignment of `flow`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range flow ids.
    pub fn assign(&mut self, flow: FlowId, assignment: FlowAssignment) {
        self.assignments[flow.index()] = Some(assignment);
    }

    /// The assignment of `flow`, if recovered.
    pub fn assignment(&self, flow: FlowId) -> Option<&FlowAssignment> {
        self.assignments.get(flow.index()).and_then(|a| a.as_ref())
    }

    /// Number of flows covered by this state.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the state covers zero flows.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of flows with an assignment.
    pub fn assigned_count(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::{ConnectionGraph, NodeId};

    /// Stations a and b linked through a switch s.
    fn line() -> (ConnectionGraph, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let (a, b, s) = (gc.add_end_station("a"), gc.add_end_station("b"), gc.add_switch("s"));
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(s, b, 1.0).unwrap();
        (gc, a, b, s)
    }

    #[test]
    fn assigned_flows_are_counted_and_timed() {
        let (gc, a, b, s) = line();
        let mut state = FlowState::unassigned(2);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(&gc, vec![a, s, b]), vec![vec![0, 1]]),
        );
        assert_eq!(state.len(), 2);
        assert_eq!(state.assigned_count(), 1);
        assert_eq!(state.assignment(FlowId::from_index(0)).unwrap().latency_slots(), 2);
        assert!(state.assignment(FlowId::from_index(1)).is_none());
    }

    /// The rows given to `new` come back from `rows`, however many
    /// repetitions there are and however many hops, none included.
    #[test]
    fn rows_are_the_rows_given() {
        let (gc, a, b, s) = line();
        let cases = [
            (vec![a, s, b], vec![vec![3, 4]]),
            (vec![a, s, b], vec![vec![0, 2], vec![10, 11]]),
            (vec![a, s], vec![vec![7]]),
            (vec![a], vec![vec![]]),
            (vec![b], vec![vec![], vec![]]),
        ];
        for (nodes, rows) in cases {
            let asg = FlowAssignment::new(Path::new(&gc, nodes), rows.clone());
            assert_eq!(asg.rows().len(), rows.len());
            assert_eq!(asg.rows().collect::<Vec<_>>(), rows, "{:?}", asg.path().nodes());
        }
    }

    #[test]
    #[should_panic(expected = "one slot per hop")]
    fn assignment_shape_checked() {
        let (gc, a, b, s) = line();
        let _ = FlowAssignment::new(Path::new(&gc, vec![a, s, b]), vec![vec![0]]);
    }
}
