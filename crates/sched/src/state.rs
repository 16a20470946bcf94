//! Flow states `FI`: per-flow paths with reserved time slots.

use nptsn_topo::{FailureScenario, Path, Topology};

use crate::error::SchedError;
use crate::flow::{FlowId, FlowSet};
use crate::table::ScheduleTable;
use crate::tas::TasConfig;
use crate::Result;

/// The schedule of one flow: its path and the time slots reserved on each
/// hop, per repetition within the base period.
///
/// `slots[r][h]` is the slot in which repetition `r` of the flow is
/// transmitted over hop `h` of the path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAssignment {
    path: Path,
    slots: Vec<Vec<usize>>,
}

impl FlowAssignment {
    /// Creates an assignment; `slots` must contain one row per repetition,
    /// each with one slot per hop of `path`.
    ///
    /// # Panics
    ///
    /// Panics when a slot row's length differs from the path's hop count.
    pub fn new(path: Path, slots: Vec<Vec<usize>>) -> FlowAssignment {
        for row in &slots {
            assert_eq!(row.len(), path.hop_count(), "one slot per hop");
        }
        FlowAssignment { path, slots }
    }

    /// The flow's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reserved slots, repetition-major.
    pub fn slots(&self) -> &[Vec<usize>] {
        &self.slots
    }

    /// End-to-end latency of the first repetition in slots (arrival slot −
    /// departure slot + 1).
    pub fn latency_slots(&self) -> usize {
        match self.slots.first() {
            Some(row) if !row.is_empty() => row[row.len() - 1] - row[0] + 1,
            _ => 0,
        }
    }
}

/// The flow state `FI`: one optional assignment per flow (Section II-A).
///
/// `None` entries are flows the recovery failed to restore; their endpoint
/// pairs appear in the accompanying [`crate::ErrorReport`].
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

    /// Validates the state against a topology, failure scenario, TAS
    /// configuration and flow set:
    ///
    /// * every assigned path starts at the flow's source and ends at its
    ///   destination;
    /// * every path edge is a live topology link (present, not failed, no
    ///   failed endpoint switch);
    /// * slots increase strictly along each hop sequence and stay within
    ///   the repetition's release window;
    /// * no two assignments share a slot on the same directed link;
    /// * every frame fits the slot capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidState`] describing the first violation.
    pub fn validate(
        &self,
        topo: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> Result<()> {
        let gc = topo.connection_graph();
        let mut table = ScheduleTable::new(gc, tas);
        for (flow, spec) in flows.iter() {
            let Some(assignment) = self.assignment(flow) else {
                continue;
            };
            let path = assignment.path();
            if path.source() != spec.source() || path.destination() != spec.destination() {
                return Err(SchedError::InvalidState(format!(
                    "{flow} path endpoints do not match its specification"
                )));
            }
            if spec.frame_bytes() > tas.slot_capacity_bytes() {
                return Err(SchedError::FrameTooLarge {
                    frame_bytes: spec.frame_bytes(),
                    slot_capacity_bytes: tas.slot_capacity_bytes(),
                });
            }
            let reps = tas.repetitions(spec.period_us())?;
            if assignment.slots().len() != reps {
                return Err(SchedError::InvalidState(format!(
                    "{flow} has {} repetitions, expected {reps}",
                    assignment.slots().len()
                )));
            }
            let window = tas.window_slots(reps);
            for (r, row) in assignment.slots().iter().enumerate() {
                let (lo, hi) = (r * window, (r + 1) * window);
                let mut prev: Option<usize> = None;
                for (h, (&slot, (u, v))) in row.iter().zip(path.edges()).enumerate() {
                    if slot < lo || slot >= hi {
                        return Err(SchedError::InvalidState(format!(
                            "{flow} rep {r} hop {h} slot {slot} outside window [{lo}, {hi})"
                        )));
                    }
                    if let Some(p) = prev {
                        if slot <= p {
                            return Err(SchedError::InvalidState(format!(
                                "{flow} rep {r} hop {h} slot {slot} not after {p}"
                            )));
                        }
                    }
                    prev = Some(slot);
                    let Some(link) = gc.link_between(u, v) else {
                        return Err(SchedError::InvalidState(format!(
                            "{flow} uses non-candidate edge ({u}, {v})"
                        )));
                    };
                    if !topo.contains_link(link) {
                        return Err(SchedError::InvalidState(format!(
                            "{flow} uses link {link} absent from the topology"
                        )));
                    }
                    if failure.contains_link(link)
                        || failure.contains_switch(u)
                        || failure.contains_switch(v)
                    {
                        return Err(SchedError::InvalidState(format!(
                            "{flow} uses failed component on edge ({u}, {v})"
                        )));
                    }
                    if !table.is_free(u, link, slot) {
                        return Err(SchedError::InvalidState(format!(
                            "{flow} collides on {link} slot {slot}"
                        )));
                    }
                    table.occupy(u, link, slot);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use nptsn_topo::{Asil, ConnectionGraph, NodeId};

    fn line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(s, b, 1.0).unwrap();
        let mut topo = gc.empty_topology();
        topo.add_switch(s, Asil::A).unwrap();
        topo.add_link(a, s).unwrap();
        topo.add_link(s, b).unwrap();
        (topo, a, b, s)
    }

    fn one_flow(a: NodeId, b: NodeId) -> FlowSet {
        FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap()
    }

    #[test]
    fn valid_state_passes() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = one_flow(a, b);
        let mut state = FlowState::unassigned(1);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        assert!(state.validate(&topo, &FailureScenario::none(), &tas, &flows).is_ok());
        assert_eq!(state.assigned_count(), 1);
        assert_eq!(state.assignment(FlowId::from_index(0)).unwrap().latency_slots(), 2);
    }

    #[test]
    fn non_increasing_slots_rejected() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = one_flow(a, b);
        let mut state = FlowState::unassigned(1);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![5, 5]]),
        );
        let err = state.validate(&topo, &FailureScenario::none(), &tas, &flows).unwrap_err();
        assert!(matches!(err, SchedError::InvalidState(_)));
    }

    #[test]
    fn slot_outside_window_rejected() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = one_flow(a, b);
        let mut state = FlowState::unassigned(1);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![18, 20]]),
        );
        assert!(state.validate(&topo, &FailureScenario::none(), &tas, &flows).is_err());
    }

    #[test]
    fn failed_component_rejected() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = one_flow(a, b);
        let mut state = FlowState::unassigned(1);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        let failure = FailureScenario::switches(vec![s]);
        assert!(state.validate(&topo, &failure, &tas, &flows).is_err());
    }

    #[test]
    fn directed_collision_rejected() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
        ])
        .unwrap();
        let mut state = FlowState::unassigned(2);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        state.assign(
            FlowId::from_index(1),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 2]]),
        );
        assert!(state.validate(&topo, &FailureScenario::none(), &tas, &flows).is_err());
    }

    #[test]
    fn opposite_directions_do_not_collide() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(b, a, 500, 128),
        ])
        .unwrap();
        let mut state = FlowState::unassigned(2);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        state.assign(
            FlowId::from_index(1),
            FlowAssignment::new(Path::new(vec![b, s, a]), vec![vec![0, 1]]),
        );
        assert!(state.validate(&topo, &FailureScenario::none(), &tas, &flows).is_ok());
    }

    #[test]
    fn oversized_frame_rejected() {
        let (topo, a, b, s) = line();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 1_000_000)]).unwrap();
        let mut state = FlowState::unassigned(1);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        assert!(matches!(
            state.validate(&topo, &FailureScenario::none(), &tas, &flows),
            Err(SchedError::FrameTooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one slot per hop")]
    fn assignment_shape_checked() {
        let (_, a, b, s) = line();
        let _ = FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0]]);
    }
}
