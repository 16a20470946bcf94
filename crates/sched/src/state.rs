//! Flow states `FI`: per-flow paths with reserved time slots.

use nptsn_topo::Path;

use crate::flow::FlowId;

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

    /// Stations a and b and a switch s.
    fn nodes() -> (NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        (gc.add_end_station("a"), gc.add_end_station("b"), gc.add_switch("s"))
    }

    #[test]
    fn assigned_flows_are_counted_and_timed() {
        let (a, b, s) = nodes();
        let mut state = FlowState::unassigned(2);
        state.assign(
            FlowId::from_index(0),
            FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0, 1]]),
        );
        assert_eq!(state.len(), 2);
        assert_eq!(state.assigned_count(), 1);
        assert_eq!(state.assignment(FlowId::from_index(0)).unwrap().latency_slots(), 2);
        assert!(state.assignment(FlowId::from_index(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "one slot per hop")]
    fn assignment_shape_checked() {
        let (a, b, s) = nodes();
        let _ = FlowAssignment::new(Path::new(vec![a, s, b]), vec![vec![0]]);
    }
}
