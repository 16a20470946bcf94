//! Static FRER scheduling: every flow simultaneously on disjoint paths.

use nptsn_topo::{node_disjoint_paths, Topology};

use crate::flow::{ErrorReport, FlowSet};
use crate::schedule::schedule_flow_on_path;
use crate::state::FlowState;
use crate::table::ScheduleTable;
use crate::tas::TasConfig;

/// Statically schedules every flow on `replicas` mutually node-disjoint
/// paths at once, as IEEE 802.1CB Frame Replication and Elimination for
/// Reliability (FRER) requires (Section I, and the TRH baseline \[4\]).
///
/// Unlike run-time recovery, FRER transmits every replica permanently, so
/// all replica paths of all flows must be schedulable *simultaneously* —
/// this doubles (for `replicas = 2`) the network load, which is the main
/// reason TRH solutions become unschedulable as flow counts grow
/// (Section VI-A).
///
/// Returns one [`FlowState`] per replica index (state `i` holds every
/// flow's `i`-th replica path) plus the error report listing flows for
/// which disjoint paths were missing or scheduling failed. A flow appears
/// in a state only if *all* its replicas scheduled.
///
/// # Examples
///
/// ```
/// use nptsn_sched::{schedule_frer, FlowSet, FlowSpec, TasConfig};
/// use nptsn_topo::{Asil, ConnectionGraph};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s0 = gc.add_switch("s0");
/// let s1 = gc.add_switch("s1");
/// for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
///     gc.add_candidate_link(u, v, 1.0).unwrap();
/// }
/// let mut topo = gc.empty_topology();
/// topo.add_switch(s0, Asil::B).unwrap();
/// topo.add_switch(s1, Asil::B).unwrap();
/// for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
///     topo.add_link(u, v).unwrap();
/// }
///
/// let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
/// let (states, errors) = schedule_frer(&topo, &TasConfig::default(), &flows, 2);
/// assert!(errors.is_empty());
/// assert_eq!(states.len(), 2);
/// ```
pub fn schedule_frer(
    topology: &Topology,
    tas: &TasConfig,
    flows: &FlowSet,
    replicas: usize,
) -> (Vec<FlowState>, ErrorReport) {
    let gc = topology.connection_graph();
    let adj = topology.adjacency();
    let mut table = ScheduleTable::new(gc, tas);
    let mut states = vec![FlowState::unassigned(flows.len()); replicas];
    let mut errors = ErrorReport::empty();
    for (flow, spec) in flows.iter() {
        let Some(paths) = node_disjoint_paths(&adj, spec.source(), spec.destination(), replicas)
        else {
            errors.record(spec.source(), spec.destination());
            continue;
        };
        // All replicas must schedule; attempt on a scratch copy first so a
        // partially scheduled flow does not pollute the table.
        let mut scratch = table.clone();
        let mut assignments = Vec::with_capacity(replicas);
        let mut ok = true;
        for path in &paths {
            match schedule_flow_on_path(&mut scratch, gc, tas, spec, path) {
                Ok(Some(assignment)) => assignments.push(assignment),
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            table = scratch;
            for (state, assignment) in states.iter_mut().zip(assignments) {
                state.assign(flow, assignment);
            }
        } else {
            errors.record(spec.source(), spec.destination());
        }
    }
    (states, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowSpec};
    use nptsn_topo::{Asil, ConnectionGraph, NodeId};

    fn redundant() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let mut topo = gc.empty_topology();
        topo.add_switch(s0, Asil::B).unwrap();
        topo.add_switch(s1, Asil::B).unwrap();
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            topo.add_link(u, v).unwrap();
        }
        (topo, a, b, s0, s1)
    }

    #[test]
    fn frer_schedules_disjoint_replicas() {
        let (topo, a, b, s0, s1) = redundant();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let (states, errors) = schedule_frer(&topo, &TasConfig::default(), &flows, 2);
        assert!(errors.is_empty());
        let p0 = states[0].assignment(FlowId::from_index(0)).unwrap().path();
        let p1 = states[1].assignment(FlowId::from_index(0)).unwrap().path();
        // Replica paths are node-disjoint apart from the endpoints.
        assert_ne!(p0.contains_node(s0), p1.contains_node(s0));
        assert_ne!(p0.contains_node(s1), p1.contains_node(s1));
    }

    #[test]
    fn missing_disjoint_paths_are_reported() {
        // Single switch: no two node-disjoint paths exist.
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(s, b, 1.0).unwrap();
        let mut topo = gc.empty_topology();
        topo.add_switch(s, Asil::B).unwrap();
        topo.add_link(a, s).unwrap();
        topo.add_link(s, b).unwrap();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let (_, errors) = schedule_frer(&topo, &TasConfig::default(), &flows, 2);
        assert_eq!(errors.pairs(), &[(a, b)]);
    }

    #[test]
    fn frer_doubles_load_and_saturates_earlier() {
        let (topo, a, b, ..) = redundant();
        // 2-slot cycle: each replica path needs slots {0, 1} on its links;
        // the second flow's replicas collide with the first flow's.
        let tas = TasConfig::new(500, 2, 1000);
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
        ])
        .unwrap();
        let (states, errors) = schedule_frer(&topo, &tas, &flows, 2);
        assert_eq!(errors.len(), 1, "second flow cannot replicate: {errors}");
        // The failed flow has no partial assignment in either state.
        let assigned: usize = states.iter().map(FlowState::assigned_count).sum();
        assert_eq!(assigned, 2); // 1 flow x 2 replicas
    }

    #[test]
    fn single_replica_matches_plain_scheduling() {
        let (topo, a, b, ..) = redundant();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let (states, errors) = schedule_frer(&topo, &TasConfig::default(), &flows, 1);
        assert!(errors.is_empty());
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].assigned_count(), 1);
    }
}
