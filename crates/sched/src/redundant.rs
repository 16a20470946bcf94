//! Flow-level-redundancy recovery (the Section V extension).
//!
//! Some recovery mechanisms (e.g. \[7\] in the paper) maintain *seamless*
//! FRER redundancy at run time: every flow keeps several replicated
//! instances on disjoint paths, and recovery re-establishes the replicas
//! after a failure. Under such a mechanism the NBF "reports error messages
//! when all redundant flow instances fail" (Section V) — a flow survives
//! as long as at least one instance can be restored.
//!
//! Pairing this NBF with the failure analyzer's `AllNodes` scope in the
//! `nptsn` crate (checking end stations too) is the paper's recipe for
//! planning networks with flow-level redundancy.

use std::sync::Arc;

use nptsn_topo::{node_disjoint_paths, FailureScenario, Topology};

use crate::flow::{ErrorReport, FlowSet};
use crate::nbf::{NetworkBehavior, RecoveryOutcome};
use crate::schedule::schedule_flow_on_path;
use crate::state::FlowState;
use crate::table::ScheduleTable;
use crate::tas::TasConfig;

/// Stateless recovery with flow-level redundancy: each flow is restored on
/// up to `replicas` mutually node-disjoint residual paths; the flow fails
/// only when *no* instance can be established.
///
/// The returned [`FlowState`] carries the primary (first scheduled)
/// instance per flow; the number of live instances is reflected in the
/// slot occupancy, not the state.
///
/// # Examples
///
/// ```
/// use nptsn_sched::{FlowSet, FlowSpec, NetworkBehavior, RedundantRecovery, TasConfig};
/// use nptsn_topo::{Asil, ConnectionGraph, FailureScenario};
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
/// topo.add_switch(s0, Asil::A).unwrap();
/// topo.add_switch(s1, Asil::A).unwrap();
/// for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
///     topo.add_link(u, v).unwrap();
/// }
///
/// let nbf = RedundantRecovery::new(2);
/// let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
/// // Even with one switch down, one instance survives: recovery succeeds.
/// let failure = FailureScenario::switches(vec![s0]);
/// assert!(nbf.recover(&topo, &failure, &TasConfig::default(), &flows).is_success());
/// ```
#[derive(Debug, Clone)]
pub struct RedundantRecovery {
    replicas: usize,
}

impl RedundantRecovery {
    /// Recovery maintaining up to `replicas` instances per flow (at
    /// least 1).
    pub fn new(replicas: usize) -> RedundantRecovery {
        RedundantRecovery { replicas: replicas.max(1) }
    }

    /// The configured replica count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }
}

impl NetworkBehavior for RedundantRecovery {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        let gc = topology.connection_graph();
        let adj = topology.residual_adjacency(failure);
        let mut table = ScheduleTable::new(gc, tas);
        let mut state = FlowState::unassigned(flows.len());
        let mut errors = ErrorReport::empty();
        for (flow, spec) in flows.iter() {
            // Find as many disjoint instances as the residual network
            // offers, up to the replica target.
            let mut instances = Vec::new();
            for want in (1..=self.replicas).rev() {
                if let Some(paths) =
                    node_disjoint_paths(&adj, spec.source(), spec.destination(), want)
                {
                    instances = paths;
                    break;
                }
            }
            let mut established = 0;
            for path in instances {
                if let Ok(Some(assignment)) =
                    schedule_flow_on_path(&mut table, tas, spec, &Arc::new(path))
                {
                    if established == 0 {
                        state.assign(flow, assignment);
                    }
                    established += 1;
                }
            }
            if established == 0 {
                errors.record(spec.source(), spec.destination());
            }
        }
        RecoveryOutcome { state, errors }
    }

    fn name(&self) -> &str {
        "redundant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use nptsn_topo::{Asil, ConnectionGraph, NodeId};

    fn theta() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let mut topo = gc.empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            topo.add_link(u, v).unwrap();
        }
        (topo, a, b, s0, s1)
    }

    #[test]
    fn establishes_replicas_nominally() {
        let (topo, a, b, ..) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = RedundantRecovery::new(2);
        assert_eq!(nbf.replicas(), 2);
        let out = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        assert!(out.is_success());
        // Both instances occupy slots: 2 paths x 2 hops = 4 directed
        // occupations across the network.
        crate::sim::simulate(&topo, &FailureScenario::none(), &tas, &flows, &out.state).unwrap();
    }

    #[test]
    fn survives_with_a_single_remaining_instance() {
        let (topo, a, b, s0, _) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = RedundantRecovery::new(2);
        let out = nbf.recover(&topo, &FailureScenario::switches(vec![s0]), &tas, &flows);
        assert!(out.is_success(), "one instance should survive");
    }

    #[test]
    fn fails_only_when_all_instances_fail() {
        let (topo, a, b, s0, s1) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = RedundantRecovery::new(2);
        let out = nbf.recover(&topo, &FailureScenario::switches(vec![s0, s1]), &tas, &flows);
        assert!(!out.is_success());
        assert_eq!(out.errors.pairs(), &[(a, b)]);
    }

    #[test]
    fn replica_count_one_matches_single_path_recovery() {
        let (topo, a, b, ..) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = RedundantRecovery::new(1);
        let out = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        assert!(out.is_success());
    }

    #[test]
    fn is_deterministic() {
        let (topo, a, b, s0, _) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(b, a, 500, 128),
        ])
        .unwrap();
        let nbf = RedundantRecovery::new(2);
        let f = FailureScenario::switches(vec![s0]);
        assert_eq!(nbf.recover(&topo, &f, &tas, &flows), {
            nbf.recover(&topo, &f, &tas, &flows)
        });
    }
}
