//! Stateful recovery mechanisms and the stateless adapter (Section II-B).
//!
//! Many published recovery schemes are *stateful*: they compare the
//! current flow state `FI` with the failure and only re-schedule the
//! disrupted flows (`Φs : Gt, Gf, B, FS, FI ↦ FI', ER`). Verifying such a
//! mechanism under multi-point consecutive failures is expensive — an
//! n-point failure requires checking `n!` orderings.
//!
//! The paper's fix is a small modification: instead of using the current
//! `FI` as the reference, compute the new state from the *initial* state
//! `FI_0` (Section II-B). [`Stateless`] implements exactly that adapter:
//! it derives `FI_0` by running the stateful mechanism on the empty
//! failure, then always recovers relative to `FI_0`, yielding a
//! [`NetworkBehavior`] the failure analyzer can use.

use std::sync::Arc;

use nptsn_topo::{dijkstra_shortest_path, FailureScenario, Topology};

use crate::flow::{ErrorReport, FlowSet};
use crate::nbf::{NetworkBehavior, RecoveryOutcome, RecoverySession};
use crate::schedule::schedule_flow_on_path;
use crate::state::FlowState;
use crate::table::ScheduleTable;
use crate::tas::TasConfig;

/// A *stateful* Network Behavior Function
/// `Φs : (Gt, Gf, B, FS, FI) → (FI', ER)`: recovery relative to an
/// explicit pre-failure flow state.
pub trait StatefulBehavior: Send + Sync {
    /// Re-establishes the flows on the residual network, given the flow
    /// state `previous` that was active when the failure hit.
    fn recover_from(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
        previous: &FlowState,
    ) -> RecoveryOutcome;

    /// Short human-readable name.
    fn name(&self) -> &str {
        "stateful-nbf"
    }
}

/// An *incremental* stateful recovery mechanism in the spirit of \[7\]/\[9\]:
/// flows whose path survived the failure keep their existing assignment
/// and time slots; only disrupted flows are re-routed (shortest residual
/// path) and re-scheduled around the kept reservations.
#[derive(Debug, Clone, Default)]
pub struct IncrementalRecovery {
    _private: (),
}

impl IncrementalRecovery {
    /// Creates the incremental recovery mechanism.
    pub fn new() -> IncrementalRecovery {
        IncrementalRecovery::default()
    }
}

impl StatefulBehavior for IncrementalRecovery {
    fn recover_from(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
        previous: &FlowState,
    ) -> RecoveryOutcome {
        let gc = topology.connection_graph();
        let adj = topology.residual_adjacency(failure);
        let mut table = ScheduleTable::new(gc, tas);
        let mut state = FlowState::unassigned(flows.len());
        let mut errors = ErrorReport::empty();

        // Pass 1: keep every undisrupted assignment, re-reserving its
        // slots (cheap, and no re-scheduling for untouched flows).
        let mut disrupted = Vec::new();
        for (flow, spec) in flows.iter() {
            let kept = previous.assignment(flow).filter(|asg| {
                asg.path().edges().all(|(u, v)| topology.live_link(failure, u, v).is_some())
            });
            match kept {
                Some(asg) => {
                    // Re-reserve the kept slots so re-routed flows schedule
                    // around them.
                    let path = asg.path();
                    for row in asg.rows() {
                        for ((&slot, &link), &u) in row.iter().zip(path.links()).zip(path.nodes()) {
                            table.occupy(u, link, slot);
                        }
                    }
                    state.assign(flow, asg.clone());
                }
                None => disrupted.push((flow, *spec)),
            }
        }
        // Pass 2: re-route and re-schedule only the disrupted flows.
        for (flow, spec) in disrupted {
            let path = dijkstra_shortest_path(&adj, spec.source(), spec.destination());
            let mut recovered = false;
            if let Some(p) = path {
                if let Ok(Some(asg)) = schedule_flow_on_path(&mut table, tas, &spec, &Arc::new(p)) {
                    state.assign(flow, asg);
                    recovered = true;
                }
            }
            if !recovered {
                errors.record(spec.source(), spec.destination());
            }
        }
        RecoveryOutcome { state, errors }
    }

    fn name(&self) -> &str {
        "incremental"
    }
}

/// The stateless adapter of Section II-B: wraps a [`StatefulBehavior`] so
/// that every recovery is computed relative to the initial flow state
/// `FI_0 = Φs(Gt, ∅, B, FS, ⊥)` instead of the current one.
///
/// Single-point recovery is unaffected; multi-point consecutive failures
/// may re-configure more flows than a truly incremental controller would,
/// which is the price the paper accepts for tractable verification.
///
/// A [session](NetworkBehavior#sessions) derives `FI_0` once, at its
/// first recovery, and recovers every later failure relative to it;
/// `recover` is a session of one failure.
///
/// # Examples
///
/// ```
/// use nptsn_sched::{
///     FlowSet, FlowSpec, IncrementalRecovery, NetworkBehavior, Stateless, TasConfig,
/// };
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
/// let nbf = Stateless::new(IncrementalRecovery::new());
/// let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
/// let out = nbf.recover(&topo, &FailureScenario::switches(vec![s0]),
///                       &TasConfig::default(), &flows);
/// assert!(out.is_success());
/// ```
#[derive(Debug, Clone)]
pub struct Stateless<S> {
    inner: S,
}

impl<S: StatefulBehavior> Stateless<S> {
    /// Wraps a stateful mechanism.
    pub fn new(inner: S) -> Stateless<S> {
        Stateless { inner }
    }

    /// The wrapped mechanism.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: StatefulBehavior> NetworkBehavior for Stateless<S> {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        StatelessSession::new(&self.inner, topology, tas, flows).recover(failure)
    }

    fn session<'a>(
        &'a self,
        topology: &'a Topology,
        tas: &'a TasConfig,
        flows: &'a FlowSet,
    ) -> Box<dyn RecoverySession + 'a> {
        Box::new(StatelessSession::new(&self.inner, topology, tas, flows))
    }

    fn name(&self) -> &str {
        "stateless-adapter"
    }
}

/// [`Stateless`] bound to one topology: `FI_0` is derived once, at the
/// session's first recovery.
struct StatelessSession<'a, S> {
    inner: &'a S,
    topology: &'a Topology,
    tas: &'a TasConfig,
    flows: &'a FlowSet,
    initial: Option<RecoveryOutcome>,
}

impl<'a, S: StatefulBehavior> StatelessSession<'a, S> {
    fn new(
        inner: &'a S,
        topology: &'a Topology,
        tas: &'a TasConfig,
        flows: &'a FlowSet,
    ) -> StatelessSession<'a, S> {
        StatelessSession { inner, topology, tas, flows, initial: None }
    }
}

impl<S: StatefulBehavior> RecoverySession for StatelessSession<'_, S> {
    fn recover(&mut self, failure: &FailureScenario) -> RecoveryOutcome {
        let StatelessSession { inner, topology, tas, flows, .. } = *self;
        // FI_0: the initial state, derived from nothing.
        let initial = self.initial.get_or_insert_with(|| {
            let empty = FlowState::unassigned(flows.len());
            inner.recover_from(topology, &FailureScenario::none(), tas, flows, &empty)
        });
        if failure.is_empty() {
            return initial.clone();
        }
        // Recover relative to FI_0, never the current state.
        inner.recover_from(topology, failure, tas, flows, &initial.state)
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
    fn incremental_keeps_undisrupted_flows() {
        let (topo, a, b, s0, s1) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128), // will route via s0 (shortest, tie-break)
            FlowSpec::new(b, a, 500, 128),
        ])
        .unwrap();
        let inner = IncrementalRecovery::new();
        let initial = inner.recover_from(
            &topo,
            &FailureScenario::none(),
            &tas,
            &flows,
            &FlowState::unassigned(2),
        );
        assert!(initial.is_success());
        // Fail s1: flows routed via s0 keep their exact assignment.
        let failure = FailureScenario::switches(vec![s1]);
        let out = inner.recover_from(&topo, &failure, &tas, &flows, &initial.state);
        assert!(out.is_success());
        for (flow, _) in flows.iter() {
            let before = initial.state.assignment(flow).unwrap();
            if !before.path().contains_node(s1) {
                assert_eq!(out.state.assignment(flow), Some(before), "{flow} must be kept");
            } else {
                assert!(!out.state.assignment(flow).unwrap().path().contains_node(s1));
            }
        }
        let _ = s0;
    }

    #[test]
    fn adapter_is_stateless() {
        // Same failure, any call history: identical outcome.
        let (topo, a, b, s0, _) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = Stateless::new(IncrementalRecovery::new());
        let f = FailureScenario::switches(vec![s0]);
        let first = nbf.recover(&topo, &f, &tas, &flows);
        // Interleave other recoveries; the adapter must not accumulate
        // state.
        let _ = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        let second = nbf.recover(&topo, &f, &tas, &flows);
        assert_eq!(first.state, second.state);
        assert_eq!(first.errors, second.errors);
    }

    #[test]
    fn adapter_single_point_matches_incremental_from_initial() {
        let (topo, a, b, s0, _) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let inner = IncrementalRecovery::new();
        let adapter = Stateless::new(inner.clone());
        let initial = inner.recover_from(
            &topo,
            &FailureScenario::none(),
            &tas,
            &flows,
            &FlowState::unassigned(1),
        );
        let f = FailureScenario::switches(vec![s0]);
        let direct = inner.recover_from(&topo, &f, &tas, &flows, &initial.state);
        let adapted = adapter.recover(&topo, &f, &tas, &flows);
        assert_eq!(direct.state, adapted.state);
    }

    #[test]
    fn adapter_outcomes_simulate() {
        let (topo, a, b, s0, _) = theta();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(b, a, 250, 128),
        ])
        .unwrap();
        let nbf = Stateless::new(IncrementalRecovery::new());
        for failure in [FailureScenario::none(), FailureScenario::switches(vec![s0])] {
            let out = nbf.recover(&topo, &failure, &tas, &flows);
            assert!(out.is_success());
            crate::sim::simulate(&topo, &failure, &tas, &flows, &out.state).unwrap();
            // Pass 1 keeps no path through the failed switch.
            for (flow, _) in flows.iter() {
                let path = out.state.assignment(flow).unwrap().path();
                assert!(failure.failed_switches().iter().all(|&s| !path.contains_node(s)));
            }
        }
    }

    #[test]
    fn names_distinguish_layers() {
        let nbf = Stateless::new(IncrementalRecovery::new());
        assert_eq!(nbf.name(), "stateless-adapter");
        assert_eq!(nbf.inner().name(), "incremental");
    }
}
