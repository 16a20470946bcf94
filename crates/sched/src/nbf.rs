//! Stateless Network Behavior Functions (NBF) — the recovery abstraction.

use std::sync::Arc;

use nptsn_topo::{dijkstra_shortest_path, FailureScenario, NodeId, Path, ShortestPaths, Topology};

use crate::flow::{ErrorReport, FlowSet};
use crate::schedule::schedule_flow_on_path;
use crate::state::FlowState;
use crate::table::ScheduleTable;
use crate::tas::TasConfig;

/// The result of running a Network Behavior Function: the new flow state
/// `FI'` and the error message `ER` (Section II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The flow state after recovery.
    pub state: FlowState,
    /// Source/destination pairs whose guarantees could not be
    /// re-established; empty iff recovery succeeded.
    pub errors: ErrorReport,
}

impl RecoveryOutcome {
    /// Whether every flow was recovered.
    pub fn is_success(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A *stateless* Network Behavior Function
/// `Φ : (Gt, Gf, B, FS) → (FI', ER)` (Section II-B).
///
/// Statelessness means the flow state after recovery depends only on the
/// topology and the failure scenario, never on the pre-failure flow state;
/// every failure scenario therefore leads to exactly one flow state, which
/// is what makes multi-point failure verification tractable (no `n!`
/// orderings to check).
///
/// Implementations must be deterministic. NPTSN treats the NBF as a black
/// box obtained from the selected TSSDN controller; this trait is the seam
/// where new recovery mechanisms plug in.
///
/// An outcome depends on the topology only through its links: the links
/// present and those alive under the failure ([`Topology::live_links`],
/// the links of [`Topology::residual_adjacency`]). ASILs, a selected
/// switch without links and a failed node without live links do not
/// change it. The planner's episode memo of NBF outcomes, keyed by those
/// two link sets, relies on it. The direct NBFs of this crate read the
/// topology only through its present links and the links the failure
/// kills; the [`Stateless`](crate::Stateless) adapter over
/// [`IncrementalRecovery`](crate::IncrementalRecovery) first recovers the
/// nominal state on every present link. `tests/nbf_contract.rs` pins
/// them.
///
/// # Sessions
///
/// Algorithm 3 recovers many failures of one topology.
/// [`session`](NetworkBehavior::session) binds the NBF to that topology,
/// TAS and flow set and returns a [`RecoverySession`]. Its outcome for a
/// failure is the one `recover` returns for it, bit for bit, whatever
/// failures the session recovered before and in whatever order. A
/// session may share work between its failures. It holds nothing past
/// its analysis: it borrows the topology and dies with the caller's
/// analysis, so the NBF itself stays stateless. The default session calls
/// `recover` for each failure; `tests/nbf_session.rs` pins the shipped
/// NBFs' sessions to it.
///
/// [`ShortestPathRecovery`]'s session rests on a property of the
/// Dijkstra search it shares with Yen's algorithm, whose ties break by
/// distance, then node index, and whose node predecessor changes only on
/// a strictly shorter distance: deleting nodes or links that are off the
/// path it returns leaves that path the one it returns. So a flow's
/// shortest path on every present link is its shortest path under every
/// failure that kills none of its links.
pub trait NetworkBehavior: Send + Sync {
    /// Re-establishes all flows on the residual network of
    /// `topology - failure`.
    ///
    /// Applied to the empty failure this produces the initial flow state
    /// `FI_0`; its error report `ER_0` captures nominal (un)schedulability.
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome;

    /// A recoverer for many failures of `topology`, each with the outcome
    /// of `recover(topology, failure, tas, flows)` (see
    /// [Sessions](NetworkBehavior#sessions)). The default calls `recover`
    /// for each failure.
    fn session<'a>(
        &'a self,
        topology: &'a Topology,
        tas: &'a TasConfig,
        flows: &'a FlowSet,
    ) -> Box<dyn RecoverySession + 'a> {
        Box::new(PerCall { nbf: self, topology, tas, flows })
    }

    /// A short human-readable name for reports and benches.
    fn name(&self) -> &str {
        "nbf"
    }
}

/// An NBF bound to one topology, TAS and flow set by
/// [`NetworkBehavior::session`].
pub trait RecoverySession {
    /// The outcome the session's NBF returns for the session's topology,
    /// TAS and flows under `failure`.
    fn recover(&mut self, failure: &FailureScenario) -> RecoveryOutcome;
}

/// The default session: every failure through `recover`.
struct PerCall<'a, N: ?Sized> {
    nbf: &'a N,
    topology: &'a Topology,
    tas: &'a TasConfig,
    flows: &'a FlowSet,
}

impl<N: NetworkBehavior + ?Sized> RecoverySession for PerCall<'_, N> {
    fn recover(&mut self, failure: &FailureScenario) -> RecoveryOutcome {
        self.nbf.recover(self.topology, failure, self.tas, self.flows)
    }
}

/// The stateless shortest-path recovery mechanism — our rendition of the
/// heuristic TT-flow recovery of reference \[9\], made stateless by always
/// re-scheduling from scratch against the initial (empty) state.
///
/// Flows are processed in flow-id order. For each flow, up to
/// `path_attempts` shortest residual paths (by cable length, via Yen's
/// algorithm) are tried in order; the first that schedules wins. A path is
/// computed only when the one before it did not schedule, so a flow that
/// fits its shortest path costs one Dijkstra search. Unrecoverable flows
/// are reported in `ER` and the remaining flows still get scheduled —
/// recovery degrades per flow, not wholesale.
///
/// Paths run over every link the failure leaves alive, end stations
/// included: the search bars no healthy end station as an interior node,
/// so a flow may be relayed through a dual-homed station.
///
/// A [session](NetworkBehavior#sessions) builds the adjacency of the
/// present links once, with one path search over it
/// ([`nptsn_topo::ShortestPaths`]). The search is restarted for every
/// flow of every recovery with the failure's dead links excluded, so
/// every search reuses its buffers. From its second recovery on, the
/// session keeps each flow's nominal path, its first path on every
/// present link. A flow whose nominal path the failure spares (none of
/// its links is among the excluded ones) takes it without a search, and
/// every recovery that spares it shares that one path: the assignments
/// hold it, they do not copy it. Every recovery schedules into the
/// session's one table, cleared first, from the links its paths carry.
/// `recover` is a session of one failure, and the mechanism keeps no
/// state from one call or session to the next.
///
/// # Examples
///
/// ```
/// use nptsn_sched::{FlowSet, FlowSpec, NetworkBehavior, ShortestPathRecovery, TasConfig};
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
/// let tas = TasConfig::default();
/// let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
/// let nbf = ShortestPathRecovery::new();
/// // Nominal and single-switch-failure recovery both succeed thanks to
/// // the redundant path.
/// assert!(nbf.recover(&topo, &FailureScenario::none(), &tas, &flows).is_success());
/// let failure = FailureScenario::switches(vec![s0]);
/// assert!(nbf.recover(&topo, &failure, &tas, &flows).is_success());
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPathRecovery {
    path_attempts: usize,
}

impl ShortestPathRecovery {
    /// Recovery trying up to 3 shortest paths per flow.
    pub fn new() -> ShortestPathRecovery {
        ShortestPathRecovery { path_attempts: 3 }
    }

    /// Recovery trying up to `path_attempts` shortest paths per flow
    /// (at least 1).
    pub fn with_path_attempts(path_attempts: usize) -> ShortestPathRecovery {
        ShortestPathRecovery { path_attempts: path_attempts.max(1) }
    }
}

impl Default for ShortestPathRecovery {
    fn default() -> ShortestPathRecovery {
        ShortestPathRecovery::new()
    }
}

impl NetworkBehavior for ShortestPathRecovery {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        ShortestPathSession::new(self, topology, tas, flows).recover(failure)
    }

    fn session<'a>(
        &'a self,
        topology: &'a Topology,
        tas: &'a TasConfig,
        flows: &'a FlowSet,
    ) -> Box<dyn RecoverySession + 'a> {
        Box::new(ShortestPathSession::new(self, topology, tas, flows))
    }

    fn name(&self) -> &str {
        "shortest-path"
    }
}

/// [`ShortestPathRecovery`] bound to one topology.
struct ShortestPathSession<'a> {
    path_attempts: usize,
    topology: &'a Topology,
    tas: &'a TasConfig,
    flows: &'a FlowSet,
    /// Yen's enumeration over the present links.
    paths: ShortestPaths<'static>,
    /// Each flow's first path on every present link, `None` for a flow
    /// without one; found at the second recovery.
    nominal: Option<Vec<Option<Arc<Path>>>>,
    /// The table each recovery schedules into, cleared first.
    table: ScheduleTable,
    /// Whether the session has recovered a failure.
    started: bool,
}

impl<'a> ShortestPathSession<'a> {
    fn new(
        nbf: &ShortestPathRecovery,
        topology: &'a Topology,
        tas: &'a TasConfig,
        flows: &'a FlowSet,
    ) -> ShortestPathSession<'a> {
        ShortestPathSession {
            path_attempts: nbf.path_attempts,
            topology,
            tas,
            flows,
            paths: ShortestPaths::over(topology.adjacency()),
            nominal: None,
            table: ScheduleTable::new(topology.connection_graph(), tas),
            started: false,
        }
    }

    /// Each flow's first path on every present link.
    fn nominal_paths(&mut self) -> Vec<Option<Arc<Path>>> {
        self.paths.exclude_links([]);
        let paths = &mut self.paths;
        self.flows
            .iter()
            .map(|(_, spec)| {
                let (source, destination) = spec.endpoints();
                paths.restart(source, destination);
                paths.next().map(Arc::new)
            })
            .collect()
    }
}

impl RecoverySession for ShortestPathSession<'_> {
    fn recover(&mut self, failure: &FailureScenario) -> RecoveryOutcome {
        if self.started && self.nominal.is_none() {
            self.nominal = Some(self.nominal_paths());
        }
        self.started = true;
        let (topology, tas, flows) = (self.topology, self.tas, self.flows);
        let ShortestPathSession { path_attempts, paths, nominal, table, .. } = self;
        paths.exclude_links(topology.dead_links(failure));
        table.clear();
        let mut state = FlowState::unassigned(flows.len());
        let mut errors = ErrorReport::empty();
        for (flow, spec) in flows.iter() {
            let mut schedule = |path: &Arc<Path>| schedule_flow_on_path(table, tas, spec, path);
            // The failure spares a nominal path when it kills none of its
            // links. Every link of the path is present, and a flow's path
            // has a hop, so a failed node of the path kills one of them.
            let spared = nominal
                .as_ref()
                .and_then(|nominal| nominal[flow.index()].as_ref())
                .filter(|path| !path.links().iter().any(|&link| paths.excludes(link)));
            // A spared nominal path is the flow's first path: it is tried
            // without a search, and skipped if Yen's later paths are needed.
            let scheduled = match spared.map(&mut schedule) {
                Some(Ok(None)) | None => {
                    let (source, destination) = spec.endpoints();
                    paths.restart(source, destination);
                    // The first path that takes the flow; a
                    // specification-level error stops the search.
                    paths
                        .by_ref()
                        .take(*path_attempts)
                        .skip(usize::from(spared.is_some()))
                        .find_map(|path| schedule(&Arc::new(path)).transpose())
                        .transpose()
                }
                Some(scheduled) => scheduled,
            };
            match scheduled {
                Ok(Some(assignment)) => state.assign(flow, assignment),
                // No path took the flow, or a specification-level failure
                // (oversized frame, incompatible period) makes it
                // unrecoverable on any path.
                Ok(None) | Err(_) => errors.record(spec.source(), spec.destination()),
            }
        }
        RecoveryOutcome { state, errors }
    }
}

/// A load-balanced stateless recovery mechanism: routes each flow over the
/// residual path minimizing `length * (1 + occupied/slots)` per link, which
/// spreads flows away from congested links before scheduling.
///
/// Demonstrates that the planner is generic over the NBF — any
/// deterministic stateless mechanism can be plugged in (Section III).
#[derive(Debug, Clone, Default)]
pub struct LoadBalancedRecovery {
    _private: (),
}

impl LoadBalancedRecovery {
    /// Creates the load-balanced recovery mechanism.
    pub fn new() -> LoadBalancedRecovery {
        LoadBalancedRecovery::default()
    }
}

impl NetworkBehavior for LoadBalancedRecovery {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        let gc = topology.connection_graph();
        let base_adj = topology.residual_adjacency(failure);
        let mut table = ScheduleTable::new(gc, tas);
        let mut state = FlowState::unassigned(flows.len());
        let mut errors = ErrorReport::empty();
        let slots = tas.slots() as f64;
        for (flow, spec) in flows.iter() {
            // Re-weight the residual adjacency by current utilization.
            let adj: Vec<Vec<_>> = base_adj
                .iter()
                .enumerate()
                .map(|(u, row)| {
                    row.iter()
                        .map(|&(v, link, len)| {
                            let used = table
                                .used_slots(NodeId::from_dense_index(u), link)
                                .min(tas.slots()) as f64;
                            (v, link, len * (1.0 + used / slots))
                        })
                        .collect()
                })
                .collect();
            let path = dijkstra_shortest_path(&adj, spec.source(), spec.destination());
            let mut recovered = false;
            if let Some(p) = path {
                if let Ok(Some(assignment)) =
                    schedule_flow_on_path(&mut table, tas, spec, &Arc::new(p))
                {
                    state.assign(flow, assignment);
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
        "load-balanced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowSpec};
    use nptsn_topo::{Asil, ConnectionGraph};

    /// a and b connected through two parallel switches.
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
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b)] {
            topo.add_link(u, v).unwrap();
        }
        (topo, a, b, s0, s1)
    }

    #[test]
    fn nominal_recovery_produces_initial_state() {
        let (topo, a, b, ..) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = ShortestPathRecovery::new();
        let out = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        assert!(out.is_success());
        assert_eq!(out.state.assigned_count(), 1);
        crate::sim::simulate(&topo, &FailureScenario::none(), &tas, &flows, &out.state).unwrap();
    }

    #[test]
    fn single_switch_failure_recovered_via_redundant_path() {
        let (topo, a, b, s0, s1) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = ShortestPathRecovery::new();
        for failed in [s0, s1] {
            let failure = FailureScenario::switches(vec![failed]);
            let out = nbf.recover(&topo, &failure, &tas, &flows);
            assert!(out.is_success(), "failure of {failed} should be recoverable");
            crate::sim::simulate(&topo, &failure, &tas, &flows, &out.state).unwrap();
            // The recovered path avoids the failed switch.
            let asg = out.state.assignment(crate::flow::FlowId::from_index(0)).unwrap();
            assert!(!asg.path().contains_node(failed));
        }
    }

    /// Two recoveries of one session that both spare a flow's nominal path
    /// hold that one path: neither copies it.
    #[test]
    fn recoveries_that_spare_a_nominal_path_share_it() {
        let (topo, a, b, s0, s1) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = ShortestPathRecovery::new();
        let mut session = nbf.session(&topo, &tas, &flows);
        let mut path = |failure: FailureScenario| {
            let outcome = session.recover(&failure);
            Arc::clone(outcome.state.assignment(FlowId::from_index(0)).unwrap().path())
        };
        // The session keeps nominal paths from its second recovery on.
        let searched = path(FailureScenario::none());
        let spared = [path(FailureScenario::switches(vec![s1])), path(FailureScenario::none())];
        assert!(Arc::ptr_eq(&spared[0], &spared[1]));
        assert_eq!(spared[0], searched);
        assert!(searched.contains_node(s0));
        assert!(path(FailureScenario::switches(vec![s0])).contains_node(s1));
    }

    #[test]
    fn dual_failure_is_unrecoverable_and_reported() {
        let (topo, a, b, s0, s1) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let nbf = ShortestPathRecovery::new();
        let failure = FailureScenario::switches(vec![s0, s1]);
        let out = nbf.recover(&topo, &failure, &tas, &flows);
        assert!(!out.is_success());
        assert_eq!(out.errors.pairs(), &[(a, b)]);
    }

    #[test]
    fn statelessness_same_failure_same_state() {
        let (topo, a, b, s0, _) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(b, a, 500, 128),
        ])
        .unwrap();
        let nbf = ShortestPathRecovery::new();
        let failure = FailureScenario::switches(vec![s0]);
        let out1 = nbf.recover(&topo, &failure, &tas, &flows);
        let out2 = nbf.recover(&topo, &failure, &tas, &flows);
        assert_eq!(out1.state, out2.state);
        assert_eq!(out1.errors, out2.errors);
    }

    #[test]
    fn partial_recovery_keeps_other_flows() {
        // Flow 1's endpoints get isolated; flow 0 must still be recovered.
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let c = gc.add_end_station("c");
        let d = gc.add_end_station("d");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (b, s0), (c, s1), (d, s1), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let mut topo = gc.empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (b, s0), (c, s1), (d, s1), (s0, s1)] {
            topo.add_link(u, v).unwrap();
        }
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(c, d, 500, 128),
        ])
        .unwrap();
        let nbf = ShortestPathRecovery::new();
        let failure = FailureScenario::switches(vec![s1]);
        let out = nbf.recover(&topo, &failure, &tas, &flows);
        assert_eq!(out.errors.pairs(), &[(c, d)]);
        assert_eq!(out.state.assigned_count(), 1);
    }

    #[test]
    fn multiple_attempts_beat_single_shortest_path() {
        // Two disjoint 2-hop paths with a tiny 2-slot cycle: the first flow
        // saturates the shortest path; the second only fits on the
        // alternative, which requires path_attempts > 1.
        let (topo, a, b, ..) = redundant();
        let tas = TasConfig::new(500, 2, 1000);
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
        ])
        .unwrap();
        let single = ShortestPathRecovery::with_path_attempts(1);
        let multi = ShortestPathRecovery::with_path_attempts(3);
        let out1 = single.recover(&topo, &FailureScenario::none(), &tas, &flows);
        let out3 = multi.recover(&topo, &FailureScenario::none(), &tas, &flows);
        assert!(!out1.is_success());
        assert!(out3.is_success());
    }

    #[test]
    fn load_balanced_recovery_spreads_flows() {
        let (topo, a, b, s0, s1) = redundant();
        let tas = TasConfig::default();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(a, b, 500, 128),
        ])
        .unwrap();
        let nbf = LoadBalancedRecovery::new();
        let out = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        assert!(out.is_success());
        crate::sim::simulate(&topo, &FailureScenario::none(), &tas, &flows, &out.state).unwrap();
        // The two flows take different switches.
        let p0 = out.state.assignment(crate::flow::FlowId::from_index(0)).unwrap().path();
        let p1 = out.state.assignment(crate::flow::FlowId::from_index(1)).unwrap().path();
        assert_ne!(p0.contains_node(s0), p1.contains_node(s0));
        let _ = s1;
    }

    #[test]
    fn nbf_names_are_distinct() {
        assert_ne!(ShortestPathRecovery::new().name(), LoadBalancedRecovery::new().name());
    }
}
