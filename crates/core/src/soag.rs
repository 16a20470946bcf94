//! The Survival-Oriented Action Generator (Algorithm 1, Section IV-B).
//!
//! Its K shortest paths come from the problem's path memo, keyed by the
//! graph Yen searches (see `path_memo.rs`): a selected set under a switch
//! failure and the same set without that switch share one list.

use nptsn_sched::ErrorReport;
use nptsn_topo::{k_shortest_paths, ConnectionGraph, FailureScenario, NodeId, Path, Topology};
use nptsn_rand::Rng;

use crate::path_memo::PathKey;
use crate::problem::PlanningProblem;

/// One coarse-grained construction action.
///
/// NPTSN constructs the TSSDN monotonically: switch degradation and link
/// removal are deliberately absent (Section IV-B).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Add the switch with ASIL A if unselected, otherwise raise its ASIL
    /// by one level.
    UpgradeSwitch(NodeId),
    /// Add every missing link of the path.
    AddPath(Path),
    /// A padding slot (fewer than K candidate paths were found); always
    /// masked out.
    Unavailable,
}

/// The dynamic action space of one step: `|V^c_sw|` switch-upgrade actions
/// followed by `K` path-addition slots, plus the validity mask.
///
/// The RL agent only ever selects actions whose mask bit is `true`
/// (invalid actions are pruned before sampling, which is the point of the
/// SOAG: feasible solutions become likely under stochastic exploration).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSet {
    actions: Vec<Action>,
    mask: Vec<bool>,
}

impl ActionSet {
    /// An empty placeholder set (no slots); used only while an environment
    /// initializes, never produced by the SOAG.
    pub(crate) fn placeholder() -> ActionSet {
        ActionSet { actions: Vec::new(), mask: Vec::new() }
    }

    /// The actions, switch upgrades first, then the K path slots.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The validity mask, aligned with [`actions`](ActionSet::actions).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Total number of action slots (`|V^c_sw| + K`).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the set has zero slots (never true for SOAG output).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Whether every action is masked out — the dead-end condition of
    /// Algorithm 2 line 14 (reset with penalty).
    pub fn all_masked(&self) -> bool {
        self.mask.iter().all(|&m| !m)
    }

    /// The action at `index`, if valid (mask bit set).
    pub fn valid_action(&self, index: usize) -> Option<&Action> {
        if *self.mask.get(index)? {
            Some(&self.actions[index])
        } else {
            None
        }
    }
}

/// The Survival-Oriented Action Generator.
///
/// Given the failure scenario `Gf` and error message `ER` reported by the
/// failure analyzer, the SOAG proposes actions that can help the TSSDN
/// survive `Gf` (Section IV-B):
///
/// * **Switch upgrade** — one slot per candidate switch: adds it at ASIL A,
///   or raises an existing switch one level; ASIL-D switches are masked.
/// * **Path addition** — `K` slots filled with the K shortest paths
///   between one endpoint pair drawn from `ER`, computed on the candidate
///   graph minus failed nodes, minus unselected switches, minus failed
///   links (Algorithm 1 lines 2–5). Paths violating a degree constraint,
///   and paths whose links are all already present, are masked
///   (lines 6–12). Healthy end stations stay in that graph, so a path may
///   relay through a dual-homed station as an interior node; only failed
///   stations are blocked.
///
/// The path list depends on the graph Yen searches (the selected switches
/// that did not fail, the failed end stations and the failed links), the
/// pair and `K` only, so the problem memoizes it under that graph (see
/// [`PlanningProblem::path_memo_stats`]); the mask is computed against
/// the topology at every call.
#[derive(Debug, Clone)]
pub struct Soag {
    k: usize,
}

impl Soag {
    /// Creates a generator producing `k` path-addition slots (Table II
    /// default: 16).
    pub fn new(k: usize) -> Soag {
        Soag { k }
    }

    /// The number of path slots K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Generates the action space for the current TSSDN given the last
    /// failure analysis outcome (Algorithm 1).
    ///
    /// `rng` selects the endpoint pair from `errors` (line 1); everything
    /// else is deterministic.
    pub fn generate(
        &self,
        problem: &PlanningProblem,
        topology: &Topology,
        failure: &FailureScenario,
        errors: &ErrorReport,
        rng: &mut impl Rng,
    ) -> ActionSet {
        let _span = nptsn_obs::span("soag.generate");
        let gc = problem.connection_graph();
        let mut actions = Vec::with_capacity(gc.switches().len() + self.k);
        let mut mask = Vec::with_capacity(gc.switches().len() + self.k);

        // Switch upgrade actions: one per candidate switch.
        for &sw in gc.switches() {
            actions.push(Action::UpgradeSwitch(sw));
            let valid = match topology.switch_asil(sw) {
                None => true,                         // add at ASIL A
                Some(asil) => asil.upgraded().is_some(), // raise one level
            };
            mask.push(valid);
        }

        // Path addition actions for one endpoint pair from ER.
        let drawn = (!errors.is_empty()).then(|| {
            let pair = errors.pairs()[rng.gen_range(0..errors.len())];
            let key = PathKey::new(self.k, gc, topology.selected_switches(), failure, pair);
            problem.path_memo().paths(key, |key| candidate_paths(gc, key))
        });
        let paths: &[Path] = drawn.as_deref().unwrap_or(&[]);
        for i in 0..self.k {
            match paths.get(i) {
                Some(path) => {
                    // Degree feasibility (lines 6-12), plus: the path must
                    // add at least one new link, otherwise the action would
                    // be a no-op and episodes could loop forever.
                    let adds_link = path.links().iter().any(|&link| !topology.contains_link(link));
                    mask.push(adds_link && topology.can_add_path(path));
                    actions.push(Action::AddPath(path.clone()));
                }
                None => {
                    actions.push(Action::Unavailable);
                    mask.push(false);
                }
            }
        }
        ActionSet { actions, mask }
    }
}

/// Algorithm 1 lines 2–5: the K shortest paths between the key's pair on
/// `gc` minus the failed links, the failed nodes and the unselected
/// switches, so that paths only traverse previously added switches that
/// did not fail. Healthy end stations are not blocked: a path may pass
/// through one. A function of `gc` and `key` alone, which is what lets
/// the problem memoize it.
fn candidate_paths(gc: &ConnectionGraph, key: &PathKey) -> Vec<Path> {
    let blocked: Vec<bool> = gc
        .nodes()
        .map(|x| {
            if gc.is_switch(x) {
                key.switches.binary_search(&x).is_err()
            } else {
                key.stations.binary_search(&x).is_ok()
            }
        })
        .collect();
    let mut adj: Vec<Vec<(NodeId, nptsn_topo::LinkId, f64)>> = vec![Vec::new(); gc.node_count()];
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        if key.links.binary_search(&link).is_ok() || blocked[u.index()] || blocked[v.index()] {
            continue;
        }
        let len = gc.link_length(link);
        adj[u.index()].push((v, link, len));
        adj[v.index()].push((u, link, len));
    }
    k_shortest_paths(&adj, key.source, key.target, key.k)
}

/// Applies `action` to `topology` (the `Apply_Action` of Algorithm 2
/// line 8). Returns an error string for invalid applications — the SOAG
/// masks prevent these for RL-selected actions.
pub(crate) fn apply_action(topology: &mut Topology, action: &Action) -> Result<(), String> {
    match action {
        Action::UpgradeSwitch(sw) => {
            if topology.contains_switch(*sw) {
                topology.upgrade_switch(*sw).map(|_| ()).map_err(|e| e.to_string())
            } else {
                topology.add_switch(*sw, nptsn_topo::Asil::A).map_err(|e| e.to_string())
            }
        }
        Action::AddPath(path) => {
            if !topology.can_add_path(path) {
                return Err("path violates a degree constraint".to_string());
            }
            topology.add_path(path).map(|_| ()).map_err(|e| e.to_string())
        }
        Action::Unavailable => Err("padding action selected".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph};
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;
    use std::sync::Arc;

    fn theta() -> (PlanningProblem, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        let problem = PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        (problem, a, b, s0, s1)
    }

    fn er(a: NodeId, b: NodeId) -> ErrorReport {
        let mut e = ErrorReport::empty();
        e.record(a, b);
        e
    }

    #[test]
    fn action_space_layout_is_switches_then_paths() {
        let (problem, a, b, ..) = theta();
        let topo = problem.connection_graph().empty_topology();
        let soag = Soag::new(4);
        assert_eq!(soag.k(), 4);
        let set = soag.generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(set.len(), 2 + 4);
        assert!(matches!(set.actions()[0], Action::UpgradeSwitch(_)));
        assert!(matches!(set.actions()[1], Action::UpgradeSwitch(_)));
    }

    #[test]
    fn empty_topology_offers_switch_additions_only() {
        let (problem, a, b, ..) = theta();
        let topo = problem.connection_graph().empty_topology();
        let set = Soag::new(4).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        // No switches are selected, so no path can traverse anything and
        // no direct ES-ES candidate link exists.
        assert!(set.mask()[0] && set.mask()[1], "switch additions valid");
        assert!(set.mask()[2..].iter().all(|&m| !m), "no path is routable yet");
        assert!(!set.all_masked());
    }

    #[test]
    fn paths_only_traverse_selected_switches() {
        let (problem, a, b, s0, s1) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        let set = Soag::new(8).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        let paths: Vec<&Path> = set
            .actions()
            .iter()
            .filter_map(|ac| match ac {
                Action::AddPath(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(!paths.is_empty());
        for p in paths {
            assert!(!p.contains_node(s1), "unselected switch on path {p:?}");
        }
    }

    #[test]
    fn failed_switch_is_avoided() {
        let (problem, a, b, s0, s1) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        let failure = FailureScenario::switches(vec![s0]);
        let set = Soag::new(8).generate(
            &problem,
            &topo,
            &failure,
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        for ac in set.actions() {
            if let Action::AddPath(p) = ac {
                assert!(!p.contains_node(s0), "path should survive the failure of s0");
            }
        }
    }

    #[test]
    fn asil_d_switch_upgrade_is_masked() {
        let (problem, a, b, s0, _) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::D).unwrap();
        let set = Soag::new(2).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        // s0 is the first switch slot.
        assert!(!set.mask()[0], "ASIL-D upgrade must be masked");
        assert!(set.mask()[1], "the other switch can still be added");
    }

    #[test]
    fn no_op_paths_are_masked() {
        let (problem, a, b, s0, _) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_link(a, s0).unwrap();
        topo.add_link(s0, b).unwrap();
        let set = Soag::new(1).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        // The single shortest path a-s0-b is fully present: masked.
        let path_slot = problem.connection_graph().switches().len();
        assert!(matches!(set.actions()[path_slot], Action::AddPath(_)));
        assert!(!set.mask()[path_slot]);
        assert_eq!(set.valid_action(path_slot), None);
    }

    #[test]
    fn padding_slots_are_unavailable() {
        let (problem, a, b, s0, _) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        // Only two loopless a-b paths exist through s0 alone; ask for 6.
        let set = Soag::new(6).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        let pad = set
            .actions()
            .iter()
            .filter(|a| matches!(a, Action::Unavailable))
            .count();
        assert!(pad >= 5, "expected padding slots, got {pad}");
    }

    #[test]
    fn apply_action_add_then_upgrade() {
        let (problem, a, _, s0, _) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        apply_action(&mut topo, &Action::UpgradeSwitch(s0)).unwrap();
        assert_eq!(topo.switch_asil(s0), Some(Asil::A));
        apply_action(&mut topo, &Action::UpgradeSwitch(s0)).unwrap();
        assert_eq!(topo.switch_asil(s0), Some(Asil::B));
        let gc = problem.connection_graph();
        apply_action(&mut topo, &Action::AddPath(Path::new(gc, vec![a, s0]))).unwrap();
        assert!(topo.contains_link(gc.link_between(a, s0).unwrap()));
        assert!(apply_action(&mut topo, &Action::Unavailable).is_err());
    }

    #[test]
    fn degree_saturation_masks_paths() {
        let (problem, a, b, s0, s1) = theta();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        // Saturate a's degree (max ES degree 2).
        topo.add_link(a, s0).unwrap();
        topo.add_link(a, s1).unwrap();
        let set = Soag::new(8).generate(
            &problem,
            &topo,
            &FailureScenario::none(),
            &er(a, b),
            &mut StdRng::seed_from_u64(0),
        );
        for (i, ac) in set.actions().iter().enumerate() {
            if let Action::AddPath(p) = ac {
                if set.mask()[i] {
                    // Any valid path must reuse a's existing links.
                    assert!(
                        topo.contains_link(p.links()[0]),
                        "valid path must not need a third link at a"
                    );
                }
            }
        }
    }
}
