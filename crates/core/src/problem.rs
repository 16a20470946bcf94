//! The network planning problem instance.

use std::fmt;
use std::sync::Arc;

use nptsn_sched::{FlowSet, NetworkBehavior, TasConfig};
use nptsn_topo::{ComponentLibrary, ConnectionGraph};

use crate::path_memo::{PathMemo, PathMemoStats};

/// The most schedule-table cells a problem may need: 2 directions × the
/// candidate links of `Gc` × the TAS slots. Every NBF call allocates a
/// table of one bit per cell, each directed link's row rounded up to
/// whole 64-bit words: 128 KiB of bits at the cap, plus at most one
/// padding word per directed link. The cap bounds that allocation and
/// the time to clear and scan it, which every call repeats. At ORION's
/// 200 candidate links it admits up to 2 621 slots per base period; the
/// paper uses 20.
pub const MAX_SCHEDULE_CELLS: u64 = 1 << 20;

/// Checks that a schedule table for `gc` under `tas` stays within
/// [`MAX_SCHEDULE_CELLS`]: the check [`PlanningProblem::new`] makes where
/// the graph and the TAS first meet.
///
/// # Errors
///
/// Returns a message with the cell count, links and slots when the table
/// would be larger.
pub fn check_schedule_table(gc: &ConnectionGraph, tas: &TasConfig) -> Result<(), String> {
    let (links, slots) = (gc.candidate_link_count() as u64, tas.slots() as u64);
    match links.checked_mul(2).and_then(|rows| rows.checked_mul(slots)) {
        Some(cells) if cells <= MAX_SCHEDULE_CELLS => Ok(()),
        cells => Err(format!(
            "{links} candidate links x {slots} slots need {} schedule-table cells, \
             more than the {MAX_SCHEDULE_CELLS} allowed",
            cells.map_or_else(|| "over 2^64".to_string(), |c| c.to_string())
        )),
    }
}

/// A complete TSSDN network planning problem (Section II-C): the graph of
/// possible connections `Gc`, the component library, the TAS base period
/// `B`, the flow specifications `FS`, the reliability goal `R` and the
/// stateless NBF `Φ` of the selected recovery mechanism.
///
/// Cloning is cheap; the graph and NBF are shared through [`Arc`], which
/// also makes problems `Send + Sync` for the parallel rollout workers.
/// Clones also share the SOAG's path memo (see [`path_memo_stats`]).
///
/// [`path_memo_stats`]: PlanningProblem::path_memo_stats
#[derive(Clone)]
pub struct PlanningProblem {
    gc: Arc<ConnectionGraph>,
    library: ComponentLibrary,
    tas: TasConfig,
    flows: FlowSet,
    reliability_goal: f64,
    nbf: Arc<dyn NetworkBehavior>,
    paths: Arc<PathMemo>,
}

impl PlanningProblem {
    /// Assembles a planning problem.
    ///
    /// # Errors
    ///
    /// Returns a message when the inputs are inconsistent: a flow endpoint
    /// that is not an end station of `gc`, a non-positive reliability goal,
    /// a candidate graph whose degree bound exceeds the largest switch
    /// in the library (no feasible switch would exist, Section II-C), or a
    /// schedule table over [`MAX_SCHEDULE_CELLS`] (see
    /// [`check_schedule_table`]).
    pub fn new(
        gc: Arc<ConnectionGraph>,
        library: ComponentLibrary,
        tas: TasConfig,
        flows: FlowSet,
        reliability_goal: f64,
        nbf: Arc<dyn NetworkBehavior>,
    ) -> Result<PlanningProblem, String> {
        if !(reliability_goal > 0.0 && reliability_goal < 1.0) {
            return Err(format!(
                "reliability goal must be in (0, 1), got {reliability_goal}"
            ));
        }
        if gc.max_switch_degree() > library.max_switch_degree() {
            return Err(format!(
                "graph allows switch degree {} but the largest library switch has {} ports",
                gc.max_switch_degree(),
                library.max_switch_degree()
            ));
        }
        for (id, spec) in flows.iter() {
            for node in [spec.source(), spec.destination()] {
                if node.index() >= gc.node_count() || !gc.is_end_station(node) {
                    return Err(format!("flow {id} endpoint {node} is not an end station"));
                }
            }
        }
        check_schedule_table(&gc, &tas)?;
        Ok(PlanningProblem {
            gc,
            library,
            tas,
            flows,
            reliability_goal,
            nbf,
            paths: Arc::default(),
        })
    }

    /// The graph of possible connections `Gc`.
    pub fn connection_graph(&self) -> &ConnectionGraph {
        &self.gc
    }

    /// Shared handle to the connection graph.
    pub fn connection_graph_arc(&self) -> Arc<ConnectionGraph> {
        Arc::clone(&self.gc)
    }

    /// The component library.
    pub fn library(&self) -> &ComponentLibrary {
        &self.library
    }

    /// The TAS configuration (base period and slots).
    pub fn tas(&self) -> &TasConfig {
        &self.tas
    }

    /// The TT flow specifications `FS`.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The reliability goal `R`: the maximum probability of safe faults.
    /// Any failure scenario with probability ≥ `R` must be survivable.
    pub fn reliability_goal(&self) -> f64 {
        self.reliability_goal
    }

    /// The recovery mechanism's stateless NBF.
    pub fn nbf(&self) -> &dyn NetworkBehavior {
        self.nbf.as_ref()
    }

    /// Shared handle to the NBF.
    pub fn nbf_arc(&self) -> Arc<dyn NetworkBehavior> {
        Arc::clone(&self.nbf)
    }

    /// The counters of the SOAG's path memo: the K-shortest-path lists
    /// this problem and every clone of it computed, keyed by the graph Yen
    /// searches (the selected switches that did not fail, the failed end
    /// stations and the failed links), K and the endpoint pair. At most
    /// [`PATH_MEMO_CAPACITY`](crate::PATH_MEMO_CAPACITY) lists are kept.
    pub fn path_memo_stats(&self) -> PathMemoStats {
        self.paths.stats()
    }

    pub(crate) fn path_memo(&self) -> &PathMemo {
        &self.paths
    }

    /// The `(node_count, feature_count, action_count)` dimensions of a
    /// policy network for this problem with `k_paths` path actions: what
    /// [`Planner::network_dims`](crate::Planner::network_dims) gives a
    /// planner, without building one.
    pub fn network_dims(&self, k_paths: usize) -> (usize, usize, usize) {
        let n = self.gc.node_count();
        (
            n,
            1 + n + self.gc.end_stations().len() + k_paths,
            self.gc.switches().len() + k_paths,
        )
    }
}

// `Debug` by hand because `dyn NetworkBehavior` is not `Debug`; shows the
// NBF's name instead.
impl fmt::Debug for PlanningProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanningProblem")
            .field("nodes", &self.gc.node_count())
            .field("candidate_links", &self.gc.candidate_link_count())
            .field("flows", &self.flows.len())
            .field("reliability_goal", &self.reliability_goal)
            .field("nbf", &self.nbf.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_sched::{FlowSpec, ShortestPathRecovery};

    fn base() -> (Arc<ConnectionGraph>, FlowSet) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 1.0).unwrap();
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        (Arc::new(gc), flows)
    }

    #[test]
    fn valid_problem_builds() {
        let (gc, flows) = base();
        let p = PlanningProblem::new(
            gc,
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        assert_eq!(p.flows().len(), 1);
        assert_eq!(p.reliability_goal(), 1e-6);
        assert_eq!(p.nbf().name(), "shortest-path");
        assert!(format!("{p:?}").contains("shortest-path"));
    }

    #[test]
    fn schedule_tables_over_the_cell_cap_are_rejected() {
        let (gc, flows) = base();
        let build = |slots: usize| {
            PlanningProblem::new(
                Arc::clone(&gc),
                ComponentLibrary::automotive(),
                TasConfig::new(slots as u64, slots, 1000),
                flows.clone(),
                1e-6,
                Arc::new(ShortestPathRecovery::new()),
            )
        };
        // 2 candidate links: 4 directed rows of `slots` cells each.
        let widest = (MAX_SCHEDULE_CELLS / 4) as usize;
        assert!(build(widest).is_ok());
        let err = build(widest + 1).unwrap_err();
        assert!(err.contains("2 candidate links") && err.contains("schedule-table"), "{err}");
    }

    #[test]
    fn bad_reliability_goal_rejected() {
        let (gc, flows) = base();
        for r in [0.0, -1.0, 1.0, 2.0] {
            assert!(PlanningProblem::new(
                Arc::clone(&gc),
                ComponentLibrary::automotive(),
                TasConfig::default(),
                flows.clone(),
                r,
                Arc::new(ShortestPathRecovery::new()),
            )
            .is_err());
        }
    }

    #[test]
    fn flow_endpoint_must_be_end_station() {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        // Flow targeting the switch: invalid.
        let flows = FlowSet::new(vec![FlowSpec::new(a, s, 500, 128)]).unwrap();
        assert!(PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .is_err());
    }

    #[test]
    fn degree_bound_must_fit_library() {
        let (gc, flows) = base();
        let mut gc2 = (*gc).clone();
        gc2.set_max_switch_degree(12); // larger than any Table I switch
        assert!(PlanningProblem::new(
            Arc::new(gc2),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .is_err());
    }
}
