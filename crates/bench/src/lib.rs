//! Shared harness utilities for regenerating the tables and figures of
//! the NPTSN evaluation (Section VI).
//!
//! The binaries in `src/bin/` drive this crate:
//!
//! * `tables` — prints Table I (component library) and Table II (default
//!   RL parameters).
//! * `fig4` — the ORION performance comparison: reliability-guarantee
//!   percentage (4a), best network cost (4b) and switch-ASIL distribution
//!   (4c) for Original / TRH / NeuroPlan / NPTSN.
//! * `fig5` — the ADS sensitivity study: epoch-reward curves for GCN
//!   layers (5a), MLP hidden sizes (5b) and K (5c).
//! * `ablation` — additions beyond the paper: greedy-vs-RL on the SOAG
//!   action space and a reliability-goal sweep activating higher failure
//!   orders.
//!
//! Every run prints CSV-ish rows so curves can be plotted or diffed
//! against EXPERIMENTS.md. Budgets are scaled down from Table II by
//! default and adjustable from the command line.
//!
//! The service and analyzer benches (`micro analyzer_json`, `serve_bench`,
//! `obs_bench`, `chaos_storm`, `store_bench`, `infer_bench`,
//! `router_bench`, `membership_bench`) write `BENCH_*.json` ledgers
//! through [`ledger`].

#![warn(missing_docs)]

pub mod fleet;
pub mod ledger;

pub use ledger::{percentile, smoke, temp_dir, write_ledger};

use std::sync::Arc;

use nptsn::{Planner, PlannerConfig, PlanningProblem, Solution};
use nptsn_baselines::{evaluate_original, NeuroPlanAgent, Trh};
use nptsn_obs::json::{self, Value};
use nptsn_scenarios::Scenario;
use nptsn_sched::{FlowSet, ShortestPathRecovery};
use nptsn_topo::{Asil, ComponentLibrary, Topology};

/// The planning approaches compared in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// The manually designed all-ASIL-D original topology.
    Original,
    /// The TRH FRER synthesis heuristic \[4\].
    Trh,
    /// The adapted NeuroPlan link-level RL agent \[16\].
    NeuroPlan,
    /// NPTSN.
    Nptsn,
}

impl Approach {
    /// All approaches, in the paper's legend order.
    pub const ALL: [Approach; 4] =
        [Approach::Original, Approach::Trh, Approach::NeuroPlan, Approach::Nptsn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Approach::Original => "Original",
            Approach::Trh => "TRH",
            Approach::NeuroPlan => "NeuroPlan",
            Approach::Nptsn => "NPTSN",
        }
    }
}

/// Outcome of one (approach, test case) cell of Fig. 4.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Whether the approach produced a solution with a reliability
    /// guarantee.
    pub reliable: bool,
    /// Cost of the best solution, when reliable.
    pub cost: Option<f64>,
    /// Switch ASIL histogram `[A, B, C, D]` of the best solution.
    pub asil_histogram: [usize; 4],
}

impl CaseResult {
    fn from_solution(solution: Option<Solution>) -> CaseResult {
        match solution {
            Some(s) => CaseResult {
                reliable: true,
                cost: Some(s.cost),
                asil_histogram: s.asil_histogram(),
            },
            None => CaseResult { reliable: false, cost: None, asil_histogram: [0; 4] },
        }
    }
}

/// Builds a planning problem from a scenario and workload with the
/// evaluation defaults (`R = 1e-6`, Table I library, shortest-path
/// recovery NBF).
pub fn problem_for(scenario: &Scenario, flows: FlowSet) -> PlanningProblem {
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        ComponentLibrary::automotive(),
        scenario.tas,
        flows,
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .expect("scenario inputs are consistent")
}

/// The saturated ORION network: every switch at ASIL-A and every
/// candidate link the degree constraints admit, under `flows` random flows.
/// Unlike the paper's tree-like original ORION, where the first injected
/// failure is already a counterexample, it survives every non-safe fault,
/// so Algorithm 3 runs its full enumeration: the analyzer workload of
/// `micro analyzer_json` and `obs_bench`.
pub fn saturated_orion(flows: usize) -> (PlanningProblem, Topology) {
    let scenario = nptsn_scenarios::orion();
    let problem = problem_for(&scenario, nptsn_scenarios::random_flows(&scenario.graph, flows, 0));
    let mut topo = scenario.graph.empty_topology();
    for &sw in scenario.graph.switches() {
        let _ = topo.add_switch(sw, Asil::A);
    }
    let links: Vec<_> = scenario.graph.links().collect();
    for link in links {
        let (u, v) = scenario.graph.link_endpoints(link);
        let _ = topo.add_link(u, v);
    }
    (problem, topo)
}

/// Runs one approach on one test case.
pub fn run_approach(
    approach: Approach,
    scenario: &Scenario,
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> CaseResult {
    match approach {
        Approach::Original => {
            let original = scenario
                .original
                .as_ref()
                .expect("this scenario has no original topology");
            let eval = evaluate_original(problem, original);
            CaseResult::from_solution(eval.solution)
        }
        Approach::Trh => CaseResult::from_solution(Trh::new().plan(problem).solution()),
        Approach::NeuroPlan => {
            // The static action space converges more slowly; NeuroPlan is
            // also single-threaded, so give it the same step budget.
            let report = NeuroPlanAgent::new(problem.clone(), config.clone()).run();
            CaseResult::from_solution(report.best)
        }
        Approach::Nptsn => {
            let report = Planner::new(problem.clone(), config.clone()).run();
            CaseResult::from_solution(report.best)
        }
    }
}

/// Aggregates Fig. 4 cells for one (approach, flow count) series.
#[derive(Debug, Clone, Default)]
pub struct SeriesAggregate {
    /// Test cases run.
    pub cases: usize,
    /// Cases with a reliability guarantee.
    pub reliable: usize,
    /// Sum of best costs over reliable cases.
    cost_sum: f64,
    /// Minimum best cost over reliable cases.
    pub min_cost: Option<f64>,
    /// Component-wise ASIL histogram sum.
    pub asil_histogram: [usize; 4],
}

impl SeriesAggregate {
    /// Folds one case into the aggregate.
    pub fn add(&mut self, result: &CaseResult) {
        self.cases += 1;
        if result.reliable {
            self.reliable += 1;
            let cost = result.cost.expect("reliable cases have costs");
            self.cost_sum += cost;
            self.min_cost = Some(self.min_cost.map_or(cost, |m: f64| m.min(cost)));
            for (h, r) in self.asil_histogram.iter_mut().zip(result.asil_histogram.iter()) {
                *h += r;
            }
        }
    }

    /// Percentage of cases with a reliability guarantee (Fig. 4a).
    pub fn reliable_percent(&self) -> f64 {
        if self.cases == 0 {
            0.0
        } else {
            100.0 * self.reliable as f64 / self.cases as f64
        }
    }

    /// Mean best cost over reliable cases (Fig. 4b plots per-case costs;
    /// the mean summarizes the series).
    pub fn mean_cost(&self) -> Option<f64> {
        (self.reliable > 0).then(|| self.cost_sum / self.reliable as f64)
    }

    /// ASIL distribution percentages `[A, B, C, D]` (Fig. 4c).
    pub fn asil_percent(&self) -> [f64; 4] {
        let total: usize = self.asil_histogram.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, h) in out.iter_mut().zip(self.asil_histogram.iter()) {
            *o = 100.0 * *h as f64 / total as f64;
        }
        out
    }
}

/// The scaled-down training budget used by the figure binaries; override
/// epochs/steps from the command line of each binary.
pub fn bench_config(epochs: usize, steps: usize) -> PlannerConfig {
    PlannerConfig {
        max_epochs: epochs,
        steps_per_epoch: steps,
        mlp_hidden: vec![128, 128],
        train_pi_iters: 6,
        train_v_iters: 6,
        workers: 4,
        ..PlannerConfig::default_paper()
    }
}

/// The integer at top-level `key` of a JSON response body (the service
/// benches read job ids and live-shard counts with it).
///
/// # Panics
///
/// Panics when the body is not JSON or holds no number at `key`.
pub fn json_u64(body: &str, key: &str) -> u64 {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("no {key} in {body}")) as u64
}

/// The cores this process may run on — every committed `BENCH_*.json`
/// records it, so a number is only compared on a matching host.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_scenarios::{ads, orion, random_flows};

    #[test]
    fn aggregate_arithmetic() {
        let mut agg = SeriesAggregate::default();
        agg.add(&CaseResult { reliable: true, cost: Some(100.0), asil_histogram: [2, 0, 0, 0] });
        agg.add(&CaseResult { reliable: false, cost: None, asil_histogram: [0; 4] });
        agg.add(&CaseResult { reliable: true, cost: Some(50.0), asil_histogram: [0, 2, 0, 0] });
        assert_eq!(agg.cases, 3);
        assert!((agg.reliable_percent() - 66.666).abs() < 0.01);
        assert_eq!(agg.mean_cost(), Some(75.0));
        assert_eq!(agg.min_cost, Some(50.0));
        assert_eq!(agg.asil_percent(), [50.0, 50.0, 0.0, 0.0]);
    }

    #[test]
    fn original_and_trh_run_on_orion() {
        let scenario = orion();
        let flows = random_flows(&scenario.graph, 10, 0);
        let problem = problem_for(&scenario, flows);
        let cfg = bench_config(2, 64);
        let original = run_approach(Approach::Original, &scenario, &problem, &cfg);
        assert!(original.reliable);
        assert_eq!(original.asil_histogram, [0, 0, 0, 15]);
        let trh = run_approach(Approach::Trh, &scenario, &problem, &cfg);
        // TRH either protects everything or reports unreliable; both are
        // legitimate at 10 flows.
        if trh.reliable {
            assert!(trh.cost.unwrap() > 0.0);
        }
    }

    #[test]
    fn approach_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            Approach::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn ads_has_no_original() {
        let scenario = ads();
        assert!(scenario.original.is_none());
    }
}
