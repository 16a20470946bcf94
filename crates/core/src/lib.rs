//! NPTSN: RL-based network planning with guaranteed reliability for
//! in-vehicle TSSDN — a reproduction of the DSN 2023 paper by Kong, Nabi
//! and Goossens.
//!
//! Given a graph of possible connections, a component library, the TT flow
//! specifications and a reliability goal `R`, the planner outputs a
//! topology plus a per-switch ASIL allocation such that the run-time
//! recovery mechanism (an arbitrary stateless [`NetworkBehavior`]) can
//! re-establish every flow for every failure scenario of probability ≥ `R`,
//! at minimized network cost.
//!
//! The crate implements the full NPTSN architecture (Fig. 2):
//!
//! * [`FailureAnalyzer`] — the failure-injection check of Algorithm 3 with
//!   the switch-only reduction (Eq. 6) and bitset superset memoization
//!   ([`SupersetMemo`]), verdict-preserving. Planning analyzes through
//!   an episode's [`RecoveryMemo`] of NBF outcomes, keyed by the links
//!   present and those alive under each scenario; `nptsn verify` and the
//!   serve verify job attach a fresh NBF-outcome cache ([`ScenarioCache`])
//!   instead.
//! * [`Soag`] — the Survival-Oriented Action Generator of Algorithm 1:
//!   a dynamic action space of switch upgrades and K shortest-path
//!   additions targeting the last non-recoverable failure, with validity
//!   masks.
//! * [`Observation`] / [`encode_observation`] — the GCN encoding of
//!   Section IV-C (adjacency + switch/link/flow/action feature matrices).
//! * [`PolicyNetwork`] — GCN + actor/critic MLPs (Fig. 3).
//! * [`PlanningEnv`] — the RL environment semantics of Algorithm 2's inner
//!   loop (reward = scaled cost decrease, dead-end penalty, resets).
//! * [`Planner`] — the parallel actor-critic training loop (Algorithm 2)
//!   returning the best solution found plus per-epoch diagnostics.
//! * [`GreedyPlanner`] — an ablation that uses the SOAG actions with a
//!   greedy cost rule instead of the learned policy.
//!
//! # Examples
//!
//! ```
//! use nptsn::{Planner, PlannerConfig, PlanningProblem};
//! use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
//! use nptsn_topo::{ComponentLibrary, ConnectionGraph};
//! use std::sync::Arc;
//!
//! // Two end stations, two optional switches, full candidate mesh.
//! let mut gc = ConnectionGraph::new();
//! let a = gc.add_end_station("a");
//! let b = gc.add_end_station("b");
//! let s0 = gc.add_switch("s0");
//! let s1 = gc.add_switch("s1");
//! for (u, v) in [(a, s0), (a, s1), (b, s0), (b, s1), (s0, s1)] {
//!     gc.add_candidate_link(u, v, 1.0).unwrap();
//! }
//! let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
//! let problem = PlanningProblem::new(
//!     Arc::new(gc),
//!     ComponentLibrary::automotive(),
//!     TasConfig::default(),
//!     flows,
//!     1e-6,
//!     Arc::new(ShortestPathRecovery::new()),
//! ).unwrap();
//!
//! let config = PlannerConfig::smoke_test();
//! let report = Planner::new(problem, config).run();
//! let best = report.best.expect("a valid plan exists");
//! assert!(best.cost > 0.0);
//! ```

#![warn(missing_docs)]

mod analyzer;
mod config;
mod encode;
mod env;
mod error;
mod greedy;
mod infer;
mod model;
mod path_memo;
mod planner;
mod problem;
mod recovery_memo;
mod scenario_cache;
mod soag;
mod solution;

pub use analyzer::{AnalysisBudget, AnalysisReport, FailureAnalyzer, NodeScope, Verdict};
pub use config::PlannerConfig;
pub use encode::{encode_graph, encode_observation, Observation};
pub use env::{PlanningEnv, StepOutcome};
pub use error::NptsnError;
pub use greedy::{verify_topology, GreedyPlanner};
pub use infer::{plan_with_policy_batch, InferLane};
pub use model::PolicyNetwork;
pub use path_memo::{PathMemoStats, PATH_MEMO_CAPACITY};
pub use planner::{EpochStats, Planner, PlannerReport};
pub use problem::{check_schedule_table, PlanningProblem, MAX_SCHEDULE_CELLS};
pub use recovery_memo::RecoveryMemo;
pub use scenario_cache::{ScenarioBits, ScenarioCache, SupersetMemo};
pub use soag::{Action, ActionSet, Soag};
pub use solution::{asil_label, Solution};

// Re-export the recovery trait so downstream code can plug in mechanisms
// without depending on nptsn-sched directly, and the checkpoint file I/O
// so a front end can persist and resume a policy without nptsn-nn.
pub use nptsn_nn::{read_checkpoint, write_checkpoint};
pub use nptsn_sched::NetworkBehavior;
