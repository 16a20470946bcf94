//! Time-Aware-Shaper (TAS) scheduling and stateless recovery for TSSDN.
//!
//! This crate implements the flow and scheduling model of Section II of the
//! NPTSN paper (DSN 2023):
//!
//! * [`TasConfig`] — the global TAS schedule: a base period `B` divided into
//!   uniform time slots on every directed link (IEEE 802.1Qbv).
//! * [`FlowSpec`] / [`FlowSet`] — the specification `FS` of the periodic
//!   time-triggered (TT) flows: source, destination, period, frame size.
//! * [`FlowState`] — the flow state `FI`: per-flow paths and the time slots
//!   reserved on each hop. A [`FlowAssignment`] shares its path behind an
//!   `Arc` and keeps its slots in one flat buffer;
//!   [`schedule_flow_on_path`] reserves them on the links the path
//!   carries.
//! * [`ScheduleTable`] — per-directed-link slot occupancy used while
//!   constructing schedules.
//! * [`NetworkBehavior`] — the stateless Network Behavior Function (NBF)
//!   `Φ : (Gt, Gf, B, FS) → (FI', ER)` abstraction, with four built-in
//!   recovery mechanisms: [`ShortestPathRecovery`] (the heuristic of \[9\],
//!   made stateless), [`LoadBalancedRecovery`], [`RedundantRecovery`]
//!   (flow-level redundancy, Section V) and [`Stateless`] over the stateful
//!   [`IncrementalRecovery`] (the adapter of Section II-B). A
//!   [`RecoverySession`] binds an NBF to one topology and recovers many of
//!   its failures, each as `recover` would.
//! * [`simulate`] — the frame-level TAS simulator, the crate's one
//!   executable check of a flow state ("obtained via network simulation",
//!   Section II-B).
//!
//! # Examples
//!
//! ```
//! use nptsn_sched::{FlowSet, FlowSpec, NetworkBehavior, ShortestPathRecovery, TasConfig};
//! use nptsn_topo::{Asil, ConnectionGraph, FailureScenario};
//!
//! let mut gc = ConnectionGraph::new();
//! let a = gc.add_end_station("a");
//! let b = gc.add_end_station("b");
//! let s = gc.add_switch("s");
//! gc.add_candidate_link(a, s, 1.0).unwrap();
//! gc.add_candidate_link(s, b, 1.0).unwrap();
//! let mut topo = gc.empty_topology();
//! topo.add_switch(s, nptsn_topo::Asil::A).unwrap();
//! topo.add_link(a, s).unwrap();
//! topo.add_link(s, b).unwrap();
//!
//! let tas = TasConfig::default(); // 500 us / 20 slots
//! let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
//! let nbf = ShortestPathRecovery::new();
//! let outcome = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
//! assert!(outcome.errors.is_empty());
//! ```

#![warn(missing_docs)]

mod error;
mod flow;
mod nbf;
mod redundant;
mod schedule;
mod sim;
mod stateful;
mod state;
mod table;
mod tas;

pub use error::SchedError;
pub use flow::{ErrorReport, FlowId, FlowSet, FlowSpec};
pub use nbf::{
    LoadBalancedRecovery, NetworkBehavior, RecoveryOutcome, RecoverySession, ShortestPathRecovery,
};
pub use redundant::RedundantRecovery;
pub use sim::{simulate, FrameRecord, SimulationReport};
pub use stateful::{IncrementalRecovery, Stateless, StatefulBehavior};
pub use schedule::schedule_flow_on_path;
pub use state::{FlowAssignment, FlowState};
pub use table::ScheduleTable;
pub use tas::TasConfig;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SchedError>;
