//! nptsn-serve: a std-only HTTP planning and inference service for NPTSN.
//!
//! The service wraps the planner ([`nptsn::Planner`]), the greedy ablation,
//! the failure analyzer and checkpoint-backed inference behind a small
//! HTTP/1.1 API, with:
//!
//! * a **bounded job queue** and a **worker pool** — a full queue answers
//!   `503` + `Retry-After` (backpressure), and shutdown drains every
//!   accepted job before the process stops;
//! * **live progress**: plan jobs stream per-epoch [`nptsn::EpochStats`]
//!   through `GET /jobs/<id>`, and `DELETE` cancels a run cleanly at the
//!   next epoch boundary;
//! * the workspace **metrics registry** ([`metrics::Registry`], from
//!   `nptsn-obs`) exported in the Prometheus text format at `/metrics`,
//!   merged with the process-wide planner/analyzer telemetry.
//!
//! Everything is built on `std` alone — `std::net::TcpListener`, threads,
//! atomics — in keeping with the workspace's zero-dependency policy. The
//! HTTP layer ([`http`]) is a deliberate subset: `Content-Length` bodies,
//! keep-alive, hard limits on lines/headers/body size, nothing else. The
//! server [`runtime`] on top of it is shared with the `nptsn-router`
//! front tier, so both hops of a routed request run the same loop.
//!
//! # Example
//!
//! ```no_run
//! use nptsn_serve::{Server, ServeConfig};
//!
//! let server = Server::bind(ServeConfig::default()).expect("bind");
//! println!("listening on {}", server.local_addr());
//! server.wait(); // until POST /shutdown
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod persist;
pub mod registry;
pub mod runtime;
pub mod server;

/// The Prometheus-text metrics registry. The implementation moved to
/// `nptsn-obs` so every crate shares one registry type; this re-export
/// keeps `nptsn_serve::metrics::...` paths and series names working.
pub use nptsn_obs::metrics;

pub use client::{BackoffConfig, Client, ClientResponse};
pub use jobs::{
    IngestError, IngestOutcome, JobId, JobQueue, JobSnapshot, JobState, RecoveryReport,
    RetentionConfig,
};
pub use registry::CheckpointRegistry;
pub use server::{ServeConfig, ServeMetrics, Server};
