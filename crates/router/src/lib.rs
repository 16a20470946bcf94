//! nptsn-router: a consistent-hash sharded front tier for the NPTSN serve
//! fleet, with elastic membership and dead-shard replay.
//!
//! One router process fronts N independent `nptsn-serve` shards. It owns
//! job-id assignment, places every job on a shard via a consistent-hash
//! [`ring::Ring`] with virtual nodes, and fans requests out over the
//! retrying [`nptsn_serve::Client`]. A health thread probes each shard's
//! `GET /readyz`; after K consecutive failures a shard is declared dead,
//! its ring range is rebalanced to the survivors, and its durable segment
//! log is replayed onto them through the same validation gate as HTTP
//! submission — so a job acked with a durable `202` is never lost, even
//! to `kill -9` of the shard that held it.
//!
//! Membership is elastic, not a one-way trap door: a dead shard that
//! comes back (same process restarted on its `--data-dir`, or
//! re-announced at a new address via `POST /admin/shards`) passes a
//! re-admission handshake, re-enters the ring at a bumped generation and
//! receives a catch-up transfer of the records it missed; a brand-new
//! shard can join a running fleet the same way, with a background
//! migration drain moving its ≤1/N of existing records over. Replay,
//! catch-up and migration are one transfer ([`replay`]): a shard log
//! shipped from an export cursor, each record placed against the current
//! ring, through one ingest retry loop. While any transfer runs, a routed
//! `404` answers `503 Retry-After`. With
//! [`server::RouterConfig::replication_factor`] 2, every accepted
//! submission is mirrored to its ring successor as a passive replica, so
//! a death promotes local records instantly instead of pausing for the
//! dead-log replay.
//!
//! Everything is `std`-only, like the rest of the workspace: no async
//! runtime, no external crates — threads, atomics and blocking sockets.
//!
//! # Example
//!
//! ```no_run
//! use nptsn_router::{Router, RouterConfig, ShardSpec};
//!
//! let config = RouterConfig {
//!     shards: vec![
//!         ShardSpec {
//!             name: "s0".to_string(),
//!             addr: "127.0.0.1:7101".parse().unwrap(),
//!             data_dir: Some("data/s0".into()),
//!         },
//!         ShardSpec {
//!             name: "s1".to_string(),
//!             addr: "127.0.0.1:7102".parse().unwrap(),
//!             data_dir: Some("data/s1".into()),
//!         },
//!     ],
//!     ..RouterConfig::default()
//! };
//! let router = Router::bind(config).expect("bind");
//! println!("routing on {}", router.local_addr());
//! router.wait(); // until POST /shutdown
//! ```

#![warn(missing_docs)]

pub mod replay;
pub mod ring;
pub mod server;

pub use replay::ReplayReport;
pub use ring::Ring;
pub use server::{trace_for_job, Router, RouterConfig, RouterMetrics, ShardSpec, ShardState};
