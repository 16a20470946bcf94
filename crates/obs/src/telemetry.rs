//! The process-wide telemetry registry.
//!
//! Planner and analyzer counters used to be incremented ad hoc inside the
//! serving layer's job executor; now the code that *does* the work reports
//! it — `nptsn::Planner` bumps the epoch/solution counters, the failure
//! analyzer bumps the scenario/cache counters — and every front end (CLI,
//! `/metrics`, benchmarks) reads the same [`Telemetry`] instance. Series
//! names are unchanged from the original `nptsn-serve` registry.

use std::sync::{Arc, OnceLock};

use crate::metrics::{Counter, Registry};

/// The shared process-wide counters, with pre-registered handles for the
/// hot-path series so recording is a relaxed atomic add.
#[derive(Debug)]
pub struct Telemetry {
    /// The backing registry; render it for `/metrics`-style exposition.
    pub registry: Registry,
    /// Training epochs completed (`nptsn_planner_epochs_total`).
    pub planner_epochs: Arc<Counter>,
    /// Verified solutions found (`nptsn_planner_solutions_total`).
    pub planner_solutions: Arc<Counter>,
    /// Rollout workers lost to panics (`nptsn_planner_poisoned_workers_total`).
    pub planner_poisoned_workers: Arc<Counter>,
    /// Failure scenarios checked (`nptsn_analyzer_scenarios_checked_total`).
    pub analyzer_scenarios_checked: Arc<Counter>,
    /// Scenario cache hits (`nptsn_analyzer_cache_hits_total`).
    pub analyzer_cache_hits: Arc<Counter>,
    /// Scenario cache misses (`nptsn_analyzer_cache_misses_total`).
    pub analyzer_cache_misses: Arc<Counter>,
    /// Analyses cut short by the budget (`nptsn_analyzer_budget_exhausted_total`).
    pub analyzer_budget_exhausted: Arc<Counter>,
    /// Faults injected by an armed chaos plan (`nptsn_chaos_faults_total`);
    /// per-site breakdown lives in `nptsn_chaos_faults_injected_total{site=...}`.
    pub chaos_faults: Arc<Counter>,
    /// PPO epochs rolled back to the last good parameter snapshot after a
    /// non-finite loss or gradient (`nptsn_recovery_ppo_rollbacks_total`).
    pub recovery_ppo_rollbacks: Arc<Counter>,
    /// Jobs killed at their wall-clock deadline
    /// (`nptsn_recovery_deadline_kills_total`).
    pub recovery_deadline_kills: Arc<Counter>,
    /// Training runs resumed from a crash checkpoint
    /// (`nptsn_recovery_checkpoint_resumes_total`).
    pub recovery_checkpoint_resumes: Arc<Counter>,
    /// Client requests retried with backoff
    /// (`nptsn_recovery_client_retries_total`).
    pub recovery_client_retries: Arc<Counter>,
    /// Jobs the router forwarded to a shard
    /// (`nptsn_router_forwards_total`).
    pub router_forwards: Arc<Counter>,
    /// Shards the router declared dead and removed from its ring
    /// (`nptsn_router_failovers_total`).
    pub router_failovers: Arc<Counter>,
    /// Job records replayed from a dead shard's log onto a survivor
    /// (`nptsn_router_replayed_jobs_total`).
    pub router_replayed_jobs: Arc<Counter>,
    /// Replay ingest requests that needed a retry
    /// (`nptsn_router_replay_retries_total`).
    pub router_replay_retries: Arc<Counter>,
    /// Dead shards re-admitted to the ring after a restart
    /// (`nptsn_router_rejoins_total`).
    pub router_rejoins: Arc<Counter>,
    /// Job records transferred to a rejoining or newly joined shard
    /// (`nptsn_router_migrated_jobs_total`).
    pub router_migrated_jobs: Arc<Counter>,
    /// Passive replica records promoted to active jobs on a failover
    /// (`nptsn_router_replica_promotions_total`).
    pub router_replica_promotions: Arc<Counter>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let registry = Registry::new();
        let planner_epochs =
            registry.counter("nptsn_planner_epochs_total", "Training epochs completed");
        let planner_solutions =
            registry.counter("nptsn_planner_solutions_total", "Verified solutions found");
        let planner_poisoned_workers = registry.counter(
            "nptsn_planner_poisoned_workers_total",
            "Rollout workers lost to panics",
        );
        let analyzer_scenarios_checked =
            registry.counter("nptsn_analyzer_scenarios_checked_total", "Failure scenarios checked");
        let analyzer_cache_hits =
            registry.counter("nptsn_analyzer_cache_hits_total", "Scenario cache hits");
        let analyzer_cache_misses =
            registry.counter("nptsn_analyzer_cache_misses_total", "Scenario cache misses");
        let analyzer_budget_exhausted = registry.counter(
            "nptsn_analyzer_budget_exhausted_total",
            "Analyses stopped early by the scenario budget",
        );
        let chaos_faults =
            registry.counter("nptsn_chaos_faults_total", "Faults injected by an armed chaos plan");
        let recovery_ppo_rollbacks = registry.counter(
            "nptsn_recovery_ppo_rollbacks_total",
            "PPO epochs rolled back after a non-finite loss or gradient",
        );
        let recovery_deadline_kills = registry.counter(
            "nptsn_recovery_deadline_kills_total",
            "Jobs killed at their wall-clock deadline",
        );
        let recovery_checkpoint_resumes = registry.counter(
            "nptsn_recovery_checkpoint_resumes_total",
            "Training runs resumed from a crash checkpoint",
        );
        let recovery_client_retries = registry.counter(
            "nptsn_recovery_client_retries_total",
            "Client requests retried with backoff",
        );
        let router_forwards =
            registry.counter("nptsn_router_forwards_total", "Jobs forwarded to a shard");
        let router_failovers = registry.counter(
            "nptsn_router_failovers_total",
            "Shards declared dead and removed from the ring",
        );
        let router_replayed_jobs = registry.counter(
            "nptsn_router_replayed_jobs_total",
            "Job records replayed from a dead shard onto a survivor",
        );
        let router_replay_retries = registry.counter(
            "nptsn_router_replay_retries_total",
            "Replay ingest requests that needed a retry",
        );
        let router_rejoins = registry.counter(
            "nptsn_router_rejoins_total",
            "Dead shards re-admitted to the ring after a restart",
        );
        let router_migrated_jobs = registry.counter(
            "nptsn_router_migrated_jobs_total",
            "Job records transferred to a rejoining or newly joined shard",
        );
        let router_replica_promotions = registry.counter(
            "nptsn_router_replica_promotions_total",
            "Passive replica records promoted to active jobs on a failover",
        );
        Telemetry {
            registry,
            planner_epochs,
            planner_solutions,
            planner_poisoned_workers,
            analyzer_scenarios_checked,
            analyzer_cache_hits,
            analyzer_cache_misses,
            analyzer_budget_exhausted,
            chaos_faults,
            recovery_ppo_rollbacks,
            recovery_deadline_kills,
            recovery_checkpoint_resumes,
            recovery_client_retries,
            router_forwards,
            router_failovers,
            router_replayed_jobs,
            router_replay_retries,
            router_rejoins,
            router_migrated_jobs,
            router_replica_promotions,
        }
    }

    /// A point-in-time copy of every counter, for delta reporting.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            planner_epochs: self.planner_epochs.get(),
            planner_solutions: self.planner_solutions.get(),
            planner_poisoned_workers: self.planner_poisoned_workers.get(),
            analyzer_scenarios_checked: self.analyzer_scenarios_checked.get(),
            analyzer_cache_hits: self.analyzer_cache_hits.get(),
            analyzer_cache_misses: self.analyzer_cache_misses.get(),
            analyzer_budget_exhausted: self.analyzer_budget_exhausted.get(),
            chaos_faults: self.chaos_faults.get(),
            recovery_ppo_rollbacks: self.recovery_ppo_rollbacks.get(),
            recovery_deadline_kills: self.recovery_deadline_kills.get(),
            recovery_checkpoint_resumes: self.recovery_checkpoint_resumes.get(),
            recovery_client_retries: self.recovery_client_retries.get(),
            router_forwards: self.router_forwards.get(),
            router_failovers: self.router_failovers.get(),
            router_replayed_jobs: self.router_replayed_jobs.get(),
            router_replay_retries: self.router_replay_retries.get(),
            router_rejoins: self.router_rejoins.get(),
            router_migrated_jobs: self.router_migrated_jobs.get(),
            router_replica_promotions: self.router_replica_promotions.get(),
        }
    }
}

/// Counter values captured by [`Telemetry::snapshot`]. Subtract two
/// snapshots to attribute activity to one command or epoch even when other
/// threads in the process are also reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// `nptsn_planner_epochs_total` at snapshot time.
    pub planner_epochs: u64,
    /// `nptsn_planner_solutions_total` at snapshot time.
    pub planner_solutions: u64,
    /// `nptsn_planner_poisoned_workers_total` at snapshot time.
    pub planner_poisoned_workers: u64,
    /// `nptsn_analyzer_scenarios_checked_total` at snapshot time.
    pub analyzer_scenarios_checked: u64,
    /// `nptsn_analyzer_cache_hits_total` at snapshot time.
    pub analyzer_cache_hits: u64,
    /// `nptsn_analyzer_cache_misses_total` at snapshot time.
    pub analyzer_cache_misses: u64,
    /// `nptsn_analyzer_budget_exhausted_total` at snapshot time.
    pub analyzer_budget_exhausted: u64,
    /// `nptsn_chaos_faults_total` at snapshot time.
    pub chaos_faults: u64,
    /// `nptsn_recovery_ppo_rollbacks_total` at snapshot time.
    pub recovery_ppo_rollbacks: u64,
    /// `nptsn_recovery_deadline_kills_total` at snapshot time.
    pub recovery_deadline_kills: u64,
    /// `nptsn_recovery_checkpoint_resumes_total` at snapshot time.
    pub recovery_checkpoint_resumes: u64,
    /// `nptsn_recovery_client_retries_total` at snapshot time.
    pub recovery_client_retries: u64,
    /// `nptsn_router_forwards_total` at snapshot time.
    pub router_forwards: u64,
    /// `nptsn_router_failovers_total` at snapshot time.
    pub router_failovers: u64,
    /// `nptsn_router_replayed_jobs_total` at snapshot time.
    pub router_replayed_jobs: u64,
    /// `nptsn_router_replay_retries_total` at snapshot time.
    pub router_replay_retries: u64,
    /// `nptsn_router_rejoins_total` at snapshot time.
    pub router_rejoins: u64,
    /// `nptsn_router_migrated_jobs_total` at snapshot time.
    pub router_migrated_jobs: u64,
    /// `nptsn_router_replica_promotions_total` at snapshot time.
    pub router_replica_promotions: u64,
}

/// The process-wide [`Telemetry`] instance (created on first use).
pub fn telemetry() -> &'static Telemetry {
    static INSTANCE: OnceLock<Telemetry> = OnceLock::new();
    INSTANCE.get_or_init(Telemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_telemetry_registers_every_series() {
        let t = telemetry();
        let text = t.registry.render();
        for name in [
            "nptsn_planner_epochs_total",
            "nptsn_planner_solutions_total",
            "nptsn_planner_poisoned_workers_total",
            "nptsn_analyzer_scenarios_checked_total",
            "nptsn_analyzer_cache_hits_total",
            "nptsn_analyzer_cache_misses_total",
            "nptsn_analyzer_budget_exhausted_total",
            "nptsn_chaos_faults_total",
            "nptsn_recovery_ppo_rollbacks_total",
            "nptsn_recovery_deadline_kills_total",
            "nptsn_recovery_checkpoint_resumes_total",
            "nptsn_recovery_client_retries_total",
            "nptsn_router_forwards_total",
            "nptsn_router_failovers_total",
            "nptsn_router_replayed_jobs_total",
            "nptsn_router_replay_retries_total",
            "nptsn_router_rejoins_total",
            "nptsn_router_migrated_jobs_total",
            "nptsn_router_replica_promotions_total",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "{name} missing HELP: {text}");
            assert!(text.contains(&format!("# TYPE {name} counter")), "{name} missing TYPE");
            assert!(text.contains(&format!("\n{name} ")), "{name} missing sample");
        }
    }

    #[test]
    fn snapshots_support_delta_accounting() {
        let t = telemetry();
        let before = t.snapshot();
        t.analyzer_scenarios_checked.add(5);
        t.planner_epochs.inc();
        let after = t.snapshot();
        assert!(after.analyzer_scenarios_checked >= before.analyzer_scenarios_checked + 5);
        assert!(after.planner_epochs > before.planner_epochs);
    }
}
