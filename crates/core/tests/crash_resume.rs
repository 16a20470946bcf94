//! Crash-resume: a training run killed at a (seeded) random epoch boundary
//! restores from its periodic atomic checkpoint and continues.

use std::sync::Arc;

use nptsn::{Planner, PlannerConfig, PlanningProblem};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_rl::ActorCritic;
use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
use nptsn_topo::{ComponentLibrary, ConnectionGraph};

fn theta_problem() -> PlanningProblem {
    let mut gc = ConnectionGraph::new();
    let a = gc.add_end_station("a");
    let b = gc.add_end_station("b");
    let s0 = gc.add_switch("s0");
    let s1 = gc.add_switch("s1");
    for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
        gc.add_candidate_link(u, v, 1.0).unwrap();
    }
    let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
    PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        TasConfig::default(),
        flows,
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

#[test]
fn killed_run_resumes_from_the_atomic_checkpoint() {
    let path = std::env::temp_dir()
        .join(format!("nptsn-crash-resume-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Pick the kill epoch from a seeded stream: any boundary must work.
    let mut rng = StdRng::seed_from_u64(2024);
    let cfg = PlannerConfig {
        checkpoint_path: Some(path.clone()),
        ..PlannerConfig::smoke_test()
    };
    let kill_after: usize = rng.gen_range(1..cfg.max_epochs);

    // "Kill" the run at the chosen epoch boundary: run_until stopping is
    // observationally identical to a crash right after the periodic save.
    let planner = Planner::new(theta_problem(), cfg.clone());
    let partial = planner.run_until(|s| s.epoch + 1 < kill_after);
    assert_eq!(partial.epochs.len(), kill_after);

    // The atomic checkpoint on disk is byte-identical to the report's.
    let saved = std::fs::read(&path).expect("periodic checkpoint exists");
    assert_eq!(saved, partial.policy_checkpoint, "disk and in-memory checkpoints agree");

    // The restored policy behaves identically to the saved one.
    let from_disk = planner.build_policy();
    nptsn_nn::params_from_bytes(
        &nptsn_nn::Module::parameters(&from_disk),
        &nptsn_nn::read_checkpoint(&path).expect("checkpoint reads"),
    )
    .expect("checkpoint restores");
    let from_report = planner.build_policy();
    nptsn_nn::params_from_bytes(
        &nptsn_nn::Module::parameters(&from_report),
        &partial.policy_checkpoint,
    )
    .expect("report checkpoint restores");
    let mut obs_rng = StdRng::seed_from_u64(0);
    let env = nptsn::PlanningEnv::new(theta_problem(), 4, 1e3, 64, &mut obs_rng);
    let mask = env.mask().to_vec();
    let (la, va) = from_disk.evaluate(env.observation(), &mask);
    let (lb, vb) = from_report.evaluate(env.observation(), &mask);
    assert_eq!(la.to_vec(), lb.to_vec());
    assert_eq!(va.item(), vb.item());

    // Resume from the saved bytes: training continues and the resume is
    // visible in telemetry.
    let before = nptsn_obs::telemetry().snapshot();
    let resumed = planner
        .run_until_resumed(&saved, |_| false)
        .expect("resume from a valid checkpoint");
    assert_eq!(resumed.epochs.len(), 1, "resumed run trains further epochs");
    let after = nptsn_obs::telemetry().snapshot();
    assert!(after.recovery_checkpoint_resumes > before.recovery_checkpoint_resumes);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_corrupt_or_foreign_checkpoints() {
    let planner = Planner::new(theta_problem(), PlannerConfig::smoke_test());
    // Corrupt: a truncated checkpoint must be refused, not half-loaded.
    let report = planner.run_until(|_| false);
    let mut torn = report.policy_checkpoint.clone();
    torn.truncate(torn.len() / 2);
    let err = planner.run_until_resumed(&torn, |_| true).unwrap_err();
    assert!(err.contains("resume checkpoint"), "unexpected error: {err}");
    // Foreign bytes are refused the same way.
    assert!(planner.run_until_resumed(b"not a checkpoint", |_| true).is_err());
}
