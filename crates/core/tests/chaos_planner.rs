//! Chaos-driven planner self-healing tests.
//!
//! Separate test binary: an armed [`nptsn_chaos::FaultPlan`] is
//! process-global, and cargo runs test binaries sequentially, so plans
//! armed here cannot leak into the planner unit tests. Within this binary
//! every test runs wholly under `arm_scoped` (with an empty plan until it
//! arms its own), so no test's code runs while a sibling's plan is armed.

use std::sync::Arc;

use nptsn::{Planner, PlannerConfig, PlanningProblem};
use nptsn_chaos::{arm_scoped, FaultKind, FaultPlan, SiteRule};
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
fn injected_nan_update_rolls_back_and_training_survives() {
    // `every=2` fires exactly on the second ppo_update call (epoch 1).
    let _guard = arm_scoped(FaultPlan::new(7).with_rule(SiteRule {
        site: "planner.ppo_update".to_string(),
        kind: FaultKind::Error,
        every: 2,
        rate: 1.0,
        max_count: 1,
    }));
    let before = nptsn_obs::telemetry().snapshot();
    let cfg = PlannerConfig::smoke_test();
    let planner = Planner::new(theta_problem(), cfg.clone());
    let report = planner.run_until(|_| true);

    // The run completes every epoch; exactly the poisoned epoch rolled back.
    assert_eq!(report.epochs.len(), cfg.max_epochs);
    let rollbacks: Vec<usize> = report.epochs.iter().map(|e| e.ppo_rollbacks).collect();
    assert_eq!(rollbacks, vec![0, 1, 0], "only the injected epoch rolls back");
    // The rolled-back epoch reports neutral PPO stats, not NaN.
    assert!(report.epochs[1].policy_loss.is_finite());

    // The final checkpoint restores to an all-finite policy.
    let policy = planner.build_policy();
    nptsn_nn::params_from_bytes(&nptsn_nn::Module::parameters(&policy), &report.policy_checkpoint)
        .expect("checkpoint restores");
    for p in nptsn_nn::Module::parameters(&policy) {
        assert!(p.to_vec().iter().all(|v| v.is_finite()), "non-finite weight survived rollback");
    }

    let after = nptsn_obs::telemetry().snapshot();
    assert!(after.recovery_ppo_rollbacks > before.recovery_ppo_rollbacks);
    assert!(after.chaos_faults > before.chaos_faults);
}

#[test]
fn rollback_recovers_the_pre_update_policy_exactly() {
    let _guard = arm_scoped(FaultPlan::new(0)); // no faults for the clean run

    // A clean one-epoch run pins what the parameters look like before the
    // second epoch's update...
    let cfg = PlannerConfig { max_epochs: 1, ..PlannerConfig::smoke_test() };
    let clean_one = Planner::new(theta_problem(), cfg).run_until(|_| true);

    // ...then a two-epoch run whose second update is poisoned must end on
    // exactly those parameters: the rollback restored the snapshot taken at
    // the top of epoch 1, which is the end of epoch 0.
    nptsn_chaos::arm(FaultPlan::new(3).with_rule(SiteRule {
        site: "planner.ppo_update".to_string(),
        kind: FaultKind::Error,
        every: 2,
        rate: 1.0,
        max_count: 1,
    }));
    let cfg2 = PlannerConfig { max_epochs: 2, ..PlannerConfig::smoke_test() };
    let poisoned_two = Planner::new(theta_problem(), cfg2).run_until(|_| true);
    assert_eq!(poisoned_two.epochs[1].ppo_rollbacks, 1);
    assert_eq!(
        poisoned_two.policy_checkpoint, clean_one.policy_checkpoint,
        "rollback must restore the exact pre-update parameters"
    );
}

#[test]
fn injected_rollout_faults_poison_workers_not_the_run() {
    let _guard = arm_scoped(
        FaultPlan::new(5)
            .with_rule(SiteRule::always("planner.rollout", FaultKind::Panic)),
    );
    let cfg = PlannerConfig { workers: 2, max_epochs: 2, ..PlannerConfig::smoke_test() };
    let report = Planner::new(theta_problem(), cfg.clone()).run_until(|_| true);
    assert_eq!(report.epochs.len(), cfg.max_epochs);
    for epoch in &report.epochs {
        assert_eq!(epoch.poisoned_workers, cfg.workers);
        assert_eq!(epoch.episodes, 0);
    }
    assert!(report.best.is_none());
}
