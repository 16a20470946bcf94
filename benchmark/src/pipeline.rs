//! The paper pipeline on ORION with 40 flows at R = 1e-6: training,
//! re-planning with a trained policy, and cold verification.

use std::sync::Arc;
use std::time::Instant;

use nptsn::{FailureAnalyzer, NetworkBehavior, Planner, PlannerConfig, PlanningProblem, Solution};
use nptsn_format::write_plan;
use nptsn_scenarios::{orion, random_flows, Scenario};
use nptsn_sched::{FlowSet, ShortestPathRecovery};
use nptsn_topo::{Asil, ComponentLibrary, Topology};

use crate::trace::{AnalyzerCounters, LayerInputs, Layers, TracedNbf};
use crate::workload::{digest, millis, repeat_setup, sub_seed, Opts, Outcome, SetupSampler};

const FLOWS: usize = 40;
const RELIABILITY_GOAL: f64 = 1e-6;
/// Set-ups before the measurement; cheap ones repeat during it as well:
/// every epoch, or every `VERIFY_SETUP_EVERY` verifications (a fifth of a
/// second), so the median of many sub-millisecond set-ups is steady.
const SETUP_REPEATS: usize = 3;
const VERIFY_SETUP_EVERY: usize = 16;
/// The flow set orion-train learns on and the re-planning policy is
/// trained on.
const ORION_FLOWS_SEED: u64 = 2023;
/// The re-planning policy is trained in set-up from this fixed seed, so
/// every `--seed` re-plans with the same decision maker.
const POLICY_SEED: u64 = 2023;
const POLICY_EPOCHS: usize = 2;
const POLICY_STEPS: usize = 128;
const REPLAN_SETUP_REPEATS: usize = 3;
/// Distinct flow sets a run cycles through, so one run samples many inputs.
pub const VARIANTS: usize = 16;
/// Episodes per `plan_with_policy` call, and calls before a re-plan fails.
const ATTEMPTS: usize = 4;
const ROUNDS: usize = 4;
/// Single-switch failures of the saturated ORION network: the only
/// non-safe faults when every switch is at ASIL A.
const SATURATED_SCENARIOS: u64 = 15;

/// The planner configuration, spelled out here so that no default outside
/// the benchmark changes what it measures. The remaining fields are the
/// learning hyper-parameters of Table II.
fn planner_config(seed: u64, max_epochs: usize, steps_per_epoch: usize) -> PlannerConfig {
    PlannerConfig {
        gcn_layers: 2,
        embedding_dim: None,
        mlp_hidden: vec![128, 128],
        k_paths: 16,
        max_epochs,
        steps_per_epoch,
        train_pi_iters: 6,
        train_v_iters: 6,
        workers: 2,
        max_episode_steps: 512,
        seed,
        checkpoint_path: None,
        ..PlannerConfig::default_paper()
    }
}

fn problem(scenario: &Scenario, flows: FlowSet, traced: bool) -> PlanningProblem {
    let nbf: Arc<dyn NetworkBehavior> = Arc::new(ShortestPathRecovery::new());
    let nbf: Arc<dyn NetworkBehavior> = if traced {
        Arc::new(TracedNbf(nbf))
    } else {
        nbf
    };
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        ComponentLibrary::automotive(),
        scenario.tas,
        flows,
        RELIABILITY_GOAL,
        nbf,
    )
    .expect("ORION inputs are consistent")
}

/// Starts the measured phase: tracing on for a traced run, analyzer
/// counters read.
fn begin(opts: &Opts) -> AnalyzerCounters {
    nptsn_obs::set_enabled(opts.traced);
    AnalyzerCounters::now()
}

/// Ends the measured phase; a traced run gets its layer inputs.
fn end(opts: &Opts, start: AnalyzerCounters, layers: Layers, ops: usize) -> Option<LayerInputs> {
    nptsn_obs::set_enabled(false);
    opts.traced.then(|| LayerInputs {
        layers,
        ops,
        analyzer: AnalyzerCounters::now().since(start),
        ..LayerInputs::default()
    })
}

/// Re-verifies a plan under a fresh, uncached analyzer.
fn check_reliable(
    problem: &PlanningProblem,
    plan: &Solution,
    what: &str,
    errors: &mut Vec<String>,
) {
    match FailureAnalyzer::new().try_analyze(problem, &plan.topology) {
        Ok(report) if report.verdict.is_reliable() => {}
        Ok(report) => errors.push(format!("{what} does not re-verify: {:?}", report.verdict)),
        Err(e) => errors.push(format!("{what} does not re-verify: {e}")),
    }
}

fn train_setup(opts: &Opts) -> (PlanningProblem, Planner) {
    let scenario = orion();
    let flows = random_flows(&scenario.graph, FLOWS, ORION_FLOWS_SEED);
    let problem = problem(&scenario, flows, opts.traced);
    (
        problem.clone(),
        Planner::new(problem, planner_config(opts.seed, opts.ops, 256)),
    )
}

/// `Planner::run` on ORION: one operation is one training epoch. The seed
/// drives the learner; the flows are fixed, because epoch time follows the
/// flow set's NBF work and would otherwise vary by a tenth between seeds.
pub fn orion_train(opts: &Opts) -> Outcome {
    let ((problem, planner), setup_s) = repeat_setup(SETUP_REPEATS, || train_setup(opts));
    let mut setup = SetupSampler::new(setup_s, 1);

    let counters = begin(opts);
    let mut op_ms = Vec::new();
    let mut failed = 0;
    let mut cost = f64::NAN;
    let mut trajectory = Vec::with_capacity(opts.ops);
    let start = Instant::now();
    let mut last = start;
    let report = {
        let _root = nptsn_obs::span("bench.train");
        planner.run_with_progress(|stats| {
            op_ms.push(millis(last.elapsed()));
            if stats.poisoned_workers > 0 || stats.ppo_rollbacks > 0 {
                failed += 1;
            }
            trajectory.push(format!("{stats:?}"));
            cost = stats.best_cost.unwrap_or(f64::NAN);
            setup.tick(op_ms.len(), || train_setup(opts));
            last = Instant::now();
        })
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    if opts.traced {
        layers.absorb(&nptsn_obs::drain());
    }
    let layers = end(opts, counters, layers, op_ms.len());

    let mut errors = Vec::new();
    match &report.best {
        Some(best) => check_reliable(&problem, best, "the best training plan", &mut errors),
        None => errors.push("training found no reliable plan".to_string()),
    }
    Outcome {
        setup_s: setup.times,
        op_ms,
        wall_s,
        plan_cost: cost,
        failed,
        errors,
        digest: digest(trajectory.iter().map(String::as_str)),
        layers,
    }
}

/// One re-plan request: rounds of `ATTEMPTS` greedy episodes until one
/// yields a reliable plan. Returns the plan and whether it took more than
/// one round.
fn replan(planner: &Planner, policy: &nptsn::PolicyNetwork, seed: u64) -> (Option<Solution>, bool) {
    for round in 0..ROUNDS {
        let seed = seed.wrapping_add((round * ATTEMPTS) as u64);
        if let Some(plan) = planner.plan_with_policy(policy, ATTEMPTS, seed) {
            return (Some(plan), round > 0);
        }
    }
    (None, true)
}

/// `plan_with_policy` with a trained policy on ORION variants: one
/// operation is one re-plan request.
pub fn orion_replan(opts: &Opts) -> Outcome {
    let (setup, setup_s) = repeat_setup(REPLAN_SETUP_REPEATS, || {
        let scenario = orion();
        let trainer = Planner::new(
            problem(
                &scenario,
                random_flows(&scenario.graph, FLOWS, ORION_FLOWS_SEED),
                false,
            ),
            planner_config(POLICY_SEED, POLICY_EPOCHS, POLICY_STEPS),
        );
        let report = trainer.run();
        let policy = trainer.build_policy();
        nptsn_nn::params_from_bytes(
            &nptsn_nn::Module::parameters(&policy),
            &report.policy_checkpoint,
        )
        .expect("a fresh checkpoint restores into its own architecture");
        let variants: Vec<(PlanningProblem, Planner)> = (0..VARIANTS as u64)
            .map(|i| {
                let flows = random_flows(&scenario.graph, FLOWS, sub_seed(opts.seed, i));
                let problem = problem(&scenario, flows, opts.traced);
                (
                    problem.clone(),
                    Planner::new(problem, planner_config(opts.seed, 1, 256)),
                )
            })
            .collect();
        (policy, variants)
    });
    let (policy, variants) = setup;

    let counters = begin(opts);
    let mut layers = Layers::default();
    let mut op_ms = Vec::new();
    let mut firsts = Vec::with_capacity(VARIANTS);
    let (mut failed, mut retries) = (0, 0);
    let start = Instant::now();
    for i in 0..opts.ops {
        let (_, planner) = &variants[i % VARIANTS];
        let begun = Instant::now();
        let (plan, retried) = {
            let _root = nptsn_obs::span("bench.replan");
            replan(planner, &policy, sub_seed(opts.seed, (VARIANTS + i) as u64))
        };
        op_ms.push(millis(begun.elapsed()));
        if opts.traced {
            layers.absorb(&nptsn_obs::drain());
        }
        retries += usize::from(retried);
        failed += usize::from(plan.is_none());
        if i < VARIANTS {
            firsts.push(plan);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut layers = end(opts, counters, layers, op_ms.len());
    if let Some(layers) = &mut layers {
        layers.replan_retries = retries;
    }

    let mut errors = Vec::new();
    let mut costs = Vec::new();
    let mut plans = Vec::new();
    for (i, plan) in firsts.iter().enumerate() {
        match plan {
            Some(plan) => {
                check_reliable(&variants[i].0, plan, &format!("re-plan {i}"), &mut errors);
                costs.push(plan.cost);
                plans.push(write_plan(&plan.topology));
            }
            None => errors.push(format!("re-plan {i} found no reliable plan")),
        }
    }
    Outcome {
        setup_s,
        op_ms,
        wall_s,
        plan_cost: costs.iter().sum::<f64>() / costs.len().max(1) as f64,
        failed,
        errors,
        digest: digest(plans.iter().map(String::as_str)),
        layers,
    }
}

/// Every switch at ASIL A and every candidate link the degree bounds
/// admit: a network that survives every non-safe fault, so the analyzer
/// enumerates all of them.
fn saturated(scenario: &Scenario) -> Topology {
    let graph = &scenario.graph;
    let mut topology = graph.empty_topology();
    for &switch in graph.switches() {
        topology
            .add_switch(switch, Asil::A)
            .expect("ORION switches are selectable");
    }
    let links: Vec<_> = graph.links().collect();
    for link in links {
        let (u, v) = graph.link_endpoints(link);
        // A link past a degree bound is refused; the rest saturate.
        let _ = topology.add_link(u, v);
    }
    topology
}

fn verify_setup(opts: &Opts) -> (Topology, Vec<PlanningProblem>) {
    let scenario = orion();
    let problems = (0..VARIANTS as u64)
        .map(|i| {
            let flows = random_flows(&scenario.graph, FLOWS, sub_seed(opts.seed, i));
            problem(&scenario, flows, opts.traced)
        })
        .collect();
    (saturated(&scenario), problems)
}

/// Cold `FailureAnalyzer::try_analyze` of the saturated ORION network: one
/// operation is one full verification, as `nptsn verify` runs it.
pub fn orion_verify(opts: &Opts) -> Outcome {
    let ((topology, problems), setup_s) = repeat_setup(SETUP_REPEATS, || verify_setup(opts));
    let mut setup = SetupSampler::new(setup_s, VERIFY_SETUP_EVERY);

    let counters = begin(opts);
    let mut layers = Layers::default();
    let mut op_ms = Vec::with_capacity(opts.ops);
    let mut failed = 0;
    let mut wrong = Vec::new();
    let start = Instant::now();
    for i in 0..opts.ops {
        setup.tick(i, || verify_setup(opts));
        let begun = Instant::now();
        let report = {
            let _root = nptsn_obs::span("bench.verify");
            FailureAnalyzer::new().try_analyze(&problems[i % VARIANTS], &topology)
        };
        op_ms.push(millis(begun.elapsed()));
        if opts.traced {
            layers.absorb(&nptsn_obs::drain());
        }
        match report {
            Ok(r) if r.verdict.is_reliable() && r.scenarios_checked == SATURATED_SCENARIOS => {}
            Ok(r) => wrong.push(format!(
                "verify {i}: {:?} after {} scenarios, expected reliable after {SATURATED_SCENARIOS}",
                r.verdict, r.scenarios_checked
            )),
            Err(e) => {
                failed += 1;
                wrong.push(format!("verify {i}: {e}"));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let layers = end(opts, counters, layers, op_ms.len());

    let mut errors: Vec<String> = wrong.iter().take(3).cloned().collect();
    if wrong.len() > 3 {
        errors.push(format!("… and {} more wrong verdicts", wrong.len() - 3));
    }
    Outcome {
        setup_s: setup.times,
        op_ms,
        wall_s,
        plan_cost: topology.network_cost(problems[0].library()),
        failed,
        errors,
        digest: digest([write_plan(&topology).as_str()]),
        layers,
    }
}
