//! Pins the threaded re-plan to the sequential loop it replaced.
//!
//! `Planner::plan_with_policy` runs its greedy attempts on up to
//! `PlannerConfig::threads()` threads, each claiming the next attempt, and
//! folds the plans in attempt order. `reference` below is the former loop:
//! attempt `i` in a fresh `PlanningEnv` seeded `seed + i`, the policy's
//! most probable valid action at every step, and a plan kept only when it
//! is strictly cheaper than the best so far. On the ADS scenario with
//! seeded flow sets and untrained policies, every thread count must return
//! the reference's plan (cost bits and `write_plan` bytes) or `None`. The
//! sweep must include calls where some attempts dead-end and others plan,
//! calls where no attempt plans, and calls whose cheapest plans are
//! several topologies of equal cost, where only the fold order decides
//! which one is returned. A panic in an attempt on a helper thread must
//! reach the caller as a panic, not a hang.

use std::cell::Cell;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nptsn::{Planner, PlannerConfig, PlanningEnv, PlanningProblem, PolicyNetwork, Solution};
use nptsn_format::write_plan;
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_rl::ActorCritic;
use nptsn_scenarios::{ads, random_flows};
use nptsn_sched::{FlowSet, NetworkBehavior, RecoveryOutcome, ShortestPathRecovery, TasConfig};
use nptsn_topo::{ComponentLibrary, FailureScenario, Topology};

const SEED: u64 = 0x7e91_a000;
const CASES: u64 = 8;
const CALLS: usize = 2;
const ATTEMPTS: usize = 9;

/// ADS with 10–39 random flows. Under the stricter goal some
/// constructions dead-end and some flow sets have no plan at all.
fn ads_problem(rng: &mut StdRng, nbf: Arc<dyn NetworkBehavior>) -> PlanningProblem {
    let scenario = ads();
    let flows = random_flows(&scenario.graph, rng.gen_range(10usize..40), rng.next_u64());
    let goal = [1e-6, 1e-9][rng.gen_range(0..2usize)];
    PlanningProblem::new(
        Arc::clone(&scenario.graph),
        ComponentLibrary::automotive(),
        scenario.tas,
        flows,
        goal,
        nbf,
    )
    .unwrap()
}

fn config(workers: usize, seed: u64) -> PlannerConfig {
    PlannerConfig { workers, seed, ..PlannerConfig::smoke_test() }
}

/// What the sequential loop returned, and what its attempts did.
struct Reference {
    best: Option<Solution>,
    /// Attempts that ended without a plan.
    dead_ends: usize,
    /// Distinct topologies among the attempts' plans of the best cost.
    cheapest_topologies: usize,
}

/// The former `plan_with_policy`: attempts one after another on one thread.
fn reference(
    problem: &PlanningProblem,
    config: &PlannerConfig,
    policy: &PolicyNetwork,
    attempts: usize,
    seed: u64,
) -> Reference {
    let mut best: Option<Solution> = None;
    let mut plans = Vec::new();
    for attempt in 0..attempts {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt as u64));
        let mut env = PlanningEnv::new(
            problem.clone(),
            config.k_paths,
            config.reward_scaling,
            config.max_episode_steps,
            &mut rng,
        );
        loop {
            let mask = env.mask().to_vec();
            if mask.iter().all(|&m| !m) {
                break;
            }
            let (logps, _) = policy.evaluate(env.observation(), &mask);
            let (action, _) = nptsn_rl::best_action(&logps.to_vec());
            let outcome = env.step(action, &mut rng);
            if let Some(sol) = outcome.solution {
                plans.push((sol.cost, write_plan(&sol.topology)));
                match &best {
                    Some(b) if b.cost <= sol.cost => {}
                    _ => best = Some(sol),
                }
            }
            if outcome.done {
                break;
            }
        }
    }
    let mut cheapest: Vec<&String> = plans
        .iter()
        .filter(|(cost, _)| best.as_ref().is_some_and(|b| b.cost == *cost))
        .map(|(_, plan)| plan)
        .collect();
    cheapest.sort();
    cheapest.dedup();
    Reference { best, dead_ends: attempts - plans.len(), cheapest_topologies: cheapest.len() }
}

fn fingerprint(plan: &Option<Solution>) -> Option<(u64, String)> {
    plan.as_ref().map(|s| (s.cost.to_bits(), write_plan(&s.topology)))
}

#[test]
fn threaded_replan_matches_the_sequential_loop() {
    let started = Instant::now();
    let (mut mixed, mut ties, mut none) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(SEED + case);
        let problem = ads_problem(&mut rng, Arc::new(ShortestPathRecovery::new()));
        let policy_seed = rng.next_u64();
        for call in 0..CALLS {
            let seed = rng.next_u64();
            let base = Planner::new(problem.clone(), config(1, policy_seed));
            let policy = base.build_policy();
            let expected = reference(&problem, base.config(), &policy, ATTEMPTS, seed);
            mixed += usize::from(expected.dead_ends > 0 && expected.best.is_some());
            ties += usize::from(expected.cheapest_topologies > 1);
            none += usize::from(expected.best.is_none());
            for workers in 1..=3 {
                let planner = Planner::new(problem.clone(), config(workers, policy_seed));
                let got = planner.plan_with_policy(&policy, ATTEMPTS, seed);
                assert_eq!(
                    fingerprint(&got),
                    fingerprint(&expected.best),
                    "case {case} call {call}: {workers} workers ({} threads)",
                    planner.config().threads()
                );
            }
        }
    }
    // The sweep reaches every case the fold must get right.
    let stats = format!(
        "{mixed} calls with dead ends and plans, {ties} with tied cheapest plans, \
         {none} without a plan"
    );
    assert!(mixed > 0 && ties > 0 && none > 0, "{stats}");
    eprintln!("{} calls in {:?}: {stats}", CASES as usize * CALLS, started.elapsed());
}

thread_local! {
    /// Set on the thread that calls `plan_with_policy`.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Recovers normally on the calling thread, once some helper has reached
/// the NBF, and panics on every helper thread. The wait makes sure a
/// helper runs an attempt before the caller can claim them all.
#[derive(Default)]
struct HelperPanics {
    inner: ShortestPathRecovery,
    helper_reached: Mutex<bool>,
    reached: Condvar,
}

impl NetworkBehavior for HelperPanics {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        if !CALLER.get() {
            *self.helper_reached.lock().unwrap() = true;
            self.reached.notify_all();
            panic!("injected helper fault");
        }
        let reached = self.helper_reached.lock().unwrap();
        let timeout = Duration::from_secs(30);
        drop(self.reached.wait_timeout_while(reached, timeout, |reached| !*reached).unwrap());
        self.inner.recover(topology, failure, tas, flows)
    }
}

#[test]
fn a_panicking_attempt_on_a_helper_panics_the_call() {
    for workers in [2, 3] {
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            CALLER.set(true);
            let nbf = Arc::new(HelperPanics::default());
            let problem = ads_problem(&mut StdRng::seed_from_u64(SEED), nbf);
            let planner = Planner::new(problem, config(workers, 0));
            if planner.config().threads() < 2 {
                let _ = done.send(None);
                return;
            }
            let policy = planner.build_policy();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                planner.plan_with_policy(&policy, ATTEMPTS, 1)
            }));
            let message = result.err().map(|payload| {
                payload.downcast_ref::<&str>().map(|s| (*s).to_string()).unwrap_or_default()
            });
            let _ = done.send(Some(message));
        });
        match outcome.recv_timeout(Duration::from_secs(120)).expect("the call hung") {
            None => eprintln!("one core: no helper thread to panic at {workers} workers"),
            Some(message) => assert_eq!(
                message.as_deref(),
                Some("injected helper fault"),
                "{workers} workers: the helper's panic must reach the caller"
            ),
        }
    }
}
