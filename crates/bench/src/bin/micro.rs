//! Micro-benchmarks for the building blocks, plus per-epoch timing
//! comparable to the paper's "39 s/epoch (ORION), 10 s/epoch (ADS)"
//! figures (Section VI, measured there on an i9-9900K with Python/MPI).
//!
//! Plain `std::time::Instant` harness (no external bench framework, so the
//! workspace stays hermetic). Each benchmark warms up, then reports the
//! mean/min wall-clock time over a fixed number of iterations:
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin micro [filter]
//! ```
//!
//! With an argument, only benchmarks whose name contains the filter run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nptsn::{
    encode_observation, FailureAnalyzer, Planner, PlannerConfig, PlanningProblem, ScenarioCache,
    Soag,
};
use nptsn_bench::{percentile, problem_for, saturated_orion, write_ledger};
use nptsn_nn::{normalized_adjacency, Gcn, Module};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{ppo_update, ActorCritic, PpoConfig, RolloutBuffer};
use nptsn_scenarios::{ads, orion, random_flows};
use nptsn_sched::{NetworkBehavior, ShortestPathRecovery};
use nptsn_tensor::Tensor;
use nptsn_topo::{k_shortest_paths, Asil, FailureScenario, Topology};

/// Runs `f` repeatedly and prints mean/min timing. `iters` is chosen by the
/// caller to keep total runtime reasonable for the workload's cost.
fn bench(filter: &str, name: &str, warmup: usize, iters: usize, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    for _ in 0..warmup {
        f();
    }
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed();
        total += elapsed;
        if elapsed < min {
            min = elapsed;
        }
    }
    let mean = total / iters as u32;
    println!("{name:<40} mean {mean:>12.3?}   min {min:>12.3?}   ({iters} iters)");
}

/// The ORION original topology with ASIL-A switches (denser failure space).
fn orion_topology() -> (PlanningProblem, Topology) {
    let scenario = orion();
    let flows = random_flows(&scenario.graph, 20, 0);
    let problem = problem_for(&scenario, flows);
    let mut topo = scenario.graph.empty_topology();
    let original = scenario.original.as_ref().unwrap();
    for &sw in original.selected_switches() {
        topo.add_switch(sw, Asil::A).unwrap();
    }
    for link in original.links() {
        let (u, v) = scenario.graph.link_endpoints(link);
        topo.add_link(u, v).unwrap();
    }
    (problem, topo)
}

fn bench_paths(filter: &str) {
    let (_, topo) = orion_topology();
    let adj = topo.adjacency();
    let gc = topo.connection_graph();
    let s = gc.end_stations()[0];
    let d = gc.end_stations()[17];
    bench(filter, "ksp_k16_orion", 10, 200, || {
        black_box(k_shortest_paths(&adj, s, d, 16));
    });
}

fn bench_nbf(filter: &str) {
    let (problem, topo) = orion_topology();
    let nbf = ShortestPathRecovery::new();
    let failure = FailureScenario::switches(vec![topo.selected_switches()[3]]);
    bench(filter, "nbf_recover_20flows_orion", 10, 200, || {
        black_box(nbf.recover(&topo, &failure, problem.tas(), problem.flows()));
    });
}

fn bench_failure_analysis(filter: &str) {
    let (problem, topo) = orion_topology();
    let analyzer = FailureAnalyzer::new();
    bench(filter, "failure_analysis_orion_asil_a", 5, 50, || {
        black_box(analyzer.analyze(&problem, &topo));
    });
}

/// Machine-readable analyzer benchmark: median wall-clock and ns/scenario
/// of a cold analysis of the saturated ORION workload, plus the
/// shared-cache hit rate and speedup on a warm re-run. Writes the
/// `analyzer` ledger (`BENCH_analyzer.json`, see `nptsn_bench::ledger`).
fn bench_analyzer_json(filter: &str) {
    if !"analyzer_json".contains(filter) {
        return;
    }
    let (warmup, iters) = if nptsn_bench::smoke() { (1usize, 3usize) } else { (3, 15) };
    let (strict, topo) = saturated_orion(40);

    let reference = FailureAnalyzer::new().try_analyze(&strict, &topo).unwrap();
    let scenarios = reference.scenarios_checked.max(1);

    // Times `analyzer` over `iters` runs after `warmup` and returns the
    // median in nanoseconds.
    let median_ns = |analyzer: &FailureAnalyzer| {
        for _ in 0..warmup {
            black_box(analyzer.analyze(&strict, &topo));
        }
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            let verdict = black_box(analyzer.analyze(&strict, &topo));
            samples.push(start.elapsed().as_nanos() as f64);
            assert_eq!(verdict, reference.verdict, "the configuration changed the verdict");
        }
        percentile(&samples, 50.0) as u64
    };

    let base_median_ns = median_ns(&FailureAnalyzer::new());
    let ns_per_scenario = base_median_ns as f64 / scenarios as f64;
    println!(
        "analyzer_json: cold  median {:>10.3?}  {ns_per_scenario:>7.1} ns/scenario",
        Duration::from_nanos(base_median_ns),
    );

    // Cache effectiveness: a cold run fills the shared cache, a warm run
    // answers from it; time the warm configuration separately.
    let cache = Arc::new(ScenarioCache::new());
    let cached = FailureAnalyzer::new().with_shared_cache(Arc::clone(&cache));
    let cold = cached.try_analyze(&strict, &topo).unwrap();
    let warm = cached.try_analyze(&strict, &topo).unwrap();
    let warm_total = (warm.cache_hits + warm.cache_misses).max(1);
    let warm_hit_rate = warm.cache_hits as f64 / warm_total as f64;
    let warm_median_ns = median_ns(&cached);
    println!(
        "analyzer_json: warm cache  median {:>10.3?}  hit rate {:.3}",
        Duration::from_nanos(warm_median_ns),
        warm_hit_rate,
    );

    let cached_speedup = base_median_ns as f64 / warm_median_ns.max(1) as f64;
    write_ledger("analyzer", "failure_analysis_orion_saturated_40flows", |l| {
        l.int("iters", iters as u64)
            .int("scenarios_checked", scenarios)
            .num("speedup_cached_vs_sequential", cached_speedup)
            .object("sequential", |o| {
                o.int("median_ns", base_median_ns).num("ns_per_scenario", ns_per_scenario);
            })
            .object("cache", |o| {
                o.int("cold_hits", cold.cache_hits)
                    .int("cold_misses", cold.cache_misses)
                    .int("warm_hits", warm.cache_hits)
                    .int("warm_misses", warm.cache_misses)
                    .num("warm_hit_rate", warm_hit_rate)
                    .int("warm_median_ns", warm_median_ns)
                    .num("warm_speedup_vs_sequential", cached_speedup);
            });
    });
}

fn bench_soag(filter: &str) {
    let (problem, topo) = orion_topology();
    let soag = Soag::new(16);
    let analyzer = FailureAnalyzer::new();
    // A strict problem so the analysis yields a concrete failure + ER.
    let strict = PlanningProblem::new(
        problem.connection_graph_arc(),
        problem.library().clone(),
        *problem.tas(),
        problem.flows().clone(),
        1e-9,
        problem.nbf_arc(),
    )
    .unwrap();
    let (failure, errors) = match analyzer.analyze(&strict, &topo) {
        nptsn::Verdict::Unreliable { failure, errors } => (failure, errors),
        _ => (FailureScenario::none(), Default::default()),
    };
    // Misses: every call fails one more candidate link, a different one
    // each time, so no two calls share a path-memo key and each runs Yen.
    let gc = problem.connection_graph();
    let mut extra = gc.links().filter(|&l| !failure.contains_link(l));
    bench(filter, "soag_generate_k16_orion/miss", 10, 100, || {
        let mut links = failure.failed_links().to_vec();
        links.push(extra.next().expect("ORION has over 110 candidate links"));
        let missed = FailureScenario::new(failure.failed_switches().to_vec(), links);
        let mut rng = StdRng::seed_from_u64(0);
        black_box(soag.generate(&problem, &topo, &missed, &errors, &mut rng));
    });
    // Hits: the same key every call; the warm-up filled it.
    bench(filter, "soag_generate_k16_orion/hit", 10, 100, || {
        let mut rng = StdRng::seed_from_u64(0);
        black_box(soag.generate(&problem, &topo, &failure, &errors, &mut rng));
    });
}

fn bench_encode(filter: &str) {
    let (problem, topo) = orion_topology();
    let soag = Soag::new(16);
    let mut rng = StdRng::seed_from_u64(0);
    let mut errors = nptsn_sched::ErrorReport::empty();
    let es = problem.connection_graph().end_stations();
    errors.record(es[0], es[1]);
    let actions = soag.generate(&problem, &topo, &FailureScenario::none(), &errors, &mut rng);
    bench(filter, "encode_observation_orion", 10, 200, || {
        black_box(encode_observation(&problem, &topo, &actions));
    });
}

fn bench_gcn(filter: &str) {
    let n = 46;
    let f = 1 + n + 31 + 16;
    let mut rng = StdRng::seed_from_u64(0);
    let gcn = Gcn::new(&mut rng, &[f, 2 * n, 2 * n]);
    let ahat = Tensor::from_vec(n, n, normalized_adjacency(&vec![0.0; n * n], n));
    let h = Tensor::from_vec(n, f, vec![0.1; n * f]);
    bench(filter, "gcn_forward_orion_dims", 5, 50, || {
        black_box(gcn.forward(&ahat, &h));
    });
    bench(filter, "gcn_forward_backward_orion_dims", 5, 50, || {
        let out = gcn.forward(&ahat, &h).mean();
        out.backward();
        for p in gcn.parameters() {
            p.zero_grad();
        }
    });
}

fn bench_ppo(filter: &str) {
    // A small actor-critic over vector observations: measures the PPO
    // update machinery itself.
    struct Tiny {
        actor: nptsn_nn::Mlp,
        critic: nptsn_nn::Mlp,
    }
    impl Tiny {
        fn new() -> Tiny {
            let mut rng = StdRng::seed_from_u64(0);
            Tiny {
                actor: nptsn_nn::Mlp::new(
                    &mut rng,
                    &[8, 64, 64, 4],
                    nptsn_nn::Activation::Tanh,
                    nptsn_nn::Activation::Identity,
                ),
                critic: nptsn_nn::Mlp::new(
                    &mut rng,
                    &[8, 64, 64, 1],
                    nptsn_nn::Activation::Tanh,
                    nptsn_nn::Activation::Identity,
                ),
            }
        }
    }
    impl ActorCritic<Vec<f32>> for Tiny {
        fn evaluate(&self, obs: &Vec<f32>, mask: &[bool]) -> (Tensor, Tensor) {
            let x = Tensor::from_vec(1, obs.len(), obs.clone());
            (
                nptsn_rl::masked_log_probs(&self.actor.forward(&x), mask),
                self.critic.forward(&x),
            )
        }
    }
    let model = Tiny::new();
    let mut buf = RolloutBuffer::new(0.99, 0.97);
    for i in 0..64 {
        buf.store(vec![0.1 * (i % 8) as f32; 8], i % 4, vec![true; 4], -0.1, 0.0, -1.4);
        buf.finish_path(0.0);
    }
    let batch = buf.drain();
    let cfg = PpoConfig { train_pi_iters: 4, train_v_iters: 4, ..PpoConfig::default() };
    bench(filter, "ppo_update_64steps", 2, 20, || {
        let mut a = nptsn_nn::Adam::new(model.actor.parameters(), 3e-4);
        let mut v = nptsn_nn::Adam::new(model.critic.parameters(), 1e-3);
        black_box(ppo_update(&model, 1, &mut a, &mut v, &batch, &cfg));
    });
}

fn bench_epochs(filter: &str) {
    // One full training epoch per scenario, directly comparable in shape
    // to the paper's per-epoch timing (smaller step counts; the harness
    // prints the scaling factor).
    {
        let scenario = ads();
        let flows = random_flows(&scenario.graph, 12, 0);
        let problem = problem_for(&scenario, flows);
        let config = PlannerConfig {
            max_epochs: 1,
            steps_per_epoch: 128,
            mlp_hidden: vec![128, 128],
            train_pi_iters: 4,
            train_v_iters: 4,
            workers: 4,
            ..PlannerConfig::default_paper()
        };
        bench(filter, "epoch/ads_128steps", 1, 3, || {
            black_box(Planner::new(problem.clone(), config.clone()).run());
        });
    }
    {
        let scenario = orion();
        let flows = random_flows(&scenario.graph, 20, 0);
        let problem = problem_for(&scenario, flows);
        let config = PlannerConfig {
            max_epochs: 1,
            steps_per_epoch: 64,
            mlp_hidden: vec![128, 128],
            train_pi_iters: 2,
            train_v_iters: 2,
            workers: 4,
            ..PlannerConfig::default_paper()
        };
        bench(filter, "epoch/orion_64steps", 1, 3, || {
            black_box(Planner::new(problem.clone(), config.clone()).run());
        });
    }
    {
        // One epoch at Table II's learning settings (80 + 80 PPO
        // iterations with the KL stop, 256 × 256 heads) on ORION with 30
        // flows, 512 steps on 2 workers: a quarter of a paper epoch.
        let scenario = orion();
        let flows = random_flows(&scenario.graph, 30, 0);
        let problem = problem_for(&scenario, flows);
        let config = PlannerConfig {
            max_epochs: 1,
            steps_per_epoch: 512,
            workers: 2,
            ..PlannerConfig::default_paper()
        };
        bench(filter, "epoch/orion_table2", 1, 3, || {
            black_box(Planner::new(problem.clone(), config.clone()).run());
        });
    }
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    bench_paths(&filter);
    bench_nbf(&filter);
    bench_failure_analysis(&filter);
    bench_analyzer_json(&filter);
    bench_soag(&filter);
    bench_encode(&filter);
    bench_gcn(&filter);
    bench_ppo(&filter);
    bench_epochs(&filter);
}
