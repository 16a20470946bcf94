//! Inference micro-batching benchmark: the gate for DESIGN.md §13.
//!
//! Two layers of measurement, mirroring what `/jobs/infer` actually runs:
//!
//! 1. **Job path** (the gated number) — the full per-job inference
//!    pipeline exactly as the serve worker executes it: build the policy
//!    network for the problem, import the checkpoint parameters, run the
//!    seeded planning episodes. Solo runs pay all of that per job; a
//!    coalesced batch pays policy construction and checkpoint import
//!    **once** and evaluates every episode step's lanes in one call
//!    (`plan_with_policy_batch`). Measured at batch 1 / 8 / 64 on a
//!    zonal-controller-scale problem, with every batched outcome checked
//!    equal to its solo reference.
//! 2. **Forward path** — `PolicyNetwork::try_evaluate_many`, the
//!    deployment forward, on 1, 8 and 64 ORION-scale observations per
//!    call, every batch size timed over the same number of calls. Batch 1
//!    is the greedy re-plan's step. The log-probs, batched and alone, are
//!    proven **bit-identical** to solo `evaluate` calls before timing.
//!    Beside it, the register-strip `nptsn_tensor` matmul kernel against
//!    a naive triple loop (also bit-for-bit checked) on two left
//!    operands: a dense 192³ product, and a 46-row `Â`-like block (95%
//!    zeros, an ORION-sized normalized adjacency) against a 92-wide right
//!    operand, the GCN's adjacency product. Each is timed as separate
//!    samples and recorded as the median and quartiles per product.
//!
//! Every job-path and forward-path row records the p25, p50, p75 and p99
//! of its call times, so a before/after of one run has a spread.
//!
//! In full mode the binary itself fails unless batch-64 job throughput is
//! at least 4x batch-1 — the acceptance bar for the batched inference
//! path. A smoke run shrinks counts to a plumbing check and skips the
//! throughput gate (smoke numbers are noise).
//!
//! Writes the `infer` ledger (`BENCH_infer.json`, see
//! `nptsn_bench::ledger`).
//!
//! ```text
//! cargo run --release -p nptsn-bench --bin infer_bench
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use nptsn::{
    plan_with_policy_batch, InferLane, Observation, Planner, PlannerConfig, PlanningEnv,
    PlanningProblem, Solution,
};
use nptsn_bench::ledger::Fields;
use nptsn_bench::{percentile, problem_for, write_ledger};
use nptsn_nn::{params_from_bytes, params_to_bytes, Module};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::SeedableRng;
use nptsn_rl::{sample_action, ActorCritic};
use nptsn_scenarios::{orion, random_flows};
use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
use nptsn_topo::{ComponentLibrary, ConnectionGraph};

/// A zonal-controller-scale problem: two end stations, two candidate
/// switches, the theta graph — the per-vehicle problem size the service's
/// high-QPS path sees.
fn zonal_problem() -> PlanningProblem {
    let mut gc = ConnectionGraph::new();
    let a = gc.add_end_station("a");
    let b = gc.add_end_station("b");
    let s0 = gc.add_switch("s0");
    let s1 = gc.add_switch("s1");
    for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
        gc.add_candidate_link(u, v, 1.0).expect("distinct endpoints");
    }
    let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).expect("one valid flow");
    PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        TasConfig::default(),
        flows,
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .expect("consistent zonal problem")
}

/// The service's per-job planner configuration (`service_config` in
/// nptsn-serve): one epoch, one step, the job's seed.
fn job_config(seed: u64) -> PlannerConfig {
    PlannerConfig { max_epochs: 1, steps_per_epoch: 1, seed, ..PlannerConfig::quick() }
}

/// One solo infer job exactly as the serve worker runs it without
/// batchmates: build the policy, import the checkpoint, run the episodes.
fn solo_job(problem: &PlanningProblem, bytes: &[u8], attempts: usize, seed: u64) -> Option<Solution> {
    let planner = Planner::new(problem.clone(), job_config(seed));
    let policy = planner.build_policy();
    params_from_bytes(&policy.parameters(), bytes).expect("checkpoint matches the network");
    planner.plan_with_policy(&policy, attempts, seed)
}

/// One coalesced batch exactly as the serve worker runs it: one policy
/// build, one checkpoint import, lockstep lanes.
fn batched_jobs(
    planners: &[Planner],
    bytes: &[u8],
    attempts: usize,
) -> Vec<Result<Option<Solution>, String>> {
    let policy = planners[0].build_policy();
    params_from_bytes(&policy.parameters(), bytes).expect("checkpoint matches the network");
    let lanes: Vec<InferLane<'_>> = planners
        .iter()
        .enumerate()
        .map(|(i, planner)| InferLane { planner, attempts, seed: i as u64 % 16 })
        .collect();
    plan_with_policy_batch(&policy, &lanes)
}

struct BatchRow {
    batch: usize,
    calls: usize,
    /// Call durations in nanoseconds: p25, p50, p75 and p99.
    ns: [u64; 4],
    qps: f64,
}

impl BatchRow {
    /// Times `calls` runs of a batch of `batch` (`run(i)` runs the `i`-th)
    /// and prints them as `what`.
    fn measure(what: &str, batch: usize, calls: usize, mut run: impl FnMut(usize)) -> BatchRow {
        let mut durations = Vec::with_capacity(calls);
        let wall = Instant::now();
        for i in 0..calls {
            let start = Instant::now();
            run(i);
            durations.push(start.elapsed().as_nanos() as f64);
        }
        let qps = (batch * calls) as f64 / wall.elapsed().as_secs_f64().max(1e-9);
        let ns = [25.0, 50.0, 75.0, 99.0].map(|p| percentile(&durations, p) as u64);
        let [p25, p50, p75, p99] = ns.map(Duration::from_nanos);
        println!(
            "infer_bench: {what} batch {batch:>2}  p50 {p50:?} (p25 {p25:?}, p75 {p75:?})  \
             p99 {p99:?}  {qps:.0}/s"
        );
        BatchRow { batch, calls, ns, qps }
    }
}

fn main() {
    let smoke = nptsn_bench::smoke();
    let (solo_jobs, batch_calls, fwd_warmup, fwd_calls, kernel_samples, dense_dim) =
        if smoke { (4usize, 2usize, 2usize, 15usize, 3usize, 48usize) } else { (160, 20, 20, 100, 15, 192) };
    const ATTEMPTS: usize = 2;

    // ---- 1. Job path on the zonal problem (the gated number). ----
    let zonal = zonal_problem();
    let bytes = {
        let planner = Planner::new(zonal.clone(), job_config(0));
        params_to_bytes(&planner.build_policy().parameters())
    };

    // Batched outcomes must equal their solo references before any timing
    // matters: batching that changes results is not an optimisation.
    let reference: Vec<Option<Solution>> =
        (0..64).map(|i| solo_job(&zonal, &bytes, ATTEMPTS, i as u64 % 16)).collect();
    let planners64: Vec<Planner> =
        (0..64).map(|i| Planner::new(zonal.clone(), job_config(i as u64 % 16))).collect();
    for (i, lane) in batched_jobs(&planners64, &bytes, ATTEMPTS).iter().enumerate() {
        let got = lane.as_ref().expect("no lane error on a well-formed batch");
        let same = match (got, &reference[i]) {
            (Some(g), Some(r)) => g.cost == r.cost && g.topology == r.topology,
            (None, None) => true,
            _ => false,
        };
        assert!(same, "lane {i}: batched job result differs from its solo reference");
    }
    println!("infer_bench: 64 batched job results equal their solo references");

    let mut job_rows: Vec<BatchRow> = Vec::new();
    for &batch in &[1usize, 8, 64] {
        let calls = if batch == 1 { solo_jobs } else { batch_calls };
        let planners = &planners64[..batch];
        let run = |seed_base: usize| {
            if batch == 1 {
                std::hint::black_box(solo_job(&zonal, &bytes, ATTEMPTS, seed_base as u64 % 16));
            } else {
                std::hint::black_box(batched_jobs(planners, &bytes, ATTEMPTS));
            }
        };
        for s in 0..(calls / 4).max(2) {
            run(s);
        }
        job_rows.push(BatchRow::measure("job path", batch, calls, run));
    }
    let job_speedup = job_rows[2].qps / job_rows[0].qps.max(1e-9);
    println!("infer_bench: batch-64 job throughput {job_speedup:.2}x batch-1");
    if !smoke {
        assert!(
            job_speedup >= 4.0,
            "batched inference gate failed: batch-64 job QPS only {job_speedup:.2}x batch-1 \
             (need >= 4x)"
        );
    }

    // ---- 2. Forward path on ORION-scale observations. ----
    let scenario = orion();
    let flows = random_flows(&scenario.graph, 8, 7);
    let problem = problem_for(&scenario, flows);
    let config = PlannerConfig::quick();
    let planner = Planner::new(problem.clone(), config.clone());
    let policy = planner.build_policy();
    let (n, f, a) = planner.network_dims();
    println!("infer_bench: ORION forward path, dims n={n} f={f} actions={a}");

    let mut rng = StdRng::seed_from_u64(11);
    let mut env = PlanningEnv::new(
        problem,
        config.k_paths,
        config.reward_scaling,
        config.max_episode_steps,
        &mut rng,
    );
    let mut samples: Vec<(Observation, Vec<bool>)> = Vec::with_capacity(64);
    while samples.len() < 64 {
        if env.mask().iter().all(|&m| !m) {
            env.reset(&mut rng);
            continue;
        }
        samples.push((env.observation().clone(), env.mask().to_vec()));
        let (logps, _) = policy.evaluate(env.observation(), env.mask());
        let (action, _) = sample_action(&logps.to_vec(), &mut rng);
        if env.step(action, &mut rng).done {
            env.reset(&mut rng);
        }
    }

    // Bitwise equivalence: the batched forward's log-probs, and each
    // sample's alone, must agree with 64 solo `evaluate` calls to the last
    // mantissa bit.
    let refs: Vec<(&Observation, &[bool])> =
        samples.iter().map(|(o, m)| (o, m.as_slice())).collect();
    let batched = policy.try_evaluate_many(&refs).expect("well-shaped samples");
    assert_eq!(batched.len(), samples.len());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, (obs, mask)) in refs.iter().enumerate() {
        let solo = bits(&policy.evaluate(obs, mask).0.to_vec());
        let alone = policy.try_evaluate_many(&refs[i..=i]).expect("well-shaped sample");
        assert!(
            bits(&batched[i]) == solo && bits(&alone[0]) == solo,
            "sample {i}: batched forward is not bit-identical to solo"
        );
    }
    println!("infer_bench: batched forward bit-identical to solo on all {} samples", samples.len());

    let mut fwd_rows: Vec<BatchRow> = Vec::new();
    for &batch in &[1usize, 8, 64] {
        let mut cursor = 0usize;
        let mut run = |_| {
            let window: Vec<(&Observation, &[bool])> =
                (0..batch).map(|j| refs[(cursor + j) % refs.len()]).collect();
            cursor = (cursor + batch) % refs.len();
            let out = policy.try_evaluate_many(&window).expect("well-shaped window");
            std::hint::black_box(out);
        };
        for i in 0..fwd_warmup {
            run(i);
        }
        fwd_rows.push(BatchRow::measure("forward", batch, fwd_calls, run));
    }

    // ---- 3. Matmul-kernel speedup over the naive triple loop. ----
    let d = dense_dim;
    let dense: Vec<f32> = (0..d * d).map(|i| ((i * 37 + 11) % 97) as f32 * 0.031 - 1.5).collect();
    // ORION-sized: 15 switches and 31 stations, 30 of them linked to a
    // switch, as part-way through an episode. `Â = D^-1/2 (A + I) D^-1/2`
    // then holds 46 + 60 nonzeros of 46², 95% zeros.
    let (nodes, switches) = (46, 15);
    let mut adjacency = vec![0.0f32; nodes * nodes];
    for station in switches..nodes - 1 {
        let switch = station % switches;
        adjacency[station * nodes + switch] = 1.0;
        adjacency[switch * nodes + station] = 1.0;
    }
    let ahat = nptsn_nn::normalized_adjacency(&adjacency, nodes);
    let kernel_cases: Vec<MatmulTiming> = [
        ("dense", dense, (d, d, d), 3),
        ("ahat", ahat, (nodes, nodes, 2 * nodes), 400),
    ]
    .into_iter()
    .map(|(name, a, shape, reps)| time_matmul(name, &a, shape, reps, kernel_samples))
    .collect();
    for t in &kernel_cases {
        let (m, k, n) = t.shape;
        println!(
            "infer_bench: {} {m}x{k}x{n} matmul kernel {:.2}us vs naive {:.2}us p50",
            t.name, t.kernel_us[1], t.naive_us[1],
        );
    }

    let rows = |o: &mut Fields, rows: &[BatchRow], unit: &str| {
        o.objects("batches", rows, |o, r| {
            o.int("batch", r.batch as u64).int("calls", r.calls as u64);
            for (q, ns) in ["p25_ns", "p50_ns", "p75_ns", "p99_ns"].into_iter().zip(r.ns) {
                o.int(q, ns);
            }
            o.num(unit, r.qps);
        });
    };
    write_ledger("infer", "infer_batch", |l| {
        l.object("job_path", |o| {
            o.str("problem", "zonal theta (2 es, 2 sw)").bool("results_equal_solo", true);
            rows(o, &job_rows, "jobs_per_sec");
            o.num("batch64_vs_batch1_qps", job_speedup);
        });
        l.object("forward_path", |o| {
            o.object("problem", |p| {
                p.str("scenario", "orion")
                    .int("nodes", n as u64)
                    .int("features", f as u64)
                    .int("actions", a as u64);
            })
            .bool("bitwise_identical", true);
            rows(o, &fwd_rows, "forwards_per_sec");
        });
        l.object("matmul_kernel", |o| {
            o.int("samples", kernel_samples as u64);
            o.objects("cases", &kernel_cases, |o, t| {
                o.str("case", t.name)
                    .int("m", t.shape.0 as u64)
                    .int("k", t.shape.1 as u64)
                    .int("n", t.shape.2 as u64)
                    .num("zeros_pct", t.zeros_pct)
                    .int("reps_per_sample", t.reps as u64);
                for (side, us) in [("kernel", t.kernel_us), ("naive", t.naive_us)] {
                    for (q, v) in ["p25", "p50", "p75"].into_iter().zip(us) {
                        o.num(&format!("{side}_us_{q}"), v);
                    }
                }
                o.num("speedup_p50", t.naive_us[1] / t.kernel_us[1].max(1e-9));
            });
        });
    });
}

/// One kernel comparison: the product's shape `(m, k, n)`, the share of
/// zeros in its left operand, the products per timed sample, and the
/// per-product times in microseconds, `[p25, p50, p75]` over the samples.
struct MatmulTiming {
    name: &'static str,
    shape: (usize, usize, usize),
    zeros_pct: f64,
    reps: usize,
    kernel_us: [f64; 3],
    naive_us: [f64; 3],
}

/// Checks the kernel against the naive loop bit for bit on `a · b`, `b`
/// a fixed dense `k × n` operand, then times `samples` samples of each,
/// alternating, every sample `reps` products long so that it lasts well
/// above the timer's resolution.
fn time_matmul(
    name: &'static str,
    a: &[f32],
    (m, k, n): (usize, usize, usize),
    reps: usize,
    samples: usize,
) -> MatmulTiming {
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 53 + 29) % 89) as f32 * 0.027 - 1.2).collect();
    let mut fast = vec![0.0f32; m * n];
    let mut slow = vec![0.0f32; m * n];
    nptsn_tensor::kernels::matmul(a, &b, &mut fast, m, k, n);
    naive_matmul(a, &b, &mut slow, m, k, n);
    assert!(
        fast.iter().zip(&slow).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{name}: matmul kernel diverges from the naive reference"
    );
    let sample = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let (mut kernel, mut naive) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        kernel.push(sample(&mut || {
            nptsn_tensor::kernels::matmul(a, &b, &mut fast, m, k, n);
            std::hint::black_box(&fast);
        }));
        naive.push(sample(&mut || {
            naive_matmul(a, &b, &mut slow, m, k, n);
            std::hint::black_box(&slow);
        }));
    }
    let quartiles = |us: &[f64]| [25.0, 50.0, 75.0].map(|p| percentile(us, p));
    let zeros = a.iter().filter(|&&v| v == 0.0).count();
    MatmulTiming {
        name,
        shape: (m, k, n),
        zeros_pct: 100.0 * zeros as f64 / a.len() as f64,
        reps,
        kernel_us: quartiles(&kernel),
        naive_us: quartiles(&naive),
    }
}

/// Reference three-loop matmul; the ground truth the matmul kernel must
/// reproduce bit-for-bit.
fn naive_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += av * b[p * n + j];
            }
        }
    }
}
