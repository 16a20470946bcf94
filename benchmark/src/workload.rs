//! The four workloads, what one run of them returns, and the end-to-end
//! metrics computed from it.

use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::trace::{self, LayerInputs};
use crate::{pipeline, routed};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OrionTrain,
    OrionReplan,
    OrionVerify,
    RoutedVerify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OrionTrain,
        Workload::OrionReplan,
        Workload::OrionVerify,
        Workload::RoutedVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OrionTrain => "orion-train",
            Workload::OrionReplan => "orion-replan",
            Workload::OrionVerify => "orion-verify",
            Workload::RoutedVerify => "routed-verify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `op_ms_tail` reports: the highest one that leaves at
    /// least ten operations above it in a run of the benchmark's length.
    /// Fixed per workload so that both sides of a comparison report the
    /// same percentile. A training run has too few epochs for any tail, so
    /// its tail is its median.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::OrionTrain => 50.0,
            Workload::OrionReplan => 90.0,
            Workload::OrionVerify => 95.0,
            Workload::RoutedVerify => 99.0,
        }
    }

    /// Operations measured per second of `--seconds`: epochs, re-plans,
    /// verifications or routed jobs. At `--seconds 20` the 2-core host the
    /// benchmark was sized on spends 35-45 s on 10 epochs, 20-25 s on 100
    /// re-plans, about 13 s on 600 verifications and 5 s on 12 000 jobs.
    /// Training gets the longest run because its operations are the longest
    /// and the fewest; re-planning needs 100 requests for a p90 with ten
    /// beyond it.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::OrionTrain => 0.5,
            Workload::OrionReplan => 5.0,
            Workload::OrionVerify => 30.0,
            Workload::RoutedVerify => 600.0,
        }
    }

    /// The fixed number of operations a run of `--seconds` measures. The
    /// count depends on the arguments alone, never on the clock, so a
    /// parent and a change given the same `--seconds` measure the same
    /// operations; a faster change finishes sooner instead of measuring
    /// more. At least two epochs, and every input variant once.
    pub fn ops(self, seconds: f64) -> usize {
        let min = match self {
            Workload::OrionTrain => 2,
            Workload::OrionReplan | Workload::OrionVerify => pipeline::VARIANTS,
            Workload::RoutedVerify => routed::VARIANTS,
        };
        ((seconds * self.nominal_rate()).round() as usize).max(min)
    }

    pub fn run(self, opts: &Opts) -> Outcome {
        match self {
            Workload::OrionTrain => pipeline::orion_train(opts),
            Workload::OrionReplan => pipeline::orion_replan(opts),
            Workload::OrionVerify => pipeline::orion_verify(opts),
            Workload::RoutedVerify => routed::routed_verify(opts),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Operations to measure; the traced twin measures the same ones.
    pub ops: usize,
    pub traced: bool,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each operation attempted, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Wall time of the measurement phase, in seconds.
    pub wall_s: f64,
    /// The cost of the plans the workload produced or checked: a function
    /// of the seed and the operation count, pinned by `digest`.
    pub plan_cost: f64,
    pub failed: usize,
    /// Failed correctness checks; any one fails the run.
    pub errors: Vec<String>,
    /// Hash of the seeded plans (or training trajectory) the run produced:
    /// equal with tracing on and off, and between commits that do not
    /// change what the planner computes.
    pub digest: u64,
    /// Filled in traced runs only.
    pub layers: Option<LayerInputs>,
}

/// A metric of a whole workload: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for a metric that is
    /// reported but too noisy to bound.
    pub bound: Option<f64>,
}

/// The metrics every workload reports. The bounded ones, in
/// `BENCHMARK.json` order, are the end-to-end metrics.
///
/// The 2-core host this was tuned on shares its cores with neighbours.
/// Its speed drifts by 10-30% over minutes, so a longer run does not
/// steady a statistic; the median over a run spread by 3-20% over ten
/// seeds, most on the workloads that compute longest. The p99 of a routed
/// job swings by up to 5x between runs with the host's late wake-ups, and
/// throughput, a mean, carries the slow jobs, so both are reported but
/// not bounded.
/// The bounds are the widest allowed.
pub const METRICS: [MetricDef; 4] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: Some(0.25),
    },
    MetricDef {
        name: "op_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: Some(0.25),
    },
    MetricDef {
        name: "op_ms_tail",
        unit: "ms",
        higher_is_better: false,
        bound: None,
    },
    MetricDef {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: None,
    },
];

/// The bounded metrics: the ones `BENCHMARK.json` lists and a run's last
/// line carries.
pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

impl Outcome {
    /// The values of [`METRICS`], in order.
    pub fn metrics(&self, workload: Workload) -> [f64; 4] {
        [
            median(&self.setup_s),
            percentile(&self.op_ms, 50.0),
            percentile(&self.op_ms, workload.tail_percentile()),
            (self.op_ms.len() - self.failed) as f64 / self.wall_s,
        ]
    }

    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.layers
            .as_ref()
            .map(trace::per_layer)
            .unwrap_or_default()
    }
}

/// Repeats a cheap set-up every `every` operations while a workload
/// measures. On a shared host, contention comes in phases of seconds, so
/// repetitions made in one burst all land in the same phase; spread over
/// the run they sample the same conditions as the operations.
pub struct SetupSampler {
    pub times: Vec<f64>,
    every: usize,
}

impl SetupSampler {
    pub fn new(times: Vec<f64>, every: usize) -> SetupSampler {
        SetupSampler {
            times,
            every: every.max(1),
        }
    }

    /// Repeats `setup` before operation number `done` (0-based) when it is
    /// due. Callers read their operation clocks after this returns.
    pub fn tick<T>(&mut self, done: usize, setup: impl FnOnce() -> T) {
        if !done.is_multiple_of(self.every) {
            return;
        }
        let start = Instant::now();
        std::hint::black_box(setup());
        self.times.push(start.elapsed().as_secs_f64());
    }
}

/// Times `repeats` set-ups and keeps the last one's product.
pub fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let product = setup();
        times.push(start.elapsed().as_secs_f64());
        // The previous product is dropped outside the timed region.
        last = Some(product);
    }
    (last.expect("at least one set-up ran"), times)
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stable hash for plan digests (FNV-1a over the plan texts).
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in text.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Derives the `i`-th input seed of a run from its `--seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_counts_follow_the_arguments_alone() {
        assert_eq!(Workload::OrionTrain.ops(20.0), 10);
        assert_eq!(Workload::OrionReplan.ops(20.0), 100);
        assert_eq!(Workload::OrionVerify.ops(20.0), 600);
        assert_eq!(Workload::RoutedVerify.ops(20.0), 12_000);
        // A short run still covers every input variant.
        assert_eq!(Workload::OrionTrain.ops(0.1), 2);
        assert_eq!(Workload::OrionVerify.ops(0.1), pipeline::VARIANTS);
        assert_eq!(Workload::RoutedVerify.ops(0.001), routed::VARIANTS);
    }

    #[test]
    fn set_up_repeats_every_few_operations() {
        let mut sampler = SetupSampler::new(vec![1.0], 3);
        for done in 0..7 {
            sampler.tick(done, || ());
        }
        // Before operations 0, 3 and 6.
        assert_eq!(sampler.times.len(), 4);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("orion"), None);
    }
}
