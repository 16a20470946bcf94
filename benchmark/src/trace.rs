//! The traced run's per-layer breakdown.
//!
//! A traced child enables the library's `nptsn-obs` spans and adds spans
//! of its own around the calls into each layer: a root span per operation
//! (`bench.train`, `bench.replan`, `bench.verify`, `bench.job`) and
//! `bench.nbf_recover` from [`TracedNbf`]. Span self time is charged to a
//! phase of the blocking path — rollout or update — when a phase span on
//! the same thread encloses it in time.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use nptsn::NetworkBehavior;
use nptsn_obs::export::span_stats;
use nptsn_obs::Record;
use nptsn_sched::{FlowSet, RecoveryOutcome, TasConfig};
use nptsn_topo::{FailureScenario, Topology};

/// Wraps the recovery NBF in a `bench.nbf_recover` span. Only traced runs
/// use it, so the untraced runs measure the NBF exactly as shipped.
pub struct TracedNbf(pub Arc<dyn NetworkBehavior>);

impl NetworkBehavior for TracedNbf {
    fn recover(
        &self,
        topology: &Topology,
        failure: &FailureScenario,
        tas: &TasConfig,
        flows: &FlowSet,
    ) -> RecoveryOutcome {
        let _span = nptsn_obs::span("bench.nbf_recover");
        self.0.recover(topology, failure, tas, flows)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// One closed span, as phase attribution needs it.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

impl Span {
    fn of(record: &Record) -> Option<Span> {
        match *record {
            Record::Span {
                name,
                tid,
                start_ns,
                dur_ns,
                self_ns,
                ..
            } => Some(Span {
                name,
                tid,
                start_ns,
                end_ns: start_ns + dur_ns,
                self_ns,
            }),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Rollout,
    Update,
}

fn phase_of(name: &str) -> Option<Phase> {
    match name {
        "planner.rollout" | "bench.replan" => Some(Phase::Rollout),
        "planner.ppo_update" => Some(Phase::Update),
        _ => None,
    }
}

/// Per-name span totals, and the self time phase spans enclose.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub rollout_self_ns: u64,
    pub update_self_ns: u64,
}

/// Span totals by name, plus the training epochs split into their
/// rollout and update phases.
#[derive(Debug, Default)]
pub struct Layers {
    pub spans: BTreeMap<&'static str, Totals>,
    pub rollout_phase_ns: u64,
    pub update_phase_ns: u64,
}

impl Layers {
    /// Folds in a batch of the tracer's records. A phase span that
    /// encloses a span of the batch must be in the same batch, so drain
    /// only where no phase span is open.
    pub fn absorb(&mut self, records: &[Record]) {
        for stat in span_stats(records) {
            let t = self.spans.entry(stat.name).or_default();
            t.calls += stat.count;
            t.dur_ns += stat.total_ns;
            t.self_ns += stat.self_ns;
        }
        let spans: Vec<Span> = records.iter().filter_map(Span::of).collect();
        let mut phases: HashMap<u64, Vec<(u64, u64, Phase)>> = HashMap::new();
        for s in &spans {
            if let Some(phase) = phase_of(s.name) {
                phases
                    .entry(s.tid)
                    .or_default()
                    .push((s.start_ns, s.end_ns, phase));
            }
        }
        for list in phases.values_mut() {
            list.sort_unstable_by_key(|&(start, _, _)| start);
        }
        for s in &spans {
            // Phases never overlap on one thread, so only the last phase
            // to start before the span can enclose it.
            let enclosing = phases.get(&s.tid).and_then(|list| {
                let i = list.partition_point(|&(start, _, _)| start <= s.start_ns);
                i.checked_sub(1)
                    .map(|i| list[i])
                    .filter(|&(_, end, _)| s.end_ns <= end)
            });
            let Some((_, _, phase)) = enclosing else {
                continue;
            };
            let t = self.spans.entry(s.name).or_default();
            match phase {
                Phase::Rollout => t.rollout_self_ns += s.self_ns,
                Phase::Update => t.update_self_ns += s.self_ns,
            }
        }
        // An epoch is in its rollout phase until its PPO update starts.
        for epoch in spans.iter().filter(|s| s.name == "planner.epoch") {
            let split = spans
                .iter()
                .find(|u| {
                    u.name == "planner.ppo_update"
                        && u.tid == epoch.tid
                        && u.start_ns >= epoch.start_ns
                        && u.end_ns <= epoch.end_ns
                })
                .map_or(epoch.end_ns, |u| u.start_ns);
            self.rollout_phase_ns += split - epoch.start_ns;
            self.update_phase_ns += epoch.end_ns - split;
        }
    }

    fn get(&self, name: &str) -> Totals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The share of operation wall time no layer span accounts for. For
    /// the pipeline roots that is their same-thread self time; a routed
    /// job's root runs on the client thread, so it is the job time outside
    /// the router's request spans.
    fn unattributed_pct(&self) -> f64 {
        let job = self.get("bench.job");
        if job.calls > 0 {
            let covered = self.get("router.request").dur_ns.min(job.dur_ns);
            return pct((job.dur_ns - covered) as f64, job.dur_ns as f64);
        }
        let (self_ns, dur_ns) = ["bench.train", "bench.replan", "bench.verify"]
            .iter()
            .map(|name| self.get(name))
            .fold((0, 0), |(s, d), t| (s + t.self_ns, d + t.dur_ns));
        pct(self_ns as f64, dur_ns as f64)
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Process-wide analyzer counters, read before and after a measurement.
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyzerCounters {
    pub scenarios: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl AnalyzerCounters {
    pub fn now() -> AnalyzerCounters {
        let t = nptsn_obs::telemetry();
        AnalyzerCounters {
            scenarios: t.analyzer_scenarios_checked.get(),
            cache_hits: t.analyzer_cache_hits.get(),
            cache_misses: t.analyzer_cache_misses.get(),
        }
    }

    pub fn since(self, start: AnalyzerCounters) -> AnalyzerCounters {
        AnalyzerCounters {
            scenarios: self.scenarios - start.scenarios,
            cache_hits: self.cache_hits - start.cache_hits,
            cache_misses: self.cache_misses - start.cache_misses,
        }
    }
}

/// Client-side timers of the routed workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientTimers {
    pub submit_us_p50: f64,
    pub result_us_p50: f64,
    pub polls_per_job: f64,
}

/// Everything a traced child measured besides its end-to-end metrics.
#[derive(Debug, Default)]
pub struct LayerInputs {
    pub layers: Layers,
    pub ops: usize,
    pub analyzer: AnalyzerCounters,
    pub client: ClientTimers,
    /// Re-plan requests whose first round of attempts found no plan.
    pub replan_retries: usize,
}

/// The per-layer metrics, `(name, unit, value)`, in `BENCHMARK.json`
/// order. Counts and times are per operation (an epoch, a re-plan, a
/// verify call or a routed job); layers a workload does not run read 0.
/// `trace.overhead_pct` needs the untraced twin and is added by the parent.
pub fn per_layer(inputs: &LayerInputs) -> Vec<(&'static str, &'static str, f64)> {
    let l = &inputs.layers;
    let ops = inputs.ops.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / ops;
    let calls = |name: &str| l.get(name).calls as f64 / ops;
    let self_ms = |name: &str| ms(l.get(name).self_ns);
    let mean_us = |name: &str| {
        let t = l.get(name);
        if t.calls == 0 {
            0.0
        } else {
            t.dur_ns as f64 / t.calls as f64 / 1e3
        }
    };
    let a = inputs.analyzer;
    let c = inputs.client;
    vec![
        ("rl.ppo_backward.calls", "count", calls("ppo.backward")),
        ("rl.ppo_backward.self_ms", "ms", self_ms("ppo.backward")),
        ("rl.ppo_update.self_ms", "ms", self_ms("ppo.update")),
        ("nn.adam.self_ms", "ms", self_ms("adam.step")),
        ("nn.gcn_forward.calls", "count", calls("gcn.forward")),
        (
            "nn.gcn_forward.rollout_ms",
            "ms",
            ms(l.get("gcn.forward").rollout_self_ns),
        ),
        (
            "nn.gcn_forward.update_ms",
            "ms",
            ms(l.get("gcn.forward").update_self_ns),
        ),
        (
            "core.planner.rollout_phase_ms",
            "ms",
            ms(l.rollout_phase_ns),
        ),
        ("core.planner.update_phase_ms", "ms", ms(l.update_phase_ns)),
        (
            "core.rollout.residual_ms",
            "ms",
            ms(l.get("planner.rollout").self_ns + l.get("bench.replan").self_ns),
        ),
        (
            "core.replan.retry_pct",
            "%",
            pct(inputs.replan_retries as f64, inputs.ops as f64),
        ),
        ("core.soag.calls", "count", calls("soag.generate")),
        ("core.soag.self_ms", "ms", self_ms("soag.generate")),
        ("core.analyzer.calls", "count", calls("analyzer.analyze")),
        ("core.analyzer.self_ms", "ms", self_ms("analyzer.analyze")),
        ("core.analyzer.scenarios", "count", a.scenarios as f64 / ops),
        (
            "core.analyzer.cache_hit_pct",
            "%",
            pct(a.cache_hits as f64, (a.cache_hits + a.cache_misses) as f64),
        ),
        (
            "sched.nbf_recover.calls",
            "count",
            calls("bench.nbf_recover"),
        ),
        (
            "sched.nbf_recover.self_ms",
            "ms",
            self_ms("bench.nbf_recover"),
        ),
        ("client.submit_us_p50", "us", c.submit_us_p50),
        ("client.result_us_p50", "us", c.result_us_p50),
        ("client.polls_per_job", "count", c.polls_per_job),
        ("router.request.calls", "count", calls("router.request")),
        ("router.request.mean_us", "us", mean_us("router.request")),
        ("router.forward.mean_us", "us", mean_us("router.forward")),
        ("serve.http_request.calls", "count", calls("http.request")),
        ("serve.http_request.mean_us", "us", mean_us("http.request")),
        ("serve.job_run.mean_us", "us", mean_us("job.run")),
        ("trace.unattributed_pct", "%", l.unattributed_pct()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64, self_ns: u64) -> Record {
        Record::Span {
            name,
            tid,
            start_ns,
            dur_ns,
            self_ns,
            trace_id: 0,
        }
    }

    #[test]
    fn containment_is_per_thread() {
        let spans = [
            // Main thread: an epoch whose PPO update re-runs the GCN.
            span("planner.epoch", 1, 0, 1_000, 300),
            span("planner.ppo_update", 1, 300, 700, 100),
            span("ppo.update", 1, 300, 690, 90),
            span("gcn.forward", 1, 400, 50, 50),
            // A rollout worker, whose interval lies inside the main
            // thread's epoch but belongs to the rollout.
            span("planner.rollout", 2, 10, 280, 80),
            span("gcn.forward", 2, 20, 30, 30),
            span("gcn.forward", 2, 100, 20, 20),
            // A forward on a third thread inside no phase span of its own.
            span("gcn.forward", 3, 400, 10, 10),
            // Straddling the end of the rollout: not enclosed.
            span("analyzer.analyze", 2, 250, 60, 60),
        ];
        let mut layers = Layers::default();
        layers.absorb(&spans);
        let gcn = layers.get("gcn.forward");
        assert_eq!(gcn.calls, 4);
        assert_eq!(gcn.self_ns, 110);
        assert_eq!(gcn.rollout_self_ns, 50);
        assert_eq!(gcn.update_self_ns, 50);
        let analyzer = layers.get("analyzer.analyze");
        assert_eq!((analyzer.rollout_self_ns, analyzer.update_self_ns), (0, 0));
    }

    #[test]
    fn epoch_phases_add_up_to_the_epoch() {
        let spans = [
            span("planner.epoch", 1, 0, 1_000, 300),
            span("planner.ppo_update", 1, 300, 650, 650),
            span("planner.epoch", 1, 1_000, 400, 400),
            span("planner.ppo_update", 1, 1_250, 100, 100),
            // Every worker poisoned: no update, the whole epoch is rollout.
            span("planner.epoch", 1, 2_000, 500, 500),
            // Another thread's update never splits this thread's epoch.
            span("planner.ppo_update", 2, 2_100, 100, 100),
        ];
        let mut layers = Layers::default();
        layers.absorb(&spans);
        assert_eq!(layers.rollout_phase_ns, 300 + 250 + 500);
        assert_eq!(layers.update_phase_ns, 700 + 150);
        assert_eq!(
            layers.rollout_phase_ns + layers.update_phase_ns,
            1_000 + 400 + 500
        );
    }

    #[test]
    fn unattributed_share_of_the_roots() {
        let mut pipeline = Layers::default();
        pipeline.absorb(&[
            span("bench.verify", 1, 0, 1_000, 100),
            span("analyzer.analyze", 1, 10, 900, 900),
        ]);
        assert!((pipeline.unattributed_pct() - 10.0).abs() < 1e-9);
        let mut routed = Layers::default();
        routed.absorb(&[
            span("bench.job", 1, 0, 1_000, 1_000),
            span("router.request", 7, 100, 600, 600),
        ]);
        assert!((routed.unattributed_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn layer_metrics_are_per_operation() {
        let mut inputs = LayerInputs {
            ops: 2,
            ..LayerInputs::default()
        };
        inputs.layers.absorb(&[
            span("bench.nbf_recover", 1, 0, 3_000_000, 3_000_000),
            span("bench.nbf_recover", 1, 5_000_000, 1_000_000, 1_000_000),
        ]);
        let metrics = per_layer(&inputs);
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert_eq!(get("sched.nbf_recover.calls"), 1.0);
        assert_eq!(get("sched.nbf_recover.self_ms"), 2.0);
        assert_eq!(get("router.request.mean_us"), 0.0);
    }
}
