//! A small in-tree metrics registry (counters, gauges, histograms) with a
//! Prometheus text-format exporter — the backing store of `/metrics`.
//!
//! This module started life in `nptsn-serve` and moved here so every crate
//! (planner, analyzer, CLI) can report through the same registry type;
//! `nptsn-serve` re-exports it, and the process-wide instance lives in
//! [`crate::telemetry()`]. Series names and render output are unchanged by
//! the move.
//!
//! Handles are cheap `Arc`s over atomics: recording a sample is a couple
//! of relaxed atomic operations, so metrics can sit on the planner's epoch
//! path and the analyzer accounting without measurable cost. Registration
//! is idempotent — asking for an existing `(name, labels)` pair returns
//! the same handle — so components can register their own metrics without
//! coordinating.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram with fixed upper-bound buckets (seconds by convention).
///
/// The sum is accumulated in nanoseconds in an atomic, so observation
/// never takes a lock.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// The default latency buckets: 100 µs … 10 s.
    pub fn latency_bounds() -> Vec<f64> {
        vec![1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0]
    }

    /// Records one observation (seconds for latency histograms).
    pub fn observe(&self, value: f64) {
        for (bound, count) in self.bounds.iter().zip(&self.counts) {
            if value <= *bound {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
        let nanos = if value.is_finite() && value > 0.0 {
            (value * 1e9).min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0..=1) estimated from the bucket boundaries: the
    /// smallest bucket upper bound covering the quantile, `+Inf` mapped to
    /// the largest bound. Good enough for benchmark summaries.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        for (bound, count) in self.bounds.iter().zip(&self.counts) {
            if count.load(Ordering::Relaxed) >= rank {
                return *bound;
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// The kind of a registered metric family.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    /// Entries keyed by the rendered label set (`""` for no labels, or
    /// e.g. `code="503"`).
    entries: BTreeMap<String, Metric>,
}

/// The metrics registry: owns every family and renders the Prometheus
/// text exposition format.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, labels: &str, help: &str, make: impl Fn() -> Metric) -> Metric {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            entries: BTreeMap::new(),
        });
        family.entries.entry(labels.to_string()).or_insert_with(make).clone()
    }

    /// Registers (or fetches) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_labeled(name, "", help)
    }

    /// Registers (or fetches) a counter with a rendered label set such as
    /// `code="503"`.
    pub fn counter_labeled(&self, name: &str, labels: &str, help: &str) -> Arc<Counter> {
        match self.register(name, labels, help, || Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, "", help)
    }

    /// Registers (or fetches) a gauge with a rendered label set.
    pub fn gauge_labeled(&self, name: &str, labels: &str, help: &str) -> Arc<Gauge> {
        match self.register(name, labels, help, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or fetches) an unlabeled histogram with the given bucket
    /// upper bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self.register(name, "", help, || Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`# HELP` and `# TYPE` lines on every series, cumulative histogram
    /// buckets with a `+Inf` bound).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let type_name =
                family.entries.values().next().map_or("counter", Metric::type_name);
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {type_name}");
            for (labels, metric) in &family.entries {
                let label_set = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                };
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{label_set} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{label_set} {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        // The `le` label composes with any other labels on
                        // the series.
                        let le_prefix = if labels.is_empty() {
                            String::new()
                        } else {
                            format!("{labels},")
                        };
                        let mut cumulative_rendered = 0u64;
                        for (bound, count) in h.bounds.iter().zip(&h.counts) {
                            cumulative_rendered = count.load(Ordering::Relaxed);
                            let _ = writeln!(
                                out,
                                "{name}_bucket{{{le_prefix}le=\"{bound}\"}} {cumulative_rendered}"
                            );
                        }
                        let total = h.count();
                        debug_assert!(cumulative_rendered <= total);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {total}"
                        );
                        let sum = h.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                        let _ = writeln!(out, "{name}_sum{label_set} {sum}");
                        let _ = writeln!(out, "{name}_count{label_set} {total}");
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_track() {
        let registry = Registry::new();
        let c = registry.counter("nptsn_test_total", "test counter");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent registration returns the same handle.
        assert_eq!(registry.counter("nptsn_test_total", "test counter").get(), 3);
        let g = registry.gauge("nptsn_test_depth", "test gauge");
        g.set(5);
        g.sub(2);
        g.add(1);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let registry = Registry::new();
        let ok = registry.counter_labeled("nptsn_http_responses_total", "code=\"200\"", "by code");
        let err = registry.counter_labeled("nptsn_http_responses_total", "code=\"503\"", "by code");
        ok.add(7);
        err.inc();
        let text = registry.render();
        assert!(text.contains("nptsn_http_responses_total{code=\"200\"} 7"), "{text}");
        assert!(text.contains("nptsn_http_responses_total{code=\"503\"} 1"), "{text}");
        // One HELP/TYPE block for the family.
        assert_eq!(text.matches("# TYPE nptsn_http_responses_total").count(), 1);
    }

    #[test]
    fn labeled_gauges_render_their_label_set() {
        let registry = Registry::new();
        registry.gauge_labeled("nptsn_pool_size", "pool=\"a\"", "by pool").set(3);
        registry.gauge_labeled("nptsn_pool_size", "pool=\"b\"", "by pool").set(9);
        let text = registry.render();
        assert!(text.contains("nptsn_pool_size{pool=\"a\"} 3"), "{text}");
        assert!(text.contains("nptsn_pool_size{pool=\"b\"} 9"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let h = registry.histogram("nptsn_lat_seconds", "latency", &[0.01, 0.1, 1.0]);
        h.observe(0.005);
        h.observe(0.05);
        h.observe(5.0); // beyond the last bound: only +Inf
        let text = registry.render();
        assert!(text.contains("nptsn_lat_seconds_bucket{le=\"0.01\"} 1"), "{text}");
        assert!(text.contains("nptsn_lat_seconds_bucket{le=\"0.1\"} 2"), "{text}");
        assert!(text.contains("nptsn_lat_seconds_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("nptsn_lat_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("nptsn_lat_seconds_count 3"), "{text}");
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_quantiles_estimate_from_buckets() {
        let h = Histogram::new(&[0.001, 0.01, 0.1, 1.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for _ in 0..99 {
            h.observe(0.0005);
        }
        h.observe(0.5);
        assert_eq!(h.quantile(0.5), 0.001);
        assert_eq!(h.quantile(0.99), 0.001);
        assert_eq!(h.quantile(1.0), 1.0);
    }

    #[test]
    fn render_includes_help_and_type() {
        let registry = Registry::new();
        registry.counter("nptsn_a_total", "does things").inc();
        registry.gauge("nptsn_b", "measures things").set(-3);
        let text = registry.render();
        assert!(text.contains("# HELP nptsn_a_total does things"));
        assert!(text.contains("# TYPE nptsn_a_total counter"));
        assert!(text.contains("# TYPE nptsn_b gauge"));
        assert!(text.contains("nptsn_b -3"));
    }
}
