//! A minimal JSON writer (the workspace is hermetic: no serde) plus the
//! machine-readable serializations shared by `nptsn verify --json` and the
//! serving layer's response bodies.
//!
//! Only what the toolchain needs: object/array building with correct
//! string escaping and finite-number handling. The reader lives apart, in
//! `nptsn_obs::json::parse`, which decodes routed responses, ledgers and
//! traces; merging the two is ROADMAP item 5, since it adds a dependency
//! edge between the crates.

use std::fmt::Write as _;

use nptsn::{AnalysisReport, EpochStats, PlanningProblem, Verdict};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite float as a JSON number; non-finite values (which JSON
/// cannot represent) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An incremental JSON object writer.
///
/// # Examples
///
/// ```
/// let mut obj = nptsn_format::json::Object::new();
/// obj.str("name", "s0");
/// obj.num("cost", 20.0);
/// obj.bool("ok", true);
/// assert_eq!(obj.finish(), r#"{"name":"s0","cost":20,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct Object {
    buf: String,
}

impl Object {
    /// Starts an empty object.
    pub fn new() -> Object {
        Object { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
    }

    /// Adds a numeric field (`null` for non-finite values).
    pub fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        self.buf.push_str(&number(value));
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a `null` field.
    pub fn null(&mut self, key: &str) {
        self.key(key);
        self.buf.push_str("null");
    }

    /// Adds a field whose value is already-rendered JSON (a nested object
    /// or array).
    pub fn raw(&mut self, key: &str, raw_json: &str) {
        self.key(key);
        self.buf.push_str(raw_json);
    }

    /// Adds an array-of-strings field.
    pub fn str_array(&mut self, key: &str, values: impl IntoIterator<Item = impl AsRef<str>>) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "\"{}\"", escape(v.as_ref()));
        }
        self.buf.push(']');
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The machine-readable form of one failure-analysis run: verdict,
/// coverage, and cache statistics — exactly the `AnalysisReport` fields,
/// with node ids resolved to names via the problem's connection graph.
/// Its callers analyze through a fresh cache per call, which cannot hit,
/// so `cache_misses` equals `scenarios_checked` and `cache_hits` is 0.
///
/// This single serializer backs both `nptsn verify --json` and the
/// service's verify endpoint, so the two never drift apart:
///
/// ```json
/// {"verdict":"unreliable","reliable":false,"failed_switches":["s0"],
///  "errors":"...","conclusive":true,"scenarios_checked":1,
///  "exhausted":true,"cache_hits":0,"cache_misses":1,"cost":11.0}
/// ```
///
/// `conclusive` is false exactly for `Verdict::Inconclusive` (the budget
/// ran out before reliability could be decided); consumers gate on it
/// because an inconclusive "not reliable" is *not* a disproof.
pub fn analysis_report_json(
    problem: &PlanningProblem,
    report: &AnalysisReport,
    cost: Option<f64>,
) -> String {
    let mut obj = Object::new();
    match &report.verdict {
        Verdict::Reliable => {
            obj.str("verdict", "reliable");
            obj.bool("reliable", true);
        }
        Verdict::Inconclusive { .. } => {
            obj.str("verdict", "inconclusive");
            obj.bool("reliable", false);
        }
        Verdict::Unreliable { failure, errors } => {
            obj.str("verdict", "unreliable");
            obj.bool("reliable", false);
            let gc = problem.connection_graph();
            obj.str_array(
                "failed_switches",
                failure.failed_switches().iter().map(|&s| gc.name(s)),
            );
            obj.str("errors", &errors.to_string());
        }
    }
    obj.bool("conclusive", !matches!(report.verdict, Verdict::Inconclusive { .. }));
    obj.int("scenarios_checked", report.scenarios_checked);
    obj.bool("exhausted", report.exhausted);
    obj.int("cache_hits", report.cache_hits);
    obj.int("cache_misses", report.cache_misses);
    match cost {
        Some(c) => obj.num("cost", c),
        None => obj.null("cost"),
    }
    obj.finish()
}

/// The machine-readable form of one training epoch's diagnostics, used by
/// the service's job-status endpoint to stream live progress.
pub fn epoch_stats_json(stats: &EpochStats) -> String {
    let mut obj = Object::new();
    obj.int("epoch", stats.epoch as u64);
    obj.num("mean_episode_return", f64::from(stats.mean_episode_return));
    obj.int("episodes", stats.episodes as u64);
    obj.int("solutions_found", stats.solutions_found as u64);
    match stats.best_cost {
        Some(c) => obj.num("best_cost", c),
        None => obj.null("best_cost"),
    }
    obj.num("policy_loss", f64::from(stats.policy_loss));
    obj.num("value_loss", f64::from(stats.value_loss));
    obj.num("approx_kl", f64::from(stats.approx_kl));
    obj.num("entropy", f64::from(stats.entropy));
    obj.int("poisoned_workers", stats.poisoned_workers as u64);
    obj.int("scenarios_checked", stats.scenarios_checked);
    obj.int("ppo_rollbacks", stats.ppo_rollbacks as u64);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_problem;
    use nptsn::FailureAnalyzer;

    const DOC: &str = "\
[nodes]
es a
es b
sw s0
sw s1
[links]
a s0
a s1
b s0
b s1
s0 s1
[flows]
a b 500 128
";

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_render_finite_and_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_emits_valid_fields() {
        let mut obj = Object::new();
        obj.str("s", "x\"y");
        obj.int("i", 7);
        obj.bool("b", false);
        obj.null("n");
        obj.raw("r", "[1,2]");
        obj.str_array("a", ["p", "q"]);
        assert_eq!(
            obj.finish(),
            r#"{"s":"x\"y","i":7,"b":false,"n":null,"r":[1,2],"a":["p","q"]}"#
        );
        assert_eq!(Object::new().finish(), "{}");
    }

    #[test]
    fn reliable_report_serializes() {
        let parsed = parse_problem(DOC).unwrap();
        // Build a reliable redundant topology.
        let gc = parsed.problem.connection_graph();
        let mut topo = gc.empty_topology();
        let (s0, s1) = (parsed.nodes_by_name["s0"], parsed.nodes_by_name["s1"]);
        let (a, b) = (parsed.nodes_by_name["a"], parsed.nodes_by_name["b"]);
        topo.add_switch(s0, nptsn_topo::Asil::A).unwrap();
        topo.add_switch(s1, nptsn_topo::Asil::A).unwrap();
        for (u, v) in [(a, s0), (b, s0), (a, s1), (b, s1)] {
            topo.add_link(u, v).unwrap();
        }
        let report = FailureAnalyzer::new().try_analyze(&parsed.problem, &topo).unwrap();
        let json = analysis_report_json(&parsed.problem, &report, Some(20.0));
        assert!(json.contains("\"verdict\":\"reliable\""), "{json}");
        assert!(json.contains("\"reliable\":true"));
        assert!(json.contains("\"exhausted\":true"));
        assert!(json.contains("\"cost\":20"));
        assert!(!json.contains("failed_switches"));
    }

    #[test]
    fn unreliable_report_names_the_failure() {
        let parsed = parse_problem(DOC).unwrap();
        let gc = parsed.problem.connection_graph();
        let mut topo = gc.empty_topology();
        let s0 = parsed.nodes_by_name["s0"];
        topo.add_switch(s0, nptsn_topo::Asil::A).unwrap();
        topo.add_link(parsed.nodes_by_name["a"], s0).unwrap();
        topo.add_link(parsed.nodes_by_name["b"], s0).unwrap();
        let report = FailureAnalyzer::new().try_analyze(&parsed.problem, &topo).unwrap();
        let json = analysis_report_json(&parsed.problem, &report, None);
        assert!(json.contains("\"verdict\":\"unreliable\""), "{json}");
        assert!(json.contains("\"failed_switches\":[\"s0\"]"), "{json}");
        assert!(json.contains("\"errors\":"));
        assert!(json.contains("\"cost\":null"));
    }

    #[test]
    fn epoch_stats_serialize_with_optional_cost() {
        let stats = nptsn::EpochStats {
            epoch: 3,
            mean_episode_return: -0.5,
            episodes: 10,
            solutions_found: 2,
            best_cost: None,
            policy_loss: 0.1,
            value_loss: 0.2,
            approx_kl: 0.0,
            entropy: 1.0,
            poisoned_workers: 0,
            scenarios_checked: 17,
            ppo_rollbacks: 1,
        };
        let json = epoch_stats_json(&stats);
        assert!(json.contains("\"epoch\":3"), "{json}");
        assert!(json.contains("\"best_cost\":null"));
        assert!(json.contains("\"mean_episode_return\":-0.5"));
        assert!(json.contains("\"scenarios_checked\":17"));
        assert!(json.contains("\"ppo_rollbacks\":1"));
    }
}
