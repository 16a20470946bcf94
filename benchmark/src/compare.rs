//! `benchmark compare`: judges a change's result files against its
//! parent's, workload by workload and metric by metric.
//!
//! A metric is `REGRESSION` when the change's median is worse than the
//! parent's by more than the metric's bound, and `unresolved` when the
//! run-to-run spread on either side is wider than the bound — unless every
//! run of the change reads better than every run of the parent. Metrics
//! without a bound are shown but not judged. A workload
//! on which the change fails more operations per run than the parent is a
//! `REGRESSION` too. A named claim holds when the change wins at least
//! nine tenths of the pairs (`--base` and `--new` files pair up in order;
//! ties count for neither), the medians differ by more than the parent's
//! quartile spread, and the change fails no more operations. Runs of the
//! same seed on both sides must produce the same plans (digests);
//! otherwise `compare` prints `PLANS CHANGED` and fails, which a change
//! that means to alter what the planner computes says in its claim.

use std::collections::BTreeMap;

use nptsn_obs::json::Value;

use crate::stats::{median, quartiles, relative_spread, show};
use crate::workload::{MetricDef, Workload, METRICS};

/// One results file: the core count, the seed, and each workload's
/// end-to-end values, failed operations and plan digest.
#[derive(Debug)]
pub struct RunFile {
    pub cores: u64,
    pub seed: u64,
    pub values: BTreeMap<String, BTreeMap<String, f64>>,
    pub failed: BTreeMap<String, u64>,
    pub digests: BTreeMap<String, String>,
}

impl RunFile {
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let doc = nptsn_obs::json::parse(text).map_err(|e| e.to_string())?;
        let cores = doc.get("cores").and_then(Value::as_num).ok_or("no cores")? as u64;
        let seed = doc.get("seed").and_then(Value::as_num).ok_or("no seed")? as u64;
        let mut values = BTreeMap::new();
        let mut failed = BTreeMap::new();
        let mut digests = BTreeMap::new();
        for w in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("no workloads")?
        {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a workload has no name")?;
            let Some(Value::Obj(metrics)) = w.get("metrics") else {
                return Err(format!("{name} has no metrics"));
            };
            let metrics = metrics
                .iter()
                .filter_map(|(m, v)| Some((m.clone(), v.get("value")?.as_num()?)))
                .collect();
            values.insert(name.to_string(), metrics);
            let fails = w.get("failed").and_then(Value::as_num);
            failed.insert(
                name.to_string(),
                fails.ok_or_else(|| format!("{name} has no failed count"))? as u64,
            );
            if let Some(digest) = w.get("digest").and_then(Value::as_str) {
                digests.insert(name.to_string(), digest.to_string());
            }
        }
        Ok(RunFile {
            cores,
            seed,
            values,
            failed,
            digests,
        })
    }

    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.values.get(workload)?.get(metric).copied()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "not bounded",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when it is better.
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let delta = if def.higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs()
}

fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    if def.higher_is_better {
        a > b
    } else {
        a < b
    }
}

pub fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| better(def, n, b)));
    let spread = relative_spread(base)
        .zip(relative_spread(new))
        .map(|(a, b)| a.max(b));
    if !all_better && spread.is_none_or(|s| s > bound) {
        return Verdict::Unresolved;
    }
    if worsening(def, median(base), median(new)) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The pair rule for a claimed gain: `(wins, pairs, met)`.
pub fn claim(def: &MetricDef, base: &[f64], new: &[f64]) -> (usize, usize, bool) {
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(&b, &n)| better(def, n, b))
        .count();
    let base_iqr = quartiles(base).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    let gain = -worsening(def, median(base), median(new)) * median(base).abs();
    let met = pairs > 0 && wins * 10 >= pairs * 9 && gain > base_iqr;
    (wins, pairs, met)
}

/// Failed operations per run of `workload`, over the runs that have it.
fn failed_per_run(runs: &[RunFile], workload: &str) -> Option<f64> {
    let counts: Vec<u64> = runs
        .iter()
        .filter_map(|r| r.failed.get(workload).copied())
        .collect();
    (!counts.is_empty()).then(|| counts.iter().sum::<u64>() as f64 / counts.len() as f64)
}

/// Among base and new runs with the same seed, how many produced the same
/// plans: `(identical, pairs)`.
fn same_plans(base: &[RunFile], new: &[RunFile], workload: &str) -> (usize, usize) {
    let mut same = 0;
    let mut pairs = 0;
    for b in base {
        for n in new.iter().filter(|n| n.seed == b.seed) {
            if let (Some(x), Some(y)) = (b.digests.get(workload), n.digests.get(workload)) {
                pairs += 1;
                same += usize::from(x == y);
            }
        }
    }
    (same, pairs)
}

fn load(paths: &[String]) -> Result<Vec<RunFile>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            RunFile::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn column(runs: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.value(workload, metric))
        .collect()
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{:>11} [{}, {}]", show(q2), show(q1), show(q3)),
        None => format!("{:>11} [n={}]", show(median(values)), values.len()),
    }
}

/// What `compare` found: the report it prints and what fails it.
#[derive(Debug, Default)]
pub struct Judgement {
    pub lines: Vec<String>,
    /// Metrics worse than their bound, and workloads on which the change
    /// fails more operations.
    pub regressions: usize,
    /// Workloads whose same-seed runs produced different plans.
    pub plans_changed: usize,
    pub unmet_claims: usize,
}

impl Judgement {
    pub fn passed(&self) -> bool {
        self.regressions + self.plans_changed + self.unmet_claims == 0
    }
}

/// Judges `new` against `base`, and each claim `WORKLOAD:METRIC`.
pub fn judge(base: &[RunFile], new: &[RunFile], claims: &[String]) -> Result<Judgement, String> {
    let cores: Vec<u64> = base.iter().chain(new).map(|r| r.cores).collect();
    if cores.iter().any(|&c| c != cores[0]) {
        return Err(format!(
            "refusing to compare runs on different core counts {cores:?}"
        ));
    }
    let mut j = Judgement::default();
    j.lines.push(format!(
        "{:<14} {:<11} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    ));
    let mut fails_more = Vec::new();
    for workload in Workload::ALL.map(Workload::name) {
        for def in &METRICS {
            let (b, n) = (
                column(base, workload, def.name),
                column(new, workload, def.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(def, &b, &n);
            j.regressions += usize::from(v == Verdict::Regression);
            let change = 100.0 * (median(&n) / median(&b) - 1.0);
            j.lines.push(format!(
                "{workload:<14} {:<11} {:>38} {:>38} {change:>+7.2}%  {}",
                def.name,
                summary(&b),
                summary(&n),
                v.label()
            ));
        }
        if let (Some(b), Some(n)) = (
            failed_per_run(base, workload),
            failed_per_run(new, workload),
        ) {
            let v = if n > b {
                fails_more.push(workload);
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            j.regressions += usize::from(v == Verdict::Regression);
            j.lines.push(format!(
                "{workload:<14} failed operations per run: base {b}, new {n}  {}",
                v.label()
            ));
        }
        let (same, pairs) = same_plans(base, new, workload);
        if pairs > 0 {
            let changed = same < pairs;
            j.plans_changed += usize::from(changed);
            j.lines.push(format!(
                "{workload:<14} plans identical in {same} of {pairs} runs with matching seeds{}",
                if changed { "  PLANS CHANGED" } else { "" }
            ));
        }
    }

    for c in claims {
        let parsed = c.split_once(':').and_then(|(w, m)| {
            let def = METRICS.iter().find(|d| d.name == m)?;
            Some((w, def))
        });
        let Some((workload, def)) = parsed else {
            return Err(format!("a claim is WORKLOAD:METRIC, got {c}"));
        };
        let (b, n) = (
            column(base, workload, def.name),
            column(new, workload, def.name),
        );
        let (wins, pairs, met) = claim(def, &b, &n);
        let fails = fails_more.contains(&workload);
        let met = met && !fails;
        j.unmet_claims += usize::from(!met);
        j.lines.push(format!(
            "claim {c}: change better in {wins} of {pairs} pairs{}; {}",
            if fails {
                ", but fails more operations"
            } else {
                ""
            },
            if met { "met" } else { "NOT MET" }
        ));
    }
    Ok(j)
}

pub fn main(args: &[String]) -> i32 {
    let (mut base, mut new, mut claims) = (Vec::new(), Vec::new(), Vec::new());
    let mut target = None;
    for arg in args {
        match arg.as_str() {
            "--base" | "--new" | "--claim" => target = Some(arg.as_str()),
            value => match target {
                Some("--base") => base.push(value.to_string()),
                Some("--new") => new.push(value.to_string()),
                Some("--claim") => claims.push(value.to_string()),
                _ => {
                    eprintln!("benchmark compare: unexpected argument {value}");
                    return 2;
                }
            },
        }
    }
    let (base, new) = match (load(&base), load(&new)) {
        (Ok(b), Ok(n)) if !b.is_empty() && !n.is_empty() => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("benchmark compare: give at least one --base and one --new file");
            return 2;
        }
    };
    match judge(&base, &new, &claims) {
        Ok(j) => {
            for line in &j.lines {
                println!("{line}");
            }
            if j.passed() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(cores: u64, latency_ms: f64, setup_s: f64) -> RunFile {
        let text = format!(
            r#"{{"cores":{cores},"seed":7,"workloads":[{{"name":"orion-verify","failed":0,"digest":"ab","metrics":{{
            "op_ms_p50":{{"value":{latency_ms},"unit":"ms"}},
            "setup_s":{{"value":{setup_s},"unit":"s"}}}}}}]}}"#
        );
        RunFile::parse(&text).unwrap()
    }

    /// Ten runs each side, the change 10% faster: a steady, met claim.
    fn faster_by_a_tenth() -> (Vec<RunFile>, Vec<RunFile>) {
        let base = (0..10).map(|i| file(2, 10.0 + 0.01 * f64::from(i), 1.0));
        let new = (0..10).map(|i| file(2, 9.0 + 0.01 * f64::from(i), 1.0));
        (base.collect(), new.collect())
    }

    fn claims() -> Vec<String> {
        vec!["orion-verify:op_ms_p50".to_string()]
    }

    fn def(name: &str) -> &'static MetricDef {
        METRICS.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn reads_hand_built_result_files() {
        let f = file(2, 12.5, 0.25);
        assert_eq!(f.cores, 2);
        assert_eq!(f.value("orion-verify", "op_ms_p50"), Some(12.5));
        assert_eq!(f.value("orion-verify", "ops_per_s"), None);
        assert_eq!(f.failed["orion-verify"], 0);
        assert!(RunFile::parse(r#"{"seed":1,"workloads":[]}"#).is_err());
    }

    #[test]
    fn a_steady_gain_passes() {
        let (base, new) = faster_by_a_tenth();
        let j = judge(&base, &new, &claims()).unwrap();
        assert!(j.passed(), "{:#?}", j.lines);
        assert!(j.lines.last().unwrap().ends_with("; met"));
    }

    #[test]
    fn more_failed_operations_are_a_regression_and_void_the_claim() {
        let (base, mut new) = faster_by_a_tenth();
        new[3].failed.insert("orion-verify".to_string(), 2);
        let j = judge(&base, &new, &claims()).unwrap();
        assert_eq!((j.regressions, j.unmet_claims), (1, 1));
        assert!(!j.passed());
        assert!(j
            .lines
            .iter()
            .any(|l| l.contains("failed operations per run: base 0, new 0.2  REGRESSION")));
        // Failing fewer operations than the parent is fine.
        let (mut base, new) = faster_by_a_tenth();
        base[0].failed.insert("orion-verify".to_string(), 1);
        assert!(judge(&base, &new, &claims()).unwrap().passed());
    }

    #[test]
    fn changed_plans_fail_the_comparison() {
        let (base, mut new) = faster_by_a_tenth();
        new[5]
            .digests
            .insert("orion-verify".to_string(), "cd".to_string());
        let j = judge(&base, &new, &[]).unwrap();
        assert_eq!((j.regressions, j.plans_changed), (0, 1));
        assert!(!j.passed());
        assert!(j.lines.iter().any(|l| l.ends_with("PLANS CHANGED")));
    }

    #[test]
    fn refuses_mixed_core_counts() {
        let (base, mut new) = faster_by_a_tenth();
        new[0].cores = 4;
        assert!(judge(&base, &new, &[]).is_err());
    }

    #[test]
    fn plans_compare_by_seed() {
        let base = [file(2, 10.0, 1.0)];
        let mut changed = file(2, 10.0, 1.0);
        assert_eq!(
            same_plans(&base, &[file(2, 11.0, 1.0)], "orion-verify"),
            (1, 1)
        );
        changed
            .digests
            .insert("orion-verify".to_string(), "cd".to_string());
        assert_eq!(same_plans(&base, &[changed], "orion-verify"), (0, 1));
        let mut other_seed = file(2, 10.0, 1.0);
        other_seed.seed = 8;
        assert_eq!(same_plans(&base, &[other_seed], "orion-verify"), (0, 0));
    }

    #[test]
    fn verdicts() {
        let latency = def("op_ms_p50");
        let base = [10.0, 10.1, 9.9, 10.0, 10.2];
        // Within the bound.
        assert_eq!(
            verdict(latency, &base, &[10.5, 10.4, 10.6, 10.5, 10.3]),
            Verdict::Ok
        );
        // Steady and 30% slower.
        assert_eq!(
            verdict(latency, &base, &[13.0, 13.1, 12.9, 13.0, 13.2]),
            Verdict::Regression
        );
        // Too noisy to tell.
        assert_eq!(
            verdict(latency, &base, &[8.0, 12.0, 10.0, 14.0, 9.0]),
            Verdict::Unresolved
        );
        // Noisy, but every run of the change beats every run of the parent.
        assert_eq!(
            verdict(latency, &base, &[5.0, 7.0, 6.0, 9.0, 8.0]),
            Verdict::Ok
        );
        // One run per side has no spread to judge.
        assert_eq!(verdict(latency, &[10.0], &[10.1]), Verdict::Unresolved);
        // Better higher, and without a bound: shown, never judged.
        let throughput = MetricDef {
            bound: Some(0.25),
            ..*def("ops_per_s")
        };
        assert_eq!(
            verdict(&throughput, &base, &[7.0, 7.1, 6.9, 7.0, 7.2]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(def("ops_per_s"), &base, &[7.0, 7.1, 6.9, 7.0, 7.2]),
            Verdict::Unbounded
        );
    }

    #[test]
    fn the_pair_rule() {
        let latency = def("op_ms_p50");
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 10.0, 10.1, 9.9, 10.0, 10.2];
        let faster = [9.0, 9.1, 8.9, 9.0, 9.2, 9.0, 9.1, 8.9, 9.0, 10.3];
        assert_eq!(claim(latency, &base, &faster), (9, 10, true));
        // Eight wins of ten is not enough.
        let mixed = [9.0, 9.1, 8.9, 9.0, 9.2, 9.0, 9.1, 8.9, 10.3, 10.3];
        assert_eq!(claim(latency, &base, &mixed), (8, 10, false));
        // Winning every pair by less than the parent's own spread is not a gain.
        let marginal: Vec<f64> = base.iter().map(|b| b - 0.01).collect();
        assert_eq!(claim(latency, &base, &marginal), (10, 10, false));
    }
}
