//! The `BENCH_<name>.json` ledgers of the service and analyzer benches:
//! one writer, one percentile, one smoke switch (DESIGN.md §17).

use std::path::PathBuf;

use nptsn_format::json;
use nptsn_obs::json::Value;

/// Whether this is a smoke run (`NPTSN_BENCH_SMOKE` set): every ledger
/// binary shrinks its workload to a plumbing check and writes its ledger
/// under `target/`, away from the committed numbers.
pub fn smoke() -> bool {
    std::env::var("NPTSN_BENCH_SMOKE").is_ok()
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, the
/// definition `benchmark/src/stats.rs` uses: the smallest sample with at
/// least `p`% of the samples at or below it. The median is its p50; the
/// p99 of fewer than 100 samples is the largest. `NaN` when there are no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The scratch directory `nptsn-bench-<tag>-<pid>` under the system temp
/// dir, with whatever an earlier run left there removed.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nptsn-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fields of one JSON object, each value rendered with
/// `nptsn_format::json`'s escaping and number format; floats keep five
/// significant digits, more than any benchmark number resolves.
#[derive(Debug, Default)]
pub struct Fields(Vec<String>);

impl Fields {
    fn push(&mut self, key: &str, value: String) -> &mut Fields {
        self.0.push(format!("\"{}\": {value}", json::escape(key)));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Fields {
        self.push(key, value.to_string())
    }

    /// Adds a float field (`null` when not finite).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Fields {
        let tidy = format!("{value:.4e}").parse().unwrap_or(value);
        self.push(key, json::number(tidy))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Fields {
        self.push(key, value.to_string())
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Fields {
        self.push(key, format!("\"{}\"", json::escape(value)))
    }

    /// Adds a nested object that `fill` fills in.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Fields)) -> &mut Fields {
        let mut inner = Fields::default();
        fill(&mut inner);
        self.push(key, inner.compact())
    }

    /// Adds an array of objects, one per item, each filled in by `fill`.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Fields, T),
    ) -> &mut Fields {
        let rendered: Vec<String> = items
            .into_iter()
            .map(|item| {
                let mut inner = Fields::default();
                fill(&mut inner, item);
                inner.compact()
            })
            .collect();
        self.push(key, format!("[{}]", rendered.join(", ")))
    }

    fn compact(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }

    /// The top level of a ledger: one field per line.
    fn lines(&self) -> String {
        format!("{{\n  {}\n}}\n", self.0.join(",\n  "))
    }
}

/// Writes ledger `name`: `BENCH_<name>.json` in the working directory, or
/// `target/BENCH_<name>.smoke.json` in a smoke run. It stamps
/// `benchmark`, `smoke` and `cpu_cores`, then the fields `fill` adds. A
/// full run first prints how the numbers moved against the ledger it
/// replaces ([`compare`]).
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_ledger(name: &str, benchmark: &str, fill: impl FnOnce(&mut Fields)) {
    let smoke = smoke();
    let mut fields = Fields::default();
    fields.str("benchmark", benchmark).bool("smoke", smoke);
    fields.int("cpu_cores", crate::cpu_cores() as u64);
    fill(&mut fields);
    let text = fields.lines();
    let path = if smoke {
        format!("target/BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    };
    if let Some(committed) = std::fs::read_to_string(&path).ok().filter(|_| !smoke) {
        let lines = match nptsn_obs::json::parse(&committed) {
            Ok(old) => compare(&old, &nptsn_obs::json::parse(&text).expect("a ledger is JSON")),
            Err(e) => vec![format!("comparison skipped: {e}")],
        };
        for line in lines {
            println!("{name}: {line}");
        }
    }
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{name}: wrote {path}");
}

/// How far a number may move against the committed ledger, as a share of
/// the committed value, before [`compare`] reports it.
pub const MOVE_THRESHOLD: f64 = 0.10;

/// Compares a fresh ledger with the committed one it replaces. When both
/// ran on the same number of cores, returns one line per numeric field
/// that moved by more than [`MOVE_THRESHOLD`] of its committed value, by
/// its path, one per field that stopped or started being a number (a NaN
/// is written as `null`), one per field that moved off a committed zero,
/// and one per field present on one side only; otherwise one line saying
/// why nothing was compared.
pub fn compare(old: &Value, new: &Value) -> Vec<String> {
    let cores = |doc: &Value| doc.get("cpu_cores").and_then(Value::as_num);
    if cores(old) != cores(new) {
        let show = |c: Option<f64>| c.map_or("unknown".to_string(), |c| c.to_string());
        let (was, now) = (show(cores(old)), show(cores(new)));
        return vec![format!(
            "comparison skipped: the committed ledger ran on {was} cores, this run on {now}"
        )];
    }
    let (old, new) = (leaves(old), leaves(new));
    let lookup = |leaves: &[(String, Option<f64>)], path: &str| {
        leaves.iter().find(|(p, _)| p == path).map(|&(_, num)| num)
    };
    let mut lines = Vec::new();
    for (path, was) in &old {
        match (*was, lookup(&new, path)) {
            (_, None) => lines.push(format!("{path}: only in the committed ledger")),
            (Some(was), Some(None)) => lines.push(format!("{path}: {was} -> not a number")),
            (None, Some(Some(now))) => lines.push(format!("{path}: not a number -> {now}")),
            (Some(was), Some(Some(now))) if was == 0.0 && now != 0.0 => {
                lines.push(format!("{path}: 0 -> {now} (from zero)"));
            }
            (Some(was), Some(Some(now))) if (now - was).abs() > MOVE_THRESHOLD * was.abs() => {
                let change = (now - was) / was.abs() * 100.0;
                lines.push(format!("{path}: {was} -> {now} ({change:+.1}%)"));
            }
            _ => {}
        }
    }
    for (path, _) in &new {
        if lookup(&old, path).is_none() {
            lines.push(format!("{path}: only in this run"));
        }
    }
    lines
}

/// The scalar leaves under `value`, each by its path
/// (`job_path.batches[0].p50_ns`) with its value when it is a number.
fn leaves(value: &Value) -> Vec<(String, Option<f64>)> {
    fn walk(value: &Value, path: String, out: &mut Vec<(String, Option<f64>)>) {
        match value {
            Value::Obj(pairs) => {
                for (key, child) in pairs {
                    let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    walk(child, path, out);
                }
            }
            Value::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    walk(child, format!("{path}[{i}]"), out);
                }
            }
            leaf => out.push((path, leaf.as_num())),
        }
    }
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0];
        assert_eq!(percentile(&samples, 50.0), 4.0);
        // Fewer than 100 samples: the p99 is the slowest, not the 6th of 7.
        assert_eq!(percentile(&samples, 99.0), 7.0);
        assert_eq!(percentile(&samples, 100.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        // An even count's median is the lower middle sample.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn ledger_renders_one_top_level_field_per_line() {
        let mut fields = Fields::default();
        fields
            .str("benchmark", "t\"q")
            .int("n", 3)
            .num("ms", 2.0 / 3.0)
            .num("nan", f64::NAN)
            .bool("ok", true)
            .object("inner", |o| {
                o.int("a", 1).num("b", 1.5);
            })
            .objects("rows", [1u64, 2], |o, i| {
                o.int("i", i);
            });
        let text = fields.lines();
        assert_eq!(
            text,
            "{\n  \"benchmark\": \"t\\\"q\",\n  \"n\": 3,\n  \"ms\": 0.66667,\n  \
             \"nan\": null,\n  \"ok\": true,\n  \"inner\": {\"a\": 1, \"b\": 1.5},\n  \
             \"rows\": [{\"i\": 1}, {\"i\": 2}]\n}\n"
        );
        assert!(nptsn_obs::json::parse(&text).is_ok());
    }

    fn doc(text: &str) -> Value {
        nptsn_obs::json::parse(text).unwrap()
    }

    #[test]
    fn compare_reports_moved_and_one_sided_fields_by_path() {
        let old = doc(r#"{"cpu_cores": 2, "rate": 100, "steady": 50, "gone": 1,
                "broken": 7.5, "idle": 0, "still": 0, "revived": null,
                "nested": {"p50_ns": 1000, "label": "x"},
                "rows": [{"ms": 10}, {"ms": 20}]}"#);
        let new = doc(r#"{"cpu_cores": 2, "rate": 89, "steady": 54, "fresh": true,
                "broken": null, "idle": 3, "still": 0, "revived": 4,
                "nested": {"p50_ns": 1200, "label": "y"},
                "rows": [{"ms": 10}, {"ms": 17}, {"ms": 5}]}"#);
        assert_eq!(
            compare(&old, &new),
            [
                "rate: 100 -> 89 (-11.0%)",
                "gone: only in the committed ledger",
                "broken: 7.5 -> not a number",
                "idle: 0 -> 3 (from zero)",
                "revived: not a number -> 4",
                "nested.p50_ns: 1000 -> 1200 (+20.0%)",
                "rows[1].ms: 20 -> 17 (-15.0%)",
                "fresh: only in this run",
                "rows[2].ms: only in this run",
            ]
        );
        assert!(compare(&old, &old).is_empty());
    }

    #[test]
    fn compare_skips_a_ledger_from_another_core_count() {
        let old = doc(r#"{"cpu_cores": 2, "rate": 100}"#);
        let new = doc(r#"{"cpu_cores": 8, "rate": 300}"#);
        assert_eq!(
            compare(&old, &new),
            ["comparison skipped: the committed ledger ran on 2 cores, this run on 8"]
        );
        let unstamped = doc(r#"{"rate": 100}"#);
        assert_eq!(
            compare(&unstamped, &new),
            ["comparison skipped: the committed ledger ran on unknown cores, this run on 8"]
        );
    }
}
