//! `benchmark`: the end-to-end benchmark of the NPTSN reproduction — the
//! paper pipeline on ORION (train, re-plan, verify) and the served path
//! (routed verify jobs), with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare --base A1.json... --new B1.json... [--claim WORKLOAD:METRIC]
//! ```
//!
//! `--seconds` fixes how many operations each workload measures (what the
//! 2-core host the benchmark was sized on completes in that time), not a
//! time box: both sides of a comparison measure the same operations.
//!
//! Every workload runs in a fresh child process (this binary re-executed),
//! so process-wide state — the flight recorder a `Server` arms, the
//! adjacency cache, the telemetry counters — never leaks from one workload
//! into the next. See README.md for the workloads and metrics.

mod compare;
mod pipeline;
mod routed;
mod stats;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use nptsn_format::json::Object;
use nptsn_obs::json::Value;

use workload::{Opts, Workload, METRICS};

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
  benchmark compare --base A.json... --new B.json... [--claim WORKLOAD:METRIC]
workloads: orion-train, orion-replan, orion-verify, routed-verify";

/// The re-executed child's first argument.
const CHILD: &str = "__workload";
/// Marks the child's result line on its standard output.
const RESULT: &str = "BENCHMARK_RESULT ";
const DEFAULT_SEED: u64 = 2023;
const DEFAULT_SECONDS: f64 = 20.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some(CHILD) => child(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
                parsed.workloads.push(w);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// What a child reported, or why it reported nothing; with `--trace`,
/// an untraced run combined with its traced twin.
struct ChildResult {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: String,
    plan_cost: f64,
    op_ms_mean: f64,
    /// `(name, unit, value)`.
    metrics: Vec<(String, String, f64)>,
    layers: Vec<(String, String, f64)>,
}

impl ChildResult {
    fn broken(error: String) -> ChildResult {
        ChildResult {
            errors: vec![error],
            attempted: 0,
            failed: 0,
            digest: String::new(),
            plan_cost: f64::NAN,
            op_ms_mean: f64::NAN,
            metrics: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn parse(json: &Value) -> Option<ChildResult> {
        let num = |key: &str| json.get(key).and_then(Value::as_num);
        let table = |key: &str| -> Option<Vec<(String, String, f64)>> {
            let Value::Obj(pairs) = json.get(key)? else {
                return None;
            };
            pairs
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit")?.as_str()?.to_string();
                    let value = m.get("value").and_then(Value::as_num).unwrap_or(f64::NAN);
                    Some((name.clone(), unit, value))
                })
                .collect()
        };
        Some(ChildResult {
            errors: json
                .get("errors")?
                .as_arr()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest: json.get("digest")?.as_str()?.to_string(),
            plan_cost: num("plan_cost").unwrap_or(f64::NAN),
            op_ms_mean: num("op_ms_mean").unwrap_or(f64::NAN),
            metrics: table("metrics")?,
            layers: table("layers")?,
        })
    }

    fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics the final line carries: the bounded end-to-end ones,
    /// or per-layer for a traced run.
    fn reported(&self, trace: bool) -> Vec<&(String, String, f64)> {
        if trace {
            return self.layers.iter().collect();
        }
        self.metrics
            .iter()
            .filter(|m| workload::end_to_end().any(|def| def.name == m.0))
            .collect()
    }
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, &'a str, f64)>) -> String {
    let mut obj = Object::new();
    for (name, unit, value) in metrics {
        let mut m = Object::new();
        m.num("value", value);
        m.str("unit", unit);
        obj.raw(name, &m.finish());
    }
    obj.finish()
}

/// The child: runs one workload and prints its result line.
fn child(args: &[String]) -> i32 {
    let [name, seed, ops, traced] = args else {
        eprintln!("benchmark: malformed child arguments {args:?}");
        return 2;
    };
    let (Some(workload), Ok(seed), Ok(ops)) = (Workload::parse(name), seed.parse(), ops.parse())
    else {
        eprintln!("benchmark: malformed child arguments {args:?}");
        return 2;
    };
    let opts = Opts {
        seed,
        ops,
        traced: traced == "1",
    };
    let outcome = workload.run(&opts);
    let tail = workload.tail_percentile();
    let beyond = stats::samples_beyond(outcome.op_ms.len(), tail);
    if tail > 50.0 && beyond < stats::TAIL_SUPPORT {
        let supported =
            stats::highest_supported_percentile(outcome.op_ms.len(), &[50.0, 90.0, 95.0, 99.0]);
        eprintln!(
            "benchmark: {name}: only {beyond} operations lie above p{tail}; the highest supported tail is {supported:?}"
        );
    }
    let values = outcome.metrics(workload);
    let mut obj = Object::new();
    obj.str_array("errors", &outcome.errors);
    obj.int("attempted", outcome.op_ms.len() as u64);
    obj.int("failed", outcome.failed as u64);
    obj.str("digest", &format!("{:016x}", outcome.digest));
    obj.num("plan_cost", outcome.plan_cost);
    obj.num(
        "op_ms_mean",
        outcome.op_ms.iter().sum::<f64>() / outcome.op_ms.len().max(1) as f64,
    );
    obj.raw(
        "metrics",
        &metrics_json(METRICS.iter().zip(values).map(|(m, v)| (m.name, m.unit, v))),
    );
    obj.raw("layers", &metrics_json(outcome.per_layer()));
    println!("{RESULT}{}", obj.finish());
    0
}

/// Runs one workload in a fresh child process and collects its result.
fn spawn_child(workload: Workload, args: &RunArgs, traced: bool) -> ChildResult {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return ChildResult::broken(format!("cannot locate the benchmark binary: {e}")),
    };
    let spawned = Command::new(exe)
        .args([
            CHILD,
            workload.name(),
            &args.seed.to_string(),
            &workload.ops(args.seconds).to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return ChildResult::broken(format!("cannot start {}: {e}", workload.name())),
    };
    let mut result = None;
    let stdout = child.stdout.take().expect("the child's stdout is piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        match line.strip_prefix(RESULT) {
            Some(json) => result = Some(json.to_string()),
            None => eprintln!("{line}"),
        }
    }
    let status = child.wait();
    match (status, result) {
        (Ok(s), Some(json)) if s.success() => nptsn_obs::json::parse(&json)
            .ok()
            .and_then(|v| ChildResult::parse(&v))
            .unwrap_or_else(|| ChildResult::broken(format!("unreadable result: {json}"))),
        (Ok(s), _) => ChildResult::broken(format!("{} exited with {s}", workload.name())),
        (Err(e), _) => ChildResult::broken(format!("{}: {e}", workload.name())),
    }
}

/// Runs one workload untraced and, with `--trace 1`, its traced twin.
fn run_workload(workload: Workload, args: &RunArgs) -> ChildResult {
    let mut result = spawn_child(workload, args, false);
    for (name, _, value) in &result.metrics {
        if !value.is_finite() || *value == 0.0 {
            result.errors.push(format!("{name} was not measured"));
        }
    }
    if !args.trace {
        return result;
    }
    // The traced twin repeats exactly the untraced run's operations, so
    // both produce the same plans and the overhead compares equal work.
    let traced = spawn_child(workload, args, true);
    result
        .errors
        .extend(traced.errors.into_iter().map(|e| format!("traced: {e}")));
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    if traced.digest != result.digest {
        result.errors.push(format!(
            "plans differ with tracing on: digest {} untraced, {} traced",
            result.digest, traced.digest
        ));
    }
    result.layers = traced.layers;
    let overhead = 100.0 * (traced.op_ms_mean / result.op_ms_mean - 1.0);
    result
        .layers
        .push(("trace.overhead_pct".to_string(), "%".to_string(), overhead));
    if workload == Workload::OrionTrain {
        check_phase_sum(&result.layers, traced.op_ms_mean, &mut result.errors);
    }
    result
}

/// The rollout and update phases of a traced epoch must account for the
/// epoch's wall time, so the blocking path of an epoch is all visible.
fn check_phase_sum(layers: &[(String, String, f64)], epoch_ms: f64, errors: &mut Vec<String>) {
    let get = |name: &str| layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.2);
    let phases = get("core.planner.rollout_phase_ms") + get("core.planner.update_phase_ms");
    if (phases - epoch_ms).abs() > 0.02 * epoch_ms {
        errors.push(format!(
            "epoch phases sum to {phases:.1} ms of a {epoch_ms:.1} ms epoch"
        ));
    }
}

fn results_json(results: &[(Workload, ChildResult)], args: &RunArgs, cores: usize) -> String {
    let mut doc = Object::new();
    doc.int("cores", cores as u64);
    doc.int("seed", args.seed);
    doc.num("seconds", args.seconds);
    doc.bool("trace", args.trace);
    let workloads: Vec<String> = results
        .iter()
        .map(|(workload, r)| {
            let mut w = Object::new();
            w.str("name", workload.name());
            w.bool("correct", r.correct());
            w.str_array("errors", &r.errors);
            w.int("attempted", r.attempted);
            w.int("failed", r.failed);
            w.str("digest", &r.digest);
            w.num("plan_cost", r.plan_cost);
            let table = |t: &[(String, String, f64)]| {
                metrics_json(t.iter().map(|(n, u, v)| (n.as_str(), u.as_str(), *v)))
            };
            w.raw("metrics", &table(&r.metrics));
            w.raw("layers", &table(&r.layers));
            w.finish()
        })
        .collect();
    doc.raw("workloads", &format!("[{}]", workloads.join(",")));
    doc.finish()
}

fn run(args: &[String]) -> i32 {
    let args = match parse_run(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results: Vec<(Workload, ChildResult)> = args
        .workloads
        .iter()
        .map(|&w| (w, run_workload(w, &args)))
        .collect();

    println!(
        "benchmark: seed {}, operations sized for {} s per workload, {cores} cores",
        args.seed, args.seconds
    );
    for (workload, r) in &results {
        let name = workload.name();
        for (metric, unit, value) in r.metrics.iter().chain(&r.layers) {
            println!("{name:<14} {metric:<32} {:>14} {unit}", stats::show(*value));
        }
        let verdict = if r.correct() { "correct" } else { "INCORRECT" };
        println!(
            "{name:<14} {verdict}: {} attempted, {} failed, plan cost {}, plan digest {}",
            r.attempted, r.failed, r.plan_cost, r.digest
        );
        for e in &r.errors {
            println!("{name:<14}   {e}");
        }
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, results_json(&results, &args, cores) + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", out.display());
            return 1;
        }
    }

    // The last line: one JSON object. With several workloads each metric
    // name is prefixed by its workload.
    let single = results.len() == 1;
    let reported = results.iter().flat_map(|(workload, r)| {
        r.reported(args.trace).into_iter().map(move |(n, u, v)| {
            let name = if single {
                n.clone()
            } else {
                format!("{}/{n}", workload.name())
            };
            (name, u.as_str(), *v)
        })
    });
    let reported: Vec<(String, &str, f64)> = reported.collect();
    let correct = results.iter().all(|(_, r)| r.correct());
    let mut last = Object::new();
    last.bool("correct", correct);
    last.int(
        "attempted",
        results.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1),
    );
    last.int("failed", results.iter().map(|(_, r)| r.failed).sum());
    last.raw(
        "metrics",
        &metrics_json(reported.iter().map(|(n, u, v)| (n.as_str(), *u, *v))),
    );
    println!("{}", last.finish());
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments() {
        let a = parse_run(&args(&[
            "--workload",
            "orion-verify",
            "--trace",
            "1",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::OrionVerify]);
        assert!(a.trace);
        assert_eq!(a.seed, 7);
        let a = parse_run(&args(&["--trace", "0", "--seconds", "3"])).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seconds, 3.0);
        assert_eq!(a.workloads.len(), 4);
        assert!(parse_run(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--trace"])).is_err());
        assert!(parse_run(&args(&["--trace", "yes"])).is_err());
    }

    #[test]
    fn phase_sum_within_two_percent() {
        let layers = |r: f64, u: f64| {
            vec![
                (
                    "core.planner.rollout_phase_ms".to_string(),
                    "ms".to_string(),
                    r,
                ),
                (
                    "core.planner.update_phase_ms".to_string(),
                    "ms".to_string(),
                    u,
                ),
            ]
        };
        let mut errors = Vec::new();
        check_phase_sum(&layers(200.0, 1790.0), 2000.0, &mut errors);
        assert!(errors.is_empty());
        check_phase_sum(&layers(200.0, 1700.0), 2000.0, &mut errors);
        assert_eq!(errors.len(), 1);
    }

    /// `BENCHMARK.json` lists exactly the metrics the benchmark reports,
    /// and a run's last line carries exactly its end-to-end metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = nptsn_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(end_to_end.len(), workload::end_to_end().count());
        for (json, def) in end_to_end.iter().zip(workload::end_to_end()) {
            assert_eq!(json.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(json.get("unit").and_then(Value::as_str), Some(def.unit));
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(json.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(json.get("bound").and_then(Value::as_num), def.bound);
        }
        let mut result = ChildResult::broken(String::new());
        result.metrics = METRICS
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), 1.0))
            .collect();
        let last: Vec<&str> = result
            .reported(false)
            .iter()
            .map(|m| m.0.as_str())
            .collect();
        assert_eq!(last, names("end_to_end"));
        let mut layers: Vec<String> = trace::per_layer(&trace::LayerInputs::default())
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        layers.push("trace.overhead_pct".to_string());
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        // At the run length BENCHMARK.json sets, every workload's tail percentile
        // leaves at least ten operations above it.
        let seconds = doc.get("run_seconds").and_then(Value::as_num).unwrap();
        for w in Workload::ALL {
            let ops = w.ops(seconds);
            assert!(
                stats::samples_beyond(ops, w.tail_percentile()) >= stats::TAIL_SUPPORT
                    || w.tail_percentile() == 50.0,
                "{}: {ops} operations cannot support p{}",
                w.name(),
                w.tail_percentile()
            );
        }
    }
}
