//! The `nptsn` subcommands.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nptsn::{
    AnalysisBudget, FailureAnalyzer, GreedyPlanner, Planner, PlannerConfig, ScenarioCache,
    Verdict,
};
use nptsn_format::json::{analysis_report_json, epoch_stats_json, Object};
use nptsn_format::{parse_plan, parse_problem, write_plan, ParsedProblem};
use nptsn_obs::Level;
use nptsn_sched::simulate;
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::{ServeConfig, Server};
use nptsn_topo::FailureScenario;

/// Errors surfaced to the command line: a message plus the process exit
/// code. Plain failures exit 1; codes above 1 distinguish outcomes that
/// scripts branch on (see [`EXIT_INCONCLUSIVE`]).
#[derive(Debug)]
pub struct CliError {
    message: String,
    code: i32,
}

/// Exit code for `verify` when the analysis budget ran out before the
/// reliability guarantee could be decided: not a pass (exit 0) and not a
/// disproof (exit 1) — callers must treat the plan as unproven.
pub const EXIT_INCONCLUSIVE: i32 = 2;

impl CliError {
    /// A plain failure (exit code 1).
    pub fn msg(message: String) -> CliError {
        CliError { message, code: 1 }
    }

    /// A failure with a distinct exit code.
    pub fn with_code(message: String, code: i32) -> CliError {
        CliError { message, code }
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        self.code
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::msg(message)
    }
}

const USAGE: &str = "\
nptsn — RL-based network planning for in-vehicle TSSDN (DSN 2023 reproduction)

USAGE:
    nptsn plan <problem.tssdn> [--epochs N] [--steps N] [--seed N] [--greedy]
               [--checkpoint <path>] [--resume]
        Plan the network; prints the plan file for the best solution.
        --checkpoint writes the trained policy (NPTSNCK2, atomic rename)
        to <path> after every epoch and a per-epoch telemetry.jsonl next
        to it. --resume (requires --checkpoint) restores the policy from
        <path> before training — the crash-resume path: a run killed
        mid-training continues from its last completed epoch.
    nptsn verify <problem.tssdn> <plan file> [--analysis-budget N] [--json]
        Check a plan's reliability guarantee with the failure analyzer.
        --json prints the full analysis report as machine-readable JSON
        (the same document the serve verify endpoint returns).
        --analysis-budget caps the analysis at N failure scenarios; when
        the budget runs out before the guarantee is decided the verdict
        is INCONCLUSIVE and the exit code is 2 (not 0: the plan is
        unproven, and not 1: it is not disproven either).
    nptsn simulate <problem.tssdn> <plan file>
        Execute the recovered schedule frame by frame and report latencies.
    nptsn report <problem.tssdn> <plan file>
        Failure-coverage report: every non-safe fault, recovery outcome
        and worst-case latency.
    nptsn inspect <problem.tssdn>
        Print a summary of the parsed problem.
    nptsn serve [--addr HOST:PORT] [--serve-workers N] [--queue-depth N]
                [--io-timeout-ms N] [--job-deadline-ms N]
                [--data-dir PATH] [--job-retention N] [--job-ttl-secs N]
                [--shard-name NAME]
        Run the HTTP planning service (job queue + worker pool; see
        DESIGN.md §9). Stops on POST /shutdown after draining the queue.
        --io-timeout-ms bounds every socket read/write (default 30000;
        0 disables); --job-deadline-ms fails any job that exceeds the
        wall-clock deadline while the worker survives (default 0 = off).
        --data-dir makes jobs and checkpoints durable (DESIGN.md §12): a
        restarted server recovers finished results and re-enqueues the
        jobs a crash interrupted. --job-retention caps retained terminal
        jobs (default 1024; 0 = unbounded) and --job-ttl-secs expires
        them after N seconds (default 0 = never). A worker that claims an
        infer job also claims up to 7 compatible queued ones, waiting
        200µs once for a straggler (DESIGN.md §13): a lone job plans its
        attempts on plan_with_policy's threads, a coalesced batch in
        lockstep on one thread, and --job-deadline-ms runs every job
        alone. Batching never changes results — outputs stay
        bit-identical.
    nptsn router --shards HOST:PORT[,...] [--names NAME[,...]]
                 [--data-dirs PATH[,...]] [--addr HOST:PORT] [--vnodes N]
                 [--health-interval-ms N] [--health-failures N]
                 [--forward-deadline-ms N] [--replication 1|2]
        Run the consistent-hash router in front of a serve fleet (see
        DESIGN.md §14): assigns job ids, places each job on a shard,
        fans out checkpoint writes, fails over dead shards by replaying
        their durable logs. Membership is elastic (DESIGN.md §16): a
        restarted shard rejoins via POST /admin/shards and catches up on
        the records it missed, and new shards can join a running fleet
        the same way. --replication 2 mirrors each submission to its
        ring successor so a death promotes passive replicas instantly
        instead of pausing for the dead-log replay. GET /metrics federates every live shard's
        exposition (re-labeled shard=\"<name>\", summed into
        nptsn_fleet_* series) and GET /jobs/<id>/trace merges the
        router's and the shards' spans into one Chrome trace — see
        DESIGN.md §15. --trace-out records the router's own spans.
    nptsn help
        Show this message.

OBSERVABILITY (plan, verify, serve, router; see DESIGN.md §10, §15):
    --trace-out <path>   Record hierarchical spans and write a Chrome
                         trace-event file loadable in Perfetto or
                         chrome://tracing. Env fallback: NPTSN_TRACE.
    --log-level <level>  off|error|info|debug event severity ceiling
                         (default info). Env fallback: NPTSN_LOG.
    --profile            Print an end-of-run table of the top spans by
                         self-time (enables recording on its own).
    --flight-capacity N  Size (entries) of the always-on in-memory
                         flight-recorder ring behind GET /debug/flight
                         and the panic/drain dumps (default 4096; serve
                         and router arm the ring even without the flag).
                         Env fallback: NPTSN_FLIGHT_CAPACITY.

FAULT INJECTION (plan, verify, serve; see DESIGN.md §11):
    NPTSN_CHAOS=<spec>   Arm a deterministic fault plan for this run:
                         @<path> to a plan file, or the plan inline with
                         ';' as the line separator, e.g.
                         'seed 7;site checkpoint.save corrupt rate=0.5'.
                         Injections count in nptsn_chaos_* telemetry;
                         unset means disarmed (one relaxed atomic load
                         per site).
";

/// Runs the CLI with the given arguments (excluding the program name);
/// output lines are appended to `out`. Returns the process exit code.
///
/// Separated from `main` so the whole command surface is unit-testable.
pub fn run(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut iter = args.iter().map(String::as_str);
    match iter.next() {
        None | Some("help") | Some("--help") | Some("-h") => {
            write!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        Some("plan") => cmd_plan(&args[1..], out),
        Some("verify") => cmd_verify(&args[1..], out),
        Some("simulate") => cmd_simulate(&args[1..], out),
        Some("report") => cmd_report(&args[1..], out),
        Some("inspect") => cmd_inspect(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("router") => cmd_router(&args[1..], out),
        Some(other) => Err(CliError::msg(format!(
            "unknown command '{other}'; run 'nptsn help' for usage"
        ))),
    }
}

fn io_err(e: std::io::Error) -> CliError {
    CliError::msg(format!("i/o error: {e}"))
}

fn load(path: &str) -> Result<ParsedProblem, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::msg(format!("cannot read {path}: {e}")))?;
    parse_problem(&text).map_err(|e| CliError::msg(format!("{path}: {e}")))
}

fn cmd_plan(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut path = None;
    let mut epochs = 16usize;
    let mut steps = 256usize;
    let mut seed = 0u64;
    let mut greedy = false;
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume = false;
    let mut trace = TraceOpts::default();
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        if trace.try_flag(arg, &mut iter)? {
            continue;
        }
        match arg {
            "--epochs" => epochs = parse_flag(iter.next(), "--epochs")?,
            "--steps" => steps = parse_flag(iter.next(), "--steps")?,
            "--seed" => seed = parse_flag(iter.next(), "--seed")?,
            "--greedy" => greedy = true,
            "--checkpoint" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--checkpoint needs a value".into()))?;
                checkpoint = Some(PathBuf::from(value));
            }
            "--resume" => resume = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(CliError::msg(format!("unexpected argument '{other}'"))),
        }
    }
    let path = path.ok_or_else(|| CliError::msg("plan: missing <problem.tssdn>".into()))?;
    if greedy && checkpoint.is_some() {
        return Err(CliError::msg(
            "--checkpoint needs RL planning (there is no policy to save under --greedy)".into(),
        ));
    }
    if resume && checkpoint.is_none() {
        return Err(CliError::msg(
            "--resume needs --checkpoint <path> (the checkpoint to restore from)".into(),
        ));
    }
    trace.activate()?;
    // The bytes to resume from are read before training starts, so a
    // `--resume` against a missing or unreadable checkpoint fails fast
    // instead of after a fresh (and wasted) training run. The read comes
    // after `activate`, which arms `NPTSN_CHAOS`'s `checkpoint.load` rules.
    let resume_bytes = match (&checkpoint, resume) {
        (Some(ck_path), true) => Some(nptsn::read_checkpoint(ck_path).map_err(|e| {
            CliError::msg(format!("--resume: cannot read {}: {e}", ck_path.display()))
        })?),
        _ => None,
    };
    let parsed = load(&path)?;

    let config = PlannerConfig {
        max_epochs: epochs,
        steps_per_epoch: steps,
        seed,
        // With `--checkpoint` the planner itself persists the policy at
        // every epoch boundary (atomic rename), so a killed run leaves a
        // valid checkpoint behind for `--resume`.
        checkpoint_path: checkpoint.clone(),
        ..PlannerConfig::quick()
    };
    let (best, report) = if greedy {
        (GreedyPlanner::new(parsed.problem.clone(), config.k_paths).run(8, seed), None)
    } else {
        // Per-epoch telemetry lines are collected as the run progresses.
        let mut epoch_lines = Vec::new();
        let mut epoch_started = Instant::now();
        let mut on_epoch = |stats: &nptsn::EpochStats| {
            let mut obj = Object::new();
            obj.str("type", "epoch");
            obj.raw("stats", &epoch_stats_json(stats));
            obj.int("wall_ms", epoch_started.elapsed().as_millis() as u64);
            epoch_lines.push(obj.finish());
            epoch_started = Instant::now();
        };
        let planner = Planner::new(parsed.problem.clone(), config);
        let report = match &resume_bytes {
            Some(bytes) => planner
                .run_until_resumed(bytes, |stats| {
                    on_epoch(stats);
                    true
                })
                .map_err(|e| CliError::msg(format!("--resume: {e}")))?,
            None => planner.run_with_progress(&mut on_epoch),
        };
        (report.best.clone(), Some((report, epoch_lines)))
    };
    let records = trace.finish(out)?;
    if let (Some(ck_path), Some((report, epoch_lines))) = (&checkpoint, &report) {
        nptsn::write_checkpoint(ck_path, &report.policy_checkpoint)
            .map_err(|e| CliError::msg(format!("cannot write {}: {e}", ck_path.display())))?;
        let telemetry_path =
            ck_path.parent().unwrap_or(Path::new(".")).join("telemetry.jsonl");
        let text = telemetry_jsonl(epoch_lines, report, &records);
        std::fs::write(&telemetry_path, text)
            .map_err(|e| CliError::msg(format!("cannot write {}: {e}", telemetry_path.display())))?;
        writeln!(
            out,
            "# checkpoint: {} ({} bytes); telemetry: {}",
            ck_path.display(),
            report.policy_checkpoint.len(),
            telemetry_path.display()
        )
        .map_err(io_err)?;
    }
    match best {
        Some(solution) => {
            writeln!(out, "# {solution}").map_err(io_err)?;
            write!(out, "{}", write_plan(&solution.topology)).map_err(io_err)?;
            Ok(())
        }
        None => Err(CliError::msg(
            "no valid plan found; raise --epochs/--steps or relax the problem".into(),
        )),
    }
}

/// Renders the per-run `telemetry.jsonl` document: one `"epoch"` line per
/// training epoch (stats and wall-clock) and one final
/// `"summary"` line with run totals and the span-timing aggregate from
/// the trace stream (empty when recording was off). When `NPTSN_CHAOS`
/// armed a fault plan, the summary also carries a `"chaos"` object: the
/// number of faults injected at each site that fired, by site name.
fn telemetry_jsonl(
    epoch_lines: &[String],
    report: &nptsn::PlannerReport,
    records: &[nptsn_obs::Record],
) -> String {
    let mut text = String::new();
    for line in epoch_lines {
        text.push_str(line);
        text.push('\n');
    }
    let mut summary = Object::new();
    summary.str("type", "summary");
    summary.int("epochs", report.epochs.len() as u64);
    match &report.best {
        Some(sol) => summary.num("best_cost", sol.cost),
        None => summary.null("best_cost"),
    }
    summary.int(
        "scenarios_checked",
        report.epochs.iter().map(|e| e.scenarios_checked).sum::<u64>(),
    );
    let stats = nptsn_obs::span_stats(records);
    let spans: Vec<String> = stats
        .iter()
        .map(|s| {
            let mut span = Object::new();
            span.str("name", s.name);
            span.int("count", s.count);
            span.int("total_ns", s.total_ns);
            span.int("self_ns", s.self_ns);
            span.int("max_ns", s.max_ns);
            span.finish()
        })
        .collect();
    summary.raw("spans", &format!("[{}]", spans.join(",")));
    if nptsn_chaos::is_armed() {
        let mut chaos = Object::new();
        for (site, injected) in nptsn_chaos::injection_counts() {
            chaos.int(&site, injected);
        }
        summary.raw("chaos", &chaos.finish());
    }
    text.push_str(&summary.finish());
    text.push('\n');
    text
}

fn parse_flag<T: std::str::FromStr>(value: Option<&str>, flag: &str) -> Result<T, CliError> {
    value
        .ok_or_else(|| CliError::msg(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| CliError::msg(format!("invalid value for {flag}")))
}

/// The shared observability surface of `plan`, `verify` and `serve`:
/// `--trace-out`, `--log-level` and `--profile`, with `NPTSN_TRACE` /
/// `NPTSN_LOG` environment fallbacks (the flag wins).
#[derive(Default)]
struct TraceOpts {
    trace_out: Option<PathBuf>,
    level: Option<Level>,
    profile: bool,
    flight_capacity: Option<usize>,
}

impl TraceOpts {
    /// Consumes `arg` (and its value from `iter`) when it is one of the
    /// shared observability flags; returns whether it was consumed.
    fn try_flag<'a>(
        &mut self,
        arg: &str,
        iter: &mut impl Iterator<Item = &'a str>,
    ) -> Result<bool, CliError> {
        match arg {
            "--trace-out" => {
                let path = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--trace-out needs a value".into()))?;
                self.trace_out = Some(PathBuf::from(path));
                Ok(true)
            }
            "--log-level" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--log-level needs a value".into()))?;
                self.level = Some(Level::parse(value).ok_or_else(|| {
                    CliError::msg(format!(
                        "--log-level: unknown level '{value}' (off|error|info|debug)"
                    ))
                })?);
                Ok(true)
            }
            "--profile" => {
                self.profile = true;
                Ok(true)
            }
            "--flight-capacity" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--flight-capacity needs a value".into()))?;
                self.flight_capacity = Some(value.parse().map_err(|_| {
                    CliError::msg(format!("--flight-capacity: '{value}' is not a number"))
                })?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Whether this command records spans at all.
    fn recording(&self) -> bool {
        self.trace_out.is_some() || self.profile
    }

    /// Applies the environment fallbacks and switches recording on.
    /// Called once, after flag parsing and before the command's work.
    fn activate(&mut self) -> Result<(), CliError> {
        if self.trace_out.is_none() {
            if let Ok(path) = std::env::var("NPTSN_TRACE") {
                if !path.is_empty() {
                    self.trace_out = Some(PathBuf::from(path));
                }
            }
        }
        if self.level.is_none() {
            if let Ok(value) = std::env::var("NPTSN_LOG") {
                if !value.is_empty() {
                    self.level = Some(Level::parse(&value).ok_or_else(|| {
                        CliError::msg(format!(
                            "NPTSN_LOG: unknown level '{value}' (off|error|info|debug)"
                        ))
                    })?);
                }
            }
        }
        if self.flight_capacity.is_none() {
            if let Ok(value) = std::env::var("NPTSN_FLIGHT_CAPACITY") {
                if !value.is_empty() {
                    self.flight_capacity = Some(value.parse().map_err(|_| {
                        CliError::msg(format!(
                            "NPTSN_FLIGHT_CAPACITY: '{value}' is not a number"
                        ))
                    })?);
                }
            }
        }
        // First-wins: an explicit capacity must claim the ring before
        // Server::bind / Router::bind arm it with the default size.
        if let Some(capacity) = self.flight_capacity {
            nptsn_obs::flight_init(capacity);
        }
        if let Some(level) = self.level {
            nptsn_obs::set_log_level(level);
        }
        if self.recording() {
            nptsn_obs::set_enabled(true);
        }
        // Fault injection rides the same activation point: a plan named
        // by NPTSN_CHAOS is armed for the whole run.
        arm_chaos(&std::env::var("NPTSN_CHAOS").unwrap_or_default())
    }

    /// Stops recording, writes the Chrome trace file and prints the
    /// profile table (every line `#`-prefixed so plan-file stdout stays
    /// parseable). Returns the drained records for reuse — the span
    /// summary in `telemetry.jsonl` is computed from the same stream.
    fn finish(
        &self,
        out: &mut impl std::io::Write,
    ) -> Result<Vec<nptsn_obs::Record>, CliError> {
        if !self.recording() {
            return Ok(Vec::new());
        }
        nptsn_obs::set_enabled(false);
        let records = nptsn_obs::drain();
        if let Some(path) = &self.trace_out {
            nptsn_obs::write_chrome_trace(path, &records)
                .map_err(|e| CliError::msg(format!("cannot write {}: {e}", path.display())))?;
            writeln!(out, "# trace: {} records -> {}", records.len(), path.display())
                .map_err(io_err)?;
        }
        if self.profile {
            for line in nptsn_obs::profile_table(&records).lines() {
                writeln!(out, "# {line}").map_err(io_err)?;
            }
        }
        Ok(records)
    }
}

/// Arms the fault plan `spec` names (the value of `NPTSN_CHAOS`; empty
/// means disarmed): `@<path>` to a plan file, or the plan inline with ';'
/// as the line separator (environment values are one line).
fn arm_chaos(spec: &str) -> Result<(), CliError> {
    if spec.is_empty() {
        return Ok(());
    }
    let plan = match spec.strip_prefix('@') {
        Some(_) => nptsn_chaos::plan_from_spec(spec),
        None => nptsn_chaos::plan_from_spec(&spec.replace(';', "\n")),
    }
    .map_err(|e| CliError::msg(format!("NPTSN_CHAOS: {e}")))?;
    nptsn_chaos::arm(plan);
    Ok(())
}

fn cmd_verify(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut paths = Vec::new();
    let mut json = false;
    let mut budget: Option<u64> = None;
    let mut trace = TraceOpts::default();
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        if trace.try_flag(arg, &mut iter)? {
            continue;
        }
        match arg {
            "--json" => json = true,
            "--analysis-budget" => {
                let n: u64 = parse_flag(iter.next(), "--analysis-budget")?;
                if n == 0 {
                    return Err(CliError::msg(
                        "--analysis-budget must be at least 1 scenario".into(),
                    ));
                }
                budget = Some(n);
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => return Err(CliError::msg(format!("unexpected argument '{other}'"))),
        }
    }
    let [problem_path, plan_path] = paths.as_slice() else {
        return Err(CliError::msg(
            "verify: expected <problem.tssdn> <plan file> [--analysis-budget N] [--json]".into(),
        ));
    };
    trace.activate()?;
    let parsed = load(problem_path)?;
    let plan_text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::msg(format!("cannot read {plan_path}: {e}")))?;
    let topology = parse_plan(&parsed, &plan_text).map_err(CliError::msg)?;
    let cost = topology.network_cost(parsed.problem.library());
    // A fresh cache per run, for the hit/miss fields of the JSON report.
    // One analysis checks each scenario once, so it cannot hit.
    let analyzer = FailureAnalyzer::new()
        .with_budget(budget.map_or(AnalysisBudget::UNBOUNDED, AnalysisBudget::scenarios))
        .with_shared_cache(Arc::new(ScenarioCache::new()));
    let report = analyzer
        .try_analyze(&parsed.problem, &topology)
        .map_err(|e| CliError::msg(format!("analysis failed: {e}")))?;
    // The trace/profile output precedes the verdict (and, like every
    // observability line, is written even when verification fails).
    trace.finish(out)?;

    if json {
        // The same serializer the serve verify endpoint uses, so tooling
        // sees one schema regardless of transport.
        writeln!(out, "{}", analysis_report_json(&parsed.problem, &report, Some(cost)))
            .map_err(io_err)?;
        return match report.verdict {
            Verdict::Unreliable { .. } => {
                Err(CliError::msg("the plan does not meet the reliability goal".into()))
            }
            // The JSON document already says `"conclusive":false`; the
            // exit code says it too, so scripts that only check `$?`
            // cannot mistake an unproven plan for a verified one.
            Verdict::Inconclusive { .. } => Err(CliError::with_code(
                "the analysis was inconclusive (budget exhausted before the guarantee \
                 was decided)"
                    .into(),
                EXIT_INCONCLUSIVE,
            )),
            Verdict::Reliable => Ok(()),
        };
    }

    let coverage = format!(
        "checked {} scenarios{}",
        report.scenarios_checked,
        if report.exhausted { "" } else { " (analysis budget exhausted)" },
    );
    match report.verdict {
        Verdict::Reliable => {
            writeln!(out, "RELIABLE (cost {cost:.1})").map_err(io_err)?;
            writeln!(out, "{coverage}").map_err(io_err)?;
            Ok(())
        }
        Verdict::Inconclusive { scenarios_checked } => {
            writeln!(
                out,
                "INCONCLUSIVE after {scenarios_checked} scenarios (analysis budget exhausted)"
            )
            .map_err(io_err)?;
            writeln!(out, "{coverage}").map_err(io_err)?;
            // Not exit 0: the guarantee is unproven, and a script gating a
            // deployment on `nptsn verify` must not read "budget ran out"
            // as "reliable". Not exit 1 either: nothing was disproven.
            Err(CliError::with_code(
                "the analysis was inconclusive (budget exhausted before the guarantee \
                 was decided)"
                    .into(),
                EXIT_INCONCLUSIVE,
            ))
        }
        Verdict::Unreliable { failure, errors } => {
            let gc = parsed.problem.connection_graph();
            let named: Vec<&str> =
                failure.failed_switches().iter().map(|&s| gc.name(s)).collect();
            writeln!(
                out,
                "UNRELIABLE under failure of {{{}}}: {errors}",
                named.join(", ")
            )
            .map_err(io_err)?;
            writeln!(out, "{coverage}").map_err(io_err)?;
            Err(CliError::msg("the plan does not meet the reliability goal".into()))
        }
    }
}

fn cmd_serve(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut config = ServeConfig { addr: "127.0.0.1:7878".to_string(), ..ServeConfig::default() };
    let mut trace = TraceOpts::default();
    let mut iter = args.iter().map(String::as_str);
    while let Some(arg) = iter.next() {
        if trace.try_flag(arg, &mut iter)? {
            continue;
        }
        match arg {
            "--addr" => {
                config.addr = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--addr needs a value".into()))?
                    .to_string();
            }
            "--serve-workers" => {
                config.workers = parse_flag(iter.next(), "--serve-workers")?;
                if config.workers == 0 {
                    return Err(CliError::msg("--serve-workers must be at least 1".into()));
                }
            }
            "--queue-depth" => {
                config.queue_depth = parse_flag(iter.next(), "--queue-depth")?;
                if config.queue_depth == 0 {
                    return Err(CliError::msg("--queue-depth must be at least 1".into()));
                }
            }
            "--io-timeout-ms" => {
                config.io_timeout_ms = parse_flag(iter.next(), "--io-timeout-ms")?;
            }
            "--job-deadline-ms" => {
                config.job_deadline_ms = parse_flag(iter.next(), "--job-deadline-ms")?;
            }
            "--data-dir" => {
                config.data_dir = Some(
                    iter.next()
                        .ok_or_else(|| CliError::msg("--data-dir needs a path".into()))?
                        .to_string(),
                );
            }
            "--job-retention" => {
                config.job_retention = parse_flag(iter.next(), "--job-retention")?;
            }
            "--job-ttl-secs" => {
                config.job_ttl_secs = parse_flag(iter.next(), "--job-ttl-secs")?;
            }
            "--shard-name" => {
                config.shard_name = Some(
                    iter.next()
                        .ok_or_else(|| CliError::msg("--shard-name needs a value".into()))?
                        .to_string(),
                );
            }
            other => return Err(CliError::msg(format!("unexpected argument '{other}'"))),
        }
    }
    trace.activate()?;
    let workers = config.workers;
    let queue_depth = config.queue_depth;
    let data_dir = config.data_dir.clone();
    let server = Server::bind(config).map_err(|e| CliError::msg(format!("cannot bind: {e}")))?;
    writeln!(
        out,
        "nptsn-serve listening on {} ({workers} workers, queue depth {queue_depth})",
        server.local_addr()
    )
    .map_err(io_err)?;
    if let Some(dir) = data_dir {
        let recovered = server.metrics().jobs_recovered.get();
        writeln!(out, "durable job store at {dir} ({recovered} jobs re-enqueued)")
            .map_err(io_err)?;
    }
    out.flush().map_err(io_err)?;
    server.wait();
    // `wait` joins the accept loop and the job workers, so the drain below
    // sees everything those threads recorded.
    trace.finish(out)?;
    writeln!(out, "nptsn-serve drained and stopped").map_err(io_err)?;
    Ok(())
}

fn cmd_router(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let mut config = RouterConfig { addr: "127.0.0.1:7979".to_string(), ..RouterConfig::default() };
    let mut shard_addrs: Vec<String> = Vec::new();
    let mut data_dirs: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut trace = TraceOpts::default();
    let mut iter = args.iter().map(String::as_str);
    let list = |value: Option<&str>, flag: &str| -> Result<Vec<String>, CliError> {
        Ok(value
            .ok_or_else(|| CliError::msg(format!("{flag} needs a comma-separated list")))?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect())
    };
    while let Some(arg) = iter.next() {
        if trace.try_flag(arg, &mut iter)? {
            continue;
        }
        match arg {
            "--addr" => {
                config.addr = iter
                    .next()
                    .ok_or_else(|| CliError::msg("--addr needs a value".into()))?
                    .to_string();
            }
            "--shards" => shard_addrs = list(iter.next(), "--shards")?,
            "--data-dirs" => data_dirs = list(iter.next(), "--data-dirs")?,
            "--names" => names = list(iter.next(), "--names")?,
            "--vnodes" => {
                config.vnodes = parse_flag(iter.next(), "--vnodes")?;
                if config.vnodes == 0 {
                    return Err(CliError::msg("--vnodes must be at least 1".into()));
                }
            }
            "--health-interval-ms" => {
                config.health_interval_ms = parse_flag(iter.next(), "--health-interval-ms")?;
            }
            "--health-failures" => {
                config.health_failures = parse_flag(iter.next(), "--health-failures")?;
                if config.health_failures == 0 {
                    return Err(CliError::msg("--health-failures must be at least 1".into()));
                }
            }
            "--forward-deadline-ms" => {
                config.forward_deadline_ms = parse_flag(iter.next(), "--forward-deadline-ms")?;
            }
            "--replication" => {
                config.replication_factor = parse_flag(iter.next(), "--replication")?;
                if !(1..=2).contains(&config.replication_factor) {
                    return Err(CliError::msg("--replication must be 1 or 2".into()));
                }
            }
            other => return Err(CliError::msg(format!("unexpected argument \'{other}\'"))),
        }
    }
    if shard_addrs.is_empty() {
        return Err(CliError::msg("router: --shards needs at least one HOST:PORT".into()));
    }
    if !data_dirs.is_empty() && data_dirs.len() != shard_addrs.len() {
        return Err(CliError::msg(format!(
            "router: --data-dirs lists {} paths for {} shards",
            data_dirs.len(),
            shard_addrs.len()
        )));
    }
    if !names.is_empty() && names.len() != shard_addrs.len() {
        return Err(CliError::msg(format!(
            "router: --names lists {} names for {} shards",
            names.len(),
            shard_addrs.len()
        )));
    }
    config.shards = shard_addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Ok(ShardSpec {
                name: names.get(i).cloned().unwrap_or_else(|| format!("s{i}")),
                addr: addr
                    .parse()
                    .map_err(|e| CliError::msg(format!("router: bad shard address \'{addr}\': {e}")))?,
                data_dir: data_dirs.get(i).map(PathBuf::from),
            })
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    trace.activate()?;
    let shard_count = config.shards.len();
    let vnodes = config.vnodes;
    let router = Router::bind(config).map_err(|e| CliError::msg(format!("cannot bind: {e}")))?;
    writeln!(
        out,
        "nptsn-router listening on {} ({shard_count} shards, {vnodes} vnodes)",
        router.local_addr()
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;
    router.wait();
    trace.finish(out)?;
    writeln!(out, "nptsn-router stopped").map_err(io_err)?;
    Ok(())
}

fn cmd_simulate(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let [problem_path, plan_path] = args else {
        return Err(CliError::msg("simulate: expected <problem.tssdn> <plan file>".into()));
    };
    let parsed = load(problem_path)?;
    let plan_text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::msg(format!("cannot read {plan_path}: {e}")))?;
    let topology = parse_plan(&parsed, &plan_text).map_err(CliError::msg)?;
    let problem = &parsed.problem;
    let outcome =
        problem.nbf().recover(&topology, &FailureScenario::none(), problem.tas(), problem.flows());
    if !outcome.errors.is_empty() {
        return Err(CliError::msg(format!("nominal recovery failed: {}", outcome.errors)));
    }
    let report = simulate(
        &topology,
        &FailureScenario::none(),
        problem.tas(),
        problem.flows(),
        &outcome.state,
    )
    .map_err(|e| CliError::msg(e.to_string()))?;
    writeln!(
        out,
        "{} frames delivered; worst latency {} slots, mean {:.2} slots",
        report.frames.len(),
        report.worst_latency_slots(),
        report.mean_latency_slots()
    )
    .map_err(io_err)?;
    let gc = problem.connection_graph();
    for frame in &report.frames {
        let route: Vec<&str> = frame.route.iter().map(|&n| gc.name(n)).collect();
        writeln!(
            out,
            "  {} rep {}: slots {}..{} via {}",
            frame.flow,
            frame.repetition,
            frame.departure_slot,
            frame.arrival_slot,
            route.join(" -> ")
        )
        .map_err(io_err)?;
    }
    Ok(())
}

fn cmd_report(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let [problem_path, plan_path] = args else {
        return Err(CliError::msg("report: expected <problem.tssdn> <plan file>".into()));
    };
    let parsed = load(problem_path)?;
    let plan_text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::msg(format!("cannot read {plan_path}: {e}")))?;
    let topology = parse_plan(&parsed, &plan_text).map_err(CliError::msg)?;
    let report = crate::report::coverage_report(&parsed.problem, &topology);
    write!(out, "{}", crate::report::render_report(&parsed.problem, &report))
        .map_err(io_err)?;
    Ok(())
}

fn cmd_inspect(args: &[String], out: &mut impl std::io::Write) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::msg("inspect: expected <problem.tssdn>".into()));
    };
    let parsed = load(path)?;
    let p = &parsed.problem;
    let gc = p.connection_graph();
    writeln!(out, "nodes:       {} ({} end stations, {} optional switches)",
        gc.node_count(), gc.end_stations().len(), gc.switches().len()).map_err(io_err)?;
    writeln!(out, "links:       {} candidates", gc.candidate_link_count()).map_err(io_err)?;
    writeln!(out, "flows:       {}", p.flows().len()).map_err(io_err)?;
    writeln!(out, "tas:         {} us / {} slots / {} Mbit/s",
        p.tas().base_period_us(), p.tas().slots(), p.tas().bandwidth_mbps()).map_err(io_err)?;
    writeln!(out, "reliability: R = {:.0e}", p.reliability_goal()).map_err(io_err)?;
    writeln!(out, "nbf:         {}", p.nbf().name()).map_err(io_err)?;
    writeln!(out, "library:     max switch degree {}", p.library().max_switch_degree())
        .map_err(io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("nptsn-cli-test-{name}"));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
        assert!(run_ok(&[]).contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn inspect_summarizes() {
        let path = write_temp("inspect.tssdn", DOC);
        let text = run_ok(&["inspect", &path]);
        assert!(text.contains("2 end stations"));
        assert!(text.contains("R = 1e-6"));
        assert!(text.contains("shortest-path"));
    }

    #[test]
    fn plan_verify_simulate_pipeline() {
        let problem_path = write_temp("pipeline.tssdn", DOC);
        // Greedy keeps the test fast and deterministic.
        let plan_text = run_ok(&["plan", &problem_path, "--greedy"]);
        assert!(plan_text.contains("[switches]"));
        let plan_path = write_temp("pipeline.plan", &plan_text);

        let verify_text = run_ok(&["verify", &problem_path, &plan_path]);
        assert!(verify_text.contains("RELIABLE"), "{verify_text}");

        let sim_text = run_ok(&["simulate", &problem_path, &plan_path]);
        assert!(sim_text.contains("frames delivered"), "{sim_text}");
        assert!(sim_text.contains("->"));
    }

    #[test]
    fn verify_rejects_bad_plans() {
        let problem_path = write_temp("badplan.tssdn", DOC);
        // A single ASIL-A switch: its failure is a non-safe fault.
        let plan_path = write_temp(
            "badplan.plan",
            "[switches]\ns0 A\n[plan-links]\na s0\nb s0\n",
        );
        let mut out = Vec::new();
        let args: Vec<String> =
            ["verify", &problem_path, &plan_path].iter().map(|s| s.to_string()).collect();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.to_string().contains("reliability goal"));
        let printed = String::from_utf8(out).unwrap();
        assert!(printed.contains("UNRELIABLE"), "{printed}");
        assert!(printed.contains("s0"));
    }

    #[test]
    fn rl_plan_works_with_tiny_budget() {
        let _guard = trace_lock();
        let problem_path = write_temp("rlplan.tssdn", DOC);
        let plan_text =
            run_ok(&["plan", &problem_path, "--epochs", "2", "--steps", "48", "--seed", "1"]);
        assert!(plan_text.contains("[switches]"));
        let plan_path = write_temp("rlplan.plan", &plan_text);
        let verify_text = run_ok(&["verify", &problem_path, &plan_path]);
        assert!(verify_text.contains("RELIABLE"));
    }

    #[test]
    fn verify_prints_verdict_and_coverage() {
        let problem_path = write_temp("vcoverage.tssdn", DOC);
        let plan_text = run_ok(&["plan", &problem_path, "--greedy"]);
        let plan_path = write_temp("vcoverage.plan", &plan_text);
        let text = run_ok(&["verify", &problem_path, &plan_path]);
        assert!(text.contains("RELIABLE"), "{text}");
        assert!(text.contains("checked"), "{text}");
        assert!(!text.contains("cache"), "{text}");
        // Flag order should not matter, and a budget the analysis does not
        // reach changes nothing.
        let flipped =
            run_ok(&["verify", "--analysis-budget", "1000", &problem_path, &plan_path]);
        assert_eq!(text, flipped);
    }

    #[test]
    fn verify_json_emits_the_shared_report_schema() {
        let problem_path = write_temp("vjson.tssdn", DOC);
        let plan_text = run_ok(&["plan", &problem_path, "--greedy"]);
        let plan_path = write_temp("vjson.plan", &plan_text);
        let json = run_ok(&["verify", &problem_path, &plan_path, "--json"]);
        assert!(json.contains("\"verdict\":\"reliable\""), "{json}");
        assert!(json.contains("\"reliable\":true"), "{json}");
        assert!(json.contains("\"scenarios_checked\":"), "{json}");
        assert!(json.contains("\"cache_hits\":"), "{json}");
        assert!(json.contains("\"cost\":"), "{json}");
    }

    #[test]
    fn verify_json_reports_unreliable_plans_and_fails() {
        let problem_path = write_temp("vjsonbad.tssdn", DOC);
        let plan_path = write_temp(
            "vjsonbad.plan",
            "[switches]\ns0 A\n[plan-links]\na s0\nb s0\n",
        );
        let mut out = Vec::new();
        let args: Vec<String> = ["verify", &problem_path, &plan_path, "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.to_string().contains("reliability goal"));
        let json = String::from_utf8(out).unwrap();
        assert!(json.contains("\"verdict\":\"unreliable\""), "{json}");
        assert!(json.contains("\"failed_switches\":[\"s0\"]"), "{json}");
    }

    #[test]
    fn verify_inconclusive_exits_with_its_own_code() {
        let problem_path = write_temp("vinc.tssdn", DOC);
        let plan_text = run_ok(&["plan", &problem_path, "--greedy"]);
        let plan_path = write_temp("vinc.plan", &plan_text);
        // A one-scenario budget cannot decide the guarantee for this
        // problem (the full analysis checks more than one scenario).
        let args: Vec<String> =
            ["verify", &problem_path, &plan_path, "--analysis-budget", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_INCONCLUSIVE);
        assert!(err.to_string().contains("inconclusive"), "{err}");
        let printed = String::from_utf8(out).unwrap();
        assert!(printed.contains("INCONCLUSIVE"), "{printed}");

        // Same outcome through --json: the document says so and the exit
        // code still distinguishes unproven from disproven.
        let args: Vec<String> =
            ["verify", &problem_path, &plan_path, "--analysis-budget", "1", "--json"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_INCONCLUSIVE);
        let json = String::from_utf8(out).unwrap();
        assert!(json.contains("\"verdict\":\"inconclusive\""), "{json}");
        assert!(json.contains("\"conclusive\":false"), "{json}");

        // An unbounded run of the same plan stays conclusive and exits 0.
        let text = run_ok(&["verify", &problem_path, &plan_path]);
        assert!(text.contains("RELIABLE"), "{text}");
    }

    #[test]
    fn plain_errors_still_exit_one() {
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn plan_resume_restores_the_checkpoint() {
        let _guard = trace_lock();
        let problem_path = write_temp("resume.tssdn", DOC);
        let dir = std::env::temp_dir().join("nptsn-cli-test-resumedir");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("policy.ck");
        let _ = std::fs::remove_file(&ck);

        // --resume before any checkpoint exists fails fast, before any
        // training work is done.
        let args: Vec<String> = [
            "plan", &problem_path, "--epochs", "1", "--steps", "32",
            "--checkpoint", ck.to_str().unwrap(), "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = Vec::new();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");

        // First run writes the checkpoint; the resumed run restores it
        // and still produces a plan.
        run_ok(&[
            "plan", &problem_path, "--epochs", "1", "--steps", "32", "--seed", "1",
            "--checkpoint", ck.to_str().unwrap(),
        ]);
        let first = std::fs::read(&ck).unwrap();
        assert!(first.starts_with(b"NPTSNCK"));
        let before = nptsn_obs::telemetry().snapshot();
        let resumed = run_ok(&[
            "plan", &problem_path, "--epochs", "1", "--steps", "32", "--seed", "2",
            "--checkpoint", ck.to_str().unwrap(), "--resume",
        ]);
        assert!(resumed.contains("[switches]"), "{resumed}");
        let after = nptsn_obs::telemetry().snapshot();
        assert!(
            after.recovery_checkpoint_resumes > before.recovery_checkpoint_resumes,
            "the resumed run should have restored the saved policy"
        );
    }

    #[test]
    fn resume_without_checkpoint_is_rejected() {
        let mut out = Vec::new();
        let args: Vec<String> =
            ["plan", "x.tssdn", "--resume"].iter().map(|s| s.to_string()).collect();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");
    }

    #[test]
    fn serve_timeout_flags_are_validated() {
        for bad in [&["serve", "--io-timeout-ms", "soon"][..],
                    &["serve", "--job-deadline-ms"][..]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(err.to_string().contains("-ms"), "{err}");
        }
    }

    #[test]
    fn serve_durability_flags_are_validated() {
        for bad in [&["serve", "--data-dir"][..],
                    &["serve", "--job-retention", "many"][..],
                    &["serve", "--job-ttl-secs", "-1"][..]] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(
                err.to_string().contains("--data-dir")
                    || err.to_string().contains("--job-retention")
                    || err.to_string().contains("--job-ttl-secs"),
                "{err}"
            );
        }
    }

    #[test]
    fn router_flags_are_validated() {
        for (bad, needle) in [
            (&["router"][..], "--shards"),
            (&["router", "--shards", ""][..], "--shards"),
            (&["router", "--shards", "nonsense"][..], "bad shard address"),
            (&["router", "--shards", "127.0.0.1:1", "--data-dirs", "a,b"][..], "--data-dirs"),
            (&["router", "--shards", "127.0.0.1:1", "--names", "a,b"][..], "--names"),
            (&["router", "--shards", "127.0.0.1:1", "--vnodes", "0"][..], "--vnodes"),
            (&["router", "--shards", "127.0.0.1:1", "--health-failures", "0"][..],
             "--health-failures"),
            (&["router", "--shards", "127.0.0.1:1", "--replication", "0"][..], "--replication"),
            (&["router", "--shards", "127.0.0.1:1", "--replication", "3"][..], "--replication"),
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(err.to_string().contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn chaos_env_spec_errors_are_reported() {
        // Arming is process-global: serialize with the recording tests.
        let _guard = trace_lock();
        let err = arm_chaos("site only-a-site-name").unwrap_err();
        assert!(err.to_string().contains("NPTSN_CHAOS"), "{err}");
        assert!(!nptsn_chaos::is_armed());

        // A well-formed inline spec (';' as the line separator) arms.
        arm_chaos("seed 7;site nosuch.site error rate=0.5")
            .expect("a plan naming no live site must not break the run");
        assert!(nptsn_chaos::is_armed());
        nptsn_chaos::disarm();
    }

    /// Tracing and fault-injection state are process-global: tests that
    /// record, that arm a fault plan, or that train through the sites an
    /// armed plan storms serialize here.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn plan_trace_out_and_profile_record_planner_spans() {
        use nptsn_obs::json::Value;
        let _guard = trace_lock();
        let problem_path = write_temp("trace.tssdn", DOC);
        let trace_path = std::env::temp_dir().join("nptsn-cli-test-trace.json");
        let out = run_ok(&[
            "plan", &problem_path, "--epochs", "1", "--steps", "32", "--seed", "1",
            "--trace-out", trace_path.to_str().unwrap(), "--profile",
        ]);
        assert!(out.contains("# trace:"), "{out}");
        assert!(out.contains("planner.epoch"), "profile table missing: {out}");
        assert!(out.contains("[switches]"), "plan output still present: {out}");
        // Every observability line is a plan-file comment: the combined
        // stdout still parses as a plan.
        let parsed = load(&problem_path).unwrap();
        parse_plan(&parsed, &out).expect("stdout with profile table parses as a plan");

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let doc = nptsn_obs::json::parse(&text).expect("trace file is valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
        for want in [
            "planner.run",
            "planner.epoch",
            "planner.rollout",
            "planner.ppo_update",
            "analyzer.analyze",
            "soag.generate",
            "gcn.forward",
            "adam.step",
        ] {
            assert!(names.contains(&want), "missing span {want}: {names:?}");
        }
    }

    #[test]
    fn plan_checkpoint_writes_policy_and_telemetry_jsonl() {
        let _guard = trace_lock();
        let problem_path = write_temp("ck.tssdn", DOC);
        let dir = std::env::temp_dir().join("nptsn-cli-test-ckdir");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("policy.ck");
        let out = run_ok(&[
            "plan", &problem_path, "--epochs", "2", "--steps", "32", "--seed", "1",
            "--checkpoint", ck.to_str().unwrap(),
        ]);
        assert!(out.contains("# checkpoint:"), "{out}");
        let bytes = std::fs::read(&ck).unwrap();
        assert!(bytes.starts_with(b"NPTSNCK"), "checkpoint magic missing");

        let telemetry = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        let lines: Vec<&str> = telemetry.lines().collect();
        assert_eq!(lines.len(), 3, "2 epoch lines + summary: {telemetry}");
        for line in &lines {
            nptsn_obs::json::parse(line).expect("telemetry line parses");
        }
        assert!(lines[0].contains("\"type\":\"epoch\""), "{telemetry}");
        assert!(!lines[0].contains("cache"), "{telemetry}");
        assert!(lines[0].contains("\"scenarios_checked\""), "{telemetry}");
        assert!(lines[2].contains("\"type\":\"summary\""), "{telemetry}");
        assert!(lines[2].contains("\"spans\":["), "{telemetry}");
        assert!(!lines[2].contains("\"chaos\""), "no plan was armed: {telemetry}");
    }

    #[test]
    fn stormed_plan_records_its_injections_in_telemetry_jsonl() {
        use nptsn_obs::json::Value;
        let _guard = trace_lock();
        let problem_path = write_temp("storm.tssdn", DOC);
        let dir = std::env::temp_dir().join("nptsn-cli-test-stormdir");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("policy.ck");
        // Every second call fires: `planner.ppo_update` runs once per
        // epoch (calls 2 and 4 fire) and `checkpoint.save` once per epoch
        // plus the final save (calls 2 and 4 of 5 fire), so the last
        // checkpoint is intact.
        let plan = nptsn_chaos::FaultPlan::parse(
            "seed 7\nsite checkpoint.save corrupt every=2\nsite planner.ppo_update error every=2",
        )
        .unwrap();
        let armed = nptsn_chaos::arm_scoped(plan);
        let out = run_ok(&[
            "plan", &problem_path, "--epochs", "4", "--steps", "32", "--seed", "1",
            "--checkpoint", ck.to_str().unwrap(),
        ]);
        drop(armed);
        assert!(out.contains("# checkpoint:"), "{out}");
        nptsn_nn::checkpoint_shapes(&std::fs::read(&ck).unwrap())
            .expect("the final checkpoint was not stormed");

        let telemetry = std::fs::read_to_string(dir.join("telemetry.jsonl")).unwrap();
        let lines: Vec<&str> = telemetry.lines().collect();
        assert_eq!(lines.len(), 5, "4 epoch lines + summary: {telemetry}");
        for (epoch, line) in lines[..4].iter().enumerate() {
            let rollbacks = u64::from(epoch % 2 == 1);
            assert!(line.contains(&format!("\"ppo_rollbacks\":{rollbacks}")), "{line}");
        }
        let summary = nptsn_obs::json::parse(lines[4]).expect("summary line parses");
        let chaos = summary.get("chaos").expect("an armed plan adds a chaos object");
        let count = |site: &str| chaos.get(site).and_then(Value::as_num);
        assert_eq!(count("checkpoint.save"), Some(2.0), "{telemetry}");
        assert_eq!(count("planner.ppo_update"), Some(2.0), "{telemetry}");
        assert!(matches!(chaos, Value::Obj(sites) if sites.len() == 2), "{telemetry}");
    }

    #[test]
    fn verify_accepts_trace_flags() {
        let _guard = trace_lock();
        let problem_path = write_temp("vtrace.tssdn", DOC);
        let plan_text = run_ok(&["plan", &problem_path, "--greedy"]);
        let plan_path = write_temp("vtrace.plan", &plan_text);
        let trace_path = std::env::temp_dir().join("nptsn-cli-test-vtrace.json");
        let out = run_ok(&[
            "verify", &problem_path, &plan_path,
            "--trace-out", trace_path.to_str().unwrap(), "--log-level", "debug",
        ]);
        assert!(out.contains("RELIABLE"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(text.contains("analyzer.analyze"), "{text}");
        nptsn_obs::json::parse(&text).expect("verify trace is valid JSON");
    }

    #[test]
    fn observability_flag_errors_are_reported() {
        let cases: &[(&[&str], &str)] = &[
            (&["plan", "x.tssdn", "--log-level", "verbose"], "--log-level"),
            (&["plan", "x.tssdn", "--trace-out"], "--trace-out"),
            (&["plan", "x.tssdn", "--greedy", "--checkpoint", "ck"], "--checkpoint"),
            (&["verify", "a", "b", "--log-level"], "--log-level"),
        ];
        for (argv, needle) in cases {
            let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let mut out = Vec::new();
            let err = run(&args, &mut out).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn flag_errors_are_reported() {
        let mut out = Vec::new();
        let err = run(
            &["plan".to_string(), "--epochs".to_string()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--epochs"));
    }
}
