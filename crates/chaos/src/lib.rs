//! Deterministic, seeded fault injection for the NPTSN runtime.
//!
//! Production code declares *named injection sites* — `chaos::point("checkpoint.save")?`
//! — that are inert until a [`FaultPlan`] is armed. An armed plan decides,
//! per site and per call, whether to inject a fault: return an error, panic,
//! delay, or corrupt bytes. Decisions are pure functions of
//! `(plan seed, site name, per-site call index)` drawn through the in-tree
//! [`nptsn_rand`] generator, so a storm replayed with the same seed over the
//! same call sequence injects byte-identical faults.
//!
//! When disarmed (the default and the production configuration) every site
//! costs exactly one relaxed atomic load — the same contract as the
//! `nptsn-obs` disabled tracing path — so chaos can stay compiled into
//! release binaries.
//!
//! Injections are reported to the shared telemetry registry as
//! `nptsn_chaos_faults_total` and the per-site labeled series
//! `nptsn_chaos_faults_injected_total{site="..."}`.
//!
//! The site catalog lives in DESIGN.md §11; the planner declares
//! `planner.*` sites, the HTTP tier `serve.*`, the durable store
//! `store.*`, and the sharded front tier `router.forward` (a forward
//! dropped before any bytes leave — a clean un-acked failure),
//! `router.health` (a spuriously failed probe, absorbed by the
//! consecutive-failure threshold) and `router.replay` (a transient
//! replay-ingest failure, retried per record).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use nptsn_rand::rngs::Xoshiro256pp;
use nptsn_rand::{RngCore, SeedableRng};
use nptsn_obs::telemetry;

/// What an injection site does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site reports a [`ChaosError`] (surfaced as `io::Error` at I/O
    /// boundaries).
    Error,
    /// The site panics, exercising `catch_unwind` isolation above it.
    Panic,
    /// The site sleeps for this many milliseconds, then succeeds.
    Delay(u64),
    /// Byte sites ([`point_bytes`]) flip one deterministic bit; non-byte
    /// sites treat this as a no-op.
    Corrupt,
}

impl FaultKind {
    fn render(&self) -> String {
        match self {
            FaultKind::Error => "error".to_string(),
            FaultKind::Panic => "panic".to_string(),
            FaultKind::Delay(ms) => format!("delay={ms}"),
            FaultKind::Corrupt => "corrupt".to_string(),
        }
    }
}

/// One line of a [`FaultPlan`]: which sites it matches and how often the
/// fault fires.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRule {
    /// Site name to match: exact, or a prefix when it ends in `*`
    /// (`serve.*` matches every serve-layer site).
    pub site: String,
    /// The fault to inject when the rule fires.
    pub kind: FaultKind,
    /// When non-zero, fire on every `every`-th call to the site
    /// (deterministic modulo schedule; takes precedence over `rate`).
    pub every: u64,
    /// When `every` is zero: fire with this probability per call, drawn
    /// from the plan seed, the site name and the call index.
    pub rate: f64,
    /// When non-zero, stop firing at a site after this many injections.
    pub max_count: u64,
}

impl SiteRule {
    /// A rule that fires on every call (`rate=1`, no cap).
    pub fn always(site: &str, kind: FaultKind) -> SiteRule {
        SiteRule { site: site.to_string(), kind, every: 0, rate: 1.0, max_count: 0 }
    }

    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A complete seeded fault schedule: arm one with [`arm`] (or
/// [`arm_scoped`] in tests) and every [`point`] call starts consulting it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision and corruption draw.
    pub seed: u64,
    /// Rules, consulted in order; the first match for a site wins.
    pub rules: Vec<SiteRule>,
}

impl FaultPlan {
    /// An empty plan (matches no site) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds a rule and returns the plan (builder style).
    pub fn with_rule(mut self, rule: SiteRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Parses the text plan format (the `NPTSN_CHAOS` payload):
    ///
    /// ```text
    /// # comment
    /// seed 42
    /// site checkpoint.save corrupt rate=0.5
    /// site serve.job panic every=3 max=5
    /// site serve.* delay=25 rate=0.1
    /// ```
    ///
    /// Kinds are `error`, `panic`, `corrupt`, `delay=MS`; options are
    /// `rate=F` (default 1.0), `every=N` and `max=N`.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| format!("chaos plan line {}: {msg}: {line:?}", lineno + 1);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("seed") => {
                    let value = words.next().ok_or_else(|| err("missing seed value"))?;
                    plan.seed =
                        value.parse().map_err(|_| err("seed must be an unsigned integer"))?;
                }
                Some("site") => {
                    let site = words.next().ok_or_else(|| err("missing site name"))?;
                    let kind_word = words.next().ok_or_else(|| err("missing fault kind"))?;
                    let kind = match kind_word {
                        "error" => FaultKind::Error,
                        "panic" => FaultKind::Panic,
                        "corrupt" => FaultKind::Corrupt,
                        other => match other.strip_prefix("delay=") {
                            Some(ms) => FaultKind::Delay(
                                ms.parse().map_err(|_| err("bad delay milliseconds"))?,
                            ),
                            None => return Err(err("unknown fault kind")),
                        },
                    };
                    let mut rule = SiteRule {
                        site: site.to_string(),
                        kind,
                        every: 0,
                        rate: 1.0,
                        max_count: 0,
                    };
                    for opt in words {
                        if let Some(v) = opt.strip_prefix("rate=") {
                            rule.rate = v.parse().map_err(|_| err("bad rate"))?;
                            if !(0.0..=1.0).contains(&rule.rate) {
                                return Err(err("rate must be in [0, 1]"));
                            }
                        } else if let Some(v) = opt.strip_prefix("every=") {
                            rule.every = v.parse().map_err(|_| err("bad every"))?;
                        } else if let Some(v) = opt.strip_prefix("max=") {
                            rule.max_count = v.parse().map_err(|_| err("bad max"))?;
                        } else {
                            return Err(err("unknown option"));
                        }
                    }
                    plan.rules.push(rule);
                }
                Some(_) => return Err(err("expected `seed` or `site`")),
                None => unreachable!("blank lines are skipped"),
            }
        }
        Ok(plan)
    }

    /// Renders the plan back into the text format [`parse`](Self::parse)
    /// accepts (round-trips exactly).
    pub fn render(&self) -> String {
        let mut out = format!("seed {}\n", self.seed);
        for rule in &self.rules {
            out.push_str(&format!("site {} {}", rule.site, rule.kind.render()));
            if rule.every > 0 {
                out.push_str(&format!(" every={}", rule.every));
            } else if rule.rate != 1.0 {
                out.push_str(&format!(" rate={}", rule.rate));
            }
            if rule.max_count > 0 {
                out.push_str(&format!(" max={}", rule.max_count));
            }
            out.push('\n');
        }
        out
    }
}

/// Loads a plan from an `NPTSN_CHAOS`-style spec: inline plan text, or
/// `@path` to read the plan from a file.
pub fn plan_from_spec(spec: &str) -> Result<FaultPlan, String> {
    match spec.strip_prefix('@') {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("chaos plan file {path}: {e}"))?;
            FaultPlan::parse(&text)
        }
        None => FaultPlan::parse(spec),
    }
}

/// The error a firing [`FaultKind::Error`] site reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError {
    /// The site that injected the failure.
    pub site: String,
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos: injected fault at {}", self.site)
    }
}

impl std::error::Error for ChaosError {}

impl From<ChaosError> for io::Error {
    fn from(err: ChaosError) -> io::Error {
        io::Error::other(err.to_string())
    }
}

/// A fired injection decision from [`point_raw`]: the fault to apply plus a
/// deterministic draw for parameterising it (e.g. which bit to flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Deterministic 64-bit draw tied to (seed, site, call index).
    pub draw: u64,
}

#[derive(Debug, Default)]
struct SiteState {
    calls: u64,
    injected: u64,
}

#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    sites: BTreeMap<String, SiteState>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);

fn plan_lock() -> MutexGuard<'static, Option<ActivePlan>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a, folding the site name into the per-decision seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Arms a plan process-wide: every [`point`] starts consulting it. Per-site
/// call counters restart from zero, so arming the same plan twice replays
/// the same schedule.
pub fn arm(plan: FaultPlan) {
    let mut guard = plan_lock();
    *guard = Some(ActivePlan { plan, sites: BTreeMap::new() });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection; sites return to the single-relaxed-load no-op.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *plan_lock() = None;
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Per-site injection counts of the armed plan (empty when disarmed).
/// Sorted by site name, so it is directly digestible for determinism
/// comparisons.
pub fn injection_counts() -> Vec<(String, u64)> {
    plan_lock()
        .as_ref()
        .map(|active| {
            active
                .sites
                .iter()
                .filter(|(_, s)| s.injected > 0)
                .map(|(site, s)| (site.clone(), s.injected))
                .collect()
        })
        .unwrap_or_default()
}

static SCOPE: Mutex<()> = Mutex::new(());

/// Serialises tests that arm plans (chaos state is process-global) and
/// disarms on drop.
#[must_use = "the plan disarms when the guard drops"]
pub struct ArmedGuard {
    _scope: MutexGuard<'static, ()>,
}

/// Arms a plan for the lifetime of the returned guard. Tests use this so
/// concurrent test threads never see each other's plans.
pub fn arm_scoped(plan: FaultPlan) -> ArmedGuard {
    let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    arm(plan);
    ArmedGuard { _scope: scope }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// The injection decision primitive. Disarmed cost: one relaxed atomic
/// load, `None`. Armed: consults the plan, bumps the per-site call counter
/// and returns the fault to apply, if any.
pub fn point_raw(site: &str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = plan_lock();
    let active = guard.as_mut()?;
    let rule_idx = active.plan.rules.iter().position(|r| r.matches(site))?;
    let rule = &active.plan.rules[rule_idx];
    let state = active.sites.entry(site.to_string()).or_default();
    state.calls += 1;
    if rule.max_count > 0 && state.injected >= rule.max_count {
        return None;
    }
    let mut rng =
        Xoshiro256pp::seed_from_u64(active.plan.seed ^ fnv1a(site.as_bytes()) ^ state.calls);
    let fire = if rule.every > 0 {
        state.calls % rule.every == 0
    } else {
        // 53-bit uniform in [0, 1): the same construction nptsn-rand uses
        // for f64 sampling.
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < rule.rate
    };
    if !fire {
        return None;
    }
    state.injected += 1;
    let fault = Fault { kind: rule.kind, draw: rng.next_u64() };
    drop(guard);
    let t = telemetry();
    t.chaos_faults.inc();
    t.registry
        .counter_labeled(
            "nptsn_chaos_faults_injected_total",
            &format!("site=\"{site}\""),
            "Faults injected per chaos site",
        )
        .inc();
    Some(fault)
}

fn apply(site: &str, fault: Fault) -> Result<(), ChaosError> {
    match fault.kind {
        FaultKind::Error => Err(ChaosError { site: site.to_string() }),
        FaultKind::Panic => panic!("chaos: injected panic at {site}"),
        FaultKind::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        // Corruption is only meaningful where bytes flow; elsewhere no-op.
        FaultKind::Corrupt => Ok(()),
    }
}

/// A plain injection site: `chaos::point("planner.ppo_update")?`.
///
/// Disarmed this is a single relaxed atomic load. Armed, a firing rule
/// injects an error (`Err`), a panic, or a delay; `Corrupt` rules are a
/// no-op at non-byte sites.
pub fn point(site: &str) -> Result<(), ChaosError> {
    match point_raw(site) {
        None => Ok(()),
        Some(fault) => apply(site, fault),
    }
}

/// A byte-stream injection site: like [`point`], but a firing `Corrupt`
/// rule also flips one deterministic bit of `bytes` (chosen from the plan
/// seed and call index), modelling torn writes and media bit rot.
pub fn point_bytes(site: &str, bytes: &mut [u8]) -> Result<(), ChaosError> {
    match point_raw(site) {
        None => Ok(()),
        Some(fault) => {
            if fault.kind == FaultKind::Corrupt && !bytes.is_empty() {
                let bit = (fault.draw % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            apply(site, fault)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_are_noops() {
        // Hold the lock `arm_scoped` holds, so no concurrent test arms a
        // plan in the middle of these assertions.
        let _scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!is_armed());
        assert_eq!(point_raw("any.site"), None);
        assert!(point("any.site").is_ok());
        let mut bytes = [7u8; 16];
        assert!(point_bytes("any.site", &mut bytes).is_ok());
        assert_eq!(bytes, [7u8; 16]);
        assert!(injection_counts().is_empty());
    }

    #[test]
    fn plan_text_round_trips() {
        let text = "seed 42\n\
                    site checkpoint.save corrupt rate=0.5\n\
                    site serve.job panic every=3 max=5\n\
                    site serve.* delay=25 rate=0.1\n\
                    site planner.ppo_update error\n";
        let plan = FaultPlan::parse(text).expect("plan parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[1].kind, FaultKind::Panic);
        assert_eq!(plan.rules[1].every, 3);
        assert_eq!(plan.rules[1].max_count, 5);
        assert_eq!(plan.rules[2].kind, FaultKind::Delay(25));
        assert_eq!(plan.render(), text);
        assert_eq!(FaultPlan::parse(&plan.render()).expect("round-trip"), plan);
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "site",
            "site x",
            "site x explode",
            "site x error rate=2.0",
            "site x error what=1",
            "seed notanumber",
            "frobnicate x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rules_match_exact_and_prefix_sites() {
        let rule = SiteRule::always("serve.*", FaultKind::Error);
        assert!(rule.matches("serve.job"));
        assert!(rule.matches("serve.accept"));
        assert!(!rule.matches("planner.rollout"));
        let exact = SiteRule::always("serve.job", FaultKind::Error);
        assert!(exact.matches("serve.job"));
        assert!(!exact.matches("serve.job.extra"));
    }

    #[test]
    fn every_and_max_schedules_are_deterministic() {
        let plan = FaultPlan::new(1).with_rule(SiteRule {
            site: "t.every".to_string(),
            kind: FaultKind::Error,
            every: 3,
            rate: 1.0,
            max_count: 2,
        });
        let _guard = arm_scoped(plan);
        let fired: Vec<bool> = (0..12).map(|_| point("t.every").is_err()).collect();
        // Fires on calls 3 and 6, then the max=2 cap holds.
        let expect: Vec<bool> =
            (1..=12).map(|c| c % 3 == 0 && c <= 6).collect();
        assert_eq!(fired, expect);
        assert_eq!(injection_counts(), vec![("t.every".to_string(), 2)]);
    }

    #[test]
    fn rate_schedule_replays_identically_for_a_seed() {
        let plan = || {
            FaultPlan::new(99).with_rule(SiteRule {
                site: "t.rate".to_string(),
                kind: FaultKind::Error,
                every: 0,
                rate: 0.4,
                max_count: 0,
            })
        };
        let run = |p: FaultPlan| -> Vec<bool> {
            let _guard = arm_scoped(p);
            (0..64).map(|_| point("t.rate").is_err()).collect()
        };
        let a = run(plan());
        let b = run(plan());
        assert_eq!(a, b, "same seed must replay the same schedule");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(hits > 5 && hits < 60, "rate 0.4 should fire sometimes, not always: {hits}");
        let mut other = plan();
        other.seed = 100;
        let c = run(other);
        assert_ne!(a, c, "a different seed should produce a different schedule");
    }

    #[test]
    fn corrupt_flips_exactly_one_deterministic_bit() {
        let plan = || {
            FaultPlan::new(7)
                .with_rule(SiteRule::always("t.bytes", FaultKind::Corrupt))
        };
        let flip = |p: FaultPlan| -> Vec<u8> {
            let _guard = arm_scoped(p);
            let mut bytes = vec![0u8; 32];
            point_bytes("t.bytes", &mut bytes).expect("corrupt is not an error");
            bytes
        };
        let a = flip(plan());
        let b = flip(plan());
        assert_eq!(a, b, "same seed flips the same bit");
        let flipped: u32 = a.iter().map(|byte| byte.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
    }

    #[test]
    fn panic_faults_panic_with_the_site_name() {
        let plan = FaultPlan::new(3).with_rule(SiteRule::always("t.panic", FaultKind::Panic));
        let _guard = arm_scoped(plan);
        let caught = std::panic::catch_unwind(|| point("t.panic"));
        let msg = *caught.expect_err("must panic").downcast::<String>().expect("string payload");
        assert!(msg.contains("t.panic"), "panic names the site: {msg}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(5)
            .with_rule(SiteRule::always("serve.job", FaultKind::Error))
            .with_rule(SiteRule::always("serve.*", FaultKind::Panic));
        let _guard = arm_scoped(plan);
        assert!(point("serve.job").is_err(), "exact rule listed first wins");
    }

    #[test]
    fn injections_reach_the_telemetry_registry() {
        let plan = FaultPlan::new(11).with_rule(SiteRule::always("t.metrics", FaultKind::Error));
        let _guard = arm_scoped(plan);
        let before = telemetry().chaos_faults.get();
        let _ = point("t.metrics");
        assert!(telemetry().chaos_faults.get() > before);
        let text = telemetry().registry.render();
        assert!(
            text.contains("nptsn_chaos_faults_injected_total{site=\"t.metrics\"}"),
            "per-site labeled series missing: {text}"
        );
    }
}
