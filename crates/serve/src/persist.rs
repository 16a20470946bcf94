//! Durable job records: what the queue writes through the store so a
//! restarted server can rebuild itself.
//!
//! A [`JobSpec`] is the *submission* in replayable form — the raw request
//! text plus its parameters, not the parsed structures (a parsed problem
//! does not retain its source, and only the source is stable across
//! versions). Recovery re-validates a spec through the exact same path as
//! an HTTP submission ([`JobSpec::validate`]), so a record that parsed
//! yesterday parses identically today or fails loudly into a `failed` job.
//!
//! A [`JobRecord`] is one job's full persisted state: lifecycle state,
//! its spec, and — once terminal — the outcome payload or error, so
//! recovered results are byte-identical to what the pre-crash server
//! would have served.
//!
//! The encoding is a versioned, length-prefixed binary format (the store
//! already CRCs every record, so no checksum here).

use crate::jobs::{
    CheckpointSource, InferRequest, JobId, JobKind, JobOutcome, JobState, PlanRequest,
    VerifyRequest,
};
use nptsn_format::{parse_plan, parse_problem};

/// Store key prefix for job records (ids zero-padded so the store's
/// sorted prefix scan yields submission order).
pub const JOB_PREFIX: &str = "job/";
/// Store key holding the highest id ever issued, so a restart after
/// `DELETE /jobs/<id>` never reuses an id.
pub const NEXT_ID_KEY: &str = "meta/next_id";

/// The store key for one job's record.
pub fn job_key(id: JobId) -> String {
    format!("{JOB_PREFIX}{id:020}")
}

/// The job id encoded in a store key, if it is a job key.
pub fn job_id_from_key(key: &str) -> Option<JobId> {
    key.strip_prefix(JOB_PREFIX)?.parse().ok()
}

/// Store key prefix for passive-replica markers. A marker under
/// `replica/<id>` means the job record under `job/<id>` was written
/// through by a router as a replication-factor-2 copy and is **not** this
/// shard's to execute: recovery holds it passive instead of re-enqueueing
/// it, until a promotion (the primary died) activates it. The marker's
/// value is the primary shard's name.
pub const REPLICA_PREFIX: &str = "replica/";

/// The store key for one job's passive-replica marker.
pub fn replica_key(id: JobId) -> String {
    format!("{REPLICA_PREFIX}{id:020}")
}

/// The job id encoded in a store key, if it is a replica marker key.
pub fn replica_id_from_key(key: &str) -> Option<JobId> {
    key.strip_prefix(REPLICA_PREFIX)?.parse().ok()
}

/// Store key prefix for per-job trace timelines (span summaries captured
/// from the flight recorder when a job reaches a terminal state).
pub const TRACE_PREFIX: &str = "trace/";

/// The store key for one job's trace timeline.
pub fn trace_key(id: JobId) -> String {
    format!("{TRACE_PREFIX}{id:020}")
}

/// The job id encoded in a store key, if it is a trace key.
pub fn trace_id_from_key(key: &str) -> Option<JobId> {
    key.strip_prefix(TRACE_PREFIX)?.parse().ok()
}

const RECORD_VERSION: u8 = 1;
const TRACE_RECORD_VERSION: u8 = 1;
/// The fewest bytes one encoded [`TraceSpan`] takes: an empty name's
/// length prefix and four `u64`s.
const MIN_TRACE_SPAN_BYTES: usize = 40;

/// A submission in replayable form. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A `POST /jobs/plan` submission.
    Plan {
        /// The raw problem document.
        problem: String,
        /// Training epochs.
        epochs: u64,
        /// Environment steps per epoch.
        steps: u64,
        /// Base RNG seed.
        seed: u64,
        /// Greedy ablation instead of RL.
        greedy: bool,
    },
    /// A `POST /jobs/verify` submission (problem + plan in one body).
    Verify {
        /// The raw combined body.
        body: String,
    },
    /// A `POST /jobs/infer` submission.
    Infer {
        /// The raw problem document.
        problem: String,
        /// Where the policy checkpoint comes from.
        checkpoint: CheckpointRef,
        /// Deployment episodes to attempt.
        attempts: u64,
        /// Base RNG seed.
        seed: u64,
    },
    /// A diagnostic burn job.
    Burn {
        /// Worker occupancy in milliseconds.
        millis: u64,
    },
}

/// Where an infer job's checkpoint bytes come from.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointRef {
    /// Uploaded inline with the submission.
    Inline(Vec<u8>),
    /// A name in the checkpoint registry, resolved when the job runs.
    Named(String),
}

/// The most training epochs a plan job may ask for: four times Table II's
/// 256. A running plan job stops on cancellation only at an epoch
/// boundary.
pub const MAX_EPOCHS: u64 = 1024;
/// The most environment steps per epoch a plan job may ask for: four times
/// Table II's 2048. One epoch keeps every step's observation in its
/// rollout buffer (~17 KB each on ORION, ~140 MB at this cap) and cannot
/// be cancelled midway.
pub const MAX_STEPS: u64 = 8192;
/// The most greedy attempts an infer job may ask for: eight times the
/// default 8. An infer job never reads its cancel flag, and a coalesced
/// batch answers none of its jobs before its longest lane's last attempt
/// ends.
pub const MAX_ATTEMPTS: u64 = 64;

/// `value` (at least 1) as a count, or a 422 naming the cap it exceeds.
fn capped(name: &str, value: u64, cap: u64, cap_name: &str) -> Result<usize, SpecError> {
    if value > cap {
        return Err(SpecError::Invalid(format!("{name}={value} exceeds {cap_name} ({cap})")));
    }
    Ok(value.max(1) as usize)
}

/// Why a spec cannot become a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The submission is structurally malformed (HTTP 400).
    Malformed(String),
    /// The submission parsed but its content is invalid (HTTP 422).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(m) | SpecError::Invalid(m) => f.write_str(m),
        }
    }
}

/// Splits a verify body into (problem, plan) at the first `[switches]`
/// line — a section name the problem format does not use.
pub fn split_verify_body(text: &str) -> Option<(&str, &str)> {
    let split = text
        .lines()
        .scan(0usize, |offset, line| {
            let at = *offset;
            *offset = at + line.len() + 1;
            Some((at, line))
        })
        .find(|(_, line)| line.trim() == "[switches]")
        .map(|(at, _)| at)?;
    Some(text.split_at(split))
}

impl JobSpec {
    /// Re-validates the spec into an executable [`JobKind`] — the single
    /// validation path shared by HTTP submission, crash recovery and
    /// replay ingest. Counts over [`MAX_EPOCHS`], [`MAX_STEPS`] or
    /// [`MAX_ATTEMPTS`] are invalid.
    pub fn validate(&self) -> Result<JobKind, SpecError> {
        match self {
            JobSpec::Plan { problem, epochs, steps, seed, greedy } => {
                let epochs = capped("epochs", *epochs, MAX_EPOCHS, "MAX_EPOCHS")?;
                let steps = capped("steps", *steps, MAX_STEPS, "MAX_STEPS")?;
                let parsed = parse_problem(problem)
                    .map_err(|e| SpecError::Invalid(format!("invalid problem: {e}")))?;
                let (seed, greedy) = (*seed, *greedy);
                Ok(JobKind::Plan(PlanRequest { parsed, epochs, steps, seed, greedy }))
            }
            JobSpec::Verify { body } => {
                let Some((problem_text, plan_text)) = split_verify_body(body) else {
                    return Err(SpecError::Malformed(
                        "verify body has no [switches] section (problem + plan expected)"
                            .to_string(),
                    ));
                };
                let parsed = parse_problem(problem_text)
                    .map_err(|e| SpecError::Invalid(format!("invalid problem: {e}")))?;
                let topology = parse_plan(&parsed, plan_text)
                    .map_err(|e| SpecError::Invalid(format!("invalid plan: {e}")))?;
                Ok(JobKind::Verify(VerifyRequest { parsed, topology }))
            }
            JobSpec::Infer { problem, checkpoint, attempts, seed } => {
                let attempts = capped("attempts", *attempts, MAX_ATTEMPTS, "MAX_ATTEMPTS")?;
                let parsed = parse_problem(problem)
                    .map_err(|e| SpecError::Invalid(format!("invalid problem: {e}")))?;
                let checkpoint = match checkpoint {
                    CheckpointRef::Inline(bytes) => {
                        // Structural validation up front: magic, version,
                        // framing, CRC-32 — malformed uploads never queue.
                        nptsn_nn::checkpoint_shapes(bytes).map_err(|e| {
                            SpecError::Invalid(format!("invalid checkpoint: {e}"))
                        })?;
                        CheckpointSource::Inline(bytes.clone())
                    }
                    CheckpointRef::Named(name) => CheckpointSource::Named(name.clone()),
                };
                Ok(JobKind::Infer(InferRequest { parsed, checkpoint, attempts, seed: *seed }))
            }
            JobSpec::Burn { millis } => Ok(JobKind::Burn { millis: *millis }),
        }
    }

    /// The kind label this spec produces (`plan`, `verify`, …).
    pub fn kind_name(&self) -> &'static str {
        match self {
            JobSpec::Plan { .. } => "plan",
            JobSpec::Verify { .. } => "verify",
            JobSpec::Infer { .. } => "infer",
            JobSpec::Burn { .. } => "burn",
        }
    }
}

/// One job's full persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Lifecycle state at the last persisted transition.
    pub state: JobState,
    /// The replayable submission (absent only for legacy direct-`JobKind`
    /// submissions, which cannot be re-executed after a crash).
    pub spec: Option<JobSpec>,
    /// The result payload, once `done` (and for cancelled-with-result).
    pub outcome: Option<JobOutcome>,
    /// The failure message, once `failed`.
    pub error: Option<String>,
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn opt(&mut self, present: bool) {
        self.u8(present as u8);
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!("record truncated at byte {}", self.at));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn str(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|_| "record string is not UTF-8".to_string())
    }
    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.u8()? != 0)
    }
    fn done(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after record", self.bytes.len() - self.at))
        }
    }
}

fn state_tag(state: JobState) -> u8 {
    match state {
        JobState::Submitted => 0,
        JobState::Running => 1,
        JobState::Done => 2,
        JobState::Failed => 3,
        JobState::Cancelled => 4,
    }
}

fn state_from_tag(tag: u8) -> Result<JobState, String> {
    Ok(match tag {
        0 => JobState::Submitted,
        1 => JobState::Running,
        2 => JobState::Done,
        3 => JobState::Failed,
        4 => JobState::Cancelled,
        other => return Err(format!("unknown job state tag {other}")),
    })
}

/// Plan and Verify specs end in the slot of the retired `analyzer_workers`
/// count: written as 1, so servers that still read it run the job
/// sequentially, and skipped on decode. `RECORD_VERSION` stays 1, so logs
/// and replicas written before the count was retired replay.
const RETIRED_SLOT: u64 = 1;

fn encode_spec(enc: &mut Enc, spec: &JobSpec) {
    match spec {
        JobSpec::Plan { problem, epochs, steps, seed, greedy } => {
            enc.u8(1);
            enc.str(problem);
            enc.u64(*epochs);
            enc.u64(*steps);
            enc.u64(*seed);
            enc.u8(*greedy as u8);
            enc.u64(RETIRED_SLOT);
        }
        JobSpec::Verify { body } => {
            enc.u8(2);
            enc.str(body);
            enc.u64(RETIRED_SLOT);
        }
        JobSpec::Infer { problem, checkpoint, attempts, seed } => {
            enc.u8(3);
            enc.str(problem);
            match checkpoint {
                CheckpointRef::Inline(bytes) => {
                    enc.u8(0);
                    enc.bytes(bytes);
                }
                CheckpointRef::Named(name) => {
                    enc.u8(1);
                    enc.str(name);
                }
            }
            enc.u64(*attempts);
            enc.u64(*seed);
        }
        JobSpec::Burn { millis } => {
            enc.u8(4);
            enc.u64(*millis);
        }
    }
}

fn decode_spec(dec: &mut Dec<'_>) -> Result<JobSpec, String> {
    Ok(match dec.u8()? {
        1 => {
            let spec = JobSpec::Plan {
                problem: dec.str()?,
                epochs: dec.u64()?,
                steps: dec.u64()?,
                seed: dec.u64()?,
                greedy: dec.bool()?,
            };
            dec.u64()?; // RETIRED_SLOT
            spec
        }
        2 => {
            let spec = JobSpec::Verify { body: dec.str()? };
            dec.u64()?; // RETIRED_SLOT
            spec
        }
        3 => JobSpec::Infer {
            problem: dec.str()?,
            checkpoint: match dec.u8()? {
                0 => CheckpointRef::Inline(dec.bytes()?),
                1 => CheckpointRef::Named(dec.str()?),
                other => return Err(format!("unknown checkpoint ref tag {other}")),
            },
            attempts: dec.u64()?,
            seed: dec.u64()?,
        },
        4 => JobSpec::Burn { millis: dec.u64()? },
        other => return Err(format!("unknown job spec tag {other}")),
    })
}

fn encode_outcome(enc: &mut Enc, outcome: &JobOutcome) {
    match outcome {
        JobOutcome::Plan { planfile, cost, summary, checkpoint } => {
            enc.u8(1);
            enc.str(planfile);
            enc.f64(*cost);
            enc.str(summary);
            enc.opt(checkpoint.is_some());
            if let Some(bytes) = checkpoint {
                enc.bytes(bytes);
            }
        }
        JobOutcome::Verify { json, reliable } => {
            enc.u8(2);
            enc.str(json);
            enc.u8(*reliable as u8);
        }
        JobOutcome::Burn => enc.u8(3),
    }
}

fn decode_outcome(dec: &mut Dec<'_>) -> Result<JobOutcome, String> {
    Ok(match dec.u8()? {
        1 => JobOutcome::Plan {
            planfile: dec.str()?,
            cost: dec.f64()?,
            summary: dec.str()?,
            checkpoint: if dec.bool()? { Some(dec.bytes()?) } else { None },
        },
        2 => JobOutcome::Verify { json: dec.str()?, reliable: dec.bool()? },
        3 => JobOutcome::Burn,
        other => return Err(format!("unknown outcome tag {other}")),
    })
}

/// Encodes one job record (by parts, so callers holding a live entry do
/// not clone payloads just to persist them).
pub fn encode_record(
    state: JobState,
    spec: Option<&JobSpec>,
    outcome: Option<&JobOutcome>,
    error: Option<&str>,
) -> Vec<u8> {
    let mut enc = Enc { buf: Vec::with_capacity(64) };
    enc.u8(RECORD_VERSION);
    enc.u8(state_tag(state));
    enc.opt(spec.is_some());
    if let Some(spec) = spec {
        encode_spec(&mut enc, spec);
    }
    enc.opt(outcome.is_some());
    if let Some(outcome) = outcome {
        encode_outcome(&mut enc, outcome);
    }
    enc.opt(error.is_some());
    if let Some(error) = error {
        enc.str(error);
    }
    enc.buf
}

/// Decodes one job record.
pub fn decode_record(bytes: &[u8]) -> Result<JobRecord, String> {
    let mut dec = Dec { bytes, at: 0 };
    let version = dec.u8()?;
    if version != RECORD_VERSION {
        return Err(format!("unsupported job record version {version}"));
    }
    let state = state_from_tag(dec.u8()?)?;
    let spec = if dec.bool()? { Some(decode_spec(&mut dec)?) } else { None };
    let outcome = if dec.bool()? { Some(decode_outcome(&mut dec)?) } else { None };
    let error = if dec.bool()? { Some(dec.str()?) } else { None };
    dec.done()?;
    Ok(JobRecord { state, spec, outcome, error })
}

/// One span summary in a persisted job timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The span name (owned: the record outlives the process that had the
    /// static string).
    pub name: String,
    /// Recording thread on the shard.
    pub tid: u64,
    /// Start offset from the shard's trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub dur_ns: u64,
    /// Self time.
    pub self_ns: u64,
}

/// One job's persisted trace timeline: the spans the shard recorded under
/// the job's trace id, written alongside the job record at terminal
/// transitions and replayed to a successor shard on failover.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The 128-bit trace id shared with the router's spans.
    pub trace_id: u128,
    /// The shard that recorded the spans.
    pub shard: String,
    /// Span summaries, oldest first.
    pub spans: Vec<TraceSpan>,
}

/// Encodes one trace record.
pub fn encode_trace(record: &TraceRecord) -> Vec<u8> {
    let mut enc = Enc { buf: Vec::with_capacity(64 + record.spans.len() * 48) };
    enc.u8(TRACE_RECORD_VERSION);
    enc.u64(record.trace_id as u64);
    enc.u64((record.trace_id >> 64) as u64);
    enc.str(&record.shard);
    enc.u64(record.spans.len() as u64);
    for span in &record.spans {
        enc.str(&span.name);
        enc.u64(span.tid);
        enc.u64(span.start_ns);
        enc.u64(span.dur_ns);
        enc.u64(span.self_ns);
    }
    enc.buf
}

/// Decodes one trace record.
pub fn decode_trace(bytes: &[u8]) -> Result<TraceRecord, String> {
    let mut dec = Dec { bytes, at: 0 };
    let version = dec.u8()?;
    if version != TRACE_RECORD_VERSION {
        return Err(format!("unsupported trace record version {version}"));
    }
    let lo = dec.u64()?;
    let hi = dec.u64()?;
    let shard = dec.str()?;
    let count = dec.u64()? as usize;
    // Reserve only what the bytes left can hold: a forged count must not
    // buy an allocation the record does not back.
    let mut spans = Vec::with_capacity(count.min((bytes.len() - dec.at) / MIN_TRACE_SPAN_BYTES));
    for _ in 0..count {
        spans.push(TraceSpan {
            name: dec.str()?,
            tid: dec.u64()?,
            start_ns: dec.u64()?,
            dur_ns: dec.u64()?,
            self_ns: dec.u64()?,
        });
    }
    dec.done()?;
    Ok(TraceRecord { trace_id: ((hi as u128) << 64) | (lo as u128), shard, spans })
}

/// Encodes the next-id meta record.
pub fn encode_next_id(id: JobId) -> Vec<u8> {
    id.to_le_bytes().to_vec()
}

/// Decodes the next-id meta record.
pub fn decode_next_id(bytes: &[u8]) -> Option<JobId> {
    Some(JobId::from_le_bytes(bytes.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &JobRecord) -> JobRecord {
        let bytes = encode_record(
            record.state,
            record.spec.as_ref(),
            record.outcome.as_ref(),
            record.error.as_deref(),
        );
        decode_record(&bytes).unwrap()
    }

    #[test]
    fn records_roundtrip_every_shape() {
        let records = [
            JobRecord {
                state: JobState::Submitted,
                spec: Some(JobSpec::Plan {
                    problem: "[nodes]\nes a\n".to_string(),
                    epochs: 3,
                    steps: 64,
                    seed: 7,
                    greedy: true,
                }),
                outcome: None,
                error: None,
            },
            JobRecord {
                state: JobState::Running,
                spec: Some(JobSpec::Verify { body: "p\n[switches]\ns".to_string() }),
                outcome: None,
                error: None,
            },
            JobRecord {
                state: JobState::Done,
                spec: Some(JobSpec::Infer {
                    problem: "[nodes]".to_string(),
                    checkpoint: CheckpointRef::Inline(vec![1, 2, 3]),
                    attempts: 8,
                    seed: 0,
                }),
                outcome: Some(JobOutcome::Plan {
                    planfile: "[switches]\n".to_string(),
                    cost: 12.5,
                    summary: "ok".to_string(),
                    checkpoint: Some(vec![9, 9]),
                }),
                error: None,
            },
            JobRecord {
                state: JobState::Failed,
                spec: Some(JobSpec::Infer {
                    problem: "[nodes]".to_string(),
                    checkpoint: CheckpointRef::Named("prod".to_string()),
                    attempts: 1,
                    seed: 3,
                }),
                outcome: None,
                error: Some("no plan".to_string()),
            },
            JobRecord {
                state: JobState::Cancelled,
                spec: Some(JobSpec::Burn { millis: 5 }),
                outcome: Some(JobOutcome::Burn),
                error: None,
            },
            JobRecord {
                state: JobState::Done,
                spec: None,
                outcome: Some(JobOutcome::Verify { json: "{}".to_string(), reliable: false }),
                error: None,
            },
        ];
        for record in &records {
            assert_eq!(&roundtrip(record), record, "{record:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
        assert!(decode_record(&[1, 0, 1, 77]).is_err()); // bad spec tag
        // Trailing bytes after a valid record are an error, not ignored.
        let mut bytes = encode_record(JobState::Submitted, None, None, None);
        bytes.push(0);
        assert!(decode_record(&bytes).unwrap_err().contains("trailing"));
    }

    /// Submitted Plan and Verify records as servers encoded them while the
    /// spec still carried `analyzer_workers` (here 4): the slot is skipped,
    /// and both replay as the same job a current server would run.
    #[test]
    fn records_with_an_analyzer_worker_count_still_replay() {
        const PROBLEM: &str =
            "[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n";
        const PLAN: &str = "[switches]\ns0 D\n[plan-links]\na s0\nb s0\n";
        // Version 1, Submitted, spec present, spec tag; then the fields
        // in order, the worker count (4) last; no outcome, no error.
        const LEGACY_PLAN: &[u8] = b"\x01\x00\x01\x01\
            \x3e\x00\x00\x00\x00\x00\x00\x00[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n\
            \x03\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x01\
            \x04\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        const LEGACY_VERIFY: &[u8] = b"\x01\x00\x01\x02\
            \x65\x00\x00\x00\x00\x00\x00\x00[nodes]\nes a\nes b\nsw s0\n[links]\na s0\nb s0\n[flows]\na b 500 128\n[switches]\ns0 D\n[plan-links]\na s0\nb s0\n\
            \x04\x00\x00\x00\x00\x00\x00\x00\x00\x00";

        let plan = JobSpec::Plan {
            problem: PROBLEM.to_string(),
            epochs: 3,
            steps: 64,
            seed: 7,
            greedy: true,
        };
        let verify = JobSpec::Verify { body: format!("{PROBLEM}{PLAN}") };
        let mut decoded = Vec::new();
        for (legacy, spec) in [(LEGACY_PLAN, &plan), (LEGACY_VERIFY, &verify)] {
            let record = decode_record(legacy).unwrap();
            assert_eq!(record.state, JobState::Submitted);
            assert_eq!(record.spec.as_ref(), Some(spec));
            assert_eq!((record.outcome, record.error), (None, None));
            // Today's encoder writes the same bytes with the slot at 1.
            let mut current = legacy.to_vec();
            current[legacy.len() - 10] = 1;
            assert_eq!(encode_record(JobState::Submitted, Some(spec), None, None), current);
            decoded.push(record.spec.unwrap().validate());
        }
        let [Ok(JobKind::Plan(plan)), Ok(JobKind::Verify(verify))] = &decoded[..] else {
            panic!("legacy records must validate: {decoded:?}");
        };
        assert_eq!((plan.epochs, plan.steps, plan.seed, plan.greedy), (3, 64, 7, true));
        assert_eq!(plan.parsed.problem.flows().len(), 1);
        let s0 = verify.parsed.nodes_by_name["s0"];
        assert_eq!(verify.topology.switch_asil(s0), Some(nptsn_topo::Asil::D));
    }

    #[test]
    fn job_keys_sort_in_id_order() {
        assert_eq!(job_key(7), "job/00000000000000000007");
        assert!(job_key(9) < job_key(10));
        assert_eq!(job_id_from_key(&job_key(42)), Some(42));
        assert_eq!(job_id_from_key("ckpt/x"), None);
        assert_eq!(decode_next_id(&encode_next_id(900)), Some(900));
    }

    #[test]
    fn replica_marker_keys_parse() {
        assert_eq!(replica_key(7), "replica/00000000000000000007");
        assert_eq!(replica_id_from_key(&replica_key(42)), Some(42));
        assert_eq!(replica_id_from_key(&job_key(42)), None);
        assert_eq!(job_id_from_key(&replica_key(42)), None);
    }

    #[test]
    fn trace_records_roundtrip_and_keys_parse() {
        assert_eq!(trace_key(7), "trace/00000000000000000007");
        assert_eq!(trace_id_from_key(&trace_key(42)), Some(42));
        assert_eq!(trace_id_from_key(&job_key(42)), None);
        assert_eq!(job_id_from_key(&trace_key(42)), None);
        let record = TraceRecord {
            trace_id: 0xdead_beef_0000_0001_u128 << 32 | 7,
            shard: "alpha".to_string(),
            spans: vec![
                TraceSpan {
                    name: "job.run".to_string(),
                    tid: 3,
                    start_ns: 1_000,
                    dur_ns: 9_000,
                    self_ns: 2_000,
                },
                TraceSpan {
                    name: "gcn.forward".to_string(),
                    tid: 3,
                    start_ns: 2_000,
                    dur_ns: 7_000,
                    self_ns: 7_000,
                },
            ],
        };
        let decoded = decode_trace(&encode_trace(&record)).unwrap();
        assert_eq!(decoded, record);
        let empty = TraceRecord { trace_id: 1, shard: String::new(), spans: Vec::new() };
        assert_eq!(decode_trace(&encode_trace(&empty)).unwrap(), empty);
        assert!(decode_trace(&[]).is_err());
        assert!(decode_trace(&[9, 0, 0]).is_err());
    }

    #[test]
    fn validate_is_the_shared_gate() {
        let bad = JobSpec::Plan {
            problem: "[nonsense".to_string(),
            epochs: 1,
            steps: 1,
            seed: 0,
            greedy: true,
        };
        assert!(matches!(bad.validate(), Err(SpecError::Invalid(_))));
        let lone = JobSpec::Verify { body: "no plan here".to_string() };
        assert!(matches!(lone.validate(), Err(SpecError::Malformed(_))));
        let burn = JobSpec::Burn { millis: 3 };
        assert!(matches!(burn.validate(), Ok(JobKind::Burn { millis: 3 })));
        assert_eq!(burn.kind_name(), "burn");
    }
}
