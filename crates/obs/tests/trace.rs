//! Tracing-core behaviour: span nesting and ordering across threads, and
//! the Chrome trace exporter round-tripping through the in-tree JSON
//! parser.
//!
//! Tracing state is process-global, so every test takes `TRACE_LOCK` and
//! drains the sink before and after its recording window.

use std::sync::Mutex;

use nptsn_obs::json::Value;
use nptsn_obs::{Level, Record};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with tracing enabled and returns exactly the records it made.
fn record<T>(f: impl FnOnce() -> T) -> (T, Vec<Record>) {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = nptsn_obs::drain();
    nptsn_obs::set_enabled(true);
    let out = f();
    nptsn_obs::set_enabled(false);
    let records = nptsn_obs::drain();
    (out, records)
}

fn spans(records: &[Record]) -> Vec<(&'static str, u64, u64, u64, u64)> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Span { name, tid, start_ns, dur_ns, self_ns, trace_id: _ } => {
                Some((*name, *tid, *start_ns, *dur_ns, *self_ns))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn nested_spans_close_inner_first_and_charge_self_time() {
    let (_, records) = record(|| {
        let _outer = nptsn_obs::span("test.outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = nptsn_obs::span("test.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    });
    let spans = spans(&records);
    assert_eq!(spans.len(), 2);
    // Children close (and are recorded) before their parent.
    let (inner, outer) = (spans[0], spans[1]);
    assert_eq!(inner.0, "test.inner");
    assert_eq!(outer.0, "test.outer");
    assert_eq!(inner.1, outer.1, "same thread id");
    // The inner span starts within and ends within the outer span.
    assert!(inner.2 >= outer.2, "inner starts after outer: {spans:?}");
    assert!(inner.2 + inner.3 <= outer.2 + outer.3, "inner ends within outer: {spans:?}");
    // A leaf's self-time is its duration; the parent's self-time excludes
    // the child's whole duration.
    assert_eq!(inner.4, inner.3);
    assert_eq!(outer.4, outer.3 - inner.3, "outer self = dur - child dur");
    assert!(outer.4 >= 1_000_000, "outer kept its own ~2ms of self time: {spans:?}");
}

#[test]
fn threads_record_independent_span_stacks() {
    let (_, records) = record(|| {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    {
                        let _outer = nptsn_obs::span("worker.outer");
                        let _inner = nptsn_obs::span("worker.inner");
                    }
                    // `scope` returns when the closure completes, which can
                    // be *before* the thread-local Drop flush runs — short
                    // -lived workers flush explicitly.
                    nptsn_obs::flush_thread();
                });
            }
        });
    });
    let spans = spans(&records);
    assert_eq!(spans.len(), 4, "{spans:?}");
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.1).collect();
    assert_eq!(tids.len(), 2, "two distinct worker thread ids: {spans:?}");
    for tid in tids {
        let mine: Vec<_> = spans.iter().filter(|s| s.1 == tid).collect();
        assert_eq!(mine.len(), 2);
        // Per-thread ordering: inner closed first, nested within outer.
        assert_eq!(mine[0].0, "worker.inner");
        assert_eq!(mine[1].0, "worker.outer");
        assert!(mine[0].2 >= mine[1].2);
        assert!(mine[0].3 <= mine[1].3);
    }
}

#[test]
fn events_respect_the_log_level() {
    let (_, records) = record(|| {
        nptsn_obs::set_log_level(Level::Info);
        nptsn_obs::event(Level::Info, "test.kept", "shown");
        nptsn_obs::event(Level::Debug, "test.dropped", "hidden");
        nptsn_obs::event(Level::Error, "test.error", "shown");
        nptsn_obs::set_log_level(Level::Off);
        nptsn_obs::event(Level::Error, "test.muted", "hidden");
        nptsn_obs::set_log_level(Level::Info);
    });
    let names: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Event { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    assert_eq!(names, vec!["test.kept", "test.error"]);
}

#[test]
fn disabled_tracing_records_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = nptsn_obs::drain();
    assert!(!nptsn_obs::enabled());
    {
        let _span = nptsn_obs::span("test.ghost");
        nptsn_obs::event(Level::Error, "test.ghost", "nope");
    }
    assert!(nptsn_obs::drain().is_empty());
}

#[test]
fn spans_adopt_the_thread_trace_context_and_propagate_across_threads() {
    let ctx = nptsn_obs::TraceContext::from_seed(99);
    let (_, records) = record(|| {
        {
            let _trace = nptsn_obs::with_trace(Some(ctx));
            let _outer = nptsn_obs::span("traced.outer");
            // A worker thread adopts the captured context, the way the
            // analyzer/planner thread pools do.
            let captured = nptsn_obs::current_trace();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _trace = nptsn_obs::with_trace(captured);
                    let _inner = nptsn_obs::span("traced.worker");
                    drop(_inner);
                    nptsn_obs::flush_thread();
                });
            });
        }
        let _after = nptsn_obs::span("untraced.after");
    });
    let by_name = |n: &str| {
        records
            .iter()
            .find_map(|r| match r {
                Record::Span { name, trace_id, .. } if *name == n => Some(*trace_id),
                _ => None,
            })
            .unwrap_or_else(|| panic!("span {n} missing: {records:?}"))
    };
    assert_eq!(by_name("traced.outer"), ctx.trace_id);
    assert_eq!(by_name("traced.worker"), ctx.trace_id, "worker thread shares the trace id");
    assert_eq!(by_name("untraced.after"), 0, "spans outside the scope are untraced");
}

#[test]
fn chrome_trace_round_trips_through_the_parser() {
    let (_, records) = record(|| {
        let _outer = nptsn_obs::span("rt.outer");
        nptsn_obs::event(Level::Info, "rt.event", "msg with \"quotes\" and\nnewline");
        let _inner = nptsn_obs::span("rt.inner");
    });
    assert_eq!(records.len(), 3);

    let text = nptsn_obs::chrome_trace_json(&records);
    let doc = nptsn_obs::json::parse(&text).expect("exporter output is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), 3);

    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    assert!(names.contains(&"rt.outer"), "{names:?}");
    assert!(names.contains(&"rt.inner"), "{names:?}");
    assert!(names.contains(&"rt.event"), "{names:?}");

    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("phase");
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        assert!(e.get("ts").and_then(Value::as_num).is_some(), "numeric ts");
        assert_eq!(e.get("pid").and_then(Value::as_num), Some(1.0));
        if ph == "X" {
            assert!(e.get("dur").and_then(Value::as_num).is_some());
        }
        if ph == "i" {
            let args = e.get("args").expect("instant args");
            assert_eq!(args.get("level").and_then(Value::as_str), Some("info"));
            assert_eq!(
                args.get("message").and_then(Value::as_str),
                Some("msg with \"quotes\" and\nnewline")
            );
        }
    }
}
