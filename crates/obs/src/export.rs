//! Exporters for the recorded trace stream: Chrome trace-event JSON
//! (Perfetto / `chrome://tracing`) and an end-of-run profile table
//! aggregated by span self-time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::Record;

/// Aggregated timing for one span name across a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The span name.
    pub name: &'static str,
    /// How many spans closed under this name.
    pub count: u64,
    /// Sum of wall-clock durations.
    pub total_ns: u64,
    /// Sum of self-times (duration minus same-thread children).
    pub self_ns: u64,
    /// Largest single duration.
    pub max_ns: u64,
}

/// Aggregates span records by name, sorted by self-time descending.
pub fn span_stats(records: &[Record]) -> Vec<SpanStat> {
    let mut by_name: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for record in records {
        if let Record::Span { name, dur_ns, self_ns, .. } = record {
            let stat = by_name.entry(name).or_insert(SpanStat {
                name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
            });
            stat.count += 1;
            stat.total_ns += dur_ns;
            stat.self_ns += self_ns;
            stat.max_ns = stat.max_ns.max(*dur_ns);
        }
    }
    let mut stats: Vec<SpanStat> = by_name.into_values().collect();
    stats.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    stats
}

/// Renders the `--profile` table: top spans by self-time, with counts,
/// totals and the single largest occurrence.
pub fn profile_table(records: &[Record]) -> String {
    let stats = span_stats(records);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total", "self", "max"
    );
    if stats.is_empty() {
        let _ = writeln!(out, "(no spans recorded)");
        return out;
    }
    for s in &stats {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>12}",
            s.name,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            fmt_ns(s.max_ns)
        );
    }
    out
}

/// Human-friendly duration: `420ns`, `3.2µs`, `15.04ms`, `2.50s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Chrome trace-event timestamps are microseconds; keep nanosecond
/// precision with a fixed three-decimal fraction.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
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
}

/// Renders the record stream as a Chrome trace-event JSON document:
/// complete (`"ph":"X"`) events for spans and instants (`"ph":"i"`) for
/// log events. Load the file in <https://ui.perfetto.dev> or
/// `chrome://tracing`.
pub fn chrome_trace_json(records: &[Record]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match record {
            Record::Span { name, tid, start_ns, dur_ns, self_ns, trace_id } => {
                out.push_str("{\"name\":\"");
                escape_into(&mut out, name);
                let _ = write!(
                    out,
                    "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
                     \"dur\":{},\"args\":{{\"self_us\":{}",
                    us(*start_ns),
                    us(*dur_ns),
                    us(*self_ns)
                );
                if *trace_id != 0 {
                    let _ = write!(out, ",\"trace\":\"{trace_id:032x}\"");
                }
                out.push_str("}}");
            }
            Record::Event { name, level, tid, ts_ns, message } => {
                out.push_str("{\"name\":\"");
                escape_into(&mut out, name);
                let _ = write!(
                    out,
                    "\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{},\"args\":{{\"level\":\"{}\",\"message\":\"",
                    us(*ts_ns),
                    level.label()
                );
                escape_into(&mut out, message);
                out.push_str("\"}}");
            }
        }
    }
    out.push_str("]}");
    out
}

/// One span inside a merged multi-process trace — names are owned
/// strings because merged spans arrive over the wire, not from static
/// call sites.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSpan {
    /// The span name, e.g. `"job.run"`.
    pub name: String,
    /// Recording thread on the originating process.
    pub tid: u64,
    /// Start offset from that process's trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub dur_ns: u64,
    /// Self time (duration minus same-thread children).
    pub self_ns: u64,
    /// The shared trace id (0 = untraced).
    pub trace_id: u128,
}

/// One process's contribution to a merged trace: the Chrome-trace `pid`
/// is the process's index + 1 and the given name becomes the Perfetto
/// process label.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessTrace {
    /// Process label, e.g. `"router"` or a shard name.
    pub name: String,
    /// The spans this process recorded (may be empty — the process row
    /// still appears in the output).
    pub spans: Vec<MergedSpan>,
}

/// Renders a fleet-wide Chrome trace-event document: each process gets
/// its own `pid` with a `process_name` metadata record (emitted even for
/// processes that contributed no spans, so every fleet member is visible
/// in Perfetto), and every span carries its trace id in `args`.
pub fn chrome_trace_merged(processes: &[ProcessTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, process) in processes.iter().enumerate() {
        let pid = i + 1;
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":\"");
        escape_into(&mut out, &process.name);
        out.push_str("\"}}");
        for span in &process.spans {
            out.push_str(",{\"name\":\"");
            escape_into(&mut out, &span.name);
            let _ = write!(
                out,
                "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\
                 \"dur\":{},\"args\":{{\"self_us\":{}",
                span.tid,
                us(span.start_ns),
                us(span.dur_ns),
                us(span.self_ns)
            );
            if span.trace_id != 0 {
                let _ = write!(out, ",\"trace\":\"{:032x}\"", span.trace_id);
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] output to `path`.
pub fn write_chrome_trace(path: &Path, records: &[Record]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Span {
                name: "a",
                tid: 1,
                start_ns: 0,
                dur_ns: 3_000,
                self_ns: 1_000,
                trace_id: 0xabc,
            },
            Record::Span {
                name: "b",
                tid: 1,
                start_ns: 500,
                dur_ns: 2_000,
                self_ns: 2_000,
                trace_id: 0,
            },
            Record::Span {
                name: "a",
                tid: 2,
                start_ns: 100,
                dur_ns: 5_000,
                self_ns: 5_000,
                trace_id: 0,
            },
            Record::Event {
                name: "ev",
                level: Level::Info,
                tid: 1,
                ts_ns: 42,
                message: "hello \"quoted\"\nline".to_string(),
            },
        ]
    }

    #[test]
    fn span_stats_aggregate_and_sort_by_self_time() {
        let stats = span_stats(&sample_records());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "a");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total_ns, 8_000);
        assert_eq!(stats[0].self_ns, 6_000);
        assert_eq!(stats[0].max_ns, 5_000);
        assert_eq!(stats[1].name, "b");
    }

    #[test]
    fn profile_table_lists_every_span() {
        let table = profile_table(&sample_records());
        assert!(table.contains("span"), "{table}");
        assert!(table.contains('a'), "{table}");
        assert!(table.contains("8.0µs"), "{table}");
        assert!(profile_table(&[]).contains("no spans"));
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(420), "420ns");
        assert_eq!(fmt_ns(3_200), "3.2µs");
        assert_eq!(fmt_ns(15_040_000), "15.04ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }

    #[test]
    fn chrome_trace_escapes_messages() {
        let text = chrome_trace_json(&sample_records());
        assert!(text.contains("hello \\\"quoted\\\"\\nline"), "{text}");
        assert!(crate::json::parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn traced_spans_carry_their_trace_id_untraced_ones_do_not() {
        let trace_hex = format!("{:032x}", 0xabcu128);
        let chrome = chrome_trace_json(&sample_records());
        assert_eq!(chrome.matches(&trace_hex).count(), 1, "{chrome}");
    }

    #[test]
    fn merged_traces_name_every_process_even_without_spans() {
        let trace_id = 0xfeedu128;
        let processes = vec![
            ProcessTrace {
                name: "router".to_string(),
                spans: vec![MergedSpan {
                    name: "router.forward".to_string(),
                    tid: 1,
                    start_ns: 0,
                    dur_ns: 9_000,
                    self_ns: 9_000,
                    trace_id,
                }],
            },
            ProcessTrace {
                name: "alpha".to_string(),
                spans: vec![MergedSpan {
                    name: "job.run".to_string(),
                    tid: 3,
                    start_ns: 2_000,
                    dur_ns: 4_000,
                    self_ns: 4_000,
                    trace_id,
                }],
            },
            ProcessTrace { name: "beta".to_string(), spans: Vec::new() },
        ];
        let text = chrome_trace_merged(&processes);
        let value = crate::json::parse(&text).expect("merged trace parses");
        let events = value.get("traceEvents").and_then(crate::json::Value::as_arr).unwrap();
        // Three process_name metadata records, one per process, distinct pids.
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(crate::json::Value::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 3, "{text}");
        for (i, name) in ["router", "alpha", "beta"].iter().enumerate() {
            assert!(
                meta.iter().any(|e| {
                    e.get("pid").and_then(crate::json::Value::as_num) == Some((i + 1) as f64)
                        && e.get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(crate::json::Value::as_str)
                            == Some(name)
                }),
                "{text}"
            );
        }
        // Both spans share the trace id, on their own pids.
        let hex = format!("{trace_id:032x}");
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(crate::json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2, "{text}");
        assert!(spans.iter().all(|e| {
            e.get("args").and_then(|a| a.get("trace")).and_then(crate::json::Value::as_str)
                == Some(hex.as_str())
        }));
        assert!(chrome_trace_merged(&[]).contains("traceEvents"));
    }
}
