//! A parser for the Prometheus text exposition format plus the fleet
//! federation transform behind the router's `/metrics`.
//!
//! [`parse`] understands exactly the dialect [`crate::metrics::Registry`]
//! renders (`# HELP` / `# TYPE` blocks, optional `{label="..."}` sets,
//! histogram `_bucket`/`_sum`/`_count` series) and tolerates anything
//! else by skipping it — a shard serving a malformed line must degrade a
//! scrape, never break it.
//!
//! [`federate`] merges the router's local exposition with each live
//! shard's scrape: shard series are re-labeled `shard="<name>"`, families
//! present on both sides share one `# HELP`/`# TYPE` block, and shard
//! counters are summed into fleet-wide `nptsn_fleet_*_total` series.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The full series name, including any `_bucket`/`_sum`/`_count`
    /// histogram suffix.
    pub name: String,
    /// The rendered label set without braces (`""` for none, or e.g.
    /// `code="200"`).
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// One metric family: a `# HELP`/`# TYPE` block and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// The family name (histogram child series share their family).
    pub name: String,
    /// The `# HELP` text, if declared.
    pub help: Option<String>,
    /// The `# TYPE` (`counter`, `gauge`, `histogram`), if declared.
    pub kind: Option<String>,
    /// Samples in exposition order.
    pub samples: Vec<Sample>,
}

/// The family name a histogram sub-series belongs to: `series` without
/// its `_bucket`/`_sum`/`_count` suffix, if it has one.
fn histogram_family(series: &str) -> Option<&str> {
    ["_bucket", "_sum", "_count"].iter().find_map(|suffix| series.strip_suffix(suffix))
}

/// Splits a sample line into `(name, labels, value_text)`. Labels may be
/// empty. Returns `None` for anything that does not look like a sample.
fn split_sample(line: &str) -> Option<(&str, &str, &str)> {
    if let Some(open) = line.find('{') {
        let close = line.rfind('}')?;
        if close < open {
            return None;
        }
        let name = &line[..open];
        let labels = &line[open + 1..close];
        let value = line[close + 1..].trim();
        (!name.is_empty() && !value.is_empty()).then_some((name, labels, value))
    } else {
        let (name, value) = line.split_once(char::is_whitespace)?;
        let value = value.trim();
        (!name.is_empty() && !value.is_empty()).then_some((name, "", value))
    }
}

/// Parses a Prometheus text exposition into families. Unparseable lines
/// are skipped; a sample with no preceding `# HELP`/`# TYPE` starts an
/// implicit family named after the series.
pub fn parse(text: &str) -> Vec<Family> {
    let mut families: Vec<Family> = Vec::new();
    // Family name -> index in `families`; names are unique.
    let mut index: HashMap<String, usize> = HashMap::new();
    let ensure = |families: &mut Vec<Family>, index: &mut HashMap<String, usize>, name: &str| {
        *index.entry(name.to_string()).or_insert_with(|| {
            families.push(Family {
                name: name.to_string(),
                help: None,
                kind: None,
                samples: Vec::new(),
            });
            families.len() - 1
        })
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            let i = ensure(&mut families, &mut index, name);
            families[i].help = Some(help.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            let i = ensure(&mut families, &mut index, name);
            families[i].kind = Some(kind.trim().to_string());
        } else if line.starts_with('#') {
            continue; // other comments
        } else if let Some((name, labels, value_text)) = split_sample(line) {
            let Ok(value) = value_text.parse::<f64>() else { continue };
            // A sample belongs to the earlier-declared of two families:
            // its own name, and for a histogram sub-series the name
            // without its suffix; failing both, it starts an implicit one.
            let own = index.get(name).copied();
            let parent = histogram_family(name).and_then(|family| index.get(family).copied());
            let i = match (own, parent) {
                (Some(a), Some(b)) => a.min(b),
                (Some(i), None) | (None, Some(i)) => i,
                (None, None) => ensure(&mut families, &mut index, name),
            };
            families[i].samples.push(Sample {
                name: name.to_string(),
                labels: labels.to_string(),
                value,
            });
        }
    }
    families
}

/// Escapes a string for use inside a label value.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A merged family being assembled by [`federate`].
struct OutFamily {
    name: String,
    help: String,
    kind: String,
    lines: Vec<String>,
}

/// Merges the router-local exposition with scraped shard expositions into
/// one fleet document:
///
/// * local series pass through unchanged;
/// * every shard series is re-labeled `shard="<name>"` (prepended, so the
///   shard label composes with `code=...` / `le=...`);
/// * a family present both locally and on shards gets exactly one
///   `# HELP`/`# TYPE` block;
/// * every shard **counter** family `nptsn_<x>_total` is summed (over all
///   shards and label sets) into `nptsn_fleet_<x>_total`, and
///   `nptsn_fleet_jobs_total` aliases the shard sum of
///   `nptsn_jobs_submitted_total`.
pub fn federate(local: &str, shards: &[(&str, &str)]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut merged: BTreeMap<String, OutFamily> = BTreeMap::new();
    let push_family = |merged: &mut BTreeMap<String, OutFamily>,
                           order: &mut Vec<String>,
                           family: &Family,
                           shard: Option<&str>| {
        let out = merged.entry(family.name.clone()).or_insert_with(|| {
            order.push(family.name.clone());
            OutFamily {
                name: family.name.clone(),
                help: family.help.clone().unwrap_or_default(),
                kind: family.kind.clone().unwrap_or_else(|| "untyped".to_string()),
                lines: Vec::new(),
            }
        });
        for sample in &family.samples {
            let labels = match shard {
                Some(name) if sample.labels.is_empty() => {
                    format!("shard=\"{}\"", escape_label(name))
                }
                Some(name) => format!("shard=\"{}\",{}", escape_label(name), sample.labels),
                None => sample.labels.clone(),
            };
            let label_set = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
            out.lines.push(format!("{}{label_set} {}", sample.name, sample.value));
        }
    };

    for family in parse(local) {
        push_family(&mut merged, &mut order, &family, None);
    }
    let mut fleet: BTreeMap<String, f64> = BTreeMap::new();
    for (shard, body) in shards {
        for family in parse(body) {
            if family.kind.as_deref() == Some("counter")
                && !family.name.starts_with("nptsn_fleet_")
            {
                if let Some(stem) =
                    family.name.strip_prefix("nptsn_").and_then(|s| s.strip_suffix("_total"))
                {
                    let sum: f64 = family.samples.iter().map(|s| s.value).sum();
                    *fleet.entry(format!("nptsn_fleet_{stem}_total")).or_insert(0.0) += sum;
                    if stem == "jobs_submitted" {
                        *fleet.entry("nptsn_fleet_jobs_total".to_string()).or_insert(0.0) += sum;
                    }
                }
            }
            push_family(&mut merged, &mut order, &family, Some(shard));
        }
    }
    for (name, value) in &fleet {
        let out = merged.entry(name.clone()).or_insert_with(|| {
            order.push(name.clone());
            OutFamily {
                name: name.clone(),
                help: "Fleet-wide sum across live shards.".to_string(),
                kind: "counter".to_string(),
                lines: Vec::new(),
            }
        });
        out.lines.push(format!("{name} {value}"));
    }

    let mut out = String::new();
    for name in &order {
        let family = &merged[name];
        let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
        for line in &family.lines {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn parses_a_registry_render_round_trip() {
        let registry = Registry::new();
        registry.counter("nptsn_a_total", "a counter").add(7);
        registry.counter_labeled("nptsn_http_responses_total", "code=\"200\"", "by code").add(3);
        registry.gauge("nptsn_depth", "queue depth").set(-2);
        registry.histogram("nptsn_lat_seconds", "latency", &[0.01, 0.1]).observe(0.05);
        let families = parse(&registry.render());
        let a = families.iter().find(|f| f.name == "nptsn_a_total").expect("a");
        assert_eq!(a.kind.as_deref(), Some("counter"));
        assert_eq!(a.samples[0].value, 7.0);
        let http =
            families.iter().find(|f| f.name == "nptsn_http_responses_total").expect("http");
        assert_eq!(http.samples[0].labels, "code=\"200\"");
        let lat = families.iter().find(|f| f.name == "nptsn_lat_seconds").expect("lat");
        assert_eq!(lat.kind.as_deref(), Some("histogram"));
        // buckets + +Inf + sum + count
        assert_eq!(lat.samples.len(), 5, "{lat:?}");
        assert!(lat.samples.iter().any(|s| s.name == "nptsn_lat_seconds_bucket"
            && s.labels == "le=\"0.1\""
            && s.value == 1.0));
        let depth = families.iter().find(|f| f.name == "nptsn_depth").expect("depth");
        assert_eq!(depth.samples[0].value, -2.0);
    }

    /// The quadratic parser `parse` replaced: each sample scans every
    /// family for its first `belongs_to` match, and each `# HELP`/`# TYPE`
    /// scans for its name.
    fn reference_parse(text: &str) -> Vec<Family> {
        fn belongs_to(series: &str, family: &str) -> bool {
            series == family
                || series
                    .strip_prefix(family)
                    .is_some_and(|rest| matches!(rest, "_bucket" | "_sum" | "_count"))
        }
        let mut families: Vec<Family> = Vec::new();
        let ensure = |families: &mut Vec<Family>, name: &str| -> usize {
            if let Some(i) = families.iter().position(|f| f.name == name) {
                i
            } else {
                families.push(Family {
                    name: name.to_string(),
                    help: None,
                    kind: None,
                    samples: Vec::new(),
                });
                families.len() - 1
            }
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                let i = ensure(&mut families, name);
                families[i].help = Some(help.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
                let i = ensure(&mut families, name);
                families[i].kind = Some(kind.trim().to_string());
            } else if line.starts_with('#') {
                continue;
            } else if let Some((name, labels, value_text)) = split_sample(line) {
                let Ok(value) = value_text.parse::<f64>() else { continue };
                let i = families
                    .iter()
                    .position(|f| belongs_to(name, &f.name))
                    .unwrap_or_else(|| ensure(&mut families, name));
                families[i].samples.push(Sample {
                    name: name.to_string(),
                    labels: labels.to_string(),
                    value,
                });
            }
        }
        families
    }

    /// One random exposition line over a small name pool, so families
    /// collide: histogram sub-series, samples before their `# HELP`,
    /// redeclared families, families whose own name carries a histogram
    /// suffix, and malformed lines.
    fn random_line(rng: &mut impl nptsn_rand::Rng) -> String {
        let stem = format!("nptsn_f{}", rng.gen_range(0..6u32));
        let suffix = ["", "", "_bucket", "_sum", "_count", "_total", "_count_sum"];
        let name = format!("{stem}{}", suffix[rng.gen_range(0..suffix.len())]);
        let value = rng.gen_range(0..1000u32);
        match rng.gen_range(0..10u32) {
            0 => format!("# HELP {name} help for {name}"),
            1 => {
                let kinds = ["counter", "gauge", "histogram"];
                format!("# TYPE {name} {}", kinds[rng.gen_range(0..kinds.len())])
            }
            2 => format!("# HELP {name}"),
            3 => "# a comment".to_string(),
            4 => format!("{name}{{le=\"{value}\"}} {value}"),
            5 => {
                let malformed =
                    ["garbage", "", "{x=\"1\"} 2", "nptsn_f0{a=\"1\" 3", "nptsn_f1 not-a-number"];
                malformed[rng.gen_range(0..malformed.len())].to_string()
            }
            _ => format!("  {name} {value}.5 "),
        }
    }

    #[test]
    fn indexed_parse_matches_the_reference_parser() {
        use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9e0_7e47);
        for case in 0..500 {
            let lines = rng.gen_range(0..60usize);
            let text: Vec<String> = (0..lines).map(|_| random_line(&mut rng)).collect();
            let text = text.join("\n");
            assert_eq!(parse(&text), reference_parse(&text), "case {case}:\n{text}");
        }
        let registry = Registry::new();
        registry.counter("nptsn_a_total", "a counter").add(7);
        registry.histogram("nptsn_lat_seconds", "latency", &[0.01, 0.1]).observe(0.05);
        let text = registry.render();
        assert_eq!(parse(&text), reference_parse(&text));
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let families = parse("garbage\nnptsn_x_total not-a-number\n# weird comment\nnptsn_ok 4\n");
        assert_eq!(families.iter().filter(|f| !f.samples.is_empty()).count(), 1);
        assert_eq!(families.iter().find(|f| f.name == "nptsn_ok").unwrap().samples[0].value, 4.0);
    }

    #[test]
    fn federate_relabels_shards_and_sums_fleet_counters() {
        let local = "# HELP nptsn_router_http_requests_total requests\n\
                     # TYPE nptsn_router_http_requests_total counter\n\
                     nptsn_router_http_requests_total 5\n";
        let a = "# HELP nptsn_jobs_submitted_total submitted\n\
                 # TYPE nptsn_jobs_submitted_total counter\n\
                 nptsn_jobs_submitted_total 3\n\
                 # HELP nptsn_http_responses_total by code\n\
                 # TYPE nptsn_http_responses_total counter\n\
                 nptsn_http_responses_total{code=\"200\"} 9\n";
        let b = "# HELP nptsn_jobs_submitted_total submitted\n\
                 # TYPE nptsn_jobs_submitted_total counter\n\
                 nptsn_jobs_submitted_total 4\n";
        let text = federate(local, &[("alpha", a), ("beta", b)]);
        assert!(text.contains("nptsn_router_http_requests_total 5"), "{text}");
        assert!(text.contains("nptsn_jobs_submitted_total{shard=\"alpha\"} 3"), "{text}");
        assert!(text.contains("nptsn_jobs_submitted_total{shard=\"beta\"} 4"), "{text}");
        assert!(
            text.contains("nptsn_http_responses_total{shard=\"alpha\",code=\"200\"} 9"),
            "{text}"
        );
        assert!(text.contains("nptsn_fleet_jobs_submitted_total 7"), "{text}");
        assert!(text.contains("nptsn_fleet_jobs_total 7"), "{text}");
        assert!(text.contains("nptsn_fleet_http_responses_total 9"), "{text}");
        // One HELP/TYPE block per family even with two shard sources.
        assert_eq!(text.matches("# TYPE nptsn_jobs_submitted_total").count(), 1, "{text}");
    }

    #[test]
    fn federate_merges_families_shared_by_local_and_shards() {
        let shared = "# HELP nptsn_planner_runs_total planner runs\n\
                      # TYPE nptsn_planner_runs_total counter\n\
                      nptsn_planner_runs_total 2\n";
        let text = federate(shared, &[("alpha", shared)]);
        assert_eq!(text.matches("# TYPE nptsn_planner_runs_total").count(), 1, "{text}");
        assert!(text.contains("nptsn_planner_runs_total 2"), "{text}");
        assert!(text.contains("nptsn_planner_runs_total{shard=\"alpha\"} 2"), "{text}");
    }
}
