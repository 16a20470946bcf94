//! Parser for the `.tssdn` problem file format.

use std::collections::HashMap;
use std::sync::Arc;

use nptsn::{check_schedule_table, PlanningProblem};
use nptsn_sched::{
    FlowSet, FlowSpec, IncrementalRecovery, LoadBalancedRecovery, NetworkBehavior,
    RedundantRecovery, ShortestPathRecovery, Stateless, TasConfig,
};
use nptsn_topo::{ComponentLibrary, ConnectionGraph, NodeId};

/// The most `combine_rounds` a `[library]` section may ask for. Each round
/// combines every model of the last round with every library switch, so
/// the model count grows geometrically; the scenarios use 0–2.
pub const MAX_COMBINE_ROUNDS: usize = 4;

/// A parsed problem plus the name table needed to print human-readable
/// reports and to parse plan files.
#[derive(Debug, Clone)]
pub struct ParsedProblem {
    /// The assembled planning problem.
    pub problem: PlanningProblem,
    /// Node ids by name.
    pub nodes_by_name: HashMap<String, NodeId>,
}

/// Parses a `.tssdn` problem document.
///
/// # Errors
///
/// Returns a message pinpointing the offending line for syntax errors,
/// unknown sections/keys/nodes, duplicate definitions, zero TAS values, a
/// base period not divisible into the slots, a slot whose capacity in
/// bytes exceeds `u32`, more slots than the schedule table may hold for
/// the candidate links ([`nptsn::MAX_SCHEDULE_CELLS`]), more than
/// [`MAX_COMBINE_ROUNDS`] combination rounds, negative or non-finite link
/// lengths, and for any inconsistency rejected by [`PlanningProblem::new`].
///
/// # Examples
///
/// ```
/// let text = "\
/// [nodes]
/// es a
/// es b
/// sw s
/// [links]
/// a s 1.0
/// b s 1.0
/// [flows]
/// a b 500 256
/// ";
/// let parsed = nptsn_format::parse_problem(text).unwrap();
/// assert_eq!(parsed.problem.flows().len(), 1);
/// assert_eq!(parsed.problem.reliability_goal(), 1e-6); // default
/// ```
pub fn parse_problem(text: &str) -> Result<ParsedProblem, String> {
    let mut gc = ConnectionGraph::new();
    let mut nodes_by_name: HashMap<String, NodeId> = HashMap::new();
    let mut flows: Vec<FlowSpec> = Vec::new();

    let mut base_period_us: u64 = 500;
    let mut slots: usize = 20;
    let mut bandwidth_mbps: u64 = 1000;
    let mut goal: f64 = 1e-6;
    let mut combine_rounds: usize = 0;
    let mut nbf_name = "shortest-path".to_string();
    let mut max_es_degree: Option<usize> = None;
    let mut max_sw_degree: Option<usize> = None;
    // The line of the last `[tas]` key: where a base period that the slots
    // do not divide, or a slot too wide for its capacity, is reported.
    let mut tas_line = 0;
    // The line of the `slots` key: where a schedule table too large for
    // the candidate links is reported.
    let mut slots_line = 0;

    let mut section = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated section header"))?;
            section = name.trim().to_string();
            match section.as_str() {
                "tas" | "reliability" | "nodes" | "links" | "flows" | "library" | "nbf"
                | "constraints" => {}
                other => return Err(at(&format!("unknown section [{other}]"))),
            }
            continue;
        }
        match section.as_str() {
            "" => return Err(at("content before the first section header")),
            "tas" | "reliability" | "library" | "nbf" | "constraints" => {
                let (key, value) = line
                    .split_once('=')
                    .map(|(k, v)| (k.trim(), v.trim()))
                    .ok_or_else(|| at("expected key = value"))?;
                let parse_u64 = |v: &str| {
                    v.parse::<u64>().map_err(|_| at(&format!("invalid integer '{v}'")))
                };
                let parse_positive = |v: &str| match parse_u64(v)? {
                    0 => Err(at(&format!("{key} must be positive"))),
                    n => Ok(n),
                };
                match (section.as_str(), key) {
                    ("tas", "base_period_us") => {
                        base_period_us = parse_positive(value)?;
                        tas_line = lineno + 1;
                    }
                    ("tas", "slots") => {
                        slots = usize::try_from(parse_positive(value)?)
                            .map_err(|_| at("too many slots"))?;
                        tas_line = lineno + 1;
                        slots_line = lineno + 1;
                    }
                    ("tas", "bandwidth_mbps") => {
                        bandwidth_mbps = parse_positive(value)?;
                        tas_line = lineno + 1;
                    }
                    ("reliability", "goal") => {
                        goal = value
                            .parse::<f64>()
                            .map_err(|_| at(&format!("invalid number '{value}'")))?;
                    }
                    ("library", "combine_rounds") => {
                        let rounds = parse_u64(value)?;
                        if rounds > MAX_COMBINE_ROUNDS as u64 {
                            return Err(at(&format!(
                                "combine_rounds must be at most {MAX_COMBINE_ROUNDS}"
                            )));
                        }
                        combine_rounds = rounds as usize;
                    }
                    ("nbf", "mechanism") => nbf_name = value.to_string(),
                    ("constraints", "max_end_station_degree") => {
                        max_es_degree = Some(parse_u64(value)? as usize);
                    }
                    ("constraints", "max_switch_degree") => {
                        max_sw_degree = Some(parse_u64(value)? as usize);
                    }
                    (s, k) => return Err(at(&format!("unknown key '{k}' in [{s}]"))),
                }
            }
            "nodes" => {
                let mut parts = line.split_whitespace();
                let kind = parts.next().ok_or_else(|| at("expected: <es|sw> <name>"))?;
                let name = parts.next().ok_or_else(|| at("expected a node name"))?;
                if parts.next().is_some() {
                    return Err(at("trailing tokens after node name"));
                }
                if nodes_by_name.contains_key(name) {
                    return Err(at(&format!("duplicate node '{name}'")));
                }
                let id = match kind {
                    "es" => gc.add_end_station(name),
                    "sw" => gc.add_switch(name),
                    other => return Err(at(&format!("unknown node kind '{other}'"))),
                };
                nodes_by_name.insert(name.to_string(), id);
            }
            "links" => {
                let mut parts = line.split_whitespace();
                let u = parts.next().ok_or_else(|| at("expected: <u> <v> [length]"))?;
                let v = parts.next().ok_or_else(|| at("expected a second node"))?;
                let length: f64 = match parts.next() {
                    Some(l) => l
                        .parse()
                        .map_err(|_| at(&format!("invalid length '{l}'")))?,
                    None => 1.0,
                };
                let &u = nodes_by_name
                    .get(u)
                    .ok_or_else(|| at(&format!("unknown node '{u}'")))?;
                let &v = nodes_by_name
                    .get(v)
                    .ok_or_else(|| at(&format!("unknown node '{v}'")))?;
                gc.add_candidate_link(u, v, length).map_err(|e| at(&e.to_string()))?;
            }
            "flows" => {
                let mut parts = line.split_whitespace();
                let s = parts.next().ok_or_else(|| {
                    at("expected: <source> <destination> <period_us> <frame_bytes>")
                })?;
                let d = parts.next().ok_or_else(|| at("expected a destination"))?;
                let period: u64 = parts
                    .next()
                    .ok_or_else(|| at("expected a period"))?
                    .parse()
                    .map_err(|_| at("invalid period"))?;
                let bytes: u32 = parts
                    .next()
                    .ok_or_else(|| at("expected a frame size"))?
                    .parse()
                    .map_err(|_| at("invalid frame size"))?;
                let &s = nodes_by_name
                    .get(s)
                    .ok_or_else(|| at(&format!("unknown node '{s}'")))?;
                let &d = nodes_by_name
                    .get(d)
                    .ok_or_else(|| at(&format!("unknown node '{d}'")))?;
                flows.push(FlowSpec::new(s, d, period, bytes));
            }
            _ => unreachable!("sections are validated at the header"),
        }
    }

    if let Some(d) = max_es_degree {
        gc.set_max_end_station_degree(d);
    }
    let mut library = ComponentLibrary::automotive();
    if combine_rounds > 0 {
        library = library.with_combined_switches(combine_rounds);
    }
    match max_sw_degree {
        Some(d) => gc.set_max_switch_degree(d),
        None => gc.set_max_switch_degree(library.max_switch_degree()),
    }
    let nbf: Arc<dyn NetworkBehavior> = match nbf_name.as_str() {
        "shortest-path" => Arc::new(ShortestPathRecovery::new()),
        "load-balanced" => Arc::new(LoadBalancedRecovery::new()),
        "redundant" => Arc::new(RedundantRecovery::new(2)),
        "incremental" => Arc::new(Stateless::new(IncrementalRecovery::new())),
        other => return Err(format!("unknown NBF mechanism '{other}'")),
    };
    let flows = FlowSet::new(flows).map_err(|e| e.to_string())?;
    let tas = TasConfig::try_new(base_period_us, slots, bandwidth_mbps)
        .map_err(|e| format!("line {tas_line}: {e}"))?;
    // The default 20 slots can overflow only with tens of thousands of
    // links, and then no line is to blame.
    check_schedule_table(&gc, &tas).map_err(|e| match slots_line {
        0 => e,
        line => format!("line {line}: {e}"),
    })?;
    let problem = PlanningProblem::new(Arc::new(gc), library, tas, flows, goal, nbf)?;
    Ok(ParsedProblem { problem, nodes_by_name })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# comment
[tas]
base_period_us = 500
slots = 20
bandwidth_mbps = 1000

[reliability]
goal = 1e-7

[nodes]
es a
es b
sw s0
sw s1

[links]
a s0 1.0
a s1
b s0 2.0
b s1
s0 s1 1.5   # inter-switch

[flows]
a b 500 256
b a 250 128
";

    #[test]
    fn parses_a_full_document() {
        let parsed = parse_problem(GOOD).unwrap();
        let p = &parsed.problem;
        assert_eq!(p.connection_graph().node_count(), 4);
        assert_eq!(p.connection_graph().candidate_link_count(), 5);
        assert_eq!(p.flows().len(), 2);
        assert_eq!(p.reliability_goal(), 1e-7);
        assert_eq!(p.tas().base_period_us(), 500);
        // Default length 1.0 applied.
        let gc = p.connection_graph();
        let a = parsed.nodes_by_name["a"];
        let s1 = parsed.nodes_by_name["s1"];
        let link = gc.link_between(a, s1).unwrap();
        assert_eq!(gc.link_length(link), 1.0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[nodes]\nes a\nes a\n";
        let err = parse_problem(bad).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("duplicate"));
    }

    #[test]
    fn unknown_nodes_in_links_rejected() {
        let bad = "[nodes]\nes a\nsw s\n[links]\na ghost\n";
        let err = parse_problem(bad).unwrap_err();
        assert!(err.contains("unknown node 'ghost'"), "{err}");
    }

    #[test]
    fn unknown_section_rejected() {
        let err = parse_problem("[wat]\n").unwrap_err();
        assert!(err.contains("unknown section"));
    }

    #[test]
    fn content_before_sections_rejected() {
        let err = parse_problem("es a\n").unwrap_err();
        assert!(err.contains("before the first section"));
    }

    #[test]
    fn nbf_selection() {
        let doc = format!("{GOOD}\n[nbf]\nmechanism = load-balanced\n");
        let parsed = parse_problem(&doc).unwrap();
        assert_eq!(parsed.problem.nbf().name(), "load-balanced");
        let doc = format!("{GOOD}\n[nbf]\nmechanism = teleport\n");
        assert!(parse_problem(&doc).is_err());
    }

    #[test]
    fn library_combination_expands_degrees() {
        let doc = format!("{GOOD}\n[library]\ncombine_rounds = 1\n");
        let parsed = parse_problem(&doc).unwrap();
        assert_eq!(parsed.problem.library().max_switch_degree(), 14);
        assert_eq!(parsed.problem.connection_graph().max_switch_degree(), 14);
    }

    #[test]
    fn constraints_section_applies() {
        let doc = format!("{GOOD}\n[constraints]\nmax_end_station_degree = 3\n");
        let parsed = parse_problem(&doc).unwrap();
        assert_eq!(parsed.problem.connection_graph().max_end_station_degree(), 3);
    }

    /// The error for `doc` names `line` and contains `needle`.
    fn rejects_at(doc: &str, line: usize, needle: &str) {
        let err = parse_problem(doc).unwrap_err();
        assert!(err.starts_with(&format!("line {line}:")), "{err}");
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn zero_slots_rejected() {
        rejects_at(&format!("[tas]\nslots = 0\n{GOOD}"), 2, "slots must be positive");
    }

    #[test]
    fn zero_base_period_rejected() {
        rejects_at(&format!("[tas]\nbase_period_us = 0\n{GOOD}"), 2, "must be positive");
    }

    #[test]
    fn zero_bandwidth_rejected() {
        rejects_at(&format!("[tas]\nbandwidth_mbps = 0\n{GOOD}"), 2, "must be positive");
    }

    #[test]
    fn base_period_not_divisible_into_slots_rejected() {
        // GOOD's own [tas] section sets slots = 20 on its line 4; the
        // appended section's `slots = 3` on line 27 is the last word.
        let doc = format!("{GOOD}[tas]\nslots = 3\n");
        rejects_at(&doc, 27, "not divisible into 3 slots");
        // Divisible once the base period changes too, in either order.
        assert!(parse_problem(&format!("{GOOD}[tas]\nslots = 3\nbase_period_us = 600\n")).is_ok());
    }

    #[test]
    fn slot_capacity_beyond_u32_rejected() {
        // 25 us slots at 10^10 Mbit/s would carry 3.1e10 bytes each.
        let doc = format!("{GOOD}[tas]\nbandwidth_mbps = 10000000000\n");
        rejects_at(&doc, 27, "bytes");
    }

    #[test]
    fn schedule_table_over_the_cell_cap_rejected() {
        // GOOD's 5 candidate links need 2 x 5 cells per slot: a million
        // slots is 10 million cells, 100 000 slots exactly a million.
        let doc = format!("{GOOD}[tas]\nbase_period_us = 1000000\nslots = 1000000\n");
        rejects_at(&doc, 28, "schedule-table cells");
        let doc = format!("{GOOD}[tas]\nbase_period_us = 1000000\nslots = 100000\n");
        assert!(parse_problem(&doc).is_ok());
    }

    #[test]
    fn combine_rounds_are_capped() {
        let doc = format!("{GOOD}\n[library]\ncombine_rounds = {MAX_COMBINE_ROUNDS}\n");
        assert!(parse_problem(&doc).is_ok());
        let doc = format!("{GOOD}[library]\ncombine_rounds = 40\n");
        rejects_at(&doc, 27, "at most");
    }

    #[test]
    fn non_finite_and_negative_lengths_rejected() {
        for length in ["NaN", "inf", "-inf", "-5"] {
            let doc = format!("[nodes]\nes a\nsw s\n[links]\na s {length}\n");
            rejects_at(&doc, 5, "finite and non-negative");
        }
    }

    #[test]
    fn invalid_flow_endpoint_rejected_by_problem_validation() {
        // Flow targets a switch: caught by PlanningProblem::new.
        let doc = "[nodes]\nes a\nsw s\n[links]\na s\n[flows]\na s 500 64\n";
        assert!(parse_problem(doc).is_err());
    }
}
