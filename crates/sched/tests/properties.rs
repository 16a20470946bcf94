//! Randomized tests: every recovery outcome must simulate, and
//! statelessness/determinism must hold across random topologies and
//! workloads.
//!
//! Formerly proptest-based; now seeded deterministic sweeps driven by
//! `nptsn-rand` so the workspace needs no external dev-dependencies.

use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_sched::{
    simulate, FlowSet, FlowSpec, LoadBalancedRecovery, NetworkBehavior, RedundantRecovery,
    ShortestPathRecovery, TasConfig,
};
use nptsn_topo::{Asil, ConnectionGraph, FailureScenario, NodeId, Topology};

const CASES: u64 = 48;

/// A random topology with `es` end stations and `sw` switches over a random
/// candidate set, with every addable candidate link added.
fn random_topology(rng: &mut StdRng) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let es = rng.gen_range(2usize..5);
    let sw = rng.gen_range(1usize..5);
    let seed: u64 = rng.next_u64();
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> = (0..es).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> = (0..sw).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &s in &switches {
        for &t in stations.iter().chain(switches.iter()) {
            if s == t || gc.link_between(s, t).is_some() {
                continue;
            }
            if next() % 10 < 8 {
                gc.add_candidate_link(s, t, 1.0 + (next() % 2) as f64).unwrap();
            }
        }
    }
    let gc = Arc::new(gc);
    let mut topo = Topology::empty(Arc::clone(&gc));
    for &s in &switches {
        let asil = Asil::from_index((next() % 4) as usize).unwrap();
        topo.add_switch(s, asil).unwrap();
    }
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        let _ = topo.add_link(u, v);
    }
    (topo, stations, switches)
}

fn random_flows(stations: &[NodeId], seed: u64, count: usize) -> FlowSet {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut flows = Vec::new();
    for _ in 0..count {
        let s = stations[(next() as usize) % stations.len()];
        let mut d = stations[(next() as usize) % stations.len()];
        if s == d {
            d = stations[(s.index() + 1) % stations.len()];
            if s == d {
                continue;
            }
        }
        flows.push(FlowSpec::new(s, d, 500, 64 + (next() % 512) as u32));
    }
    if flows.is_empty() {
        flows.push(FlowSpec::new(stations[0], stations[1], 500, 128));
    }
    FlowSet::new(flows).unwrap()
}

/// Whatever the NBF produces must simulate: endpoints, frame sizes, live
/// links, window bounds, slot monotonicity, and no directed-link
/// collisions.
#[test]
fn recovery_outcomes_always_validate() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5c4e_0000 + case);
        let (topo, stations, switches) = random_topology(&mut rng);
        let seed = rng.next_u64();
        let nflows = rng.gen_range(1usize..8);
        let fail_idx = rng.gen_range(0usize..4);
        let tas = TasConfig::default();
        let flows = random_flows(&stations, seed, nflows);
        let failure = FailureScenario::switches(vec![switches[fail_idx % switches.len()]]);
        for nbf in [
            &ShortestPathRecovery::new() as &dyn NetworkBehavior,
            &LoadBalancedRecovery::new(),
            &RedundantRecovery::new(2),
        ] {
            let out = nbf.recover(&topo, &failure, &tas, &flows);
            assert!(
                simulate(&topo, &failure, &tas, &flows, &out.state).is_ok(),
                "case {case}: simulation rejected a recovery output of {}",
                nbf.name()
            );
            // Every flow is either assigned or reported, and reported pairs
            // come from the flow set.
            for (id, spec) in flows.iter() {
                let assigned = out.state.assignment(id).is_some();
                let reported = out.errors.pairs().contains(&spec.endpoints());
                assert!(assigned || reported, "case {case}: flow {id} neither assigned nor reported");
            }
        }
    }
}

/// Statelessness: the same (topology, failure) always yields the same
/// flow state and error report.
#[test]
fn nbf_is_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5c4e_1000 + case);
        let (topo, stations, switches) = random_topology(&mut rng);
        let seed = rng.next_u64();
        let fail_idx = rng.gen_range(0usize..4);
        let tas = TasConfig::default();
        let flows = random_flows(&stations, seed, 4);
        let failure = FailureScenario::switches(vec![switches[fail_idx % switches.len()]]);
        let nbf = ShortestPathRecovery::new();
        let a = nbf.recover(&topo, &failure, &tas, &flows);
        let b = nbf.recover(&topo, &failure, &tas, &flows);
        assert_eq!(a.state, b.state);
        assert_eq!(a.errors, b.errors);
    }
}

/// Monotonicity in failures: if recovery succeeds under a failure, it
/// also succeeds under the empty failure (more resources available).
#[test]
fn empty_failure_is_never_harder() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5c4e_2000 + case);
        let (topo, stations, switches) = random_topology(&mut rng);
        let seed = rng.next_u64();
        let fail_idx = rng.gen_range(0usize..4);
        let tas = TasConfig::default();
        let flows = random_flows(&stations, seed, 4);
        let failure = FailureScenario::switches(vec![switches[fail_idx % switches.len()]]);
        let nbf = ShortestPathRecovery::new();
        let failed = nbf.recover(&topo, &failure, &tas, &flows);
        let nominal = nbf.recover(&topo, &FailureScenario::none(), &tas, &flows);
        if failed.is_success() {
            assert!(nominal.is_success(), "case {case}: recovered under {failure} but not nominally");
        }
    }
}

/// Recovered paths never traverse failed switches.
#[test]
fn recovered_paths_avoid_failures() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5c4e_3000 + case);
        let (topo, stations, switches) = random_topology(&mut rng);
        let seed = rng.next_u64();
        let fail_idx = rng.gen_range(0usize..4);
        let tas = TasConfig::default();
        let flows = random_flows(&stations, seed, 5);
        let failed_switch = switches[fail_idx % switches.len()];
        let failure = FailureScenario::switches(vec![failed_switch]);
        let nbf = ShortestPathRecovery::new();
        let out = nbf.recover(&topo, &failure, &tas, &flows);
        for (id, _) in flows.iter() {
            if let Some(asg) = out.state.assignment(id) {
                assert!(!asg.path().contains_node(failed_switch), "case {case}");
            }
        }
    }
}
