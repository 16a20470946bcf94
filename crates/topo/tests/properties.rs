//! Randomized tests for the topology model and the path algorithms.
//!
//! Formerly proptest-based; now seeded deterministic sweeps driven by
//! `nptsn-rand` so the workspace needs no external dev-dependencies.

use std::collections::HashSet;
use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_topo::{
    k_shortest_paths, Asil, ComponentLibrary, ConnectionGraph, FailureScenario, NodeId, Topology,
};

const CASES: u64 = 64;

/// A random connected-ish candidate graph: `es` end stations, `sw` switches,
/// plus a random subset of the switch-ES and switch-switch pairs.
fn random_graph(rng: &mut StdRng) -> (Arc<ConnectionGraph>, Vec<NodeId>, Vec<NodeId>) {
    let es = rng.gen_range(2usize..5);
    let sw = rng.gen_range(2usize..6);
    let seed: u64 = rng.next_u64();
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> = (0..es).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> = (0..sw).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    // Deterministic pseudo-random edge selection from the seed.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &s in &switches {
        for &t in stations.iter().chain(switches.iter()) {
            if s == t {
                continue;
            }
            if gc.link_between(s, t).is_some() {
                continue;
            }
            // ~70% of candidate pairs become candidate links.
            if next() % 10 < 7 {
                let len = 1.0 + (next() % 3) as f64;
                gc.add_candidate_link(s, t, len).unwrap();
            }
        }
    }
    (Arc::new(gc), stations, switches)
}

/// Builds a topology selecting all switches with pseudo-random ASILs and
/// adding every candidate link that fits the degree constraints.
fn saturated_topology(gc: &Arc<ConnectionGraph>, switches: &[NodeId], seed: u64) -> Topology {
    let mut topo = Topology::empty(Arc::clone(gc));
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &sw in switches {
        let asil = Asil::from_index((next() % 4) as usize).unwrap();
        topo.add_switch(sw, asil).unwrap();
    }
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        let _ = topo.add_link(u, v); // degree violations are fine to skip
    }
    topo
}

/// Yen's K shortest paths are loopless, distinct, sorted by length and
/// all connect source to destination.
#[test]
fn yen_paths_are_sound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_0000 + case);
        let (gc, stations, switches) = random_graph(&mut rng);
        let k = rng.gen_range(1usize..8);
        let seed = rng.next_u64();
        let topo = saturated_topology(&gc, &switches, seed);
        let adj = topo.adjacency();
        let s = stations[0];
        let d = stations[1];
        let paths = k_shortest_paths(&adj, s, d, k);
        assert!(paths.len() <= k);
        let mut prev = 0.0;
        let mut seen = HashSet::new();
        for p in &paths {
            assert_eq!(p.source(), s);
            assert_eq!(p.destination(), d);
            let mut nodes = HashSet::new();
            assert!(p.nodes().iter().all(|n| nodes.insert(*n)), "loopless");
            let len = p.length_in(&adj).expect("edges exist");
            assert!(len >= prev - 1e-9, "sorted by length");
            prev = len;
            assert!(seen.insert(p.nodes().to_vec()), "distinct");
        }
    }
}

/// The first Yen path is the Dijkstra shortest path, node for node: the
/// NBF relies on this when its first attempt costs one Dijkstra search.
#[test]
fn yen_first_path_is_shortest() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_1000 + case);
        let (gc, stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let topo = saturated_topology(&gc, &switches, seed);
        let adj = topo.adjacency();
        let s = stations[0];
        let d = stations[1];
        let dij = nptsn_topo::dijkstra_shortest_path(&adj, s, d);
        let yen = k_shortest_paths(&adj, s, d, 1);
        assert_eq!(yen, dij.into_iter().collect::<Vec<_>>(), "case {case}");
        let _ = gc;
    }
}

/// Link ASIL always equals the minimum endpoint ASIL, across arbitrary
/// upgrade sequences.
#[test]
fn link_asil_invariant() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_2000 + case);
        let (gc, _stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let n_upgrades = rng.gen_range(0usize..12);
        let mut topo = saturated_topology(&gc, &switches, seed);
        for _ in 0..n_upgrades {
            let sw = switches[rng.gen_range(0usize..6) % switches.len()];
            let _ = topo.upgrade_switch(sw); // may fail at ASIL-D; fine
        }
        for link in topo.links() {
            let (u, v) = gc.link_endpoints(link);
            let expected = topo.node_asil(u).unwrap().min(topo.node_asil(v).unwrap());
            assert_eq!(topo.link_asil(link), expected);
        }
    }
}

/// Network cost never decreases when a switch is upgraded.
#[test]
fn upgrades_never_reduce_cost() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_3000 + case);
        let (gc, _stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let lib = ComponentLibrary::automotive();
        let mut topo = saturated_topology(&gc, &switches, seed);
        for &sw in &switches {
            let before = topo.network_cost(&lib);
            if topo.upgrade_switch(sw).is_ok() {
                let after = topo.network_cost(&lib);
                assert!(after >= before, "upgrade lowered cost: {before} -> {after}");
            }
        }
    }
}

/// Degrees never exceed the configured limits and the cost is always
/// computable (every degree fits a library model).
#[test]
fn degrees_within_limits() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_4000 + case);
        let (gc, _stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let topo = saturated_topology(&gc, &switches, seed);
        for node in gc.nodes() {
            assert!(topo.degree(node) <= gc.max_degree(node));
        }
        assert!(topo.try_network_cost(&ComponentLibrary::automotive()).is_ok());
    }
}

/// Failure probability is monotone: a superset scenario is never more
/// probable than its subset.
#[test]
fn failure_probability_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_5000 + case);
        let (gc, _stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let topo = saturated_topology(&gc, &switches, seed);
        let selected: Vec<NodeId> = topo.selected_switches().to_vec();
        for i in 0..selected.len() {
            let small = FailureScenario::switches(vec![selected[i]]);
            for j in 0..selected.len() {
                if i == j {
                    continue;
                }
                let big = FailureScenario::switches(vec![selected[i], selected[j]]);
                assert!(small.is_subset_of(&big));
                assert!(topo.failure_probability(&big) <= topo.failure_probability(&small));
            }
        }
        let _ = gc;
    }
}

/// The residual adjacency of a failure is a subgraph of the full
/// adjacency and contains no failed node.
#[test]
fn residual_is_subgraph() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1090_6000 + case);
        let (gc, _stations, switches) = random_graph(&mut rng);
        let seed = rng.next_u64();
        let which = rng.gen_range(0usize..4);
        let topo = saturated_topology(&gc, &switches, seed);
        let failed = switches[which % switches.len()];
        let failure = FailureScenario::switches(vec![failed]);
        let full = topo.adjacency();
        let residual = topo.residual_adjacency(&failure);
        assert!(residual[failed.index()].is_empty());
        for (i, row) in residual.iter().enumerate() {
            for &(n, l, w) in row {
                assert!(n != failed);
                assert!(full[i].contains(&(n, l, w)));
            }
        }
        let _ = gc;
    }
}
