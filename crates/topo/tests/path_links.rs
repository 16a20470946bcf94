//! Every path a search returns carries the links of its hops.
//!
//! The searches record each hop's link from the adjacency rows they walk,
//! and the schedulers reserve slots on those links without looking a hop
//! up again. On seeded meshes, with lengths 0–3 so that routes of equal
//! length are common, every path of `dijkstra_shortest_path`, of one
//! `shortest_paths` iterator restarted for pair after pair, of one
//! `ShortestPaths::over` with random links excluded before each pair, and
//! of `node_disjoint_paths` must carry, at every hop `h`,
//! `ConnectionGraph::link_between(nodes[h], nodes[h + 1])`. The sweep must
//! reach Yen paths past the first, whose root links come from an earlier
//! path, and searches that an exclusion changed.

use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_topo::{
    dijkstra_shortest_path, node_disjoint_paths, shortest_paths, Asil, ConnectionGraph, LinkId,
    NodeId, Path, ShortestPaths, Topology,
};

const SEED: u64 = 0x4c49_4e4b;
const CASES: u64 = 60;
/// Paths taken from each Yen enumeration.
const MAX_PATHS: usize = 12;

/// A random mesh: 2–4 end stations and 3–7 switches, every switch pair
/// and switch–station pair linked with probability 0.6, lengths 0–3,
/// degree limits lifted so every link is in the topology.
fn random_mesh(rng: &mut StdRng) -> (Topology, Vec<NodeId>) {
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> =
        (0..rng.gen_range(2usize..5)).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> =
        (0..rng.gen_range(3usize..8)).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    gc.set_max_switch_degree(16);
    gc.set_max_end_station_degree(16);
    for (i, &s) in switches.iter().enumerate() {
        for &t in stations.iter().chain(&switches[i + 1..]) {
            if rng.gen_range(0..10u32) < 6 {
                gc.add_candidate_link(s, t, rng.gen_range(0..=3u32) as f64).unwrap();
            }
        }
    }
    let gc = Arc::new(gc);
    let mut topo = Topology::empty(Arc::clone(&gc));
    for &s in &switches {
        topo.add_switch(s, Asil::A).unwrap();
    }
    for link in gc.links() {
        let (u, v) = gc.link_endpoints(link);
        topo.add_link(u, v).unwrap();
    }
    let nodes = gc.nodes().collect();
    (topo, nodes)
}

/// Asserts that every hop of `path` carries the link `link_between`
/// resolves for it.
fn assert_links(gc: &ConnectionGraph, path: &Path, what: &str) {
    assert_eq!(path.links().len(), path.nodes().len() - 1, "{what}: {path:?}");
    for (h, hop) in path.nodes().windows(2).enumerate() {
        assert_eq!(
            Some(path.links()[h]),
            gc.link_between(hop[0], hop[1]),
            "{what}: hop {h} of {:?}",
            path.nodes()
        );
    }
}

#[test]
fn every_search_records_the_link_of_every_hop() {
    let (mut later_yen_paths, mut cut) = (0, 0);
    for case in 0..CASES {
        let seed = SEED + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let (topo, nodes) = random_mesh(&mut rng);
        let gc = topo.connection_graph();
        let adj = topo.adjacency();
        let links: Vec<LinkId> = topo.links().collect();
        let node = |rng: &mut StdRng| nodes[rng.gen_range(0..nodes.len())];
        let mut restarted = shortest_paths(&adj, node(&mut rng), node(&mut rng));
        let mut excluding = ShortestPaths::over(adj.clone());
        for _ in 0..10 {
            let (s, d) = (node(&mut rng), node(&mut rng));
            if let Some(path) = dijkstra_shortest_path(&adj, s, d) {
                assert_links(gc, &path, &format!("seed {seed:#x}: dijkstra {s} -> {d}"));
            }
            restarted.restart(s, d);
            for (i, path) in restarted.by_ref().take(MAX_PATHS).enumerate() {
                assert_links(gc, &path, &format!("seed {seed:#x}: restarted {s} -> {d}, #{i}"));
                later_yen_paths += usize::from(i > 0 && path.hop_count() > 1);
            }
            let excluded: Vec<LinkId> =
                links.iter().copied().filter(|_| rng.gen_range(0..4u32) == 0).collect();
            excluding.exclude_links(excluded.iter().copied());
            for &link in &links {
                assert_eq!(excluding.excludes(link), excluded.contains(&link), "seed {seed:#x}");
            }
            excluding.restart(s, d);
            let found: Vec<Path> = excluding.by_ref().take(MAX_PATHS).collect();
            for (i, path) in found.iter().enumerate() {
                assert_links(gc, path, &format!("seed {seed:#x}: excluding {s} -> {d}, #{i}"));
                assert!(path.links().iter().all(|l| !excluded.contains(l)), "seed {seed:#x}");
            }
            let unexcluded: Vec<Path> = shortest_paths(&adj, s, d).take(MAX_PATHS).collect();
            cut += usize::from(found != unexcluded);
            for count in 1..=3 {
                for path in node_disjoint_paths(&adj, s, d, count).into_iter().flatten() {
                    assert_links(gc, &path, &format!("seed {seed:#x}: disjoint {s} -> {d}"));
                }
            }
        }
    }
    assert!(later_yen_paths > 0 && cut > 0, "{later_yen_paths} later Yen paths, {cut} cut");
}
