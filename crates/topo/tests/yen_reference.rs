//! Pins the resumable Yen iterator to the eager Yen it replaced.
//!
//! `reference_k_shortest_paths` below is the eager implementation that
//! built all `k` paths up front, with its own copy of the filtered
//! Dijkstra that banned edges by scanning a list of `(from, to)` pairs.
//! On seeded meshes with integer lengths 1–3, where paths of equal length
//! are common, `k_shortest_paths` and every prefix of one
//! `shortest_paths` iterator must equal it path for path, for every k in
//! 0..=16, and an iterator that ran out must stay out. The reference
//! resolves each path's links through `ConnectionGraph::link_between`, so
//! the links a search records are pinned too.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_topo::{
    k_shortest_paths, shortest_paths, Asil, ConnectionGraph, LinkId, NodeId, Path, Topology,
};

const SEED: u64 = 0x5945_4e00;
const CASES: u64 = 80;
const MAX_K: usize = 16;

/// The shape `Topology::adjacency` returns.
type Adjacency = Vec<Vec<(NodeId, LinkId, f64)>>;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn reference_dijkstra(
    gc: &ConnectionGraph,
    adj: &Adjacency,
    source: NodeId,
    target: NodeId,
    node_ok: &dyn Fn(NodeId) -> bool,
    edge_ok: &dyn Fn(NodeId, LinkId) -> bool,
) -> Option<Path> {
    let n = adj.len();
    if source.index() >= n || target.index() >= n {
        return None;
    }
    if source == target {
        return Some(Path::new(gc, vec![source]));
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: source.index() });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == target.index() {
            break;
        }
        for &(v, link, w) in &adj[u] {
            if v != target && v != source && !node_ok(v) {
                continue;
            }
            if !edge_ok(NodeId::from_dense_index(u), link) {
                continue;
            }
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev[v.index()] = Some(NodeId::from_dense_index(u));
                heap.push(HeapEntry { dist: nd, node: v.index() });
            }
        }
    }
    if dist[target.index()].is_infinite() {
        return None;
    }
    let mut nodes = vec![target];
    let mut cur = target;
    while let Some(p) = prev[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    Some(Path::new(gc, nodes))
}

/// The eager Yen: all `k` paths, built before any is returned.
fn reference_k_shortest_paths(
    gc: &ConnectionGraph,
    adj: &Adjacency,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = reference_dijkstra(gc, adj, source, target, &|_| true, &|_, _| true) else {
        return Vec::new();
    };
    let mut result = vec![first];
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    while result.len() < k {
        let last = result.last().expect("result is non-empty").clone();
        for i in 0..last.hop_count() {
            let spur_node = last.nodes()[i];
            let root: Vec<NodeId> = last.nodes()[..=i].to_vec();
            let mut banned_edges: Vec<(NodeId, NodeId)> = Vec::new();
            for p in result.iter().chain(candidates.iter().map(|(_, p)| p)) {
                if p.nodes().len() > i + 1 && p.nodes()[..=i] == root[..] {
                    banned_edges.push((p.nodes()[i], p.nodes()[i + 1]));
                }
            }
            let banned_nodes: Vec<NodeId> = root[..i].to_vec();
            let node_ok = |n: NodeId| !banned_nodes.contains(&n);
            let edge_ok = |from: NodeId, link: LinkId| {
                !banned_edges.iter().any(|&(u, v)| {
                    from == u && adj[u.index()].iter().any(|&(nb, l, _)| l == link && nb == v)
                })
            };
            if let Some(spur) = reference_dijkstra(gc, adj, spur_node, target, &node_ok, &edge_ok) {
                let mut nodes = root[..i].to_vec();
                nodes.extend_from_slice(spur.nodes());
                if nodes.iter().enumerate().all(|(j, n)| !nodes[..j].contains(n)) {
                    let candidate = Path::new(gc, nodes);
                    let cost = candidate.length_in(adj).expect("candidate uses existing edges");
                    if !result.contains(&candidate)
                        && !candidates.iter().any(|(_, p)| p == &candidate)
                    {
                        candidates.push((cost, candidate));
                    }
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|(ca, pa), (cb, pb)| {
            ca.partial_cmp(cb)
                .unwrap_or(Ordering::Equal)
                .then_with(|| pa.nodes().cmp(pb.nodes()))
        });
        let (_, best) = candidates.remove(0);
        result.push(best);
    }
    result
}

/// A random mesh: 2–4 end stations and 3–7 switches, every switch pair and
/// switch–station pair linked with probability 0.6, lengths 1–3, degree
/// limits lifted so every link is in the topology.
fn random_mesh(rng: &mut StdRng) -> (Arc<ConnectionGraph>, Adjacency, Vec<NodeId>) {
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
                gc.add_candidate_link(s, t, rng.gen_range(1..=3u32) as f64).unwrap();
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
    let mut endpoints = stations;
    endpoints.push(switches[0]);
    (gc, topo.adjacency(), endpoints)
}

#[test]
fn iterator_prefixes_equal_the_eager_yen_for_every_k() {
    let mut pairs = 0;
    let mut tied_neighbours = 0;
    for case in 0..CASES {
        let seed = SEED + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let (gc, adj, endpoints) = random_mesh(&mut rng);
        for &s in &endpoints {
            for &d in &endpoints {
                let mut paths = shortest_paths(&adj, s, d);
                let lazy: Vec<Path> = paths.by_ref().take(MAX_K).collect();
                if lazy.len() < MAX_K {
                    assert_eq!(paths.next(), None, "seed {seed:#x}: resumed past the end");
                }
                for k in 0..=MAX_K {
                    let reference = reference_k_shortest_paths(&gc, &adj, s, d, k);
                    assert_eq!(
                        k_shortest_paths(&adj, s, d, k),
                        reference,
                        "seed {seed:#x}: k_shortest_paths({s}, {d}, {k})"
                    );
                    assert_eq!(
                        lazy[..k.min(lazy.len())],
                        reference[..],
                        "seed {seed:#x}: prefix {k} of shortest_paths({s}, {d})"
                    );
                }
                tied_neighbours += lazy
                    .windows(2)
                    .filter(|w| w[0].length_in(&adj) == w[1].length_in(&adj))
                    .count();
                pairs += 1;
            }
        }
    }
    // The meshes produce the equal-length paths whose order is at stake.
    assert!(tied_neighbours > pairs, "{tied_neighbours} ties over {pairs} pairs");
    eprintln!("{pairs} pairs, {tied_neighbours} ties");
}
