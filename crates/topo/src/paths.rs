//! Path types and graph search: BFS, Dijkstra, Yen's K-shortest paths and
//! node-disjoint path search.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::TopoError;
use crate::graph::{ConnectionGraph, LinkId, NodeId};

/// Adjacency representation used by all search routines: for every node
/// index, its `(neighbor, link, length)` triples.
///
/// Both [`crate::Topology::adjacency`] (active links) and
/// [`crate::Topology::residual_adjacency`] (after a failure) produce this
/// shape, as do the filtered candidate-graph views built by the SOAG.
pub type Adjacency = Vec<Vec<(NodeId, LinkId, f64)>>;

/// A loopless path through the network: an ordered node sequence and the
/// link of each hop.
///
/// Paths are the granularity of NPTSN's addition actions — "the minimum
/// connectivity from the perspective of the flows" (Section IV-B).
///
/// Every path knows its links: `links()[h]` joins `nodes()[h]` and
/// `nodes()[h + 1]`. A search records each link as it finds the path, from
/// the adjacency rows it walks, so no consumer looks a hop up again. A node
/// sequence from outside a search is resolved against the connection
/// graph once, by [`Path::new`] or [`Path::try_new`].
///
/// # Examples
///
/// ```
/// use nptsn_topo::{ConnectionGraph, Path};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let s = gc.add_switch("s");
/// let b = gc.add_end_station("b");
/// let a_s = gc.add_candidate_link(a, s, 1.0).unwrap();
/// let s_b = gc.add_candidate_link(s, b, 1.0).unwrap();
/// let p = Path::new(&gc, vec![a, s, b]);
/// assert_eq!(p.hop_count(), 2);
/// assert_eq!(p.source(), a);
/// assert_eq!(p.destination(), b);
/// assert_eq!(p.links(), &[a_s, s_b]);
/// assert_eq!(p.edges().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    /// `links[h]` joins `nodes[h]` and `nodes[h + 1]`.
    links: Vec<LinkId>,
}

impl Path {
    /// Creates a path from an ordered node sequence, resolving each hop to
    /// its candidate link in `gc`.
    ///
    /// # Panics
    ///
    /// Panics when [`Path::try_new`] fails: `nodes` is empty, revisits a
    /// node (paths are loopless) or has a hop that is not a candidate link.
    /// Use [`Path::try_new`] to validate untrusted sequences instead.
    pub fn new(gc: &ConnectionGraph, nodes: Vec<NodeId>) -> Path {
        Path::try_new(gc, nodes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`Path::new`] for node sequences that come
    /// from outside the path-search algorithms (plan files, external
    /// controllers).
    ///
    /// # Errors
    ///
    /// [`TopoError::EmptyPath`] for an empty sequence,
    /// [`TopoError::RepeatedNode`] when a node appears twice,
    /// [`TopoError::UnknownLink`] for the first hop that is not a
    /// candidate link of `gc`.
    pub fn try_new(gc: &ConnectionGraph, nodes: Vec<NodeId>) -> Result<Path, TopoError> {
        if nodes.is_empty() {
            return Err(TopoError::EmptyPath);
        }
        for (i, n) in nodes.iter().enumerate() {
            if nodes[..i].contains(n) {
                return Err(TopoError::RepeatedNode(*n));
            }
        }
        let links = nodes
            .windows(2)
            .map(|w| gc.link_between(w[0], w[1]).ok_or(TopoError::UnknownLink(w[0], w[1])))
            .collect::<Result<_, _>>()?;
        Ok(Path { nodes, links })
    }

    /// The path a search found: `links[h]` joins `nodes[h]` and
    /// `nodes[h + 1]`, and no node repeats.
    fn found(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Path {
        debug_assert_eq!(nodes.len(), links.len() + 1);
        Path { nodes, links }
    }

    /// The ordered node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The link of each hop, in path order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of hops (edges).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// First node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Whether the path traverses `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Consecutive node pairs (the undirected edges of the path).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total length of the path under `adj` weights, or `None` if an edge is
    /// missing from `adj`.
    pub fn length_in(&self, adj: &Adjacency) -> Option<f64> {
        let mut total = 0.0;
        for (u, v) in self.edges() {
            let w = adj[u.index()].iter().find(|(n, _, _)| *n == v)?.2;
            total += w;
        }
        Some(total)
    }
}

/// Min-heap entry ordered by (distance, node index) for deterministic
/// tie-breaking.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest distance.
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

/// Hop distances from `source` to every node, `None` for unreachable nodes.
///
/// # Examples
///
/// ```
/// use nptsn_topo::{bfs_distances, Asil, ConnectionGraph};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let s = gc.add_switch("s");
/// let b = gc.add_end_station("b");
/// gc.add_candidate_link(a, s, 1.0).unwrap();
/// gc.add_candidate_link(s, b, 1.0).unwrap();
/// let mut topo = gc.empty_topology();
/// topo.add_switch(s, Asil::A).unwrap();
/// topo.add_link(a, s).unwrap();
/// topo.add_link(s, b).unwrap();
///
/// let dist = bfs_distances(&topo.adjacency(), a);
/// assert_eq!(dist[b.index()], Some(2));
/// ```
pub fn bfs_distances(adj: &Adjacency, source: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &(v, _, _) in &adj[u.index()] {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Dijkstra shortest path from `source` to `target` by total link length;
/// `None` when unreachable. Ties break deterministically by node index.
pub fn dijkstra_shortest_path(adj: &Adjacency, source: NodeId, target: NodeId) -> Option<Path> {
    dijkstra_filtered(adj, &mut Search::default(), source, target, |_| true, |_, _, _| true)
}

/// The working memory of one Dijkstra search. A caller that runs many
/// searches keeps one and passes it to each, so they reuse its buffers.
#[derive(Debug, Default)]
pub(crate) struct Search {
    dist: Vec<f64>,
    /// The node before each reached node on its best route so far, and the
    /// link between them.
    prev: Vec<Option<(NodeId, LinkId)>>,
    heap: BinaryHeap<HeapEntry>,
}

/// Dijkstra restricted to nodes passing `node_ok` and edges passing
/// `edge_ok(from, to, link)`. The source and target always pass
/// `node_ok`; an edge filter can still cut them off. The search runs in
/// `search`'s buffers; what they held before is ignored.
pub(crate) fn dijkstra_filtered(
    adj: &Adjacency,
    search: &mut Search,
    source: NodeId,
    target: NodeId,
    node_ok: impl Fn(NodeId) -> bool,
    edge_ok: impl Fn(NodeId, NodeId, LinkId) -> bool,
) -> Option<Path> {
    let n = adj.len();
    if source.index() >= n || target.index() >= n {
        return None;
    }
    if source == target {
        return Some(Path::found(vec![source], Vec::new()));
    }
    let Search { dist, prev, heap } = search;
    dist.clear();
    dist.resize(n, f64::INFINITY);
    prev.clear();
    prev.resize(n, None);
    heap.clear();
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
            if !edge_ok(NodeId(u), v, link) {
                continue;
            }
            let nd = d + w;
            // Only a strict improvement replaces a distance, so among
            // equally long routes to `v` the first one relaxed keeps its
            // predecessor.
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                prev[v.index()] = Some((NodeId(u), link));
                heap.push(HeapEntry { dist: nd, node: v.index() });
            }
        }
    }
    if dist[target.index()].is_infinite() {
        return None;
    }
    let hops = std::iter::successors(prev[target.index()], |&(p, _)| prev[p.index()]).count();
    let mut nodes = Vec::with_capacity(hops + 1);
    let mut links = Vec::with_capacity(hops);
    nodes.push(target);
    let mut cur = target;
    while let Some((p, link)) = prev[cur.index()] {
        nodes.push(p);
        links.push(link);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    debug_assert_eq!(nodes[0], source);
    Some(Path::found(nodes, links))
}

/// Yen's algorithm: up to `k` loopless shortest paths from `source` to
/// `target`, in order of non-decreasing length. This is
/// `shortest_paths(adj, source, target).take(k).collect()`; see
/// [`shortest_paths`] for the order among paths of equal length.
///
/// Used by the SOAG (Algorithm 1, line 5) to propose path-addition actions.
/// Returns fewer than `k` paths when the graph does not contain that many.
///
/// # Examples
///
/// ```
/// use nptsn_topo::{k_shortest_paths, Asil, ConnectionGraph};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s0 = gc.add_switch("s0");
/// let s1 = gc.add_switch("s1");
/// for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
///     gc.add_candidate_link(u, v, 1.0).unwrap();
/// }
/// let mut topo = gc.empty_topology();
/// topo.add_switch(s0, Asil::A).unwrap();
/// topo.add_switch(s1, Asil::A).unwrap();
/// for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
///     topo.add_link(u, v).unwrap();
/// }
/// let paths = k_shortest_paths(&topo.adjacency(), a, b, 4);
/// assert_eq!(paths.len(), 4);
/// assert_eq!(paths[0].hop_count(), 2);
/// assert!(paths[3].hop_count() >= paths[0].hop_count());
/// ```
pub fn k_shortest_paths(adj: &Adjacency, source: NodeId, target: NodeId, k: usize) -> Vec<Path> {
    shortest_paths(adj, source, target).take(k).collect()
}

/// Yen's algorithm as a resumable iterator over the loopless paths from
/// `source` to `target`, in order of non-decreasing length.
///
/// The first `next()` is [`dijkstra_shortest_path`]. Each later `next()`
/// runs one Yen round from the path yielded last: a spur search from every
/// node of that path adds its candidates, and the best candidate is
/// yielded. The iterator keeps its paths and candidates between calls, so
/// a caller that stops after `n` paths pays for `n` rounds and no path is
/// computed twice. It ends when no candidate is left.
///
/// Every search of the enumeration, the first and each spur search, runs
/// in one set of Dijkstra buffers that the iterator owns.
/// [`ShortestPaths::restart`] starts the enumeration for another pair on
/// the same adjacency and keeps those buffers, so a caller that searches
/// for many pairs allocates them once.
///
/// [`ShortestPaths::exclude_links`] takes links out of every search, so
/// one adjacency serves as many subgraphs of itself: the enumeration over
/// `adj` without links `L` is the enumeration over the adjacency that
/// lacks them, path for path, because the rows keep their order.
///
/// Equal-length paths are not ordered by node sequence overall. A round
/// yields the candidate with the smallest (length, node sequence) among
/// those found so far; a later round can still find a path of the same
/// length with a smaller node sequence, and that path comes after.
///
/// Link lengths in `adj` must be finite and non-negative, as
/// [`crate::ConnectionGraph::add_candidate_link`] enforces.
///
/// # Examples
///
/// ```
/// use nptsn_topo::{
///     dijkstra_shortest_path, k_shortest_paths, shortest_paths, Asil, ConnectionGraph,
/// };
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s0 = gc.add_switch("s0");
/// let s1 = gc.add_switch("s1");
/// for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
///     gc.add_candidate_link(u, v, 1.0).unwrap();
/// }
/// let mut topo = gc.empty_topology();
/// topo.add_switch(s0, Asil::A).unwrap();
/// topo.add_switch(s1, Asil::A).unwrap();
/// for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
///     topo.add_link(u, v).unwrap();
/// }
/// let adj = topo.adjacency();
/// let mut paths = shortest_paths(&adj, a, b);
/// // The first path costs one Dijkstra search.
/// assert_eq!(paths.next(), dijkstra_shortest_path(&adj, a, b));
/// // Resuming continues Yen's enumeration where it stopped.
/// let rest: Vec<_> = paths.collect();
/// assert_eq!(rest, k_shortest_paths(&adj, a, b, 4)[1..]);
/// ```
pub fn shortest_paths(adj: &Adjacency, source: NodeId, target: NodeId) -> ShortestPaths<'_> {
    ShortestPaths::new(Cow::Borrowed(adj), source, target)
}

/// The iterator returned by [`shortest_paths`] and [`ShortestPaths::over`].
#[derive(Debug)]
pub struct ShortestPaths<'a> {
    adj: Cow<'a, Adjacency>,
    /// Bits of the links no search may use, by link index.
    excluded: Vec<u64>,
    source: NodeId,
    target: NodeId,
    /// The paths yielded so far, in order (Yen's list A).
    result: Vec<Path>,
    /// Found but not yet yielded paths with their lengths (Yen's set B).
    candidates: Vec<(f64, Path)>,
    /// During a spur search: whether the step from the spur node to a node
    /// is banned. All `false` between searches; sized by the first round.
    banned_next: Vec<bool>,
    /// The nodes set in `banned_next`, to clear it after the search.
    banned: Vec<NodeId>,
    /// The buffers every Dijkstra search of the enumeration runs in.
    search: Search,
    /// No further path exists.
    exhausted: bool,
}

impl ShortestPaths<'static> {
    /// An enumeration over an adjacency it owns, for a caller that keeps
    /// the adjacency and the search buffers together. It has no pair yet:
    /// `next()` yields nothing before a restart.
    pub fn over(adj: Adjacency) -> ShortestPaths<'static> {
        let mut paths = ShortestPaths::new(Cow::Owned(adj), NodeId(0), NodeId(0));
        paths.exhausted = true;
        paths
    }
}

impl<'a> ShortestPaths<'a> {
    fn new(adj: Cow<'a, Adjacency>, source: NodeId, target: NodeId) -> ShortestPaths<'a> {
        ShortestPaths {
            adj,
            excluded: Vec::new(),
            source,
            target,
            result: Vec::new(),
            candidates: Vec::new(),
            banned_next: Vec::new(),
            banned: Vec::new(),
            search: Search::default(),
            exhausted: false,
        }
    }

    /// Restarts the enumeration for the pair `source`, `target` on the
    /// same adjacency: the next `next()` yields that pair's shortest path,
    /// exactly as a fresh [`shortest_paths`] iterator would, however far
    /// the previous enumeration got. The yielded paths and candidates are
    /// dropped; every buffer is kept.
    pub fn restart(&mut self, source: NodeId, target: NodeId) {
        self.source = source;
        self.target = target;
        self.result.clear();
        self.candidates.clear();
        self.exhausted = false;
    }

    /// Takes `links` out of every search from now on, in place of the
    /// links taken out before; a link missing from the adjacency may be
    /// among them. The current enumeration ends: `next()` yields nothing
    /// before a restart.
    pub fn exclude_links(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.excluded.fill(0);
        for link in links {
            let word = link.index() / 64;
            if word >= self.excluded.len() {
                self.excluded.resize(word + 1, 0);
            }
            self.excluded[word] |= 1 << (link.index() % 64);
        }
        self.exhausted = true;
    }

    /// Whether every search leaves `link` out: it was among the links of
    /// the last [`exclude_links`](ShortestPaths::exclude_links).
    pub fn excludes(&self, link: LinkId) -> bool {
        is_excluded(&self.excluded, link)
    }

    /// One Yen round from the last path yielded: spur searches from each of
    /// its nodes, then the best candidate, removed from the candidate set.
    fn next_round(&mut self) -> Option<Path> {
        let ShortestPaths {
            adj, excluded, target, result, candidates, banned_next, banned, search, ..
        } = self;
        let adj: &Adjacency = adj;
        let last = result.last().expect("a round follows a yielded path");
        banned_next.resize(adj.len(), false);
        for i in 0..last.hop_count() {
            let spur_node = last.nodes()[i];
            let root = &last.nodes()[..=i];

            // Edges removed: for every known path sharing this root, the
            // edge it takes out of the spur node. All of them leave the spur
            // node, so marking their far ends bans exactly those edges.
            for p in result.iter().chain(candidates.iter().map(|(_, p)| p)) {
                if p.nodes().len() > i + 1 && p.nodes()[..=i] == *root {
                    let next = p.nodes()[i + 1];
                    banned_next[next.index()] = true;
                    banned.push(next);
                }
            }
            // Nodes removed: the root except the spur node itself.
            let banned_nodes = &root[..i];

            let node_ok = |n: NodeId| !banned_nodes.contains(&n);
            let edge_ok = |from: NodeId, to: NodeId, link: LinkId| {
                !is_excluded(excluded, link) && (from != spur_node || !banned_next[to.index()])
            };
            let spur = dijkstra_filtered(adj, search, spur_node, *target, node_ok, edge_ok);
            for n in banned.drain(..) {
                banned_next[n.index()] = false;
            }
            if let Some(spur) = spur {
                let mut nodes = Vec::with_capacity(i + spur.nodes().len());
                nodes.extend_from_slice(banned_nodes);
                nodes.extend_from_slice(spur.nodes());
                // The concatenation can revisit a root node through the spur
                // path only if the spur path loops back, which banned_nodes
                // prevents; still, guard against duplicates defensively.
                if nodes.iter().enumerate().all(|(j, n)| !nodes[..j].contains(n)) {
                    // The root's links, then the spur's.
                    let mut links = Vec::with_capacity(nodes.len() - 1);
                    links.extend_from_slice(&last.links()[..i]);
                    links.extend_from_slice(spur.links());
                    let candidate = Path::found(nodes, links);
                    let cost = candidate
                        .length_in(adj)
                        .expect("candidate uses existing edges");
                    if !result.contains(&candidate)
                        && !candidates.iter().any(|(_, p)| p == &candidate)
                    {
                        candidates.push((cost, candidate));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }
        // Extract the best candidate deterministically.
        candidates.sort_by(|(ca, pa), (cb, pb)| {
            ca.partial_cmp(cb)
                .unwrap_or(Ordering::Equal)
                .then_with(|| pa.nodes().cmp(pb.nodes()))
        });
        Some(candidates.remove(0).1)
    }
}

impl Iterator for ShortestPaths<'_> {
    type Item = Path;

    fn next(&mut self) -> Option<Path> {
        if self.exhausted {
            return None;
        }
        let path = if self.result.is_empty() {
            let ShortestPaths { adj, excluded, source, target, search, .. } = self;
            let edge_ok = |_, _, link| !is_excluded(excluded, link);
            dijkstra_filtered(adj, search, *source, *target, |_| true, edge_ok)
        } else {
            self.next_round()
        };
        match path {
            Some(path) => {
                self.result.push(path.clone());
                Some(path)
            }
            None => {
                self.exhausted = true;
                None
            }
        }
    }
}

/// Whether the bit of `link` is set in `excluded`.
fn is_excluded(excluded: &[u64], link: LinkId) -> bool {
    excluded.get(link.index() / 64).is_some_and(|word| word >> (link.index() % 64) & 1 == 1)
}

/// Greedily finds up to `count` mutually node-disjoint paths (sharing only
/// the endpoints) from `source` to `target`, shortest first.
///
/// This is the path-construction primitive of the TRH baseline \[4\], which
/// creates FRER-disjoint paths per flow. Returns `None` when fewer than
/// `count` disjoint paths exist under this greedy strategy.
pub fn node_disjoint_paths(
    adj: &Adjacency,
    source: NodeId,
    target: NodeId,
    count: usize,
) -> Option<Vec<Path>> {
    let mut used = vec![false; adj.len()];
    let mut paths = Vec::with_capacity(count);
    let mut search = Search::default();
    for _ in 0..count {
        let node_ok = |n: NodeId| !used[n.index()];
        let path = dijkstra_filtered(adj, &mut search, source, target, node_ok, |_, _, _| true)?;
        for &n in path.nodes() {
            if n != source && n != target {
                used[n.index()] = true;
            }
        }
        paths.push(path);
    }
    Some(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asil::Asil;
    use crate::graph::ConnectionGraph;
    use crate::topology::Topology;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The candidate graph of [`theta`].
    fn theta_graph() -> (ConnectionGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        (gc, a, b, s0, s1)
    }

    /// Two parallel 2-hop routes a-s0-b and a-s1-b plus a chord s0-s1.
    fn theta() -> (Adjacency, NodeId, NodeId, NodeId, NodeId) {
        let (gc, a, b, s0, s1) = theta_graph();
        let mut topo = Topology::empty(Arc::new(gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (a, s1), (s0, b), (s1, b), (s0, s1)] {
            topo.add_link(u, v).unwrap();
        }
        (topo.adjacency(), a, b, s0, s1)
    }

    #[test]
    fn try_new_rejects_invalid_sequences() {
        let (gc, a, b, s0, s1) = theta_graph();
        assert_eq!(Path::try_new(&gc, vec![]), Err(TopoError::EmptyPath));
        assert_eq!(Path::try_new(&gc, vec![a, s0, a]), Err(TopoError::RepeatedNode(a)));
        assert_eq!(Path::try_new(&gc, vec![a, s0, s1, a]), Err(TopoError::RepeatedNode(a)));
        assert_eq!(Path::try_new(&gc, vec![s0, a, b]), Err(TopoError::UnknownLink(a, b)));
        let path = Path::try_new(&gc, vec![a, s0, b]).unwrap();
        assert_eq!(path.hop_count(), 2);
        assert_eq!(path.links(), &[gc.link_between(a, s0).unwrap(), gc.link_between(s0, b).unwrap()]);
        let alone = Path::try_new(&gc, vec![b]).unwrap();
        assert_eq!((alone.hop_count(), alone.links()), (0, &[][..]));
    }

    #[test]
    #[should_panic(expected = "loopless")]
    fn paths_reject_revisits() {
        let (gc, a, _, s0, _) = theta_graph();
        let _ = Path::new(&gc, vec![a, s0, a]);
    }

    #[test]
    fn bfs_distances_count_hops() {
        let (adj, a, b, s0, _) = theta();
        let dist = bfs_distances(&adj, a);
        assert_eq!(dist[a.index()], Some(0));
        assert_eq!(dist[s0.index()], Some(1));
        assert_eq!(dist[b.index()], Some(2));
    }

    #[test]
    fn bfs_reports_unreachable() {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let topo = gc.empty_topology();
        let dist = bfs_distances(&topo.adjacency(), a);
        assert_eq!(dist[b.index()], None);
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let (adj, a, b, ..) = theta();
        let p = dijkstra_shortest_path(&adj, a, b).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), b);
    }

    #[test]
    fn dijkstra_prefers_low_weight_over_few_hops() {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        gc.add_candidate_link(a, s0, 10.0).unwrap();
        gc.add_candidate_link(s0, b, 10.0).unwrap();
        gc.add_candidate_link(a, s1, 1.0).unwrap();
        gc.add_candidate_link(s1, s0, 1.0).unwrap();
        let mut topo = gc.empty_topology();
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, s0)] {
            topo.add_link(u, v).unwrap();
        }
        let p = dijkstra_shortest_path(&topo.adjacency(), a, b).unwrap();
        // a-s1-s0-b (cost 12) beats a-s0-b (cost 20).
        assert_eq!(p.hop_count(), 3);
        assert!(p.contains_node(s1));
    }

    #[test]
    fn dijkstra_same_source_target() {
        let (adj, a, ..) = theta();
        let p = dijkstra_shortest_path(&adj, a, a).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn yen_enumerates_loopless_paths_in_order() {
        let (adj, a, b, ..) = theta();
        let paths = k_shortest_paths(&adj, a, b, 10);
        // Loopless a-b paths in the theta graph: two 2-hop and two 3-hop.
        assert_eq!(paths.len(), 4);
        let mut prev = 0.0;
        for p in &paths {
            assert_eq!(p.source(), a);
            assert_eq!(p.destination(), b);
            let len = p.length_in(&adj).unwrap();
            assert!(len >= prev);
            prev = len;
            // Looplessness.
            let mut seen = std::collections::HashSet::new();
            assert!(p.nodes().iter().all(|n| seen.insert(*n)));
        }
        // All distinct.
        for i in 0..paths.len() {
            for j in 0..i {
                assert_ne!(paths[i], paths[j]);
            }
        }
    }

    #[test]
    fn yen_respects_k() {
        let (adj, a, b, ..) = theta();
        assert_eq!(k_shortest_paths(&adj, a, b, 1).len(), 1);
        assert_eq!(k_shortest_paths(&adj, a, b, 0).len(), 0);
        assert_eq!(k_shortest_paths(&adj, a, b, 3).len(), 3);
    }

    #[test]
    fn yen_unreachable_is_empty() {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let topo = gc.empty_topology();
        assert!(k_shortest_paths(&topo.adjacency(), a, b, 5).is_empty());
    }

    #[test]
    fn disjoint_paths_found_in_theta() {
        let (adj, a, b, s0, s1) = theta();
        let paths = node_disjoint_paths(&adj, a, b, 2).unwrap();
        assert_eq!(paths.len(), 2);
        // One goes through s0, the other through s1.
        let through: Vec<bool> = paths.iter().map(|p| p.contains_node(s0)).collect();
        assert_ne!(through[0], through[1]);
        let _ = s1;
        // Three disjoint paths do not exist.
        assert!(node_disjoint_paths(&adj, a, b, 3).is_none());
    }

    #[test]
    fn yen_is_deterministic() {
        let (adj, a, b, ..) = theta();
        let p1 = k_shortest_paths(&adj, a, b, 4);
        let p2 = k_shortest_paths(&adj, a, b, 4);
        assert_eq!(p1, p2);
    }

    /// 4–7 switches, each pair linked with probability 1/2, lengths 1–3.
    fn random_mesh(rng: &mut StdRng) -> Adjacency {
        let mut gc = ConnectionGraph::new();
        let nodes: Vec<NodeId> =
            (0..rng.gen_range(4usize..8)).map(|i| gc.add_switch(format!("sw{i}"))).collect();
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                if rng.gen_range(0..2u32) == 0 {
                    gc.add_candidate_link(u, v, rng.gen_range(1..=3u32) as f64).unwrap();
                }
            }
        }
        let gc = Arc::new(gc);
        let mut topo = Topology::empty(Arc::clone(&gc));
        for &s in &nodes {
            topo.add_switch(s, Asil::A).unwrap();
        }
        for link in gc.links() {
            let (u, v) = gc.link_endpoints(link);
            topo.add_link(u, v).unwrap();
        }
        topo.adjacency()
    }

    /// One iterator, restarted for each of a run of seeded pairs, yields
    /// what a fresh iterator yields for the pair, whether the enumeration
    /// before the restart stopped part way, yielded every path or ran out.
    #[test]
    fn restarted_search_equals_fresh_iterators() {
        let (mut partial, mut consumed, mut ran_out) = (0, 0, 0);
        for case in 0..40 {
            let mut rng = StdRng::seed_from_u64(0x5245_5354 + case);
            let adj = random_mesh(&mut rng);
            let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..adj.len()));
            let mut restarted = shortest_paths(&adj, node(&mut rng), node(&mut rng));
            for _ in 0..12 {
                let (s, d) = (node(&mut rng), node(&mut rng));
                restarted.restart(s, d);
                let fresh: Vec<Path> = shortest_paths(&adj, s, d).collect();
                // Up to one more than there are: that `next()` runs out.
                let take = rng.gen_range(0..=fresh.len() + 1);
                let got: Vec<Path> = restarted.by_ref().take(take).collect();
                assert_eq!(got, fresh[..take.min(fresh.len())], "case {case}: {s} -> {d}");
                match take.cmp(&fresh.len()) {
                    Ordering::Less => partial += 1,
                    Ordering::Equal => consumed += 1,
                    Ordering::Greater => ran_out += 1,
                }
            }
        }
        assert!(partial > 0 && consumed > 0 && ran_out > 0, "{partial} {consumed} {ran_out}");
    }

    /// One owning iterator, with a random set of links excluded before
    /// each pair, yields what a fresh iterator over the adjacency without
    /// those links yields.
    #[test]
    fn excluded_links_equal_the_adjacency_without_them() {
        let mut cut = 0;
        for case in 0..40 {
            let mut rng = StdRng::seed_from_u64(0x4558_434c + case);
            let adj = random_mesh(&mut rng);
            let links: Vec<LinkId> = adj.iter().flatten().map(|&(_, link, _)| link).collect();
            let mut owning = ShortestPaths::over(adj.clone());
            for _ in 0..12 {
                let excluded: Vec<LinkId> =
                    links.iter().copied().filter(|_| rng.gen_range(0..4u32) == 0).collect();
                let without: Adjacency = adj
                    .iter()
                    .map(|row| row.iter().copied().filter(|e| !excluded.contains(&e.1)).collect())
                    .collect();
                let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..adj.len()));
                let (s, d) = (node(&mut rng), node(&mut rng));
                let fresh: Vec<Path> = shortest_paths(&without, s, d).collect();
                owning.exclude_links(excluded.iter().copied());
                assert_eq!(owning.next(), None, "case {case}: excluding links ends the enumeration");
                owning.restart(s, d);
                let got: Vec<Path> = owning.by_ref().collect();
                assert_eq!(got, fresh, "case {case}: {s} -> {d} without {excluded:?}");
                cut += usize::from(shortest_paths(&adj, s, d).collect::<Vec<_>>() != fresh);
            }
        }
        assert!(cut > 0, "no exclusion changed an enumeration");
    }
}
