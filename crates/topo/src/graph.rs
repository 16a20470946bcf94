//! The connection graph `Gc` of possible network connections.

use std::collections::HashMap;
use std::fmt;

use crate::asil::Asil;
use crate::error::TopoError;
use crate::topology::Topology;
use crate::Result;

/// Identifier of a node (end station or switch) within a [`ConnectionGraph`].
///
/// Node ids are dense indices assigned in insertion order, which lets callers
/// use them directly as rows of feature matrices (Section IV-C encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node (`0 .. graph.node_count()`).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a node id from a dense index.
    ///
    /// Adjacency rows, feature matrices and schedule tables are all indexed
    /// by [`NodeId::index`]; this is the inverse used when walking such
    /// dense structures. The caller must guarantee the index is within the
    /// owning graph's node count.
    pub fn from_dense_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a candidate link within a [`ConnectionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The dense index of this link (`0 .. graph.candidate_link_count()`).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Whether a node is an end station or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An application end station (`V_es`); defined by the applications,
    /// never planned, and assumed highly reliable (its failures are safe
    /// faults, Section II-C).
    EndStation,
    /// An optional switch (`V^c_sw`) that network planning may select.
    Switch,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    name: String,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
struct CandidateLink {
    a: NodeId,
    b: NodeId,
    length: f64,
}

/// The undirected graph of possible connections `Gc` (Section II-C).
///
/// Vertices are the end stations to be connected plus the optional switches;
/// edges are the optional links with their cable lengths. Network planning
/// selects a subgraph of `Gc` as the output topology `Gt`.
///
/// # Examples
///
/// ```
/// use nptsn_topo::ConnectionGraph;
///
/// let mut gc = ConnectionGraph::new();
/// let cam = gc.add_end_station("camera");
/// let sw = gc.add_switch("sw0");
/// gc.add_candidate_link(cam, sw, 2.5).unwrap();
/// assert_eq!(gc.node_count(), 2);
/// assert_eq!(gc.candidate_link_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConnectionGraph {
    nodes: Vec<NodeInfo>,
    links: Vec<CandidateLink>,
    /// adjacency[v] = (neighbor, link id) pairs.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    link_lookup: HashMap<(usize, usize), LinkId>,
    end_stations: Vec<NodeId>,
    switches: Vec<NodeId>,
    max_switch_degree: usize,
    max_end_station_degree: usize,
}

impl ConnectionGraph {
    /// Creates an empty connection graph.
    ///
    /// The default degree constraints follow the paper's evaluation setup:
    /// a maximum switch degree of 8 (the largest switch in Table I) and a
    /// maximum end-station degree of 2 (the minimum that allows redundancy).
    pub fn new() -> ConnectionGraph {
        ConnectionGraph {
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            link_lookup: HashMap::new(),
            end_stations: Vec::new(),
            switches: Vec::new(),
            max_switch_degree: 8,
            max_end_station_degree: 2,
        }
    }

    /// Adds an end station with ASIL D (the default for safety-critical
    /// stations whose failures must be safe faults) and returns its id.
    pub fn add_end_station(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::EndStation)
    }

    /// Adds an optional switch and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Switch)
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo { name, kind });
        self.adjacency.push(Vec::new());
        match kind {
            NodeKind::EndStation => self.end_stations.push(id),
            NodeKind::Switch => self.switches.push(id),
        }
        id
    }

    /// Adds a candidate link between `u` and `v` with the given cable length.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::SelfLoop`] when `u == v`,
    /// [`TopoError::InvalidLength`] when `length` is negative, infinite or
    /// NaN, [`TopoError::UnknownNode`] for out-of-range ids and
    /// [`TopoError::DuplicateLink`] when the link already exists.
    pub fn add_candidate_link(&mut self, u: NodeId, v: NodeId, length: f64) -> Result<LinkId> {
        if u == v {
            return Err(TopoError::SelfLoop(u));
        }
        if !(length.is_finite() && length >= 0.0) {
            return Err(TopoError::InvalidLength { u, v, length });
        }
        self.check_node(u)?;
        self.check_node(v)?;
        let key = Self::link_key(u, v);
        if self.link_lookup.contains_key(&key) {
            return Err(TopoError::DuplicateLink(u, v));
        }
        let id = LinkId(self.links.len());
        self.links.push(CandidateLink { a: u, b: v, length });
        self.adjacency[u.0].push((v, id));
        self.adjacency[v.0].push((u, id));
        self.link_lookup.insert(key, id);
        Ok(id)
    }

    fn link_key(u: NodeId, v: NodeId) -> (usize, usize) {
        (u.0.min(v.0), u.0.max(v.0))
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TopoError::UnknownNode(n))
        }
    }

    /// Sets the maximum switch degree (number of ports of the largest switch
    /// in the component library).
    pub fn set_max_switch_degree(&mut self, degree: usize) {
        self.max_switch_degree = degree;
    }

    /// Sets the maximum end-station degree.
    pub fn set_max_end_station_degree(&mut self, degree: usize) {
        self.max_end_station_degree = degree;
    }

    /// Maximum degree allowed for switches.
    pub fn max_switch_degree(&self) -> usize {
        self.max_switch_degree
    }

    /// Maximum degree allowed for end stations.
    pub fn max_end_station_degree(&self) -> usize {
        self.max_end_station_degree
    }

    /// Maximum degree allowed for `node` given its kind.
    pub fn max_degree(&self, node: NodeId) -> usize {
        match self.kind(node) {
            NodeKind::EndStation => self.max_end_station_degree,
            NodeKind::Switch => self.max_switch_degree,
        }
    }

    /// Total number of nodes `|V^c|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of candidate links `|E^c|`.
    pub fn candidate_link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The end stations `V_es` in insertion order.
    pub fn end_stations(&self) -> &[NodeId] {
        &self.end_stations
    }

    /// The optional switches `V^c_sw` in insertion order.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// The kind of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this graph.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0].kind
    }

    /// Whether `node` is a switch.
    pub fn is_switch(&self, node: NodeId) -> bool {
        self.kind(node) == NodeKind::Switch
    }

    /// Whether `node` is an end station.
    pub fn is_end_station(&self, node: NodeId) -> bool {
        self.kind(node) == NodeKind::EndStation
    }

    /// The human-readable name of `node`.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// ASIL of an end station, used when deriving link ASILs: always D,
    /// because end-station failures must be safe faults (Section II-C).
    /// Switch ASILs are allocated by the [`Topology`].
    pub fn end_station_asil(&self, _node: NodeId) -> Asil {
        Asil::D
    }

    /// The id of candidate link `(u, v)` if it exists, in either direction.
    pub fn link_between(&self, u: NodeId, v: NodeId) -> Option<LinkId> {
        self.link_lookup.get(&Self::link_key(u, v)).copied()
    }

    /// Endpoints `(a, b)` of a candidate link.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.0];
        (l.a, l.b)
    }

    /// Cable length of a candidate link.
    pub fn link_length(&self, link: LinkId) -> f64 {
        self.links[link.0].length
    }

    /// Candidate neighbors of `node` as `(neighbor, link)` pairs.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.0]
    }

    /// Degree of `node` in the candidate graph.
    pub fn candidate_degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0].len()
    }

    /// All candidate link ids.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId)
    }

    /// Creates an empty topology over this connection graph: end stations
    /// only, no switches or links (the starting point of every NPTSN
    /// exploration episode, Section III).
    pub fn empty_topology(&self) -> Topology {
        Topology::empty(std::sync::Arc::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (ConnectionGraph, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 2.0).unwrap();
        (gc, a, b, s)
    }

    #[test]
    fn nodes_are_partitioned_by_kind() {
        let (gc, a, b, s) = tiny();
        assert_eq!(gc.end_stations(), &[a, b]);
        assert_eq!(gc.switches(), &[s]);
        assert!(gc.is_switch(s));
        assert!(gc.is_end_station(a));
        assert_eq!(gc.node_count(), 3);
    }

    #[test]
    fn link_lookup_is_direction_insensitive() {
        let (gc, a, _, s) = tiny();
        let l = gc.link_between(a, s).unwrap();
        assert_eq!(gc.link_between(s, a), Some(l));
        let (x, y) = gc.link_endpoints(l);
        assert!((x == a && y == s) || (x == s && y == a));
        assert_eq!(gc.link_length(l), 1.0);
    }

    #[test]
    fn duplicate_and_self_loop_links_rejected() {
        let (mut gc, a, b, s) = tiny();
        assert_eq!(gc.add_candidate_link(s, a, 1.0), Err(TopoError::DuplicateLink(s, a)));
        assert_eq!(gc.add_candidate_link(b, b, 1.0), Err(TopoError::SelfLoop(b)));
    }

    #[test]
    fn non_finite_and_negative_lengths_rejected() {
        let (mut gc, a, b, _) = tiny();
        let s1 = gc.add_switch("s1");
        for length in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            let result = gc.add_candidate_link(a, s1, length);
            assert!(matches!(result, Err(TopoError::InvalidLength { .. })), "length {length}");
        }
        assert_eq!(gc.candidate_link_count(), 2);
        assert!(gc.add_candidate_link(b, s1, 0.0).is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut gc, a, ..) = tiny();
        let bogus = NodeId(99);
        assert_eq!(gc.add_candidate_link(a, bogus, 1.0), Err(TopoError::UnknownNode(bogus)));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let (gc, a, _, s) = tiny();
        assert!(gc.neighbors(a).iter().any(|&(n, _)| n == s));
        assert!(gc.neighbors(s).iter().any(|&(n, _)| n == a));
        assert_eq!(gc.candidate_degree(s), 2);
    }

    #[test]
    fn default_degree_limits_match_paper() {
        let gc = ConnectionGraph::new();
        assert_eq!(gc.max_switch_degree(), 8);
        assert_eq!(gc.max_end_station_degree(), 2);
    }
}
