//! Planned TSSDN topologies `Gt` with ASIL allocation.

use std::sync::Arc;

use crate::asil::Asil;
use crate::error::TopoError;
use crate::failure::FailureScenario;
use crate::graph::{ConnectionGraph, LinkId, NodeId};
use crate::library::ComponentLibrary;
use crate::paths::{Adjacency, Path};
use crate::Result;

/// A planned TSSDN topology `Gt`: a subgraph of the connection graph that
/// connects the end stations with a subset of the optional links and
/// switches, plus the ASIL allocated to every selected switch
/// (Section II-A, II-C).
///
/// Link ASILs are *derived*, not stored: the ASIL of link `(u, v)` equals
/// the lowest ASIL of `u` and `v` (Section IV-B). The invariant therefore
/// holds by construction and survives switch upgrades.
///
/// Cloning a topology is cheap-ish (the connection graph is shared through
/// an [`Arc`]); NPTSN clones topologies when exploring and when recording
/// best solutions.
///
/// # Examples
///
/// ```
/// use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let b = gc.add_end_station("b");
/// let s = gc.add_switch("s");
/// gc.add_candidate_link(a, s, 1.0).unwrap();
/// gc.add_candidate_link(b, s, 1.0).unwrap();
///
/// let mut topo = gc.empty_topology();
/// topo.add_switch(s, Asil::A).unwrap();
/// topo.add_link(a, s).unwrap();
/// topo.add_link(b, s).unwrap();
///
/// // Link (a, s) inherits the lowest endpoint ASIL: the ASIL-A switch.
/// let link = topo.connection_graph().link_between(a, s).unwrap();
/// assert_eq!(topo.link_asil(link), Asil::A);
///
/// // Upgrading the switch lifts the link ASIL with it.
/// topo.upgrade_switch(s).unwrap();
/// assert_eq!(topo.link_asil(link), Asil::B);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    gc: Arc<ConnectionGraph>,
    // PartialEq below compares the selection state only (switch ASILs and
    // present links); the remaining fields are derived from it.
    /// Indexed by node index; `None` for end stations and unselected
    /// switches.
    switch_asil: Vec<Option<Asil>>,
    /// Indexed by link index.
    link_present: Vec<bool>,
    degree: Vec<usize>,
    selected_switches: Vec<NodeId>,
    link_count: usize,
}

/// Structural equality: two topologies are equal when they select the same
/// switches at the same ASILs and contain the same links. The connection
/// graphs must have identical node/link layouts for the comparison to be
/// meaningful (always true for topologies over the same problem).
impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        self.switch_asil == other.switch_asil && self.link_present == other.link_present
    }
}

impl Topology {
    /// Creates the empty topology (end stations only) over `gc`.
    pub fn empty(gc: Arc<ConnectionGraph>) -> Topology {
        let n = gc.node_count();
        let m = gc.candidate_link_count();
        Topology {
            gc,
            switch_asil: vec![None; n],
            link_present: vec![false; m],
            degree: vec![0; n],
            selected_switches: Vec::new(),
            link_count: 0,
        }
    }

    /// The underlying connection graph `Gc`.
    pub fn connection_graph(&self) -> &ConnectionGraph {
        &self.gc
    }

    /// Shared handle to the underlying connection graph.
    pub fn connection_graph_arc(&self) -> Arc<ConnectionGraph> {
        Arc::clone(&self.gc)
    }

    /// Adds switch `node` to the topology with the given ASIL.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::NotASwitch`] for end stations,
    /// [`TopoError::UnknownNode`] for out-of-range ids and
    /// [`TopoError::SwitchAlreadySelected`] when already added.
    pub fn add_switch(&mut self, node: NodeId, asil: Asil) -> Result<()> {
        if node.index() >= self.gc.node_count() {
            return Err(TopoError::UnknownNode(node));
        }
        if !self.gc.is_switch(node) {
            return Err(TopoError::NotASwitch(node));
        }
        if self.switch_asil[node.index()].is_some() {
            return Err(TopoError::SwitchAlreadySelected(node));
        }
        self.switch_asil[node.index()] = Some(asil);
        self.selected_switches.push(node);
        self.selected_switches.sort_unstable();
        Ok(())
    }

    /// Raises the ASIL of a selected switch by one level and returns the new
    /// level.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::SwitchNotSelected`] when the switch is not part
    /// of the topology and [`TopoError::AlreadyAtMaxAsil`] for ASIL-D
    /// switches (their upgrade actions are masked out, Section IV-B).
    pub fn upgrade_switch(&mut self, node: NodeId) -> Result<Asil> {
        let current = self
            .switch_asil
            .get(node.index())
            .copied()
            .flatten()
            .ok_or(TopoError::SwitchNotSelected(node))?;
        let next = current.upgraded().ok_or(TopoError::AlreadyAtMaxAsil(node))?;
        self.switch_asil[node.index()] = Some(next);
        Ok(next)
    }

    /// Whether switch `node` has been added to the topology.
    pub fn contains_switch(&self, node: NodeId) -> bool {
        self.switch_asil.get(node.index()).copied().flatten().is_some()
    }

    /// ASIL of a selected switch, or `None` if not selected (or not a
    /// switch).
    pub fn switch_asil(&self, node: NodeId) -> Option<Asil> {
        self.switch_asil.get(node.index()).copied().flatten()
    }

    /// ASIL of any node present in the topology: the allocated ASIL for
    /// selected switches, D for end stations, `None` for unselected
    /// switches.
    pub fn node_asil(&self, node: NodeId) -> Option<Asil> {
        if self.gc.is_end_station(node) {
            Some(self.gc.end_station_asil(node))
        } else {
            self.switch_asil(node)
        }
    }

    /// The selected switches `V^t_sw` in ascending id order.
    pub fn selected_switches(&self) -> &[NodeId] {
        &self.selected_switches
    }

    /// Adds the candidate link between `u` and `v` to the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::UnknownLink`] when `(u, v)` is not a candidate
    /// connection, [`TopoError::EndpointNotSelected`] when an endpoint is an
    /// unselected switch, [`TopoError::DuplicateLink`] when already present
    /// and [`TopoError::DegreeExceeded`] when a degree constraint would be
    /// violated.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> Result<LinkId> {
        let link = self.gc.link_between(u, v).ok_or(TopoError::UnknownLink(u, v))?;
        self.add_hop(u, v, link)
    }

    /// [`add_link`](Topology::add_link) for `link`, the candidate link
    /// joining `u` and `v`.
    fn add_hop(&mut self, u: NodeId, v: NodeId, link: LinkId) -> Result<LinkId> {
        for endpoint in [u, v] {
            if self.gc.is_switch(endpoint) && !self.contains_switch(endpoint) {
                return Err(TopoError::EndpointNotSelected(endpoint));
            }
        }
        if self.link_present[link.index()] {
            return Err(TopoError::DuplicateLink(u, v));
        }
        for endpoint in [u, v] {
            let max = self.gc.max_degree(endpoint);
            if self.degree[endpoint.index()] + 1 > max {
                return Err(TopoError::DegreeExceeded { node: endpoint, max_degree: max });
            }
        }
        self.link_present[link.index()] = true;
        self.degree[u.index()] += 1;
        self.degree[v.index()] += 1;
        self.link_count += 1;
        Ok(link)
    }

    /// Whether the candidate link is part of the topology.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.link_present.get(link.index()).copied().unwrap_or(false)
    }

    /// Degree of `node` in the topology.
    pub fn degree(&self, node: NodeId) -> usize {
        self.degree[node.index()]
    }

    /// Number of links in the topology `|E^t|`.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// All links present in the topology.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.link_present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| LinkId(i))
    }

    /// ASIL of a topology link: the lowest ASIL of its endpoints
    /// (Section IV-B).
    ///
    /// # Panics
    ///
    /// Panics if the link is not part of the topology (its endpoints would
    /// have no ASIL). Use [`try_link_asil`](Topology::try_link_asil) when
    /// the link may come from untrusted input.
    pub fn link_asil(&self, link: LinkId) -> Asil {
        self.try_link_asil(link).expect("link endpoint without ASIL")
    }

    /// Fallible variant of [`link_asil`](Topology::link_asil).
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::EndpointNotSelected`] if an endpoint of `link`
    /// is a switch outside the topology (so it has no ASIL).
    pub fn try_link_asil(&self, link: LinkId) -> Result<Asil> {
        let (u, v) = self.gc.link_endpoints(link);
        let au = self.node_asil(u).ok_or(TopoError::EndpointNotSelected(u))?;
        let av = self.node_asil(v).ok_or(TopoError::EndpointNotSelected(v))?;
        Ok(au.min(av))
    }

    /// Checks whether `path` could be added without violating degree
    /// constraints; only links not already present count towards degrees.
    ///
    /// Intermediate switches must already be selected (paths can only
    /// traverse previously added switches, Section IV-B); if one is not, the
    /// path is not addable.
    pub fn can_add_path(&self, path: &Path) -> bool {
        for &node in path.nodes() {
            if self.gc.is_switch(node) && !self.contains_switch(node) {
                return false;
            }
        }
        let mut delta: Vec<(NodeId, usize)> = Vec::with_capacity(path.nodes().len());
        let bump = |node: NodeId, delta: &mut Vec<(NodeId, usize)>| {
            if let Some(entry) = delta.iter_mut().find(|(n, _)| *n == node) {
                entry.1 += 1;
            } else {
                delta.push((node, 1));
            }
        };
        for ((u, v), &link) in path.edges().zip(path.links()) {
            if !self.link_present[link.index()] {
                bump(u, &mut delta);
                bump(v, &mut delta);
            }
        }
        delta
            .iter()
            .all(|&(node, d)| self.degree[node.index()] + d <= self.gc.max_degree(node))
    }

    /// Adds every missing link along `path`, returning how many links were
    /// new.
    ///
    /// # Errors
    ///
    /// Fails with the first underlying [`add_link`](Topology::add_link)
    /// error; on failure the topology may have been partially extended, so
    /// callers that need atomicity should check
    /// [`can_add_path`](Topology::can_add_path) first (SOAG masks guarantee
    /// this for RL actions).
    pub fn add_path(&mut self, path: &Path) -> Result<usize> {
        let mut added = 0;
        for ((u, v), &link) in path.edges().zip(path.links()) {
            if !self.link_present[link.index()] {
                self.add_hop(u, v, link)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Total network cost (Eq. 1): the sum of switch costs
    /// `csw(deg(v), ASIL_v)` and link costs `clk(ASIL_uv, len(u, v))`.
    ///
    /// End stations are defined by the applications and do not contribute.
    ///
    /// # Panics
    ///
    /// Panics if a switch degree exceeds every model in the library
    /// (prevented by the degree constraints when the library's
    /// [`max_switch_degree`](ComponentLibrary::max_switch_degree) is used).
    /// Use [`try_network_cost`](Topology::try_network_cost) when the
    /// topology may come from untrusted input.
    pub fn network_cost(&self, library: &ComponentLibrary) -> f64 {
        self.try_network_cost(library)
            .expect("switch degree exceeds the component library")
    }

    /// Fallible variant of [`network_cost`](Topology::network_cost).
    pub fn try_network_cost(&self, library: &ComponentLibrary) -> Result<f64> {
        let mut cost = 0.0;
        for &sw in &self.selected_switches {
            let asil =
                self.switch_asil[sw.index()].ok_or(TopoError::SwitchNotSelected(sw))?;
            cost += library.switch_cost(self.degree[sw.index()], asil)?;
        }
        for link in self.links() {
            cost += library.link_cost(self.try_link_asil(link)?, self.gc.link_length(link));
        }
        Ok(cost)
    }

    /// Probability of failure scenario `Gf` (Eq. 2): the product of the
    /// component failure probabilities of every failed switch and link.
    ///
    /// # Panics
    ///
    /// Panics if the scenario references a switch outside the topology. Use
    /// [`try_failure_probability`](Topology::try_failure_probability) when
    /// the scenario may come from untrusted input.
    pub fn failure_probability(&self, failure: &FailureScenario) -> f64 {
        self.try_failure_probability(failure).expect("failed switch is selected")
    }

    /// Fallible variant of
    /// [`failure_probability`](Topology::failure_probability).
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::SwitchNotSelected`] if the scenario fails a
    /// switch outside the topology, or
    /// [`TopoError::EndpointNotSelected`] if it fails a link with an
    /// unselected endpoint.
    pub fn try_failure_probability(&self, failure: &FailureScenario) -> Result<f64> {
        let mut p = 1.0;
        for &sw in failure.failed_switches() {
            let asil = self.switch_asil(sw).ok_or(TopoError::SwitchNotSelected(sw))?;
            p *= asil.failure_probability();
        }
        for &link in failure.failed_links() {
            p *= self.try_link_asil(link)?.failure_probability();
        }
        Ok(p)
    }

    /// A 128-bit fingerprint of the selection state (switch ASILs and
    /// present links) — the same fields [`PartialEq`] compares, so equal
    /// topologies always have equal fingerprints.
    ///
    /// The failure analyzer keys its NBF-outcome cache on this value:
    /// mutating the topology (adding a switch or link, upgrading an ASIL)
    /// changes the fingerprint, so stale entries are never read back.
    /// Two FNV-1a streams with independent offsets/primes make accidental
    /// collisions (~2^-128 per pair) negligible even across long runs.
    pub fn fingerprint(&self) -> u128 {
        // FNV-1a, two independent 64-bit streams.
        let mut lo: u64 = 0xcbf2_9ce4_8422_2325;
        let mut hi: u64 = 0x6c62_272e_07bb_0142;
        let mut mix = |byte: u8| {
            lo = (lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            hi = (hi ^ u64::from(byte).rotate_left(17)).wrapping_mul(0x0000_01b3_0000_0193);
        };
        for asil in &self.switch_asil {
            mix(match asil {
                None => 0,
                Some(a) => 1 + *a as u8,
            });
        }
        for &present in &self.link_present {
            mix(u8::from(present));
        }
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// Adjacency of the active topology: for every node, its `(neighbor,
    /// link, length)` triples over present links.
    pub fn adjacency(&self) -> Adjacency {
        self.residual_adjacency(&FailureScenario::none())
    }

    /// The links alive under `failure`, ascending: present in the topology,
    /// not failed, and without a failed endpoint (a failed node disables
    /// every link attached to it, Section II-A). They are the links of
    /// [`residual_adjacency`](Topology::residual_adjacency).
    pub fn live_links<'a>(
        &'a self,
        failure: &'a FailureScenario,
    ) -> impl Iterator<Item = LinkId> + 'a {
        self.links().filter(move |&link| !self.kills(failure, link))
    }

    /// The links `failure` kills, ascending: present in the topology, and
    /// failed or with a failed endpoint. They are the present links that
    /// are not [`live_links`](Topology::live_links).
    pub fn dead_links<'a>(
        &'a self,
        failure: &'a FailureScenario,
    ) -> impl Iterator<Item = LinkId> + 'a {
        self.links().filter(move |&link| self.kills(failure, link))
    }

    /// The link joining `u` and `v` if it is alive under `failure`: a
    /// candidate link present in the topology, not failed, and without a
    /// failed endpoint. It is one of the [`live_links`](Topology::live_links).
    pub fn live_link(&self, failure: &FailureScenario, u: NodeId, v: NodeId) -> Option<LinkId> {
        let link = self.gc.link_between(u, v)?;
        (self.contains_link(link) && !self.kills(failure, link)).then_some(link)
    }

    /// Whether `failure` fails `link` or one of its endpoints.
    fn kills(&self, failure: &FailureScenario, link: LinkId) -> bool {
        let (u, v) = self.gc.link_endpoints(link);
        failure.contains_link(link) || failure.contains_switch(u) || failure.contains_switch(v)
    }

    /// Adjacency of the residual network under `failure`: its
    /// [`live_links`](Topology::live_links), in that order, so topologies
    /// with the same live links give the same adjacency.
    pub fn residual_adjacency(&self, failure: &FailureScenario) -> Adjacency {
        let n = self.gc.node_count();
        let mut adj: Adjacency = vec![Vec::new(); n];
        for link in self.live_links(failure) {
            let (u, v) = self.gc.link_endpoints(link);
            let len = self.gc.link_length(link);
            adj[u.index()].push((v, link, len));
            adj[v.index()].push((u, link, len));
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConnectionGraph;

    /// a - s0 - s1 - b plus a direct a - s1 chord.
    fn diamondish() -> (Arc<ConnectionGraph>, NodeId, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        gc.add_candidate_link(a, s0, 1.0).unwrap();
        gc.add_candidate_link(s0, s1, 1.0).unwrap();
        gc.add_candidate_link(s1, b, 1.0).unwrap();
        gc.add_candidate_link(a, s1, 2.0).unwrap();
        (Arc::new(gc), a, b, s0, s1)
    }

    #[test]
    fn empty_topology_has_no_cost() {
        let (gc, ..) = diamondish();
        let topo = Topology::empty(gc);
        assert_eq!(topo.network_cost(&ComponentLibrary::automotive()), 0.0);
        assert_eq!(topo.link_count(), 0);
        assert!(topo.selected_switches().is_empty());
    }

    #[test]
    fn add_switch_rejects_end_stations_and_duplicates() {
        let (gc, a, _, s0, _) = diamondish();
        let mut topo = Topology::empty(gc);
        assert_eq!(topo.add_switch(a, Asil::A), Err(TopoError::NotASwitch(a)));
        topo.add_switch(s0, Asil::A).unwrap();
        assert_eq!(topo.add_switch(s0, Asil::B), Err(TopoError::SwitchAlreadySelected(s0)));
    }

    #[test]
    fn link_requires_selected_endpoints() {
        let (gc, a, _, s0, _) = diamondish();
        let mut topo = Topology::empty(gc);
        assert_eq!(topo.add_link(a, s0), Err(TopoError::EndpointNotSelected(s0)));
        topo.add_switch(s0, Asil::A).unwrap();
        let link = topo.add_link(a, s0).unwrap();
        assert!(topo.contains_link(link));
    }

    #[test]
    fn link_asil_is_min_of_endpoints_and_follows_upgrades() {
        let (gc, a, _, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::C).unwrap();
        topo.add_link(a, s0).unwrap();
        topo.add_link(s0, s1).unwrap();

        let es_link = gc.link_between(a, s0).unwrap();
        let sw_link = gc.link_between(s0, s1).unwrap();
        // ES is ASIL-D, switch is A -> link is A.
        assert_eq!(topo.link_asil(es_link), Asil::A);
        // min(A, C) = A.
        assert_eq!(topo.link_asil(sw_link), Asil::A);

        topo.upgrade_switch(s0).unwrap(); // A -> B
        assert_eq!(topo.link_asil(es_link), Asil::B);
        assert_eq!(topo.link_asil(sw_link), Asil::B);
        topo.upgrade_switch(s0).unwrap(); // B -> C
        topo.upgrade_switch(s0).unwrap(); // C -> D
        assert_eq!(topo.upgrade_switch(s0), Err(TopoError::AlreadyAtMaxAsil(s0)));
        // min(D, C) = C.
        assert_eq!(topo.link_asil(sw_link), Asil::C);
    }

    #[test]
    fn degree_constraint_enforced_for_end_stations() {
        let (gc, a, _, s0, s1) = diamondish();
        let mut topo = Topology::empty(gc);
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        topo.add_link(a, s0).unwrap();
        topo.add_link(a, s1).unwrap();
        // Max ES degree is 2: a third link at `a` must fail even if it were
        // a candidate; simulate by lowering the limit instead.
        let mut gc2 = ConnectionGraph::new();
        gc2.set_max_end_station_degree(1);
        let x = gc2.add_end_station("x");
        let t0 = gc2.add_switch("t0");
        let t1 = gc2.add_switch("t1");
        gc2.add_candidate_link(x, t0, 1.0).unwrap();
        gc2.add_candidate_link(x, t1, 1.0).unwrap();
        let mut topo2 = gc2.empty_topology();
        topo2.add_switch(t0, Asil::A).unwrap();
        topo2.add_switch(t1, Asil::A).unwrap();
        topo2.add_link(x, t0).unwrap();
        assert_eq!(
            topo2.add_link(x, t1),
            Err(TopoError::DegreeExceeded { node: x, max_degree: 1 })
        );
    }

    #[test]
    fn network_cost_matches_table_i_by_hand() {
        let (gc, a, b, s0, s1) = diamondish();
        let lib = ComponentLibrary::automotive();
        let mut topo = Topology::empty(gc);
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::B).unwrap();
        topo.add_link(a, s0).unwrap(); // len 1, ASIL A -> 1
        topo.add_link(s0, s1).unwrap(); // len 1, min(A, B) = A -> 1
        topo.add_link(s1, b).unwrap(); // len 1, ASIL B -> 2
        // s0: degree 2, ASIL A -> 8 (4-port). s1: degree 2, ASIL B -> 12.
        assert_eq!(topo.network_cost(&lib), 8.0 + 12.0 + 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn path_addition_respects_existing_links() {
        let (gc, a, b, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        topo.add_link(a, s0).unwrap();
        let path = Path::new(&gc, vec![a, s0, s1, b]);
        assert!(topo.can_add_path(&path));
        let added = topo.add_path(&path).unwrap();
        assert_eq!(added, 2); // (a, s0) already present
        assert_eq!(topo.link_count(), 3);
        // Re-adding is a no-op.
        assert_eq!(topo.add_path(&path).unwrap(), 0);
    }

    #[test]
    fn path_through_unselected_switch_is_not_addable() {
        let (gc, a, b, _, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s1, Asil::A).unwrap();
        // Path through s0, which is unselected.
        let through_s0 = Path::new(&gc, vec![a, NodeId(2), s1, b]);
        assert!(!topo.can_add_path(&through_s0));
        // Direct path via the chord is fine.
        let direct = Path::new(&gc, vec![a, s1, b]);
        assert!(topo.can_add_path(&direct));
    }

    #[test]
    fn failure_probability_is_product_of_components() {
        let (gc, a, _, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::B).unwrap();
        topo.add_link(a, s0).unwrap();
        topo.add_link(s0, s1).unwrap();

        let f = FailureScenario::switches(vec![s0, s1]);
        let expect = Asil::A.failure_probability() * Asil::B.failure_probability();
        assert!((topo.failure_probability(&f) - expect).abs() < 1e-15);

        let link = gc.link_between(s0, s1).unwrap();
        let f2 = FailureScenario::new(vec![], vec![link]);
        // Link ASIL = min(A, B) = A.
        assert!((topo.failure_probability(&f2) - Asil::A.failure_probability()).abs() < 1e-15);
    }

    #[test]
    fn fingerprint_tracks_selection_state() {
        let (gc, a, b, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        let empty = topo.fingerprint();
        assert_eq!(empty, Topology::empty(Arc::clone(&gc)).fingerprint());

        topo.add_switch(s0, Asil::A).unwrap();
        let with_s0 = topo.fingerprint();
        assert_ne!(empty, with_s0);
        topo.upgrade_switch(s0).unwrap();
        assert_ne!(with_s0, topo.fingerprint(), "ASIL upgrades change the fingerprint");
        topo.add_link(a, s0).unwrap();
        let with_link = topo.fingerprint();
        assert_ne!(topo.fingerprint(), with_s0);

        // Equal selection states agree regardless of construction order.
        let mut twin = Topology::empty(Arc::clone(&gc));
        twin.add_switch(s0, Asil::B).unwrap();
        twin.add_link(a, s0).unwrap();
        assert_eq!(twin, topo);
        assert_eq!(twin.fingerprint(), with_link);

        // And selecting a different component diverges.
        let mut other = Topology::empty(gc);
        other.add_switch(s1, Asil::B).unwrap();
        other.add_link(b, s1).unwrap();
        assert_ne!(other.fingerprint(), with_link);
    }

    #[test]
    fn residual_adjacency_removes_failed_switch_links() {
        let (gc, a, b, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        topo.add_path(&Path::new(&gc, vec![a, s0, s1, b])).unwrap();

        let adj = topo.residual_adjacency(&FailureScenario::switches(vec![s0]));
        assert!(adj[a.index()].is_empty(), "links attached to s0 must vanish");
        assert_eq!(adj[s1.index()].len(), 1); // only (s1, b) remains
    }

    #[test]
    fn live_link_is_a_present_link_that_the_failure_spares() {
        let (gc, a, b, s0, s1) = diamondish();
        let mut topo = Topology::empty(Arc::clone(&gc));
        topo.add_switch(s0, Asil::A).unwrap();
        topo.add_switch(s1, Asil::A).unwrap();
        topo.add_path(&Path::new(&gc, vec![a, s0, s1, b])).unwrap();
        let (a_s0, s1_b) = (gc.link_between(a, s0).unwrap(), gc.link_between(s1, b).unwrap());
        let none = FailureScenario::none();
        assert_eq!(topo.live_link(&none, a, s0), Some(a_s0));
        assert_eq!(topo.live_link(&none, s0, a), Some(a_s0));
        assert_eq!(topo.live_link(&none, a, s1), None, "a candidate the topology lacks");
        assert_eq!(topo.live_link(&none, a, b), None, "not a candidate");
        let failed_s0 = FailureScenario::switches(vec![s0]);
        assert_eq!(topo.live_link(&failed_s0, s0, s1), None, "a failed endpoint");
        assert_eq!(topo.live_link(&failed_s0, s1, b), Some(s1_b));
        assert_eq!(topo.live_link(&FailureScenario::links(vec![s1_b]), b, s1), None);
        // The same rule as `live_links`, for every failure of one component.
        let failures = gc
            .nodes()
            .map(|n| FailureScenario::switches(vec![n]))
            .chain(gc.links().map(|l| FailureScenario::links(vec![l])));
        for failure in failures {
            let one_by_one: Vec<LinkId> = gc
                .links()
                .filter_map(|l| {
                    let (u, v) = gc.link_endpoints(l);
                    topo.live_link(&failure, u, v)
                })
                .collect();
            assert_eq!(one_by_one, topo.live_links(&failure).collect::<Vec<_>>(), "{failure}");
        }
    }
}
