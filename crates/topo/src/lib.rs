//! Graph, component-library, ASIL and failure model for in-vehicle TSSDN
//! network planning.
//!
//! This crate implements the system model of Section II of the NPTSN paper
//! (DSN 2023):
//!
//! * [`ConnectionGraph`] — the undirected graph of *possible* connections
//!   `Gc` handed to the network planner, containing the end stations to
//!   connect and the optional switches/links.
//! * [`Topology`] — a planned TSSDN topology `Gt` (a subgraph of `Gc`)
//!   together with the ASIL allocated to every selected switch. Link ASILs
//!   are derived: the ASIL of link `(u, v)` always equals the lowest ASIL of
//!   its endpoints (Section IV-B), an invariant maintained by construction.
//! * [`Asil`] and [`ComponentLibrary`] — Automotive Safety Integrity Levels
//!   and the cost/failure-probability tables of Table I.
//! * [`FailureScenario`] — a failure `Gf` (failed switches and links).
//! * Path algorithms — BFS, Dijkstra, Yen's K-shortest paths and
//!   node-disjoint path search, used by the SOAG action generator, the
//!   recovery scheduler and the TRH baseline. Every [`Path`] carries the
//!   [`LinkId`] of each hop: a search records it from the adjacency rows
//!   it walks, and a node sequence from outside a search is resolved
//!   against the connection graph once ([`Path::new`]). So the scheduler,
//!   the SOAG mask and [`Topology::add_path`] never look a hop up again.
//!
//! # Examples
//!
//! ```
//! use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph};
//!
//! let mut gc = ConnectionGraph::new();
//! let es_a = gc.add_end_station("cam");
//! let es_b = gc.add_end_station("ecu");
//! let sw = gc.add_switch("sw0");
//! gc.add_candidate_link(es_a, sw, 1.0).unwrap();
//! gc.add_candidate_link(es_b, sw, 1.0).unwrap();
//!
//! let lib = ComponentLibrary::automotive();
//! let mut topo = gc.empty_topology();
//! topo.add_switch(sw, Asil::A).unwrap();
//! topo.add_link(es_a, sw).unwrap();
//! topo.add_link(es_b, sw).unwrap();
//! assert!(topo.network_cost(&lib) > 0.0);
//! ```

#![warn(missing_docs)]

mod asil;
mod error;
mod failure;
mod graph;
mod library;
mod paths;
mod topology;

pub use asil::Asil;
pub use error::TopoError;
pub use failure::FailureScenario;
pub use graph::{ConnectionGraph, LinkId, NodeId, NodeKind};
pub use library::{ComponentLibrary, SwitchModel};
pub use paths::{
    bfs_distances, dijkstra_shortest_path, k_shortest_paths, node_disjoint_paths, shortest_paths,
    Path, ShortestPaths,
};
pub use topology::Topology;

/// Result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, TopoError>;
