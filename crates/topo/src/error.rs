//! Error type for topology operations.

use std::error::Error;
use std::fmt;

use crate::graph::NodeId;

/// Errors returned by graph and topology operations.
///
/// # Examples
///
/// ```
/// use nptsn_topo::{ConnectionGraph, TopoError};
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// // Self-loops are rejected.
/// assert!(matches!(
///     gc.add_candidate_link(a, a, 1.0),
///     Err(TopoError::SelfLoop(_))
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TopoError {
    /// A node id referenced a node that does not exist in the graph.
    UnknownNode(NodeId),
    /// The requested link is not part of the candidate connection set `Ec`.
    UnknownLink(NodeId, NodeId),
    /// Attempted to add a link from a node to itself.
    SelfLoop(NodeId),
    /// Attempted to add a link that already exists.
    DuplicateLink(NodeId, NodeId),
    /// A candidate link's length is negative, infinite or NaN; the path
    /// searches need finite, non-negative lengths.
    InvalidLength {
        /// One endpoint of the link.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The rejected length.
        length: f64,
    },
    /// The operation requires a switch but the node is an end station.
    NotASwitch(NodeId),
    /// The switch has not been added to the topology.
    SwitchNotSelected(NodeId),
    /// The switch is already part of the topology.
    SwitchAlreadySelected(NodeId),
    /// The switch is already at ASIL D and cannot be upgraded further.
    AlreadyAtMaxAsil(NodeId),
    /// Adding the link would exceed a node's maximum degree.
    DegreeExceeded {
        /// The node whose degree constraint would be violated.
        node: NodeId,
        /// The maximum degree allowed for this node.
        max_degree: usize,
    },
    /// A link endpoint is a switch that has not been selected yet.
    EndpointNotSelected(NodeId),
    /// The component library has no switch model with enough ports.
    NoSwitchModel {
        /// The degree that could not be accommodated.
        degree: usize,
    },
    /// A path was constructed from an empty node sequence.
    EmptyPath,
    /// A path revisited a node (paths are loopless).
    RepeatedNode(NodeId),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopoError::UnknownLink(u, v) => {
                write!(f, "link ({u}, {v}) is not a candidate connection")
            }
            TopoError::SelfLoop(n) => write!(f, "self-loop at node {n} is not allowed"),
            TopoError::DuplicateLink(u, v) => write!(f, "link ({u}, {v}) already exists"),
            TopoError::InvalidLength { u, v, length } => write!(
                f,
                "link ({u}, {v}) has length {length}; lengths must be finite and non-negative"
            ),
            TopoError::NotASwitch(n) => write!(f, "node {n} is not a switch"),
            TopoError::SwitchNotSelected(n) => {
                write!(f, "switch {n} has not been added to the topology")
            }
            TopoError::SwitchAlreadySelected(n) => {
                write!(f, "switch {n} is already part of the topology")
            }
            TopoError::AlreadyAtMaxAsil(n) => {
                write!(f, "switch {n} is already at ASIL D")
            }
            TopoError::DegreeExceeded { node, max_degree } => {
                write!(f, "adding the link would exceed degree {max_degree} at node {node}")
            }
            TopoError::EndpointNotSelected(n) => {
                write!(f, "link endpoint {n} is a switch outside the topology")
            }
            TopoError::NoSwitchModel { degree } => {
                write!(f, "component library has no switch with at least {degree} ports")
            }
            TopoError::EmptyPath => f.write_str("a path needs at least one node"),
            TopoError::RepeatedNode(n) => {
                write!(f, "paths are loopless but {n} appears twice")
            }
        }
    }
}

impl Error for TopoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            TopoError::UnknownNode(NodeId(0)),
            TopoError::UnknownLink(NodeId(0), NodeId(1)),
            TopoError::SelfLoop(NodeId(2)),
            TopoError::DuplicateLink(NodeId(0), NodeId(1)),
            TopoError::InvalidLength { u: NodeId(0), v: NodeId(1), length: f64::NAN },
            TopoError::NotASwitch(NodeId(3)),
            TopoError::SwitchNotSelected(NodeId(4)),
            TopoError::SwitchAlreadySelected(NodeId(4)),
            TopoError::AlreadyAtMaxAsil(NodeId(4)),
            TopoError::DegreeExceeded { node: NodeId(1), max_degree: 8 },
            TopoError::EmptyPath,
            TopoError::RepeatedNode(NodeId(5)),
            TopoError::EndpointNotSelected(NodeId(5)),
            TopoError::NoSwitchModel { degree: 12 },
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopoError>();
    }
}
