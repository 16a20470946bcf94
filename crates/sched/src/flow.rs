//! Time-triggered flow specifications and recovery error reports.

use std::fmt;

use nptsn_topo::NodeId;

use crate::error::SchedError;
use crate::Result;

/// Identifier of a flow within a [`FlowSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) usize);

impl FlowId {
    /// Builds a flow id from a raw index. Intended for doc examples and
    /// tools; regular code receives ids from [`FlowSet::iter`].
    pub fn from_index(index: usize) -> FlowId {
        FlowId(index)
    }

    /// The dense index of this flow (`0 .. flow_set.len()`).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Specification of one periodic unicast TT flow: source, destination,
/// period and frame size (Section II-A).
///
/// The deadline equals the period, as in the paper's evaluation; every
/// frame must traverse its full path within its release window.
///
/// # Examples
///
/// ```
/// use nptsn_sched::FlowSpec;
/// use nptsn_topo::ConnectionGraph;
///
/// let mut gc = ConnectionGraph::new();
/// let cam = gc.add_end_station("camera");
/// let ecu = gc.add_end_station("ecu");
/// let flow = FlowSpec::new(cam, ecu, 500, 1024);
/// assert_eq!(flow.period_us(), 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    source: NodeId,
    destination: NodeId,
    period_us: u64,
    frame_bytes: u32,
}

impl FlowSpec {
    /// Creates a flow specification.
    pub fn new(source: NodeId, destination: NodeId, period_us: u64, frame_bytes: u32) -> FlowSpec {
        FlowSpec { source, destination, period_us, frame_bytes }
    }

    /// Source end station.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Destination end station.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// Flow period (and deadline) in microseconds.
    pub fn period_us(&self) -> u64 {
        self.period_us
    }

    /// Frame size in bytes.
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }

    /// The `(source, destination)` pair, as reported in error messages.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.source, self.destination)
    }
}

/// The specification `FS` of all TT flows in the network.
///
/// Assumed constant from the beginning of the network's life: safety-
/// critical applications in vehicles seldom change at run time
/// (Section II-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSet {
    flows: Vec<FlowSpec>,
}

impl FlowSet {
    /// Creates a flow set.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoFlows`] for an empty list,
    /// [`SchedError::DegenerateFlow`] when a flow's source equals its
    /// destination and [`SchedError::ZeroPeriod`] for zero periods.
    pub fn new(flows: Vec<FlowSpec>) -> Result<FlowSet> {
        if flows.is_empty() {
            return Err(SchedError::NoFlows);
        }
        for f in &flows {
            if f.source == f.destination {
                return Err(SchedError::DegenerateFlow(f.source));
            }
            if f.period_us == 0 {
                return Err(SchedError::ZeroPeriod);
            }
        }
        Ok(FlowSet { flows })
    }

    /// Number of flows `|FS|`.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The specification of `flow`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range flow ids.
    pub fn spec(&self, flow: FlowId) -> &FlowSpec {
        &self.flows[flow.0]
    }

    /// Iterate over `(id, spec)` pairs in id order — the deterministic
    /// recovery order used by the built-in NBFs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowSpec)> {
        self.flows.iter().enumerate().map(|(i, f)| (FlowId(i), f))
    }

    /// All flow specifications in id order.
    pub fn specs(&self) -> &[FlowSpec] {
        &self.flows
    }
}

/// The error message `ER` produced by a Network Behavior Function: the
/// source/destination pairs whose bandwidth and timing guarantees could not
/// be re-established (Section II-B). Empty iff recovery succeeded.
///
/// TSSDN propagates these pairs to the applications for system-level
/// service degradation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorReport {
    pairs: Vec<(NodeId, NodeId)>,
}

impl ErrorReport {
    /// An empty report (recovery succeeded).
    pub fn empty() -> ErrorReport {
        ErrorReport::default()
    }

    /// Records a failed `(source, destination)` pair; duplicates are kept
    /// out and the list stays sorted.
    pub fn record(&mut self, source: NodeId, destination: NodeId) {
        let pair = (source, destination);
        if let Err(pos) = self.pairs.binary_search(&pair) {
            self.pairs.insert(pos, pair);
        }
    }

    /// The failed pairs, sorted.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Whether recovery succeeded for every flow.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of failed pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }
}

impl fmt::Display for ErrorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pairs.is_empty() {
            return f.write_str("recovery ok");
        }
        write!(f, "unrecovered pairs: ")?;
        for (i, (s, d)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "({s} -> {d})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::ConnectionGraph;

    fn nodes() -> (NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        (gc.add_end_station("a"), gc.add_end_station("b"), gc.add_end_station("c"))
    }

    #[test]
    fn flow_set_validation() {
        let (a, b, _) = nodes();
        assert_eq!(FlowSet::new(vec![]), Err(SchedError::NoFlows));
        assert_eq!(
            FlowSet::new(vec![FlowSpec::new(a, a, 500, 64)]),
            Err(SchedError::DegenerateFlow(a))
        );
        assert_eq!(
            FlowSet::new(vec![FlowSpec::new(a, b, 0, 64)]),
            Err(SchedError::ZeroPeriod)
        );
        let ok = FlowSet::new(vec![FlowSpec::new(a, b, 500, 64)]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn iter_is_in_id_order() {
        let (a, b, c) = nodes();
        let fs =
            FlowSet::new(vec![FlowSpec::new(a, b, 500, 64), FlowSpec::new(b, c, 500, 64)]).unwrap();
        let ids: Vec<usize> = fs.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(fs.spec(FlowId(1)).endpoints(), (b, c));
    }

    #[test]
    fn error_report_dedups_and_sorts() {
        let (a, b, c) = nodes();
        let mut er = ErrorReport::empty();
        assert!(er.is_empty());
        er.record(b, c);
        er.record(a, b);
        er.record(b, c);
        assert_eq!(er.len(), 2);
        assert_eq!(er.pairs(), &[(a, b), (b, c)]);
        assert!(!er.is_empty());
        assert!(er.to_string().contains("->"));
        assert_eq!(ErrorReport::empty().to_string(), "recovery ok");
    }
}
