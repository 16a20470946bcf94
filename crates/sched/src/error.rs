//! Error type for scheduling operations.

use std::error::Error;
use std::fmt;

use nptsn_topo::NodeId;

/// Errors returned by flow-set construction and schedule validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A flow's period does not divide the base period, so its repetitions
    /// cannot be laid out on the TAS cycle.
    PeriodNotDivisor {
        /// The offending flow period in microseconds.
        period_us: u64,
        /// The base period in microseconds.
        base_period_us: u64,
    },
    /// The slot count is not divisible by the flow's repetitions per base
    /// period, so release windows would not be slot-aligned.
    SlotsNotDivisible {
        /// Slots per base period.
        slots: usize,
        /// Transmissions of the flow per base period.
        repetitions: usize,
    },
    /// A frame does not fit into a single time slot at the configured
    /// bandwidth.
    FrameTooLarge {
        /// Frame size in bytes.
        frame_bytes: u32,
        /// Slot capacity in bytes.
        slot_capacity_bytes: u32,
    },
    /// A flow's source equals its destination.
    DegenerateFlow(NodeId),
    /// A flow period of zero microseconds.
    ZeroPeriod,
    /// An empty flow set (network planning needs at least one flow).
    NoFlows,
    /// TAS parameters that do not form a cycle of uniform slots: a zero
    /// slot count, base period or bandwidth, or a base period not
    /// divisible into the slots.
    InvalidTas(String),
    /// A flow state refers to a slot outside the TAS cycle or a path edge
    /// missing from the topology; produced by validation only.
    InvalidState(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::PeriodNotDivisor { period_us, base_period_us } => write!(
                f,
                "flow period {period_us} us does not divide the base period {base_period_us} us"
            ),
            SchedError::SlotsNotDivisible { slots, repetitions } => write!(
                f,
                "{slots} slots cannot be split into {repetitions} equal release windows"
            ),
            SchedError::FrameTooLarge { frame_bytes, slot_capacity_bytes } => write!(
                f,
                "frame of {frame_bytes} bytes exceeds the slot capacity of {slot_capacity_bytes} bytes"
            ),
            SchedError::DegenerateFlow(n) => {
                write!(f, "flow source and destination are both {n}")
            }
            SchedError::ZeroPeriod => f.write_str("flow period must be positive"),
            SchedError::NoFlows => f.write_str("flow set is empty"),
            SchedError::InvalidTas(msg) => write!(f, "invalid TAS configuration: {msg}"),
            SchedError::InvalidState(msg) => write!(f, "invalid flow state: {msg}"),
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
trait NodeIdTestExt {
    fn default_for_tests() -> NodeId;
}

#[cfg(test)]
impl NodeIdTestExt for NodeId {
    fn default_for_tests() -> NodeId {
        // Build a NodeId through the public API.
        let mut gc = nptsn_topo::ConnectionGraph::new();
        gc.add_end_station("t")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors = [
            SchedError::PeriodNotDivisor { period_us: 300, base_period_us: 500 },
            SchedError::SlotsNotDivisible { slots: 20, repetitions: 3 },
            SchedError::FrameTooLarge { frame_bytes: 9000, slot_capacity_bytes: 3125 },
            SchedError::DegenerateFlow(NodeId::default_for_tests()),
            SchedError::ZeroPeriod,
            SchedError::NoFlows,
            SchedError::InvalidTas("x".into()),
            SchedError::InvalidState("x".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
