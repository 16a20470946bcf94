//! Interchange formats of the NPTSN toolchain, shared by the command-line
//! front end (`nptsn-cli`) and the planning service (`nptsn-serve`):
//!
//! * [`parse_problem`] — the `.tssdn` problem file format (see the format
//!   reference below);
//! * [`parse_plan`] / [`write_plan`] — plan files (a topology plus ASIL
//!   allocation);
//! * [`json`] — a minimal JSON writer plus the machine-readable
//!   serializations of analyzer and planner reports (the `nptsn verify
//!   --json` output and the service's response bodies).
//!
//! # The `.tssdn` problem format
//!
//! A line-oriented text format describing one planning problem. Sections
//! start with a `[name]` header; `#` starts a comment; blank lines are
//! ignored.
//!
//! ```text
//! # A tiny in-vehicle network.
//! [tas]
//! base_period_us = 500
//! slots = 20
//! bandwidth_mbps = 1000
//!
//! [reliability]
//! goal = 1e-6
//!
//! [nodes]            # kind name
//! es camera
//! es ecu
//! sw sw0
//! sw sw1
//!
//! [links]            # u v length
//! camera sw0 1.0
//! camera sw1 1.0
//! ecu sw0 1.0
//! ecu sw1 1.0
//! sw0 sw1 1.0
//!
//! [flows]            # source destination period_us frame_bytes
//! camera ecu 500 256
//! ```
//!
//! The component library defaults to Table I (`automotive`); a
//! `[library]` section with `combine_rounds = N` (at most
//! [`MAX_COMBINE_ROUNDS`]) expands it with combined switches. The `[tas]`
//! values must be positive and `base_period_us` divisible by `slots`; link
//! lengths must be finite and non-negative.
//!
//! # Plan files
//!
//! `write_plan` produces (and `parse_plan` reads) a plan file listing the
//! selected switches with their ASIL and the selected links:
//!
//! ```text
//! [switches]        # name asil
//! sw0 A
//! [plan-links]      # u v
//! camera sw0
//! ecu sw0
//! ```

#![warn(missing_docs)]

pub mod json;
mod planfile;
mod problem;

pub use planfile::{parse_plan, write_plan};
pub use problem::{parse_problem, ParsedProblem, MAX_COMBINE_ROUNDS};
