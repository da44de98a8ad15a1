//! The protocols TFMCC is compared against in the paper's evaluation, as
//! `netsim` agents:
//!
//! * [`tcp`] — TCP Reno, the competing traffic every fairness figure
//!   measures TFMCC against;
//! * [`pgmcc`] — PGMCC, the window-based single-rate multicast comparator.
//!
//! Unicast TFRC, TFMCC's parent protocol, needs no module of its own: it is
//! a TFMCC session with one receiver, which is always the CLR (paper
//! Section 1.1), built with `tfmcc_agents::session::TfmccSessionBuilder`.

// Pure math/protocol logic: no unsafe code, and the compiler rejects any.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pgmcc;
pub mod tcp;
