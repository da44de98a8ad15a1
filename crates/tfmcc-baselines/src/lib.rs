//! The protocols TFMCC is compared against in the paper's evaluation, as
//! `netsim` agents:
//!
//! * [`tcp`] — TCP Reno, the competing traffic every fairness figure
//!   measures TFMCC against;
//! * [`pgmcc`] — PGMCC, the window-based single-rate multicast comparator;
//! * [`tfrc`] — unicast TFRC, TFMCC's parent protocol, as a one-receiver
//!   TFMCC session.

// Pure math/protocol logic: no unsafe code, and the compiler rejects any.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pgmcc;
pub mod tcp;
pub mod tfrc;
