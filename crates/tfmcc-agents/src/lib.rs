//! netsim adapters for the TFMCC protocol core.
//!
//! [`TfmccSenderAgent`] and [`TfmccReceiverAgent`] bind the sans-I/O state
//! machines of `tfmcc-proto` to the discrete-event simulator: data packets
//! are multicast along the group's distribution tree, receiver reports travel
//! back as unicast packets, and the receivers' single feedback timer is
//! mapped onto simulator timers.  [`session::TfmccSessionBuilder`] wires a
//! whole session (one sender, many receivers, optional staggered joins and
//! leaves) in one call — the building block of every experiment in
//! `tfmcc-experiments`, unicast TFRC included as a one-receiver session.
//! Several sessions share one simulation when each is built on its own
//! group, ports and flow id; the experiments' testbed hands those out.
//!
//! Receiver populations are specified through the unified
//! [`PopulationSpec`] surface: packet-level receivers run exact per-receiver
//! agents, while [`population::FluidPopulationAgent`] stands in for entire
//! *fluid* populations — `(count, loss distribution, RTT distribution)`
//! aggregates whose feedback is computed analytically and injected as
//! population-weighted reports — which is what makes single sessions of 10⁶
//! receivers tractable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod population;
pub mod receiver_agent;
pub mod sender_agent;
pub mod session;

pub use population::{FluidPopulationAgent, FluidSpec, PopulationSpec};
pub use receiver_agent::TfmccReceiverAgent;
pub use sender_agent::TfmccSenderAgent;
pub use session::{ReceiverSpec, TfmccSession, TfmccSessionBuilder};
