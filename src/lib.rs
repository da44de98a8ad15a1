//! TFMCC — a Rust reproduction of *Extending Equation-based Congestion
//! Control to Multicast Applications* (Widmer & Handley, SIGCOMM 2001).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`proto`] — the sans-I/O TFMCC protocol core (sender, receiver, loss
//!   history, RTT estimation, feedback suppression);
//! * [`model`] — TCP throughput models and the analytic machinery;
//! * [`feedback`] — standalone feedback-suppression analysis;
//! * [`mc`] — the bounded model checker for the protocol core;
//! * [`sim`] — the discrete-event packet simulator substrate;
//! * [`agents`] — simulator bindings and the session builder (unicast TFRC
//!   is a session with one receiver);
//! * [`tcp`], [`pgmcc`] — the baselines (`tfmcc-baselines`): the TCP Reno
//!   competing-traffic agent and the PGMCC comparator;
//! * [`experiments`] — the figure-by-figure experiment harness and the
//!   parallel sweep runner it executes on.
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction notes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use netsim as sim;
pub use tfmcc_agents as agents;
pub use tfmcc_baselines::{pgmcc, tcp};
pub use tfmcc_experiments as experiments;
pub use tfmcc_feedback as feedback;
pub use tfmcc_mc as mc;
pub use tfmcc_model as model;
pub use tfmcc_proto as proto;

/// Commonly used types across the workspace.
pub mod prelude {
    pub use netsim::prelude::*;
    pub use tfmcc_agents::population::{FluidSpec, PopulationSpec};
    pub use tfmcc_agents::session::{ReceiverSpec, TfmccSession, TfmccSessionBuilder};
    pub use tfmcc_model::population::Dist;
    pub use tfmcc_proto::prelude::*;
}
