//! Bounded model checking for the TFMCC protocol core.
//!
//! This crate drives the *real* `tfmcc-proto` sender and receiver state
//! machines — via the [`SenderStep`]/[`ReceiverStep`] seam — through every
//! interleaving of an adversarial network that may drop, duplicate and
//! reorder control packets, fire feedback timers in any legal order, and
//! make receivers leave at any moment.  Exploration is explicit-state with
//! fingerprint deduplication; nondeterminism is budgeted (so the state
//! space is finite) and every invariant violation comes with the exact
//! action schedule that reproduces it.
//!
//! The pieces:
//!
//! * [`explore`](mod@explore) — the generic DFS/BFS explorer over a
//!   [`Model`], plus deterministic schedule replay;
//! * [`hasher`] — a portable FNV-1a [`std::hash::Hasher`] for state
//!   fingerprints;
//! * [`world`] — the TFMCC model itself: [`McWorld`], the [`Action`]
//!   alphabet, budget accounting and the named [`McConfig`] presets;
//! * [`invariants`] — the four shipped safety properties (no rate deadlock
//!   after CLR loss, feedback-round termination, incremental/reference
//!   aggregator agreement, max-RTT consistency under report loss);
//! * [`replay`] — the `tfmcc-replay-v1` counterexample file format.
//!
//! ```
//! use tfmcc_mc::{explore, Limits, McConfig, McModel, Strategy};
//!
//! let model = McModel::new(McConfig::preset("smoke2").unwrap());
//! let out = explore(&model, Strategy::Bfs, Limits { max_states: 5_000, ..Limits::default() });
//! assert!(out.violation.is_none());
//! assert!(out.states_explored > 100);
//! ```
//!
//! [`SenderStep`]: tfmcc_proto::step::SenderStep
//! [`ReceiverStep`]: tfmcc_proto::step::ReceiverStep

// Pure math/protocol logic: no unsafe code, and the compiler rejects any.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod explore;
pub mod hasher;
pub mod invariants;
pub mod replay;
pub mod world;

pub use crate::explore::{explore, run_schedule, CheckOutcome, Limits, Model, Strategy, Violation};
pub use crate::hasher::Fnv1a;
pub use crate::invariants::{default_invariants, Invariant};
pub use crate::replay::{f64_from_bits_hex, f64_to_bits_hex, Replay, FORMAT};
pub use crate::world::{Action, McConfig, McModel, McWorld, NetMsg};
