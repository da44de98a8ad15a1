//! Standalone feedback-suppression machinery and Monte-Carlo round
//! simulation (paper Section 2.5, Figures 1–6).
//!
//! The full TFMCC protocol exercises feedback suppression inside complete
//! packet-level simulations, but the paper analyses the mechanism in
//! isolation: `n` receivers, each with a rate ratio, draw biased exponential
//! timers over a window `T`; a response suppresses later timers once it has
//! propagated (one network delay after it was sent).  This crate reproduces
//! that isolated analysis:
//!
//! * [`round::FeedbackRound`] simulates one feedback round and reports how
//!   many responses were sent, when the first one arrived and how close the
//!   best reported value came to the true minimum;
//! * [`cdf`] computes the timer CDFs plotted in Figure 1;
//! * the timer and cancellation logic itself is re-used from
//!   [`tfmcc_proto::feedback::FeedbackPlanner`], so the numbers measured here
//!   describe exactly the code the protocol runs.

// Pure math/protocol logic: no unsafe code, and the compiler rejects any.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdf;
pub mod round;

pub use cdf::{timer_cdf, TimerCdfPoint};
pub use round::{FeedbackRound, RoundOutcome, RoundReceiver};

pub use tfmcc_proto::feedback::{BiasMethod, FeedbackPlanner};
