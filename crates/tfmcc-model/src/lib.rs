//! Analytic models underpinning TFMCC (Widmer & Handley, SIGCOMM 2001).
//!
//! This crate is pure math: no I/O, no clocks, no randomness.  It provides
//!
//! * the TCP throughput models used as control equations — the full model of
//!   Padhye et al. (paper Eq. 1) and the simplified "square-root" model of
//!   Mathis et al. (paper Eq. 4) — together with their inverses, which the
//!   protocol needs to initialise the loss history (paper Appendix B);
//! * the loss-events-per-RTT curve from paper Appendix A (Figure 17);
//! * closed-form/numerically-integrated expectations for exponential feedback
//!   suppression (Figure 4);
//! * order statistics of exponential and gamma distributed loss intervals,
//!   used to analyse the loss-path-multiplicity throughput degradation
//!   (Section 3, Figure 7);
//! * small special-function helpers (log-gamma, regularized incomplete gamma)
//!   required by the above.
//!
//! All rates are in bytes per second, all times in seconds and all packet
//! sizes in bytes unless a function documents otherwise.

// Pure math/protocol logic: no unsafe code, and the compiler rejects any.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod feedback_expectation;
pub mod order_stats;
pub mod special;
pub mod throughput;

pub use feedback_expectation::{expected_responses, expected_responses_grid, FeedbackModel};
pub use order_stats::{
    expected_min_exponential, expected_min_gamma, expected_min_uniform, scaling_degradation,
};
pub use throughput::{
    loss_events_per_rtt, mathis_loss_rate, mathis_throughput, padhye_loss_rate, padhye_throughput,
    TcpModel,
};
