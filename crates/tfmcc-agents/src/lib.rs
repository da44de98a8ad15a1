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

/// The fluid tier's closed-form feedback round
/// (`population::feedback_round`): which bins of a population report in one
/// round, and when.
#[cfg(test)]
mod aggregate {
    mod tests {
        use crate::population::{feedback_round, RateBin};
        use tfmcc_model::order_stats::expected_min_uniform;
        use tfmcc_proto::feedback::FeedbackPlanner;

        fn planner() -> FeedbackPlanner {
            FeedbackPlanner::default()
        }

        fn bin(count: u64, rate: f64) -> RateBin {
            RateBin {
                count,
                loss_rate: 0.01,
                rtt: 0.1,
                rate,
            }
        }

        #[test]
        fn expected_min_uniform_shrinks_with_count() {
            assert_eq!(expected_min_uniform(1, 1.0), 0.5);
            assert!(expected_min_uniform(1000, 1.0) < expected_min_uniform(10, 1.0));
            assert!(expected_min_uniform(u64::MAX, 1.0) > 0.0);
        }

        #[test]
        fn empty_and_zero_count_bins_produce_no_responses() {
            let p = planner();
            assert!(feedback_round(&p, &[], 1000.0, 3.0, Some(0.1)).is_empty());
            let r = feedback_round(&p, &[bin(0, 500.0)], 1000.0, 3.0, Some(0.1));
            assert!(r.is_empty());
            assert!(feedback_round(&p, &[bin(0, 500.0)], 1000.0, 3.0, None).is_empty());
        }

        #[test]
        fn lowest_rate_bin_always_responds() {
            let p = planner();
            let bins = [bin(1000, 900.0), bin(1000, 400.0), bin(1000, 700.0)];
            let r = feedback_round(&p, &bins, 1000.0, 3.0, Some(0.1));
            assert!(!r.is_empty());
            // The slowest bin has the strongest bias, so it fires first and
            // its report survives.
            assert_eq!(r[0].1, 1);
            assert_eq!(bins[r[0].1].count, 1000);
            assert_eq!(bins[r[0].1].rate, 400.0);
        }

        #[test]
        fn near_equal_rates_are_suppressed() {
            let p = planner(); // alpha = 0.1
            let bins = [bin(1000, 400.0), bin(1000, 401.0), bin(1000, 405.0)];
            let r = feedback_round(&p, &bins, 1000.0, 3.0, Some(10.0));
            // A huge suppression delay lets every timer fire before the
            // echo, but the cancellation rule still kills the near-duplicates.
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].1, 0);
            // A census round suppresses nothing.
            assert_eq!(feedback_round(&p, &bins, 1000.0, 3.0, None).len(), 3);
        }

        #[test]
        fn distinctly_slower_bins_survive_when_firing_early_enough() {
            let p = planner();
            // The slow bin fires first; the fast bin's rate 900 ≥ 0.9·200,
            // so it is cancelled.
            let bins = [bin(1000, 200.0), bin(1000, 900.0)];
            let r = feedback_round(&p, &bins, 1000.0, 3.0, Some(10.0));
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].1, 0);
            // With a zero suppression horizon the slow bin still leads.
            let r = feedback_round(&p, &bins, 1000.0, 3.0, Some(0.0));
            assert_eq!(r[0].1, 0, "bias must order the slow bin first");
        }

        #[test]
        fn infinite_rate_bins_report_no_finite_minimum() {
            let p = planner();
            let bins = [bin(1000, f64::INFINITY)];
            let r = feedback_round(&p, &bins, 1000.0, 3.0, Some(0.1));
            assert_eq!(r.len(), 1);
            assert!(bins[r[0].1].rate.is_infinite());
        }

        #[test]
        fn timers_are_deterministic() {
            let p = planner();
            let bins = [bin(123, 500.0), bin(456, 800.0)];
            let a = feedback_round(&p, &bins, 1000.0, 3.0, Some(0.1));
            let b = feedback_round(&p, &bins, 1000.0, 3.0, Some(0.1));
            assert_eq!(a, b);
        }

        #[test]
        fn bigger_bins_fire_earlier() {
            // More receivers → smaller expected-minimum uniform → earlier
            // timer (the exponential part is monotone in the uniform).
            let p = planner();
            let small = feedback_round(&p, &[bin(10, 500.0)], 1000.0, 3.0, Some(0.0))[0].0;
            let large = feedback_round(&p, &[bin(100_000, 500.0)], 1000.0, 3.0, Some(0.0))[0].0;
            assert!(large <= small, "large {large} vs small {small}");
        }
    }
}
