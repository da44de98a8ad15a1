//! Property test: the incremental feedback aggregator matches the scan-based
//! reference implementation report-for-report.
//!
//! A `TfmccSender<ReferenceAggregator>` and the default incremental
//! [`TfmccSender`] are driven through an identical randomized sequence of
//! receiver reports (with losses, missing RTT measurements, leaves, and
//! stretches of pure data transmission that advance feedback rounds and
//! fire CLR timeouts).  After *every* step the
//! senders' complete observable state must agree bit for bit: sending rate,
//! CLR, max RTT, feedback window, receiver counts, and the full header of
//! the next data packet (which embeds the suppression echo and the RTT
//! echo).  Any divergence between the O(N)-scan and the ordered-index
//! bookkeeping fails the property.

use proptest::prelude::*;

use tfmcc_proto::aggregator::ReferenceAggregator;
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::{FeedbackPacket, ReceiverId};
use tfmcc_proto::sender::TfmccSender;

/// One step of the randomized drive.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A receiver report.
    Report {
        receiver: u64,
        loss: f64,
        rate: f64,
        rtt: f64,
        has_rtt: bool,
        in_round: bool,
    },
    /// A receiver announcing its departure.
    Leave { receiver: u64 },
    /// A stretch of data packets with no feedback (advances rounds, may
    /// trigger the CLR timeout path).
    Quiet { packets: u8 },
}

fn feedback(receiver: u64, now: f64, round: u64) -> FeedbackPacket {
    FeedbackPacket {
        receiver: ReceiverId(receiver),
        timestamp: now,
        echo_timestamp: now - 0.05,
        echo_delay: 0.001,
        calculated_rate: f64::INFINITY,
        loss_event_rate: 0.0,
        receive_rate: 100_000.0,
        rtt: 0.05,
        has_rtt_measurement: true,
        feedback_round: round,
        leaving: false,
    }
}

/// Asserts every observable aggregate of the two senders agrees, then emits
/// one data packet from each and compares the full headers.
fn assert_lockstep(
    now: f64,
    reference: &mut TfmccSender<ReferenceAggregator>,
    incremental: &mut TfmccSender,
) {
    assert_eq!(reference.current_rate(), incremental.current_rate());
    assert_eq!(reference.clr(), incremental.clr());
    assert_eq!(reference.in_slowstart(), incremental.in_slowstart());
    assert_eq!(reference.known_receivers(), incremental.known_receivers());
    assert_eq!(
        reference.receivers_with_rtt(),
        incremental.receivers_with_rtt()
    );
    assert_eq!(reference.max_rtt(), incremental.max_rtt());
    assert_eq!(reference.feedback_window(), incremental.feedback_window());
    let a = reference.next_data(now);
    let b = incremental.next_data(now);
    assert_eq!(a, b, "data headers diverged at t={now}");
    assert_eq!(reference.stats(), incremental.stats());
}

proptest! {
    #[test]
    fn incremental_aggregator_matches_reference_report_for_report(
        seed in 0u64..1_000_000,
        steps in proptest::collection::vec(0u8..=9, 20..120),
    ) {
        // Decode the raw step codes into a concrete drive sequence using a
        // cheap deterministic generator, so one `steps` vector exercises
        // reports, leaves and quiet stretches in varying proportions.
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut reference =
            TfmccSender::with_aggregator(TfmccConfig::default(), ReferenceAggregator::new());
        let mut incremental = TfmccSender::new(TfmccConfig::default());
        let mut now = 0.0;
        for code in steps {
            let step = match code {
                0..=5 => Step::Report {
                    receiver: next() % 12 + 1,
                    loss: if next() % 3 == 0 { 0.0 } else { (next() % 1000 + 1) as f64 / 10_000.0 },
                    rate: (next() % 1_000_000 + 500) as f64,
                    rtt: (next() % 900 + 10) as f64 / 1000.0,
                    has_rtt: next() % 4 != 0,
                    in_round: next() % 4 != 0,
                },
                6 => Step::Leave { receiver: next() % 12 + 1 },
                _ => Step::Quiet { packets: (next() % 40) as u8 },
            };
            match step {
                Step::Report { receiver, loss, rate, rtt, has_rtt, in_round } => {
                    now += (next() % 100) as f64 / 1000.0;
                    // Both senders are in lockstep, so either's round counter
                    // addresses the shared current round.
                    let round = if in_round { reference.feedback_round() } else { 0 };
                    let mut fb = feedback(receiver, now, round);
                    fb.loss_event_rate = loss;
                    fb.calculated_rate = if loss > 0.0 { rate } else { f64::INFINITY };
                    fb.rtt = rtt;
                    fb.has_rtt_measurement = has_rtt;
                    reference.on_feedback(now, &fb);
                    incremental.on_feedback(now, &fb);
                }
                Step::Leave { receiver } => {
                    now += 0.01;
                    let mut fb = feedback(receiver, now, 0);
                    fb.leaving = true;
                    reference.on_feedback(now, &fb);
                    incremental.on_feedback(now, &fb);
                }
                Step::Quiet { packets } => {
                    for _ in 0..packets {
                        now += 0.25;
                        assert_lockstep(now, &mut reference, &mut incremental);
                    }
                }
            }
            assert_lockstep(now, &mut reference, &mut incremental);
        }
        prop_assert_eq!(reference.current_rate(), incremental.current_rate());
    }
}
