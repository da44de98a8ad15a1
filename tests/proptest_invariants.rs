//! Cross-crate property-based tests on core protocol invariants.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use netsim::packet::{FlowId, GroupId, Port};
use netsim::sim::Simulator;
use tfmcc::agents::manager::SessionAddressing;
use tfmcc::agents::{PopulationSpec, ReceiverSpec, SessionManager, TfmccSessionBuilder};
use tfmcc::model::throughput::{mathis_loss_rate, mathis_throughput, padhye_throughput};
use tfmcc::proto::config::TfmccConfig;
use tfmcc::proto::feedback::FeedbackPlanner;
use tfmcc::proto::loss::LossHistory;
use tfmcc::proto::rtt::RttEstimator;

proptest! {
    /// The control equation is monotone: more loss or more delay never yields
    /// a higher rate.
    #[test]
    fn control_equation_is_monotone(
        p1 in 1e-6f64..0.5,
        dp in 1e-6f64..0.4,
        rtt in 0.001f64..2.0,
        drtt in 0.001f64..2.0,
    ) {
        let base = padhye_throughput(1000.0, rtt, p1);
        prop_assert!(padhye_throughput(1000.0, rtt, (p1 + dp).min(1.0)) <= base + 1e-9);
        prop_assert!(padhye_throughput(1000.0, rtt + drtt, p1) <= base + 1e-9);
    }

    /// The simplified equation and its inverse are consistent for any
    /// achievable rate.
    #[test]
    fn mathis_inverse_is_consistent(p in 1e-6f64..1.0, rtt in 0.001f64..2.0) {
        let rate = mathis_throughput(1500.0, rtt, p);
        let back = mathis_loss_rate(1500.0, rtt, rate);
        prop_assert!((back - p).abs() < 1e-6 * p.max(1e-6));
    }

    /// Feedback timers always lie within [0, T] and cancellation is monotone
    /// in the receiver's own rate.
    #[test]
    fn feedback_timer_bounds(ratio in 0.0f64..2.0, uniform in 1e-9f64..1.0, window in 0.01f64..100.0) {
        let planner = FeedbackPlanner::default();
        let t = planner.timer(ratio, window, uniform);
        prop_assert!(t >= 0.0);
        prop_assert!(t <= window + 1e-9);
    }

    /// Cancellation: if a receiver with rate `a` is cancelled by an echo, any
    /// receiver with a higher rate is cancelled too.
    #[test]
    fn cancellation_is_monotone(a in 1.0f64..1e9, b in 1.0f64..1e9, echo in 1.0f64..1e9) {
        let planner = FeedbackPlanner::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if planner.should_cancel(lo, echo) {
            prop_assert!(planner.should_cancel(hi, echo));
        }
    }

    /// Loss history invariants under an arbitrary pattern of received
    /// sequence numbers: the loss event rate stays in [0, 1] and equals zero
    /// iff no loss was seen.
    #[test]
    fn loss_history_rate_is_bounded(gaps in proptest::collection::vec(0u64..5, 1..200)) {
        let config = TfmccConfig::default();
        let mut history = LossHistory::new(&config);
        let mut seq = 0u64;
        let mut now = 0.0;
        let mut first = true;
        for gap in gaps {
            seq += gap; // skip `gap` packets (they count as lost)
            let update = history.on_packet(seq, now, 0.05);
            if update.first_loss_event && first {
                history.initialize_first_interval(100_000.0, 0.05, false);
                first = false;
            }
            seq += 1;
            now += 0.01;
        }
        let p = history.loss_event_rate();
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert_eq!(p > 0.0, history.has_loss());
        prop_assert!(history.packets_received() > 0);
    }

    /// SessionManager allocations are collision-free for any interleaving
    /// of sessions and competitor reservations: all groups and flows are
    /// distinct and no port is bound twice, across both.
    #[test]
    fn session_allocations_never_collide(
        reserve in proptest::collection::vec(any::<bool>(), 1..8),
    ) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("sender");
        let b = sim.add_node("receiver");
        let mut mgr = SessionManager::new();
        let mut blocks = Vec::new();
        for &is_reservation in &reserve {
            if is_reservation {
                blocks.push(mgr.reserve_addressing());
            } else {
                let id = mgr.add_population_session(&mut sim, 0.0, a, &[PopulationSpec::packet(b)]);
                let s = mgr.session(id);
                blocks.push(SessionAddressing {
                    group: s.group,
                    data_port: s.data_port,
                    sender_port: s.sender_port,
                    flow: s.flow,
                });
            }
        }
        prop_assert_eq!(mgr.len(), reserve.iter().filter(|&&r| !r).count());
        let mut groups = BTreeSet::new();
        let mut flows = BTreeSet::new();
        let mut ports = BTreeSet::new();
        for s in &blocks {
            prop_assert!(groups.insert(s.group.0), "group {} allocated twice", s.group.0);
            prop_assert!(flows.insert(s.flow.0), "flow {} allocated twice", s.flow.0);
            prop_assert!(s.data_port != s.sender_port);
            prop_assert!(ports.insert(s.data_port.0), "port {} bound twice", s.data_port.0);
            prop_assert!(ports.insert(s.sender_port.0), "port {} bound twice", s.sender_port.0);
        }
    }

    /// Sessions get the documented deterministic allocation (session i:
    /// group 1+i, ports 5000+2i/5001+2i, flow 100+i) regardless of how many
    /// sessions there are or when they start.
    #[test]
    fn auto_allocation_matches_its_documentation(
        n in 1usize..10,
        start_ats in proptest::collection::vec(0.0f64..100.0, 10..11),
    ) {
        let mut sim = Simulator::new(2);
        let a = sim.add_node("sender");
        let b = sim.add_node("receiver");
        let mut mgr = SessionManager::new();
        for (i, &start_at) in start_ats.iter().enumerate().take(n) {
            let id = mgr.add_population_session(&mut sim, start_at, a, &[PopulationSpec::packet(b)]);
            let s = mgr.session(id);
            prop_assert_eq!(s.group, GroupId(1 + i as u32));
            prop_assert_eq!(s.data_port, Port(5000 + 2 * i as u16));
            prop_assert_eq!(s.sender_port, Port(5001 + 2 * i as u16));
            prop_assert_eq!(s.flow, FlowId(100 + i as u64));
            prop_assert_eq!(s.receivers.len(), 1);
        }
    }

    /// The RTT estimator never reports a non-positive estimate and converges
    /// to constant samples.
    #[test]
    fn rtt_estimator_stays_positive(samples in proptest::collection::vec(0.0f64..5.0, 1..50)) {
        let mut est = RttEstimator::new(&TfmccConfig::default());
        for (i, s) in samples.iter().enumerate() {
            est.on_measurement(*s, i % 2 == 0, s / 2.0);
            prop_assert!(est.current() > 0.0);
        }
        let last = *samples.last().unwrap();
        for _ in 0..200 {
            est.on_measurement(last, true, last / 2.0);
        }
        prop_assert!((est.current() - last.max(1e-4)).abs() < 0.05 * last.max(1e-4) + 1e-6);
    }
}

/// Every documented session-building panic fires with its documented
/// message on the corresponding bad input, and a session the manager
/// rejects leaves it untouched (validation runs before any agent is
/// attached, and the rejected session takes no addressing block).
#[test]
fn session_manager_validation_panics_are_exhaustive() {
    let mut sim = Simulator::new(3);
    let a = sim.add_node("sender");
    let b = sim.add_node("receiver");
    let mut mgr = SessionManager::new();
    mgr.add_population_session(&mut sim, 0.0, a, &[PopulationSpec::packet(b)]);

    // `builder: None` adds the session through the manager, starting at
    // `start_at`; `Some` builds it directly (the builder's start is used).
    let mut expect_panic = |builder: Option<TfmccSessionBuilder>,
                            start_at: f64,
                            receivers: Vec<ReceiverSpec>,
                            needle: &str| {
        let before = mgr.len();
        let populations = PopulationSpec::packets(&receivers);
        let err = catch_unwind(AssertUnwindSafe(|| match &builder {
            Some(builder) => {
                builder.build_population(&mut sim, a, &populations);
            }
            None => {
                mgr.add_population_session(&mut sim, start_at, a, &populations);
            }
        }))
        .expect_err(&format!("bad input must panic (wanted: {needle})"));
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains(needle),
            "panic message {msg:?} does not mention {needle:?}"
        );
        assert_eq!(mgr.len(), before, "a rejected spec must not half-register");
    };

    expect_panic(None, 0.0, vec![], "at least one receiver");
    expect_panic(
        None,
        f64::NAN,
        vec![ReceiverSpec::always(b)],
        "start_at must be finite",
    );
    expect_panic(
        Some(TfmccSessionBuilder {
            meter_bin: 0.0,
            ..TfmccSessionBuilder::default()
        }),
        0.0,
        vec![ReceiverSpec::always(b)],
        "meter_bin must be a positive",
    );
    expect_panic(
        Some(TfmccSessionBuilder {
            data_port: Port(7000),
            sender_port: Port(7000),
            ..TfmccSessionBuilder::default()
        }),
        0.0,
        vec![ReceiverSpec::always(b)],
        "must differ",
    );
    expect_panic(
        None,
        0.0,
        vec![ReceiverSpec::joining_at(b, -1.0)],
        "join_at must be finite",
    );
    expect_panic(
        None,
        0.0,
        vec![ReceiverSpec::joining_at(b, 5.0).leaving_at(4.0)],
        "must be finite and after join_at",
    );
    expect_panic(
        None,
        0.0,
        vec![ReceiverSpec::always(b).leaving_at(10.0).churning(2.0, 2.0)],
        "leave_at and churn are exclusive",
    );
    expect_panic(
        None,
        0.0,
        vec![ReceiverSpec::always(b).churning(0.0, 2.0)],
        "churn periods must be positive",
    );

    // None of the rejected sessions took a block: the next one gets the
    // second.
    let id = mgr.add_population_session(&mut sim, 0.0, a, &[PopulationSpec::packet(b)]);
    assert_eq!(mgr.session(id).group, GroupId(2));
}
