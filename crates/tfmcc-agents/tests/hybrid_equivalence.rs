//! Hybrid-vs-packet equivalence: replacing the bulk of a session's receiver
//! population with the fluid tier must not change which receiver is elected
//! CLR, and must track the pure packet-level cohort's throughput within the
//! stated tolerance (25% on the steady-state mean — the two runs see
//! different event interleavings, so their random loss draws differ).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use netsim::prelude::*;
use proptest::prelude::*;
use tfmcc_agents::population::{Dist, FluidSpec, PopulationSpec};
use tfmcc_agents::session::{TfmccSession, TfmccSessionBuilder};
use tfmcc_proto::packets::ReceiverId;

// Counts live heap bytes for the 10⁶-receiver gate below, like the allocator
// in `crates/tfmcc-proto/tests/receiver_mem.rs` (a `#[global_allocator]` must
// live in the binary that uses it).  `realloc` and `alloc_zeroed` keep their
// default bodies, which go through the two counted methods.
struct NetCountingAllocator;

static NET_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: both methods forward to `System` with unchanged arguments; the
// added Relaxed counter update cannot affect the allocator contract.
unsafe impl GlobalAlloc for NetCountingAllocator {
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: NetCountingAllocator = NetCountingAllocator;

/// Star topology shared by both runs: three cohort legs (leg 0 is clearly
/// the lossiest, so its receiver must be the CLR) plus a clean leg the
/// fluid population attaches to in the hybrid run.
fn build_star(sim: &mut Simulator) -> Star {
    let legs = vec![
        StarLeg::clean(1_250_000.0, 0.03).with_downstream_loss(0.05),
        StarLeg::clean(1_250_000.0, 0.02).with_downstream_loss(0.02),
        StarLeg::clean(1_250_000.0, 0.02).with_downstream_loss(0.01),
        StarLeg::clean(1_250_000.0, 0.02),
    ];
    star(sim, &StarConfig::default(), &legs)
}

fn cohort(st: &Star) -> Vec<PopulationSpec> {
    vec![
        PopulationSpec::packet(st.receivers[0]),
        PopulationSpec::packet(st.receivers[1]),
        PopulationSpec::packet(st.receivers[2]),
    ]
}

/// A fluid population whose calculated rates sit safely above the cohort's
/// lossiest receiver, so CLR election must stay within the cohort.
fn bulk_population(node: NodeId, count: u64) -> PopulationSpec {
    PopulationSpec::Fluid(FluidSpec::new(
        node,
        count,
        Dist::Uniform {
            lo: 0.001,
            hi: 0.008,
        },
        Dist::Uniform { lo: 0.04, hi: 0.08 },
    ))
}

fn run(seed: u64, populations: impl Fn(&Star) -> Vec<PopulationSpec>) -> (Simulator, TfmccSession) {
    let mut sim = Simulator::new(seed);
    let st = build_star(&mut sim);
    let specs = populations(&st);
    let session = TfmccSessionBuilder::default().build_population(&mut sim, st.sender, &specs);
    sim.run_until(SimTime::from_secs(120.0));
    (sim, session)
}

/// The tentpole guarantee: at 10⁴ receivers the hybrid session elects the
/// identical CLR and tracks the pure packet-level cohort's throughput.
#[test]
fn hybrid_matches_pure_packet_run_at_1e4() {
    let (pure_sim, pure) = run(4242, cohort);
    let (hybrid_sim, hybrid) = run(4242, |st| {
        let mut specs = cohort(st);
        specs.push(bulk_population(st.receivers[3], 10_000));
        specs
    });

    // Identical CLR: the lossiest cohort receiver in both runs.
    let pure_clr = pure.sender_agent(&pure_sim).protocol().clr();
    let hybrid_clr = hybrid.sender_agent(&hybrid_sim).protocol().clr();
    assert_eq!(pure_clr, Some(ReceiverId(1)), "pure run CLR");
    assert_eq!(hybrid_clr, pure_clr, "hybrid run must elect the same CLR");

    // Throughput within tolerance over the steady-state window.
    let pure_rate = pure.receiver_throughput(&pure_sim, 0, 60.0, 115.0);
    let hybrid_rate = hybrid.receiver_throughput(&hybrid_sim, 0, 60.0, 115.0);
    assert!(pure_rate > 5_000.0, "pure run starved: {pure_rate}");
    let rel = (hybrid_rate - pure_rate).abs() / pure_rate;
    assert!(
        rel <= 0.25,
        "hybrid throughput diverged: pure {pure_rate} vs hybrid {hybrid_rate} ({:.0}%)",
        rel * 100.0
    );

    // The fluid tier is actually represented: the sender's population count
    // is the whole 10⁴ bulk plus the cohort, each receiver counted once.
    let population = hybrid
        .sender_agent(&hybrid_sim)
        .protocol()
        .session_population();
    assert_eq!(
        population,
        10_000 + 3,
        "census must count every fluid receiver exactly once"
    );
    // And it reported at O(bins)/round, not O(count): a 120 s run has a few
    // hundred rounds at most, each contributing at most `bins` reports.
    let fluid = hybrid.fluid_agent(&hybrid_sim, 0);
    assert!(fluid.reports_sent() > 0, "fluid tier never reported");
    assert!(
        fluid.reports_sent() < 4_000,
        "fluid tier reports should scale with bins × rounds, got {}",
        fluid.reports_sent()
    );
}

/// The scaling gate of the fluid tier: a session standing for 10⁶ receivers
/// still elects its CLR from the packet cohort and retains at most 100 B of
/// live heap per fluid receiver.  The byte counter is process-global, so
/// sibling tests running concurrently add noise — a few MB at most (their
/// sims have four legs), i.e. a few bytes per fluid receiver here.
#[test]
fn hybrid_session_at_1e6_keeps_the_clr_and_the_heap_budget() {
    const FLUID: u64 = 1_000_000;
    let heap0 = NET_BYTES.load(Relaxed);
    let (sim, session) = run(7, |st| {
        let mut specs = cohort(st);
        specs.push(bulk_population(st.receivers[3], FLUID));
        specs
    });
    let bytes_per_receiver = (NET_BYTES.load(Relaxed) - heap0).max(0) as f64 / FLUID as f64;

    let sender = session.sender_agent(&sim).protocol();
    let clr = sender.clr().expect("a CLR is elected");
    assert!(
        clr.0 <= 3,
        "CLR must stay in the packet cohort, got {clr:?}"
    );
    assert_eq!(sender.session_population(), FLUID + 3);
    assert!(
        bytes_per_receiver <= 100.0,
        "fluid tier retains {bytes_per_receiver:.1} B per receiver (> 100 B budget)"
    );
}

/// The equivalence holds across seeds (different loss realisations).
#[test]
fn clr_identity_is_seed_independent() {
    for seed in [1, 99, 123_456] {
        let (pure_sim, pure) = run(seed, cohort);
        let (hybrid_sim, hybrid) = run(seed, |st| {
            let mut specs = cohort(st);
            specs.push(bulk_population(st.receivers[3], 10_000));
            specs
        });
        assert_eq!(
            pure.sender_agent(&pure_sim).protocol().clr(),
            hybrid.sender_agent(&hybrid_sim).protocol().clr(),
            "seed {seed}: CLR diverged"
        );
    }
}

proptest! {
    /// Over a range of fluid loss/RTT distributions (all with calculated
    /// rates above the cohort's lossiest leg), the CLR stays in the packet
    /// cohort and the census covers the whole population.
    #[test]
    fn fluid_distributions_never_steal_the_clr(
        loss_lo in 0.0005f64..0.004,
        loss_spread in 0.0f64..0.004,
        rtt_lo in 0.02f64..0.06,
        rtt_spread in 0.0f64..0.04,
        count in 100u64..400,
    ) {
        let mut sim = Simulator::new(77);
        let st = build_star(&mut sim);
        let mut specs = cohort(&st);
        specs.push(PopulationSpec::Fluid(FluidSpec::new(
            st.receivers[3],
            count,
            Dist::Uniform { lo: loss_lo, hi: loss_lo + loss_spread },
            Dist::Uniform { lo: rtt_lo, hi: rtt_lo + rtt_spread },
        )));
        let session = TfmccSessionBuilder::default().build_population(&mut sim, st.sender, &specs);
        sim.run_until(SimTime::from_secs(40.0));
        let sender = session.sender_agent(&sim).protocol();
        let clr = sender.clr().expect("a CLR is elected");
        prop_assert!(
            clr.0 <= 3,
            "CLR must stay in the packet cohort, got {clr:?}"
        );
        prop_assert!(sender.session_population() > count);
    }
}
