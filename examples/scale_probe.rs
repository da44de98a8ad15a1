//! Scale probe: how large a multicast fan-out can one simulation hold?
//!
//! Builds an N-leg star (one node, two links and one receiver agent per
//! leg), multicasts CBR traffic into it, and reports build time, run time,
//! the event/delivery counts **and the live heap footprint** (measured by a
//! counting global allocator: net bytes after build, at the peak and after
//! the run, per receiver) next to what the event queue holds and what it
//! holds on to, and a ledger of live bytes per receiver after each phase
//! (topology, agents, start, run).  Optionally a tenth of the receivers
//! churn (leave and rejoin the group on sub-second cycles).
//!
//! With `sessions=K` the probe becomes the **multi-session** workload from
//! the roadmap: instead of CBR sinks it wires K full TFMCC sessions into
//! one simulator, session `k` on the testbed's addressing block `k` (its
//! own sender node, multicast group and share of the N receivers, starts
//! staggered 2 s apart), and reports per-session goodput plus the Jain
//! fairness index — at `100000 sessions=4` that is a single simulation
//! holding ≥ 4 concurrent TFMCC sessions totaling 10⁵ receivers.
//!
//! With `hybrid` the probe exercises the **population tier**: one TFMCC
//! session, wired by the testbed on a star, whose bulk receivers are a
//! fluid population (analytic feedback, O(bins) state) behind a
//! four-receiver packet-level CLR cohort, so a single session can represent
//! 10⁶–10⁷ receivers in seconds of wall time at well under 100 B of heap
//! per fluid receiver.
//!
//! Every mode prints the run's stats digest (`digest=<hex>`), which depends
//! on nothing but the arguments.
//!
//! ```text
//! cargo run --release --example scale_probe -- [RECEIVERS] [churn] [sessions=K] [hybrid]
//! cargo run --release --example scale_probe -- 100000 churn
//! cargo run --release --example scale_probe -- 100000 sessions=4
//! cargo run --release --example scale_probe -- 1000000 hybrid
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "timing layer: build and run wall times are reported next to the digest, which does not depend on them"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::time::Instant;

use netsim::prelude::*;
use tfmcc_agents::population::{Dist, FluidSpec, PopulationSpec};
use tfmcc_agents::session::TfmccSessionBuilder;
use tfmcc_experiments::testbed::{self, jain_index, Flow, Testbed, Topology};

/// Counts live heap bytes, and their peak, so the probe can report
/// per-receiver memory.  (Twin of the allocator in
/// `crates/tfmcc-proto/tests/receiver_mem.rs`, which has no use for the
/// peak — a `#[global_allocator]` must live in the binary that uses it, so
/// the ~30 lines are duplicated rather than shipped in a library crate;
/// keep the two in sync.)
struct NetCountingAllocator;

static NET_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn grow(by: i64) {
    let live = NET_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with unchanged arguments; the
// added Relaxed counter update cannot affect the allocator contract.
unsafe impl GlobalAlloc for NetCountingAllocator {
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: NetCountingAllocator = NetCountingAllocator;

fn live_bytes() -> i64 {
    NET_BYTES.load(Relaxed)
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Relaxed)
}

fn main() {
    let mut n: usize = 10_000;
    let mut churn = false;
    let mut sessions: usize = 0;
    let mut hybrid = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "churn" => churn = true,
            "hybrid" => hybrid = true,
            other => {
                if let Some(k) = other.strip_prefix("sessions=") {
                    match k.parse() {
                        Ok(count) if count >= 1 => sessions = count,
                        _ => {
                            eprintln!("error: invalid sessions count '{k}' (need an integer ≥ 1)");
                            std::process::exit(2);
                        }
                    }
                    continue;
                }
                match other.parse() {
                    Ok(count) if count >= 1 => n = count,
                    Ok(_) => {
                        eprintln!("error: the receiver count must be at least 1");
                        std::process::exit(2);
                    }
                    Err(_) => {
                        eprintln!(
                            "error: unknown argument '{other}' (expected a receiver count, churn, sessions=K, hybrid)"
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
    }

    if hybrid {
        probe_hybrid(n);
    } else if sessions > 0 {
        probe_sessions(n, sessions);
    } else {
        probe_cbr(n, churn);
    }
}

/// The original single-group probe: CBR traffic into N `GroupSink`s.
fn probe_cbr(n: usize, churn: bool) {
    let heap0 = live_bytes();
    let t0 = Instant::now();
    let mut sim = Simulator::new(1);
    let legs: Vec<StarLeg> = (0..n).map(|_| StarLeg::clean(125_000.0, 0.02)).collect();
    let st = star(&mut sim, &StarConfig::default(), &legs);
    let topology_bytes = live_bytes() - heap0;
    let group = GroupId(1);
    let mut sinks = Vec::with_capacity(n);
    for (i, &r) in st.receivers.iter().enumerate() {
        let mut sink = GroupSink::new(group, 1.0);
        if churn && i % 10 == 1 {
            sink = sink.churning(0.25 + (i % 7) as f64 * 0.05);
        }
        sinks.push(sim.add_agent(r, Port(5), Box::new(sink)));
    }
    sim.add_agent(
        st.sender,
        Port(5),
        Box::new(CbrSource::new(
            Dest::Multicast {
                group,
                port: Port(5),
            },
            FlowId(1),
            1000,
            50_000.0,
            0.0,
        )),
    );
    let built = t0.elapsed();
    let built_bytes = live_bytes() - heap0;

    let t1 = Instant::now();
    // Time zero: every agent starts, the sinks join (which settles the
    // routes) and the first packet builds the tree.
    sim.run_until(SimTime::ZERO);
    let started_bytes = live_bytes() - heap0;
    sim.run_until(SimTime::from_secs(10.0));
    let ran = t1.elapsed();
    let run_bytes = live_bytes() - heap0;
    let peak = peak_bytes() - heap0;
    let delivered: u64 = sinks
        .iter()
        .map(|&s| sim.agent::<GroupSink>(s).unwrap().packets())
        .sum();
    println!(
        "n={n} churn={churn} build={built:?} run={ran:?} events={} delivered={delivered}",
        sim.events_processed()
    );
    println!("digest={:016x}", sim.stats().digest());
    println!(
        "heap: {:.1} MB after build ({} B/receiver), {:.1} MB peak ({} B/receiver), {:.1} MB after run ({} B/receiver)",
        built_bytes as f64 / (1 << 20) as f64,
        built_bytes / n as i64,
        peak as f64 / (1 << 20) as f64,
        peak / n as i64,
        run_bytes as f64 / (1 << 20) as f64,
        run_bytes / n as i64,
    );
    println!(
        "ledger: B/receiver live after topology {}, agents {}, start {}, run {}",
        topology_bytes / n as i64,
        built_bytes / n as i64,
        started_bytes / n as i64,
        run_bytes / n as i64,
    );
    let diag = sim.scheduler_diagnostics();
    println!(
        "queue: {} events queued, {} entry slots allocated",
        diag.queued_events, diag.queue_capacity
    );
}

/// The multi-session probe: K concurrent TFMCC sessions over one shared
/// 8 Mbit/s bottleneck, splitting the N receivers between them.
fn probe_sessions(n: usize, k: usize) {
    let heap0 = live_bytes();
    let t0 = Instant::now();
    let mut sim = Simulator::new(1);
    let left = sim.add_node("left");
    let right = sim.add_node("right");
    sim.add_duplex_link(
        left,
        right,
        1_000_000.0,
        0.02,
        QueueDiscipline::drop_tail(100),
    );
    let per_session = (n / k).max(1);
    let mut sessions = Vec::with_capacity(k);
    for session in 0..k {
        let sender = sim.add_node("sender");
        sim.add_duplex_link(
            sender,
            left,
            1_250_000.0,
            0.005,
            QueueDiscipline::drop_tail(60),
        );
        let specs: Vec<PopulationSpec> = (0..per_session)
            .map(|i| {
                let node = sim.add_node("receiver");
                sim.add_duplex_link(
                    right,
                    node,
                    125_000.0,
                    0.005 + 0.002 * (i % 5) as f64,
                    QueueDiscipline::drop_tail(30),
                );
                PopulationSpec::packet(node)
            })
            .collect();
        let builder = TfmccSessionBuilder {
            start_at: session as f64 * 2.0,
            ..testbed::block(session)
        };
        sessions.push(builder.build_population(&mut sim, sender, &specs));
    }
    let built = t0.elapsed();
    let built_bytes = live_bytes() - heap0;
    let receivers = per_session * k;

    let duration = 10.0;
    let t1 = Instant::now();
    sim.run_until(SimTime::from_secs(duration));
    let ran = t1.elapsed();
    let run_bytes = live_bytes() - heap0;

    let rates: Vec<f64> = sessions
        .iter()
        .map(|s| s.mean_throughput(&sim, duration * 0.5, duration))
        .collect();
    println!(
        "n={receivers} sessions={k} build={built:?} run={ran:?} events={}",
        sim.events_processed()
    );
    println!("digest={:016x}", sim.stats().digest());
    for (i, (s, rate)) in sessions.iter().zip(&rates).enumerate() {
        let sender = s.sender_agent(&sim).protocol();
        println!(
            "  session {i} (group {}, {} receivers): {:.1} kbit/s mean, {} data packets, CLR {:?}",
            s.group.0,
            s.receivers.len(),
            rate * 8.0 / 1000.0,
            sender.stats().data_packets,
            sender.clr().map(|c| c.0),
        );
    }
    println!(
        "jain={:.3} aggregate={:.1} kbit/s",
        jain_index(rates.iter().copied()),
        rates.iter().sum::<f64>() * 8.0 / 1000.0
    );
    println!(
        "heap: {:.1} MB after build ({} B/receiver), {:.1} MB after run ({} B/receiver)",
        built_bytes as f64 / (1 << 20) as f64,
        built_bytes / receivers as i64,
        run_bytes as f64 / (1 << 20) as f64,
        run_bytes / receivers as i64,
    );
}

/// The hybrid probe: one TFMCC session holding `n` receivers, of which only
/// a four-receiver cohort (the CLR candidates, on the lossiest legs) runs at
/// packet level — the remaining `n - 4` are a fluid population whose
/// feedback is computed analytically per round.
fn probe_hybrid(n: usize) {
    let cohort = 4.min(n);
    let fluid_count = (n - cohort).max(1) as u64;
    let heap0 = live_bytes();
    let t0 = Instant::now();
    let legs = vec![
        StarLeg::clean(1_250_000.0, 0.03).with_downstream_loss(0.05),
        StarLeg::clean(1_250_000.0, 0.02).with_downstream_loss(0.02),
        StarLeg::clean(1_250_000.0, 0.02).with_downstream_loss(0.01),
        StarLeg::clean(1_250_000.0, 0.02),
        StarLeg::clean(12_500_000.0, 0.01),
    ];
    let mut bed = Testbed::new(1, &Topology::Star(StarConfig::default(), legs));
    let receivers = &bed.layout.receivers;
    let mut specs: Vec<PopulationSpec> = (0..cohort)
        .map(|i| PopulationSpec::packet(receivers[i]))
        .collect();
    specs.push(PopulationSpec::Fluid(FluidSpec::new(
        receivers[4],
        fluid_count,
        Dist::Uniform {
            lo: 0.001,
            hi: 0.008,
        },
        Dist::Uniform { lo: 0.04, hi: 0.08 },
    )));
    bed.wire([Flow::session(bed.layout.senders[0], specs)]);
    let built = t0.elapsed();
    let built_bytes = live_bytes() - heap0;

    let duration = 60.0;
    let t1 = Instant::now();
    bed.run_until(duration);
    let ran = t1.elapsed();
    let run_bytes = live_bytes() - heap0;

    let (sim, session) = (&bed.sim, bed.session(0));
    let sender = session.sender_agent(sim).protocol();
    let fluid = session.fluid_agent(sim, 0);
    println!(
        "n={n} hybrid cohort={cohort} fluid={fluid_count} build={built:?} run={ran:?} events={}",
        sim.events_processed()
    );
    println!("digest={:016x}", sim.stats().digest());
    println!(
        "population={} clr={:?} rate={:.1} kbit/s fluid_reports={} bins={}",
        sender.session_population(),
        sender.clr().map(|c| c.0),
        sender.current_rate() * 8.0 / 1000.0,
        fluid.reports_sent(),
        fluid.bins().len(),
    );
    println!(
        "heap: {:.1} MB after build ({:.2} B/fluid receiver), {:.1} MB after run ({:.2} B/fluid receiver)",
        built_bytes as f64 / (1 << 20) as f64,
        built_bytes as f64 / fluid_count as f64,
        run_bytes as f64 / (1 << 20) as f64,
        run_bytes as f64 / fluid_count as f64,
    );
}
