//! A multicast "video streaming" scenario: TFMCC sharing an 8 Mbit/s
//! backbone with TCP cross traffic, with a viewer on a slow DSL line joining
//! mid-session.
//!
//! This is the application domain the paper motivates (long-lived streams to
//! many receivers).  The example prints the per-interval TFMCC rate so the
//! smooth adaptation — first to TCP cross traffic, then to the slow viewer —
//! is visible, and compares smoothness (coefficient of variation) against one
//! of the TCP flows.
//!
//! Run with `cargo run --release --example video_streaming`.

use tfmcc::prelude::*;
use tfmcc::tcp::{self, TcpSenderConfig, TcpSink};

fn main() {
    let mut sim = Simulator::new(99);
    let src = sim.add_node("streamer");
    let hub = sim.add_node("backbone");
    sim.add_duplex_link(src, hub, 1_000_000.0, 0.02, QueueDiscipline::drop_tail(125));

    // Five broadband viewers plus one DSL viewer (512 kbit/s) who joins late.
    let mut viewers = Vec::new();
    for i in 0..5 {
        let v = sim.add_node(&format!("viewer-{i}"));
        sim.add_duplex_link(hub, v, 12_500_000.0, 0.01, QueueDiscipline::drop_tail(100));
        viewers.push(v);
    }
    let dsl = sim.add_node("dsl-viewer");
    sim.add_duplex_link(hub, dsl, 64_000.0, 0.03, QueueDiscipline::drop_tail(20));

    let mut specs: Vec<ReceiverSpec> = viewers.iter().map(|&v| ReceiverSpec::always(v)).collect();
    specs.push(ReceiverSpec::joining_at(dsl, 120.0).leaving_at(200.0));
    let session = TfmccSessionBuilder::default().build_population(
        &mut sim,
        src,
        &PopulationSpec::packets(&specs),
    );

    // Two TCP downloads share the backbone for the whole session.
    let mut tcp_sinks = Vec::new();
    for (i, &viewer) in viewers.iter().enumerate().take(2) {
        let sender = TcpSenderConfig::new(Address::new(viewer, Port(1)), FlowId(900 + i as u64));
        let from = Address::new(src, Port(100 + i as u16));
        tcp_sinks.push(tcp::add_flow(&mut sim, from, sender, 5.0));
    }

    println!("interval_s,tfmcc_kbit,clr");
    for step in 1..=14 {
        let t = step as f64 * 20.0;
        sim.run_until(SimTime::from_secs(t));
        let agent = session.receiver_agent(&sim, 0);
        let rate = agent.meter().average_between(t - 20.0, t) * 8.0 / 1000.0;
        let sender = session.sender_agent(&sim).protocol();
        println!("{:.0}-{:.0},{rate:.0},{:?}", t - 20.0, t, sender.clr());
    }

    let tfmcc_meter = session.receiver_agent(&sim, 0).meter();
    let tcp_meter = sim.agent::<TcpSink>(tcp_sinks[0]).unwrap().meter();
    println!(
        "\nsmoothness (coefficient of variation, 40-110 s): TFMCC {:.2} vs TCP {:.2}",
        tfmcc_meter.coefficient_of_variation(40.0, 110.0),
        tcp_meter.coefficient_of_variation(40.0, 110.0)
    );
    println!(
        "While the DSL viewer (joins at 120 s, leaves at 200 s) is subscribed, the whole group is limited to its ~512 kbit/s link — the cost of single-rate multicast the paper discusses."
    );
}
