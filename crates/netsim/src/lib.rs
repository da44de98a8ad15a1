//! A discrete-event, packet-level network simulator.
//!
//! `netsim` is the substrate under the TFMCC reproduction: it plays the role
//! ns-2 plays in the original paper.  It models
//!
//! * nodes connected by unidirectional links with bandwidth, propagation
//!   delay, drop-tail, RED or CoDel queues, and optional Bernoulli random
//!   loss — a packet crossing a drop-tail link costs one event, its arrival,
//!   fixed the moment the packet is offered to the link;
//! * unicast routing (shortest path by delay) and source-rooted multicast
//!   distribution trees derived from the unicast routes;
//! * protocol endpoints as [`sim::Agent`] trait objects that exchange
//!   [`packet::Packet`]s and set timers through a [`sim::Context`];
//! * measurement plumbing ([`stats::ThroughputMeter`],
//!   [`stats::StatsRegistry`]) for pulling figures out of a finished run.
//!
//! # Module map
//!
//! | Module | What lives there |
//! |---|---|
//! | [`events`] | The event-queue core: [`events::CalendarQueue`], taken in `(time, seq)` order one entry or one instant at a time, with in-place cancellation |
//! | [`sim`] | The [`sim::Simulator`]: world state, dispatch of each same-instant run, the timer table, and the [`sim::Context`] agents act through |
//! | [`packet`] | Zero-copy [`packet::Packet`] handles (`Rc`-backed), addresses, destinations and ids |
//! | [`link`] | Links: serialization, propagation, loss models, per-link statistics; eventless drop-tail service, per-packet RED/CoDel service |
//! | [`queue`] | Queue-discipline configuration, and the packet-holding `Queue` behind RED and CoDel links |
//! | [`routing`] | Lazy per-destination unicast routing and incremental source-rooted multicast trees |
//! | [`rng`] | Deterministic per-stream seed derivation (`stream_seed`) for link-private RNG streams |
//! | [`apps`] | Reusable traffic endpoints: CBR source, sinks, churning group members |
//! | [`stats`] | Counters and throughput meters |
//! | [`time`] | [`time::SimTime`], the totally ordered simulation clock |
//! | [`topology`] | Star and dumbbell topology builders used by the experiments |
//!
//! # Determinism
//!
//! The simulator is single-threaded and deterministic: the same seed and the
//! same agent behaviour reproduce the same run bit for bit, which the
//! experiment harness relies on.  Events pop in `(time, seq)` order (see
//! the `# Determinism` section on [`events::CalendarQueue`]) — a packet's
//! arrival takes its `seq` when the packet is offered to a drop-tail link,
//! so same-instant arrivals dispatch in offer order — and link loss/RED
//! draws come from per-link RNG streams ([`rng`]) that unrelated traffic
//! cannot perturb.
//!
//! # Example
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_node("a");
//! let b = sim.add_node("b");
//! sim.add_duplex_link(a, b, 125_000.0, 0.01, QueueDiscipline::drop_tail(50));
//!
//! let sink = sim.add_agent(b, Port(1), Box::new(Sink::new(1.0)));
//! let dst = Dest::Unicast(Address::new(b, Port(1)));
//! sim.add_agent(a, Port(1), Box::new(CbrSource::new(dst, FlowId(1), 1000, 50_000.0, 0.0)));
//!
//! sim.run_until(SimTime::from_secs(10.0));
//! let received = sim.agent::<Sink>(sink).unwrap().meter().total_bytes();
//! assert!(received > 400_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod events;
pub mod link;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::apps::{CbrSource, GroupSink, Sink};
    // Shim for `perfbench/src/sims.rs` (glob import); goes with the type.
    #[doc(hidden)]
    pub use crate::events::SchedulerKind;
    pub use crate::link::{LinkStats, LossModel};
    pub use crate::packet::{
        Address, AgentId, Dest, FlowId, GroupId, LinkId, NodeId, Packet, PacketData, Payload, Port,
    };
    pub use crate::queue::{QueueDiscipline, RedConfig};
    pub use crate::sim::{Agent, Context, FanoutMode, SchedulerDiagnostics, Simulator, TimerId};
    pub use crate::stats::{StatsRegistry, ThroughputMeter};
    pub use crate::time::SimTime;
    pub use crate::topology::{
        dumbbell, star, Dumbbell, DumbbellConfig, Star, StarConfig, StarLeg,
    };
}
