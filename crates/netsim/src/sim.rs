//! The discrete-event simulator core: world state, the [`Agent`] trait
//! protocol endpoints implement, and the [`Context`] handed to agents for
//! interacting with the simulated network.  The event queue itself is
//! [`crate::events::CalendarQueue`]; this module drives it and owns the timer
//! table (`crate::timers`) that makes cancellation O(1) and bounded.
//!
//! # Structure
//!
//! The [`Simulator`] owns two halves:
//!
//! * the [`World`]: event queue, nodes, links, routing, multicast state,
//!   statistics and the RNG used for link loss / RED;
//! * the agents: boxed [`Agent`] trait objects attached to `(node, port)`
//!   addresses.
//!
//! When an event targets an agent, the agent is temporarily taken out of its
//! slot and invoked with a [`Context`] that borrows only the world, so agents
//! can freely send packets, schedule timers and join multicast groups from
//! within their callbacks without aliasing issues.
//!
//! # Dispatch
//!
//! [`Simulator::run_until`] takes the queue one entry at a time
//! ([`CalendarQueue::pop_until`]), in `(time, seq)` order: it sets the
//! clock, retires a timer's table entry, counts the event in
//! [`Simulator::events_processed`] and dispatches it.  An event scheduled at
//! the current instant has a larger `seq` than everything taken so far, so
//! it comes after them.  Every pending timer is still queued, so
//! [`Context::cancel`] removes its entry and a cancelled timer is neither
//! dispatched nor counted.  Debug builds assert, for every entry, that it
//! lies at or after the clock and strictly after the last key taken.
//!
//! # Same-instant fan-out
//!
//! A multicast packet offered to drop-tail out-links that land it at one
//! instant is queued as **one** entry, not one per replica.  Each replica still takes its own `seq` at its
//! offer, and a replica joins the open batch only if its arrival is
//! bit-equal to the batch's and no other event took a `seq` since the
//! batch's last member.  So a batch holds the consecutive keys
//! `(t, b) … (t, b+n−1)`; no other key lies between them, and in the
//! `(time, seq)` order they are adjacent.  The batch is queued under
//! `(t, b)`, exactly where its first member sits, and dispatches its nodes
//! in offer order, one delivery each.  Anything scheduled meanwhile takes a
//! `seq` above `b+n−1` and comes after the whole batch, as it would after
//! its last member.  The dispatch order, and so every delivery, is the same
//! as with one entry per replica.

use std::any::Any;
use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::events::{CalendarQueue, SchedulerKind};
use crate::link::{Link, LinkAccept, LinkStats, LossModel};
use crate::packet::{Address, AgentId, Dest, GroupId, LinkId, NodeId, Packet, Port};
use crate::queue::QueueDiscipline;
use crate::rng::stream_seed;
use crate::routing::{Edge, MulticastState, RoutingTable};
use crate::stats::StatsRegistry;
use crate::time::SimTime;
pub use crate::timers::TimerId;
use crate::timers::TimerTable;

/// How multicast packets are replicated to their receivers.  There is one
/// way; the type survives only as the argument of
/// [`Simulator::set_fanout_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutMode {
    /// Zero-copy fan-out: every replica shares one `PacketData` allocation,
    /// local subscribers come from a node's sorted `(group, agent)` list, a
    /// tree's out-links are iterated in place, and replicas that arrive at
    /// one instant under consecutive `seq`s share one queue entry.
    #[default]
    Shared,
}

/// A protocol endpoint attached to a node.
///
/// `as_any`/`as_any_mut` let experiments downcast a finished simulation's
/// agents back to their concrete type to read out measurements; every agent
/// gets them for free, and a wrapper overrides them to forward to the agent
/// it wraps.
///
/// Agents need not be `Send`: a simulation is built, run and read out on
/// one thread (the parallel sweep runner builds each point's simulation on
/// the worker that runs it and sends back only the results), so agents and
/// the packets they exchange share state through `Rc`, not atomics.
pub trait Agent: upcast::Upcast {
    /// Called once when the simulation starts (or when the agent is added to
    /// an already-running simulation).
    fn start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a packet addressed to this agent is delivered.
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}

    /// Called when a timer scheduled by this agent fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}

    /// Upcast for downcasting to the concrete agent type.
    fn as_any(&self) -> &dyn Any {
        self.upcast()
    }

    /// Mutable upcast for downcasting to the concrete agent type.
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.upcast_mut()
    }
}

mod upcast {
    use std::any::Any;

    /// `&Self` to `&dyn Any` for every sized `'static` type: the provided
    /// [`super::Agent::as_any`] cannot coerce `self` itself, since `Self`
    /// may be `dyn Agent`.
    pub trait Upcast: Any {
        fn upcast(&self) -> &dyn Any;
        fn upcast_mut(&mut self) -> &mut dyn Any;
    }

    impl<T: Any> Upcast for T {
        fn upcast(&self) -> &dyn Any {
            self
        }
        fn upcast_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}

#[derive(Debug)]
enum EventKind {
    AgentStart {
        agent: AgentId,
    },
    Timer {
        agent: AgentId,
        token: u64,
        timer: TimerId,
    },
    Deliver {
        agent: AgentId,
        packet: Packet,
    },
    NodeArrival {
        node: NodeId,
        packet: Packet,
    },
    /// The replicas of one packet that a fan-out lands at one instant under
    /// consecutive `seq`s: a [`Batch`] slot of [`World::batches`].
    NodeArrivals {
        batch: usize,
    },
    LinkTxComplete {
        link: LinkId,
    },
}

// A batch is one slot index, so the queue's entries do not grow.
const _: () = assert!(std::mem::size_of::<EventKind>() == 32);

/// The replicas of one multicast packet queued as one
/// [`EventKind::NodeArrivals`] entry (see [`World::route_packet`]).
#[derive(Debug, Default)]
struct Batch {
    /// The packet every replica shares; `None` while the slot is free.
    packet: Option<Packet>,
    /// The nodes it arrives at, in offer order.
    nodes: Vec<NodeId>,
}

/// The batch a fan-out is gathering: its instant, the `seq` of its first
/// member (its queue key) and the packet.  Its nodes are
/// [`Batches::gathering`].
struct OpenBatch {
    at: SimTime,
    first: u64,
    packet: Packet,
}

/// Slab of [`Batch`] slots with a free list.  Node vectors move between the
/// slots and the gathering buffer, so a steady run allocates nothing.
#[derive(Debug, Default)]
struct Batches {
    slots: Vec<Batch>,
    free: Vec<usize>,
    /// Nodes of the [`OpenBatch`] being gathered, in offer order.
    gathering: Vec<NodeId>,
}

impl Batches {
    /// Queues the gathered batch under its first member's key: one replica
    /// as a [`EventKind::NodeArrival`], more as one
    /// [`EventKind::NodeArrivals`].
    fn flush(&mut self, queue: &mut CalendarQueue<EventKind>, open: OpenBatch) {
        let kind = if let [node] = self.gathering[..] {
            self.gathering.clear();
            EventKind::NodeArrival {
                node,
                packet: open.packet,
            }
        } else {
            let batch = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Batch::default());
                self.slots.len() - 1
            });
            let slot = &mut self.slots[batch];
            slot.packet = Some(open.packet);
            std::mem::swap(&mut slot.nodes, &mut self.gathering);
            EventKind::NodeArrivals { batch }
        };
        queue.schedule(open.at, open.first, kind);
    }

    /// Takes a queued batch's packet and nodes out of its slot for dispatch.
    fn take(&mut self, batch: usize) -> (Packet, Vec<NodeId>) {
        let slot = &mut self.slots[batch];
        let packet = slot.packet.take().expect("a queued batch holds its packet");
        (packet, std::mem::take(&mut slot.nodes))
    }

    /// Frees a dispatched batch's slot, keeping its node vector's capacity.
    fn release(&mut self, batch: usize, mut nodes: Vec<NodeId>) {
        nodes.clear();
        self.slots[batch].nodes = nodes;
        self.free.push(batch);
    }
}

/// A node's local tables: flat sorted arrays, because a node holds a handful
/// of entries and every delivery walks one of them.  Most nodes hold one
/// entry per table, so the first insert sizes a table exactly (see
/// [`insert_sized`]).
#[derive(Debug, Default)]
struct Node {
    /// Bound ports, sorted by port.
    agents: Vec<(Port, AgentId)>,
    /// Every `(group, subscriber)` pair of this node, sorted; the node is a
    /// group member while it has an entry for the group.
    subscriptions: Vec<(GroupId, AgentId)>,
}

/// Inserts `entry` at `pos`.  An empty table gets room for exactly one
/// entry, where `Vec` would reserve four; later inserts grow it amortised.
fn insert_sized<T>(table: &mut Vec<T>, pos: usize, entry: T) {
    if table.capacity() == 0 {
        table.reserve_exact(1);
    }
    table.insert(pos, entry);
}

/// Everything in the simulation except the agents themselves.
pub struct World {
    now: SimTime,
    queue: CalendarQueue<EventKind>,
    seq: u64,
    nodes: Vec<Node>,
    links: Vec<Link>,
    routes: RoutingTable,
    routes_dirty: bool,
    multicast: MulticastState,
    stats: StatsRegistry,
    /// Cached per-group join/leave counter names, so membership churn (a
    /// frequent event under the churn workloads) does not format a fresh
    /// key string on every transition.
    group_stat_keys: BTreeMap<GroupId, (String, String)>,
    agent_addrs: Vec<Address>,
    /// `(fire time, event seq)` of every scheduled, not yet fired or
    /// cancelled timer.  Cancellation resolves through this table, so a
    /// stale [`Context::cancel`] (the timer already fired) is a no-op and
    /// leaves nothing behind.
    timers: TimerTable,
    next_packet: u64,
    /// The simulation's root seed; per-link RNG streams are derived from it.
    seed: u64,
    rng: SmallRng,
    events_processed: u64,
    /// Reused buffer for the packet a RED/CoDel link hands back per
    /// `LinkTxComplete` (packet, completion time).
    tx_scratch: Vec<(Packet, SimTime)>,
    /// Same-instant fan-outs queued as one entry each.
    batches: Batches,
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            seq: 0,
            nodes: Vec::new(),
            links: Vec::new(),
            routes: RoutingTable::default(),
            routes_dirty: true,
            multicast: MulticastState::default(),
            stats: StatsRegistry::new(),
            group_stat_keys: BTreeMap::new(),
            agent_addrs: Vec::new(),
            timers: TimerTable::default(),
            next_packet: 0,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            events_processed: 0,
            tx_scratch: Vec::new(),
            batches: Batches::default(),
        }
    }

    /// Enqueues an event; returns the event's sequence number (the tie-break
    /// half of its `(time, seq)` queue key).
    fn push_event(&mut self, time: SimTime, kind: EventKind) -> u64 {
        enqueue(&mut self.queue, &mut self.seq, self.now, time, kind)
    }

    /// Rebuilds the routes after a topology change, straight from the link
    /// table, and trims the node and link tables to their length: the
    /// topology rarely grows after its first route, and when it does, the
    /// rebuild already costs a pass over every link.
    fn ensure_routes(&mut self) {
        if self.routes_dirty {
            self.multicast.invalidate();
            self.nodes.shrink_to_fit();
            self.links.shrink_to_fit();
            let edges = self.links.iter().map(|link| Edge {
                link: link.id,
                from: link.from,
                to: link.to,
                delay: link.delay,
            });
            self.routes = RoutingTable::from_edges(self.nodes.len(), edges);
            self.routes_dirty = false;
        }
    }

    /// Routes a packet that is present at `node` (either just sent by a local
    /// agent or arriving from a link), replicating it onto links as needed.
    /// Drop-tail replicas that arrive at one instant under consecutive
    /// `seq`s are queued as one [`EventKind::NodeArrivals`] entry (see the
    /// [module documentation](self)); a batch of one is a plain
    /// [`EventKind::NodeArrival`].
    ///
    /// A packet can match **at most one** local agent — unicast names a
    /// single port, and multicast subscribers on one node are distinguished
    /// by their (unique) port, of which the destination names one — so the
    /// local delivery, if any, is returned instead of being pushed through
    /// the event queue.  The dispatcher invokes the agent inline, which saves
    /// one schedule+pop per delivered packet on the fan-out hot path;
    /// `Context::send` still enqueues it (the sending agent is detached from
    /// its slot while its callback runs, so a send-to-self cannot be
    /// dispatched inline).
    #[must_use]
    fn route_packet(&mut self, node: NodeId, packet: Packet) -> Option<(AgentId, Packet)> {
        self.ensure_routes();
        let now = self.now;
        match packet.dst {
            Dest::Unicast(addr) => {
                if addr.node == node {
                    let agents = &self.nodes[node.0].agents;
                    match agents.binary_search_by_key(&addr.port, |&(port, _)| port) {
                        Ok(i) => return Some((agents[i].1, packet)),
                        Err(_) => self.stats.add("drops.no_listener", 1.0),
                    }
                } else {
                    match self.routes.next_hop(node, addr.node) {
                        Some(link) => {
                            if let Some((to, packet, at)) = offer_to_link(
                                &mut self.links,
                                &mut self.queue,
                                &mut self.seq,
                                &mut self.stats,
                                now,
                                link,
                                packet,
                            ) {
                                self.push_event(at, EventKind::NodeArrival { node: to, packet });
                            }
                        }
                        None => self.stats.add("drops.no_route", 1.0),
                    }
                }
                None
            }
            Dest::Multicast { group, port } => {
                // Replicate along the distribution tree rooted at the
                // source, iterating its out-link list in place; every
                // replica shares the one `PacketData`.  Drop-tail replicas
                // that land at one instant under consecutive `seq`s share
                // one queue entry: each still takes its own `seq` here, in
                // offer order, and joins the open batch only if nothing
                // else took one since the batch's last member.
                let tree = self.multicast.tree(group, packet.src.node, &self.routes);
                let mut open: Option<OpenBatch> = None;
                for &link in tree.out_links(node) {
                    let Some((to, replica, at)) = offer_to_link(
                        &mut self.links,
                        &mut self.queue,
                        &mut self.seq,
                        &mut self.stats,
                        now,
                        link,
                        packet.clone(),
                    ) else {
                        continue;
                    };
                    let joins = open.as_ref().is_some_and(|b| {
                        b.at.as_secs().to_bits() == at.as_secs().to_bits()
                            && self.seq == b.first + self.batches.gathering.len() as u64
                    });
                    if !joins {
                        if let Some(done) = open.take() {
                            self.batches.flush(&mut self.queue, done);
                        }
                        open = Some(OpenBatch {
                            at,
                            first: self.seq,
                            packet: replica,
                        });
                    }
                    self.batches.gathering.push(to);
                    self.seq += 1;
                }
                if let Some(done) = open {
                    self.batches.flush(&mut self.queue, done);
                }
                // Local delivery: scan the node's subscribers to `group` for
                // the (unique) agent bound to the destination port — no
                // allocation, no sort.
                let subs = &self.nodes[node.0].subscriptions;
                let first = subs.partition_point(|&(g, _)| g < group);
                let agent = subs[first..]
                    .iter()
                    .take_while(|&&(g, _)| g == group)
                    .map(|&(_, agent)| agent)
                    .find(|a| {
                        let addr = self.agent_addrs[a.0];
                        addr.port == port && addr != packet.src
                    })?;
                Some((agent, packet))
            }
        }
    }

    /// Subscribes `agent` (on `node`) to `group`, maintaining the sorted
    /// subscriber list and propagating the node-level membership to the
    /// multicast state.
    fn subscribe(&mut self, agent: AgentId, node: NodeId, group: GroupId) {
        // Cached trees are updated in place on membership changes, so they
        // must be built against the *current* topology: settle any pending
        // topology change (which drops stale trees) before touching them —
        // e.g. a node added after a tree was cached would otherwise be
        // out of bounds for the tree's parent table.
        self.ensure_routes();
        let subs = &mut self.nodes[node.0].subscriptions;
        let Err(pos) = subs.binary_search(&(group, agent)) else {
            return; // already subscribed
        };
        insert_sized(subs, pos, (group, agent));
        self.multicast.join(group, node);
        self.stats.add("multicast.agent_joins", 1.0);
        // Per-group (per-session) counter, so multi-session workloads can
        // attribute membership churn to individual sessions.
        let keys = Self::group_keys(&mut self.group_stat_keys, group);
        self.stats.add(&keys.0, 1.0);
    }

    /// The cached `(joins, leaves)` counter names of a group.
    fn group_keys(
        cache: &mut BTreeMap<GroupId, (String, String)>,
        group: GroupId,
    ) -> &(String, String) {
        cache.entry(group).or_insert_with(|| {
            (
                format!("multicast.agent_joins.group.{}", group.0),
                format!("multicast.agent_leaves.group.{}", group.0),
            )
        })
    }

    /// Removes `agent`'s subscription to `group`; the node leaves the group
    /// once no agent on it remains subscribed.
    fn unsubscribe(&mut self, agent: AgentId, node: NodeId, group: GroupId) {
        // See `subscribe`: in-place tree maintenance requires the topology
        // to be settled first.
        self.ensure_routes();
        let subs = &mut self.nodes[node.0].subscriptions;
        let Ok(pos) = subs.binary_search(&(group, agent)) else {
            return; // was not subscribed
        };
        subs.remove(pos);
        if subs.binary_search_by_key(&group, |&(g, _)| g).is_err() {
            self.multicast.leave(group, node);
        }
        self.stats.add("multicast.agent_leaves", 1.0);
        let keys = Self::group_keys(&mut self.group_stat_keys, group);
        self.stats.add(&keys.1, 1.0);
    }

    fn handle_link_tx_complete(&mut self, link_id: LinkId) {
        let mut out = std::mem::take(&mut self.tx_scratch);
        let link = &mut self.links[link_id.0];
        let dropped_before = link.stats.dropped_queue;
        let next = link.tx_complete(self.now, &mut out);
        // CoDel drops packets at dequeue time; fold those into the same
        // world-level counter that ingress drops (loss model, full queue,
        // RED early detection) feed.
        let dequeue_drops = link.stats.dropped_queue - dropped_before;
        let (to, delay) = (link.to, link.delay);
        if dequeue_drops > 0 {
            self.stats.add("drops.link", dequeue_drops as f64);
        }
        for (packet, completes_at) in out.drain(..) {
            let arrives_at = completes_at + delay;
            self.push_event(arrives_at, EventKind::NodeArrival { node: to, packet });
        }
        self.tx_scratch = out;
        if let Some(t) = next {
            self.push_event(t, EventKind::LinkTxComplete { link: link_id });
        }
    }
}

/// Enqueues `kind` at `time` under the next sequence number and returns that
/// number.  Takes the two fields it needs, not the [`World`], so a link
/// offer can schedule while a multicast tree is borrowed.
fn enqueue(
    queue: &mut CalendarQueue<EventKind>,
    seq: &mut u64,
    now: SimTime,
    time: SimTime,
    kind: EventKind,
) -> u64 {
    debug_assert!(time >= now, "cannot schedule into the past");
    let this = *seq;
    *seq += 1;
    queue.schedule(time, this, kind);
    this
}

/// Offers `packet` to a link at `now`; the one offer path.  A RED/CoDel
/// link's transmission end is scheduled and a drop is counted here; a
/// drop-tail link's arrival is already fixed and comes back as
/// `(node, packet, arrives_at)` for the caller to schedule at once, so the
/// one event of the hop takes its tie-break `seq` in offer order.  It takes
/// the world's fields one by one so that [`World::route_packet`] can call it
/// while it iterates a tree's out-links in place.
#[must_use]
fn offer_to_link(
    links: &mut [Link],
    queue: &mut CalendarQueue<EventKind>,
    seq: &mut u64,
    stats: &mut StatsRegistry,
    now: SimTime,
    link_id: LinkId,
    packet: Packet,
) -> Option<(NodeId, Packet, SimTime)> {
    let link = &mut links[link_id.0];
    // Loss/RED randomness comes from the link's own stream.
    match link.offer(packet, now) {
        LinkAccept::Arrives { packet, arrives_at } => return Some((link.to, packet, arrives_at)),
        LinkAccept::Accepted { tx_complete_at } => {
            if let Some(t) = tx_complete_at {
                let done = EventKind::LinkTxComplete { link: link_id };
                enqueue(queue, seq, now, t, done);
            }
        }
        LinkAccept::Dropped => stats.add("drops.link", 1.0),
    }
    None
}

/// The handle agents use to interact with the simulation from inside their
/// callbacks.
pub struct Context<'a> {
    world: &'a mut World,
    agent: AgentId,
    addr: Address,
}

impl Context<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Address of the agent being invoked.
    pub fn addr(&self) -> Address {
        self.addr
    }

    /// Id of the agent being invoked.
    pub fn agent_id(&self) -> AgentId {
        self.agent
    }

    /// Sends a packet.  The packet's `id` and `sent_at` fields are stamped by
    /// the simulator; the source address is forced to this agent's address.
    pub fn send(&mut self, mut packet: Packet) {
        let id = self.world.next_packet;
        self.world.next_packet += 1;
        packet.stamp(id, self.addr, self.world.now);
        let node = self.addr.node;
        if let Some((agent, packet)) = self.world.route_packet(node, packet) {
            // Send-to-local-agent (possibly self): deliver through the event
            // queue — the sender's own slot is empty while its callback runs.
            self.world
                .push_event(self.world.now, EventKind::Deliver { agent, packet });
        }
    }

    /// Schedules a timer `delay` seconds from now; `token` is passed back to
    /// [`Agent::on_timer`].
    pub fn schedule(&mut self, delay: f64, token: u64) -> TimerId {
        assert!(delay >= 0.0, "timer delay must be non-negative");
        let at = self.world.now + delay;
        let seq = self.world.seq;
        let timer = self.world.timers.insert(at, seq);
        let queued = self.world.push_event(
            at,
            EventKind::Timer {
                agent: self.agent,
                token,
                timer,
            },
        );
        debug_assert_eq!(queued, seq, "the timer is queued under the next seq");
        timer
    }

    /// Cancels a previously scheduled timer (no-op if it already fired or
    /// was already cancelled).  The timer's queue entry is removed in place,
    /// so cancellation state stays bounded by the number of outstanding
    /// timers, even across unbounded churn.
    pub fn cancel(&mut self, timer: TimerId) {
        if let Some((time, seq)) = self.world.timers.remove(timer) {
            self.world.queue.cancel(time, seq);
        }
    }

    /// Subscribes this agent (and its node) to a multicast group.
    pub fn join_group(&mut self, group: GroupId) {
        let node = self.addr.node;
        self.world.subscribe(self.agent, node, group);
    }

    /// Unsubscribes this agent from a multicast group.  The node leaves the
    /// group once no agent on it remains subscribed.
    pub fn leave_group(&mut self, group: GroupId) {
        let node = self.addr.node;
        self.world.unsubscribe(self.agent, node, group);
    }

    /// Shared statistics registry.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        &mut self.world.stats
    }

    /// A uniform random sample in `[0, 1)` from the simulation-global RNG.
    ///
    /// Agents that need heavier random machinery should own their own
    /// deterministic RNG; this is a convenience for one-off draws.  Note
    /// that the stream is **shared between all agents**: draws here
    /// interleave in event order, so adding or reordering agents that use
    /// `uniform` perturbs each other's samples (links are immune — their
    /// loss/RED draws come from private per-link streams).
    pub fn uniform(&mut self) -> f64 {
        self.world.rng.gen()
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    world: World,
    agents: Vec<Option<Box<dyn Agent>>>,
    /// `(time, seq)` of the last event taken out of the queue: the next one
    /// must lie strictly after it (see [`Simulator::run_until`]).
    last_popped: Option<(SimTime, u64)>,
}

/// A snapshot of the event-core bookkeeping, exposed for tests and
/// diagnostics (see [`Simulator::scheduler_diagnostics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerDiagnostics {
    /// Live (scheduled, not yet dispatched or cancelled) queue entries.  A
    /// same-instant fan-out batch is one entry, however many nodes it
    /// reaches (see the [module documentation](self)).
    pub queued_events: usize,
    /// Entry slots the queue has allocated ([`CalendarQueue::capacity`]):
    /// retained memory, which must follow `queued_events` and not the
    /// largest burst the run ever saw.
    pub queue_capacity: usize,
    /// Timers scheduled and not yet fired or cancelled; each is one of the
    /// `queued_events`.
    pub pending_timers: usize,
}

impl Simulator {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            world: World::new(seed),
            agents: Vec::new(),
            last_popped: None,
        }
    }

    /// Same as [`Simulator::new`]: there is one event queue.  Exists only
    /// because `perfbench/src/sims.rs` still calls it (see
    /// [`Simulator::set_fanout_mode`]); delete it with that call.
    #[doc(hidden)]
    pub fn with_scheduler(seed: u64, _: SchedulerKind) -> Self {
        Self::new(seed)
    }

    /// Event-core bookkeeping counters, for tests and diagnostics.
    pub fn scheduler_diagnostics(&self) -> SchedulerDiagnostics {
        SchedulerDiagnostics {
            queued_events: self.world.queue.len(),
            queue_capacity: self.world.queue.capacity(),
            pending_timers: self.world.timers.len(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Number of events dispatched so far.  A cancelled timer leaves the
    /// event queue at once and is never dispatched, so it does not count.  A
    /// same-instant fan-out batch counts once per node it delivers to, as
    /// one entry per replica would.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed
    }

    /// Adds a node and returns its id.  The name labels the node at the
    /// call site only; the simulator does not keep it.
    pub fn add_node(&mut self, _name: &str) -> NodeId {
        let id = NodeId(self.world.nodes.len());
        self.world.nodes.push(Node::default());
        self.world.routes_dirty = true;
        id
    }

    /// Adds a unidirectional link and returns its id.
    ///
    /// `bandwidth` is in bytes per second, `delay` in seconds.  Both must be
    /// positive and finite — a zero-bandwidth or zero-delay link silently
    /// degenerates the simulation (infinite serialization time, zero-cost
    /// routing metric), so [`Link::new`] rejects such parameters with a
    /// clear panic instead.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bandwidth: f64,
        delay: f64,
        discipline: QueueDiscipline,
    ) -> LinkId {
        assert!(from.0 < self.world.nodes.len(), "unknown from node");
        assert!(to.0 < self.world.nodes.len(), "unknown to node");
        let id = LinkId(self.world.links.len());
        let link_seed = stream_seed(self.world.seed, id.0 as u64);
        self.world.links.push(Link::new(
            id, from, to, bandwidth, delay, discipline, link_seed,
        ));
        self.world.routes_dirty = true;
        id
    }

    /// Adds a pair of unidirectional links (one per direction) with identical
    /// parameters; returns `(a_to_b, b_to_a)`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: f64,
        delay: f64,
        discipline: QueueDiscipline,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, bandwidth, delay, discipline.clone());
        let ba = self.add_link(b, a, bandwidth, delay, discipline);
        (ab, ba)
    }

    /// Sets the random-loss model of a link.  Rejects invalid parameters
    /// (NaN or out-of-range drop probability) with a clear panic.
    pub fn set_link_loss(&mut self, link: LinkId, loss: LossModel) {
        loss.validate();
        self.world.links[link.0].loss = loss;
    }

    /// Changes the propagation delay of a link at runtime (used by the
    /// RTT-responsiveness experiments).  Routing is recomputed because the
    /// delay is the routing metric.
    ///
    /// The new delay applies to packets offered to the link after the call:
    /// a drop-tail link fixes a packet's arrival when it is offered, so one
    /// already accepted keeps the delay it was offered under.
    pub fn set_link_delay(&mut self, link: LinkId, delay: f64) {
        assert!(
            delay.is_finite() && delay > 0.0,
            "link delay must be a positive, finite number of seconds, got {delay}"
        );
        self.world.links[link.0].delay = delay;
        self.world.routes_dirty = true;
    }

    /// Per-link statistics.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.world.links[link.0].stats
    }

    /// Read-only access to a link (bandwidth, delay, loss model, counters).
    pub fn link(&self, link: LinkId) -> &Link {
        &self.world.links[link.0]
    }

    /// Packets waiting on a link right now for their transmission to start.
    pub fn link_queue_len(&self, link: LinkId) -> usize {
        self.world.links[link.0].queue_len(self.world.now)
    }

    /// Attaches an agent to `(node, port)`; its [`Agent::start`] runs at the
    /// current simulation time (before any later event).
    pub fn add_agent(&mut self, node: NodeId, port: Port, agent: Box<dyn Agent>) -> AgentId {
        assert!(node.0 < self.world.nodes.len(), "unknown node");
        let id = AgentId(self.agents.len());
        let agents = &mut self.world.nodes[node.0].agents;
        let Err(pos) = agents.binary_search_by_key(&port, |&(bound, _)| bound) else {
            panic!("port {port:?} on node {node:?} is already bound");
        };
        insert_sized(agents, pos, (port, id));
        self.agents.push(Some(agent));
        self.world.agent_addrs.push(Address::new(node, port));
        self.world
            .push_event(self.world.now, EventKind::AgentStart { agent: id });
        id
    }

    /// Address of an agent.
    pub fn agent_addr(&self, agent: AgentId) -> Address {
        self.world.agent_addrs[agent.0]
    }

    /// Borrows an agent downcast to its concrete type.
    pub fn agent<T: Agent>(&self, agent: AgentId) -> Option<&T> {
        self.agents[agent.0]
            .as_ref()
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Shared statistics registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.world.stats
    }

    /// Subscribes an agent to a multicast group from outside the simulation
    /// (equivalent to the agent calling [`Context::join_group`] itself).
    pub fn join_group(&mut self, agent: AgentId, group: GroupId) {
        let addr = self.world.agent_addrs[agent.0];
        self.world.subscribe(agent, addr.node, group);
    }

    /// Removes an agent's subscription from outside the simulation
    /// (equivalent to the agent calling [`Context::leave_group`] itself).
    pub fn leave_group(&mut self, agent: AgentId, group: GroupId) {
        let addr = self.world.agent_addrs[agent.0];
        self.world.unsubscribe(agent, addr.node, group);
    }

    /// Does nothing: there is one fan-out path.  Exists, with [`FanoutMode`],
    /// only because `perfbench/src/sims.rs` still calls it (the benchmark is
    /// frozen outside `[benchmark]` PRs); delete both once that call is gone.
    #[doc(hidden)]
    pub fn set_fanout_mode(&mut self, _mode: FanoutMode) {}

    /// Does nothing: there is one engine.  The three `domain*` shims exist
    /// only because `perfbench/src/sims.rs` still calls them (see
    /// [`Simulator::set_fanout_mode`]); delete them with that call.
    #[doc(hidden)]
    pub fn set_domains(&mut self, _: usize) {}

    /// Always 1; see [`Simulator::set_domains`].
    #[doc(hidden)]
    pub fn domains(&self) -> usize {
        1
    }

    /// Always empty; see [`Simulator::set_domains`].
    #[doc(hidden)]
    pub fn domain_event_counts(&self) -> &[u64] {
        &[]
    }

    /// Runs the simulation until the event queue is empty or `until` is
    /// reached (whichever comes first).  Time is advanced to `until`.
    ///
    /// Events leave the queue one entry at a time (see the [module
    /// documentation](self)).  Nothing is ever scheduled before `now` and
    /// `seq` only grows, so every entry must lie strictly after the last key
    /// taken, in `(time, seq)` order — which is heap order for everything
    /// dispatched.  Debug builds assert it.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((time, seq, kind)) = self.world.queue.pop_until(until) {
            debug_assert!(
                time >= self.world.now && Some((time, seq)) > self.last_popped,
                "event queue popped out of order: {:?} after {:?} at {}",
                (time, seq),
                self.last_popped,
                self.world.now
            );
            self.world.now = time;
            self.last_popped = Some((time, seq));
            if let EventKind::Timer { timer, .. } = kind {
                let pending = self.world.timers.remove(timer);
                debug_assert!(pending.is_some(), "a queued timer is pending");
            }
            self.world.events_processed += 1;
            self.dispatch(kind);
        }
        if self.world.now < until {
            self.world.now = until;
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::AgentStart { agent } => {
                self.with_agent(agent, |a, ctx| a.start(ctx));
            }
            EventKind::Timer { agent, token, .. } => {
                // `run_until` has retired the timer's table entry.
                self.with_agent(agent, |a, ctx| a.on_timer(ctx, token));
            }
            EventKind::Deliver { agent, packet } => {
                self.with_agent(agent, |a, ctx| a.on_packet(ctx, packet));
            }
            EventKind::NodeArrival { node, packet } => self.arrive(node, packet),
            EventKind::NodeArrivals { batch } => {
                let (packet, nodes) = self.world.batches.take(batch);
                // `run_until` counted the entry once: one event per node.
                self.world.events_processed += nodes.len() as u64 - 1;
                for &node in &nodes {
                    self.arrive(node, packet.clone());
                }
                self.world.batches.release(batch, nodes);
            }
            EventKind::LinkTxComplete { link } => {
                self.world.handle_link_tx_complete(link);
            }
        }
    }

    /// A packet arriving at `node`: routed on, and delivered inline to the
    /// local agent it matches, if any — a routed packet matches at most one
    /// agent, so no queue round-trip is needed.
    fn arrive(&mut self, node: NodeId, packet: Packet) {
        if let Some((agent, packet)) = self.world.route_packet(node, packet) {
            self.with_agent(agent, |a, ctx| a.on_packet(ctx, packet));
        }
    }

    fn with_agent<F>(&mut self, agent: AgentId, f: F)
    where
        F: FnOnce(&mut Box<dyn Agent>, &mut Context<'_>),
    {
        let Some(mut boxed) = self.agents[agent.0].take() else {
            return;
        };
        let addr = self.world.agent_addrs[agent.0];
        {
            let mut ctx = Context {
                world: &mut self.world,
                agent,
                addr,
            };
            f(&mut boxed, &mut ctx);
        }
        self.agents[agent.0] = Some(boxed);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::packet::{FlowId, Payload};

    /// Simple agent that sends `count` packets of `size` bytes to `dst` at
    /// fixed intervals and records every packet it receives.
    struct Blaster {
        dst: Dest,
        size: u32,
        count: u32,
        interval: f64,
        sent: u32,
        received: Vec<(f64, u32)>,
    }

    impl Blaster {
        fn new(dst: Dest, size: u32, count: u32, interval: f64) -> Self {
            Blaster {
                dst,
                size,
                count,
                interval,
                sent: 0,
                received: Vec::new(),
            }
        }
    }

    impl Agent for Blaster {
        fn start(&mut self, ctx: &mut Context<'_>) {
            if self.count > 0 {
                ctx.schedule(0.0, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            let pkt = Packet::new(ctx.addr(), self.dst, self.size, FlowId(1), Payload::empty());
            ctx.send(pkt);
            self.sent += 1;
            if self.sent < self.count {
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            self.received.push((ctx.now().as_secs(), packet.size));
        }
    }

    /// Agent that joins a multicast group and counts received packets.
    struct GroupListener {
        group: GroupId,
        received: u32,
    }

    impl Agent for GroupListener {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.join_group(self.group);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {
            self.received += 1;
        }
    }

    /// Sends one `size`-byte packet to `dst` at each of the `at` instants
    /// (all timers are scheduled up front, in order) and — if `echo` — from
    /// inside every delivery; logs what it gets.
    struct Scripted {
        dst: Dest,
        size: u32,
        at: Vec<f64>,
        echo: bool,
        got: Vec<(SimTime, Packet)>,
    }

    impl Scripted {
        fn new(dst: Dest, size: u32, at: &[f64]) -> Self {
            Scripted {
                dst,
                size,
                at: at.to_vec(),
                echo: false,
                got: Vec::new(),
            }
        }

        fn send(&self, ctx: &mut Context<'_>) {
            let pkt = Packet::new(ctx.addr(), self.dst, self.size, FlowId(1), Payload::empty());
            ctx.send(pkt);
        }
    }

    impl Agent for Scripted {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for &t in &self.at {
                ctx.schedule(t, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
            self.send(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            self.got.push((ctx.now(), packet));
            if self.echo {
                self.send(ctx);
            }
        }
    }

    /// `a → b` over one drop-tail link of `bandwidth` B/s and `limit` queue
    /// slots; a [`Scripted`] agent on `a` sends `size`-byte packets to one on
    /// `b` at the `at` instants.  Returns the simulation, the link and the
    /// receiving agent.
    fn scripted_pair(
        bandwidth: f64,
        delay: f64,
        limit: usize,
        size: u32,
        at: &[f64],
    ) -> (Simulator, LinkId, AgentId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let link = sim.add_link(a, b, bandwidth, delay, QueueDiscipline::drop_tail(limit));
        let to = Dest::Unicast(Address::new(b, Port(1)));
        let sink = sim.add_agent(b, Port(1), Box::new(Scripted::new(to, 0, &[])));
        sim.add_agent(a, Port(1), Box::new(Scripted::new(to, size, at)));
        (sim, link, sink)
    }

    fn two_node_sim() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // 1 Mbyte/s, 10 ms delay.
        sim.add_duplex_link(a, b, 1_000_000.0, 0.01, QueueDiscipline::drop_tail(100));
        (sim, a, b)
    }

    #[test]
    fn unicast_delivery_has_correct_latency() {
        let (mut sim, a, b) = two_node_sim();
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(1))),
                100,
                0,
                1.0,
            )),
        );
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 1, 1.0)),
        );
        sim.run_until(SimTime::from_secs(1.0));
        let sink_ref: &Blaster = sim.agent(sink).unwrap();
        assert_eq!(sink_ref.received.len(), 1);
        // Latency = serialization (1000 B / 1 MB/s = 1 ms) + propagation 10 ms.
        let (t, size) = sink_ref.received[0];
        assert!((t - 0.011).abs() < 1e-9, "arrival at {t}");
        assert_eq!(size, 1000);
    }

    #[test]
    fn bottleneck_paces_packets_at_link_rate() {
        let (mut sim, a, b) = two_node_sim();
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(9))),
                100,
                0,
                1.0,
            )),
        );
        // Send 10 packets back to back; they serialize at 1 ms each.
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 10, 0.0)),
        );
        sim.run_until(SimTime::from_secs(1.0));
        let sink_ref: &Blaster = sim.agent(sink).unwrap();
        assert_eq!(sink_ref.received.len(), 10);
        for (i, (t, _)) in sink_ref.received.iter().enumerate() {
            let expected = 0.001 * (i as f64 + 1.0) + 0.01;
            assert!(
                (t - expected).abs() < 1e-9,
                "packet {i} arrived at {t}, expected {expected}"
            );
        }
    }

    #[test]
    fn queue_overflow_drops_packets() {
        let mut sim = Simulator::new(2);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // Tiny queue of 2 packets.
        sim.add_link(a, b, 1000.0, 0.001, QueueDiscipline::drop_tail(2));
        sim.add_link(b, a, 1000.0, 0.001, QueueDiscipline::drop_tail(2));
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(9))),
                100,
                0,
                1.0,
            )),
        );
        // 10 packets of 1000 B back to back on a 1 kB/s link: 1 in flight,
        // 2 queued, 7 dropped.
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 10, 0.0)),
        );
        sim.run_until(SimTime::from_secs(60.0));
        let sink_ref: &Blaster = sim.agent(sink).unwrap();
        assert_eq!(sink_ref.received.len(), 3);
        assert_eq!(sim.stats().counter("drops.link"), 7.0);
        assert_eq!(sim.link_stats(LinkId(0)).dropped_queue, 7);
    }

    #[test]
    fn multicast_fans_out_to_all_members() {
        let mut sim = Simulator::new(3);
        let src_node = sim.add_node("src");
        let router = sim.add_node("router");
        let r1 = sim.add_node("r1");
        let r2 = sim.add_node("r2");
        let r3 = sim.add_node("r3");
        let q = || QueueDiscipline::drop_tail(100);
        sim.add_duplex_link(src_node, router, 1e6, 0.005, q());
        for r in [r1, r2, r3] {
            sim.add_duplex_link(router, r, 1e6, 0.01, q());
        }
        let group = GroupId(7);
        let mut listener_ids = Vec::new();
        for r in [r1, r2, r3] {
            let id = sim.add_agent(r, Port(5), Box::new(GroupListener { group, received: 0 }));
            listener_ids.push(id);
        }
        let _src = sim.add_agent(
            src_node,
            Port(5),
            Box::new(Blaster::new(
                Dest::Multicast {
                    group,
                    port: Port(5),
                },
                500,
                4,
                0.1,
            )),
        );
        sim.run_until(SimTime::from_secs(2.0));
        for id in listener_ids {
            let l: &GroupListener = sim.agent(id).unwrap();
            assert_eq!(l.received, 4);
        }
        // The source link carried each packet exactly once (replication
        // happens at the router, not at the source).
        assert_eq!(sim.link_stats(LinkId(0)).delivered, 4);
    }

    #[test]
    fn multicast_leave_stops_delivery() {
        let mut sim = Simulator::new(4);
        let s = sim.add_node("s");
        let r = sim.add_node("r");
        sim.add_duplex_link(s, r, 1e6, 0.001, QueueDiscipline::drop_tail(10));
        let group = GroupId(1);
        let listener = sim.add_agent(r, Port(2), Box::new(GroupListener { group, received: 0 }));
        let _src = sim.add_agent(
            s,
            Port(2),
            Box::new(Blaster::new(
                Dest::Multicast {
                    group,
                    port: Port(2),
                },
                100,
                20,
                0.1,
            )),
        );
        sim.run_until(SimTime::from_secs(0.55));
        // Leave the group externally.
        sim.leave_group(listener, group);
        sim.run_until(SimTime::from_secs(3.0));
        let l: &GroupListener = sim.agent(listener).unwrap();
        // Only the packets sent during the first ~0.55 s arrived.
        assert!(
            l.received >= 5 && l.received <= 7,
            "received {}",
            l.received
        );
    }

    /// Timers fire in `(time, seq)` order and cancels take, also within one
    /// instant: a timer cancelled by an earlier event at its own instant is
    /// not dispatched, not counted and not left in the table, and a
    /// zero-delay timer scheduled at an instant fires after every event
    /// already queued there.
    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerAgent {
            fired: Vec<u64>,
            cancel_target: Option<TimerId>,
            same_instant_target: Option<TimerId>,
        }
        impl Agent for TimerAgent {
            fn start(&mut self, ctx: &mut Context<'_>) {
                ctx.schedule(0.3, 3);
                ctx.schedule(0.1, 1);
                let t = ctx.schedule(0.2, 2);
                self.cancel_target = Some(t);
                ctx.schedule(0.15, 99);
                // Canceller and target share an instant, canceller first.
                ctx.schedule(0.5, 98);
                self.same_instant_target = Some(ctx.schedule(0.5, 4));
                // A two-event run whose first event schedules a zero delay.
                ctx.schedule(0.6, 5);
                ctx.schedule(0.6, 6);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.fired.push(token);
                match token {
                    // Cancel token 2 before it fires.
                    99 => ctx.cancel(self.cancel_target.take().unwrap()),
                    // Cancel token 4 inside the run it belongs to.
                    98 => ctx.cancel(self.same_instant_target.take().unwrap()),
                    5 => {
                        ctx.schedule(0.0, 7);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new(5);
        let n = sim.add_node("n");
        let id = sim.add_agent(
            n,
            Port(1),
            Box::new(TimerAgent {
                fired: Vec::new(),
                cancel_target: None,
                same_instant_target: None,
            }),
        );
        sim.run_until(SimTime::from_secs(1.0));
        let a: &TimerAgent = sim.agent(id).unwrap();
        assert_eq!(a.fired, vec![1, 99, 3, 98, 5, 6, 7]);
        // The agent's start plus the seven timers that fired.
        assert_eq!(sim.events_processed(), 8);
        let diag = sim.scheduler_diagnostics();
        assert_eq!((diag.pending_timers, diag.queued_events), (0, 0));
    }

    #[test]
    fn run_until_advances_time_even_with_no_events() {
        let mut sim = Simulator::new(6);
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.now().as_secs(), 5.0);
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn lossy_link_drops_roughly_expected_fraction() {
        let mut sim = Simulator::new(7);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (ab, _) = sim.add_duplex_link(a, b, 1e7, 0.001, QueueDiscipline::drop_tail(1000));
        sim.set_link_loss(ab, LossModel::Bernoulli { p: 0.2 });
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(9))),
                100,
                0,
                1.0,
            )),
        );
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 2000, 0.001)),
        );
        // A drop-tail link counts a delivery the moment it accepts the
        // packet, so the two counters agree mid-run too.
        sim.run_until(SimTime::from_secs(1.0));
        let mid = sim.link_stats(ab);
        assert!(mid.enqueued > 0 && mid.enqueued < 1600);
        assert_eq!(mid.delivered, mid.enqueued);
        sim.run_until(SimTime::from_secs(10.0));
        let stats = sim.link_stats(ab);
        assert_eq!(stats.delivered, stats.enqueued);
        assert_eq!(stats.dropped_queue, 0);
        let got = sim.agent::<Blaster>(sink).unwrap().received.len() as f64;
        assert_eq!(got, stats.delivered as f64);
        let frac = got / 2000.0;
        assert!(
            (0.75..=0.85).contains(&frac),
            "expected ≈80% delivery, got {frac}"
        );
        assert_eq!(
            sim.link_stats(ab).dropped_loss + sim.link_stats(ab).delivered,
            2000
        );
    }

    /// Runs a fixed lossy-link workload and returns how many packets got
    /// through.  With `extra_gear`, an unrelated link and a chatty agent are
    /// added too — per-link RNG streams mean their draws must not perturb
    /// the lossy link's drop pattern (before per-link streams, every offer
    /// anywhere advanced one global RNG).
    fn lossy_delivery_count(extra_gear: bool) -> usize {
        let mut sim = Simulator::new(77);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let (ab, _) = sim.add_duplex_link(a, b, 1e7, 0.001, QueueDiscipline::drop_tail(1000));
        sim.set_link_loss(ab, LossModel::Bernoulli { p: 0.3 });
        if extra_gear {
            let c = sim.add_node("c");
            sim.add_duplex_link(a, c, 1e6, 0.002, QueueDiscipline::drop_tail(10));
            let c_sink = Address::new(c, Port(3));
            sim.add_agent(
                c,
                Port(3),
                Box::new(Blaster::new(Dest::Unicast(c_sink), 1, 0, 1.0)),
            );
            sim.add_agent(
                a,
                Port(3),
                Box::new(Blaster::new(Dest::Unicast(c_sink), 200, 50, 0.013)),
            );
        }
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(9))),
                100,
                0,
                1.0,
            )),
        );
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 500, 0.002)),
        );
        sim.run_until(SimTime::from_secs(5.0));
        sim.agent::<Blaster>(sink).unwrap().received.len()
    }

    #[test]
    fn link_loss_pattern_is_independent_of_unrelated_traffic() {
        let plain = lossy_delivery_count(false);
        let with_extra = lossy_delivery_count(true);
        assert!(
            plain > 300 && plain < 400,
            "≈70% of 500 expected, got {plain}"
        );
        assert_eq!(
            plain, with_extra,
            "adding unrelated links/agents must not perturb a link's loss pattern"
        );
    }

    /// Runs a congested RED-bottleneck workload and returns the sink's
    /// delivery log plus the bottleneck's counters.  With `extra_gear`, an
    /// unrelated link and a chatty agent are added — the per-link RNG
    /// streams (`rng::stream_seed`) mean the RED drop sequence must not
    /// shift, exactly like the Bernoulli loss-stream regression above.
    fn red_delivery_log(extra_gear: bool) -> (Vec<(f64, u32)>, LinkStats) {
        let mut sim = Simulator::new(78);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        // A tight gentle-RED queue on a slow link: the blaster overruns it,
        // so RED's probabilistic early drops are exercised for real.
        let (ab, _) = sim.add_duplex_link(a, b, 2e5, 0.002, QueueDiscipline::red_gentle(12));
        if extra_gear {
            let c = sim.add_node("c");
            sim.add_duplex_link(a, c, 1e6, 0.002, QueueDiscipline::red(10));
            let c_sink = Address::new(c, Port(3));
            sim.add_agent(
                c,
                Port(3),
                Box::new(Blaster::new(Dest::Unicast(c_sink), 1, 0, 1.0)),
            );
            sim.add_agent(
                a,
                Port(3),
                Box::new(Blaster::new(Dest::Unicast(c_sink), 200, 50, 0.013)),
            );
        }
        let sink_addr = Address::new(b, Port(1));
        let sink = sim.add_agent(
            b,
            Port(1),
            Box::new(Blaster::new(
                Dest::Unicast(Address::new(a, Port(9))),
                100,
                0,
                1.0,
            )),
        );
        let _src = sim.add_agent(
            a,
            Port(1),
            Box::new(Blaster::new(Dest::Unicast(sink_addr), 1000, 800, 0.002)),
        );
        sim.run_until(SimTime::from_secs(5.0));
        let log = sim.agent::<Blaster>(sink).unwrap().received.clone();
        (log, sim.link_stats(ab))
    }

    /// RED draws come from the link's private stream: adding unrelated
    /// links and agents must leave the drop sequence byte-identical.
    #[test]
    fn red_drop_pattern_is_independent_of_unrelated_traffic() {
        let (plain_log, plain_stats) = red_delivery_log(false);
        let (extra_log, extra_stats) = red_delivery_log(true);
        assert!(
            plain_stats.dropped_queue > 0,
            "the workload must overrun the RED queue: {plain_stats:?}"
        );
        assert_eq!(
            plain_log, extra_log,
            "adding unrelated links/agents must not perturb a RED link's drop pattern"
        );
        assert_eq!(plain_stats, extra_stats);
        // A RED link counts a delivery when the transmission ends; the run
        // drained the queue, so every accepted packet got there.
        assert_eq!(plain_stats.delivered, plain_stats.enqueued);
        assert_eq!(plain_stats.delivered, plain_log.len() as u64);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be a positive")]
    fn zero_bandwidth_link_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_link(a, b, 0.0, 0.01, QueueDiscipline::drop_tail(10));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be a positive")]
    fn nan_bandwidth_link_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_link(a, b, f64::NAN, 0.01, QueueDiscipline::drop_tail(10));
    }

    #[test]
    #[should_panic(expected = "delay must be a positive")]
    fn zero_delay_link_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.add_link(a, b, 1e6, 0.0, QueueDiscipline::drop_tail(10));
    }

    #[test]
    #[should_panic(expected = "delay must be a positive")]
    fn negative_runtime_delay_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let l = sim.add_link(a, b, 1e6, 0.01, QueueDiscipline::drop_tail(10));
        sim.set_link_delay(l, -0.5);
    }

    #[test]
    #[should_panic(expected = "loss probability must be a finite value in [0, 1]")]
    fn nan_loss_is_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let l = sim.add_link(a, b, 1e6, 0.01, QueueDiscipline::drop_tail(10));
        sim.set_link_loss(l, LossModel::Bernoulli { p: f64::NAN });
    }

    /// Regression: a node added *after* a multicast tree was cached must be
    /// able to join the group (trees are maintained in place, so a pending
    /// topology change has to invalidate them before the membership update;
    /// this used to index out of bounds in the tree's parent table).
    #[test]
    fn node_added_after_tree_build_can_join_group() {
        let mut sim = Simulator::new(12);
        let s = sim.add_node("s");
        let r1 = sim.add_node("r1");
        sim.add_duplex_link(s, r1, 1e6, 0.001, QueueDiscipline::drop_tail(10));
        let group = GroupId(2);
        let first = sim.add_agent(r1, Port(2), Box::new(GroupListener { group, received: 0 }));
        sim.add_agent(
            s,
            Port(2),
            Box::new(Blaster::new(
                Dest::Multicast {
                    group,
                    port: Port(2),
                },
                100,
                30,
                0.1,
            )),
        );
        // Run long enough that the distribution tree is built and cached.
        sim.run_until(SimTime::from_secs(0.55));
        // Grow the topology mid-run and subscribe an agent on the new node.
        let r2 = sim.add_node("r2");
        sim.add_duplex_link(s, r2, 1e6, 0.001, QueueDiscipline::drop_tail(10));
        let late = sim.add_agent(r2, Port(2), Box::new(GroupListener { group, received: 0 }));
        sim.join_group(late, group);
        sim.run_until(SimTime::from_secs(3.0));
        let l1: &GroupListener = sim.agent(first).unwrap();
        let l2: &GroupListener = sim.agent(late).unwrap();
        assert_eq!(l1.received, 30);
        assert!(
            l2.received >= 20,
            "late node must receive the remaining packets, got {}",
            l2.received
        );
    }

    #[test]
    fn multicast_fanout_shares_packet_data() {
        struct Capture {
            group: GroupId,
            got: Vec<Packet>,
        }
        impl Agent for Capture {
            fn start(&mut self, ctx: &mut Context<'_>) {
                ctx.join_group(self.group);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, packet: Packet) {
                self.got.push(packet);
            }
        }
        let mut sim = Simulator::new(9);
        let s = sim.add_node("s");
        let hub = sim.add_node("hub");
        sim.add_duplex_link(s, hub, 1e6, 0.001, QueueDiscipline::drop_tail(10));
        let group = GroupId(4);
        let caps: Vec<AgentId> = (0..2)
            .map(|i| {
                let r = sim.add_node(&format!("r{i}"));
                sim.add_duplex_link(hub, r, 1e6, 0.001, QueueDiscipline::drop_tail(10));
                sim.add_agent(
                    r,
                    Port(2),
                    Box::new(Capture {
                        group,
                        got: Vec::new(),
                    }),
                )
            })
            .collect();
        sim.add_agent(
            s,
            Port(2),
            Box::new(Blaster::new(
                Dest::Multicast {
                    group,
                    port: Port(2),
                },
                100,
                2,
                0.1,
            )),
        );
        sim.run_until(SimTime::from_secs(1.0));
        let a = &sim.agent::<Capture>(caps[0]).unwrap().got;
        let b = &sim.agent::<Capture>(caps[1]).unwrap().got;
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        // Both branches of the tree were handed the same allocation.
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert!(x.shares_data_with(y));
        }
        assert!(!a[0].shares_data_with(&a[1]));
    }

    /// A churn-style agent that repeatedly schedules timers and cancels them
    /// — including *stale* cancels of timers that already fired, exactly what
    /// `TfmccReceiverAgent` does when a receiver leaves mid-round — must not
    /// grow the event core's cancellation state monotonically.
    #[test]
    fn cancellation_state_stays_bounded_under_churn() {
        struct ChurnAgent {
            live: Option<TimerId>,
            fired: TimerId,
            cycles: u64,
        }
        impl Agent for ChurnAgent {
            fn start(&mut self, ctx: &mut Context<'_>) {
                self.fired = ctx.schedule(0.0, 0);
                ctx.schedule(0.001, 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                if token != 1 {
                    return;
                }
                self.cycles += 1;
                // Stale cancel: this timer fired long ago.
                ctx.cancel(self.fired);
                // Live cancel: schedule a decoy far in the future and cancel
                // it before it can ever fire.
                if let Some(old) = self.live.take() {
                    ctx.cancel(old);
                }
                self.live = Some(ctx.schedule(1_000.0, 2));
                if self.cycles < 10_000 {
                    ctx.schedule(0.001, 1);
                }
            }
        }
        let mut sim = Simulator::new(11);
        let n = sim.add_node("n");
        sim.add_agent(
            n,
            Port(1),
            Box::new(ChurnAgent {
                live: None,
                fired: TimerId(u64::MAX),
                cycles: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(60.0));
        let diag = sim.scheduler_diagnostics();
        // 10 000 churn cycles with 20 000 cancels: the only surviving state
        // is the one decoy timer still pending.
        assert_eq!(diag.pending_timers, 1);
        assert!(
            diag.queued_events <= 2,
            "queue grew to {} events",
            diag.queued_events
        );
        // Retained memory: drained buffers are handed back.
        assert!(
            diag.queue_capacity <= 256,
            "{} entry slots retained for {} events",
            diag.queue_capacity,
            diag.queued_events
        );
    }

    /// The tie rule: arrivals at a bit-identical instant dispatch in the
    /// order their packets were offered to the links — not in the order the
    /// legs finish serializing.
    #[test]
    fn same_instant_arrivals_dispatch_in_offer_order() {
        let mut sim = Simulator::new(1);
        let hub = sim.add_node("hub");
        let group = GroupId(1);
        let collector = sim.add_agent(
            hub,
            Port(9),
            Box::new(Scripted::new(
                Dest::Unicast(Address::new(hub, Port(9))),
                0,
                &[],
            )),
        );
        // 700 B take 14 ms + 5 ms on leg 0 and 10 ms + 9 ms on leg 1: both
        // arrive at 19 ms, but leg 1 finishes serializing first.
        let members: Vec<AgentId> = [(50_000.0, 0.005), (70_000.0, 0.009)]
            .into_iter()
            .map(|(bandwidth, delay)| {
                let r = sim.add_node("r");
                sim.add_duplex_link(hub, r, bandwidth, delay, QueueDiscipline::drop_tail(10));
                let mut member = Scripted::new(Dest::Unicast(sim.agent_addr(collector)), 40, &[]);
                member.echo = true;
                let id = sim.add_agent(r, Port(1), Box::new(member));
                sim.join_group(id, group);
                id
            })
            .collect();
        let to_group = Dest::Multicast {
            group,
            port: Port(1),
        };
        sim.add_agent(hub, Port(1), Box::new(Scripted::new(to_group, 700, &[0.0])));
        sim.run_until(SimTime::from_secs(1.0));
        let got = |id| sim.agent::<Scripted>(id).unwrap().got.clone();
        let arrived: Vec<SimTime> = members.iter().map(|&id| got(id)[0].0).collect();
        assert_eq!(arrived[0], SimTime::from_secs(0.014) + 0.005);
        assert_eq!(arrived[0], arrived[1], "the scenario must produce a tie");
        // Each member acknowledges from inside its delivery and packet ids
        // are handed out in dispatch order: the data packet is id 0, the
        // member on the leg offered first sends ack 1.
        let mut acks: Vec<(u64, NodeId)> = got(collector)
            .iter()
            .map(|(_, ack)| (ack.id, ack.src.node))
            .collect();
        acks.sort_unstable();
        let node_of = |id| sim.agent_addr(id).node;
        assert_eq!(
            acks,
            vec![(1, node_of(members[0])), (2, node_of(members[1]))]
        );
    }

    /// What a [`Logged`] agent saw, in dispatch order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Packet(Address),
        Timer(u64),
    }

    type SharedLog = Rc<RefCell<Vec<(SimTime, Seen)>>>;

    /// Appends every delivery and timer it gets to a log shared with other
    /// agents; forwards each delivery to `forward` on its own node, if set,
    /// arms each `(delay, token)` of `timers` at start and, when timer 0
    /// fires, arms timer 2 after `rearm` seconds, if set.
    struct Logged {
        log: SharedLog,
        forward: Option<Port>,
        timers: Vec<(f64, u64)>,
        rearm: Option<f64>,
    }

    impl Logged {
        fn new(log: &SharedLog) -> Self {
            Logged {
                log: Rc::clone(log),
                forward: None,
                timers: Vec::new(),
                rearm: None,
            }
        }
    }

    impl Agent for Logged {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for &(delay, token) in &self.timers {
                ctx.schedule(delay, token);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.log.borrow_mut().push((ctx.now(), Seen::Timer(token)));
            if let (0, Some(delay)) = (token, self.rearm) {
                ctx.schedule(delay, 2);
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
            self.log
                .borrow_mut()
                .push((ctx.now(), Seen::Packet(ctx.addr())));
            if let Some(port) = self.forward {
                let to = Dest::Unicast(Address::new(ctx.addr().node, port));
                ctx.send(Packet::new(ctx.addr(), to, 40, FlowId(2), Payload::empty()));
            }
        }
    }

    /// Bandwidth of every [`logged_star`] leg and the size of its packet:
    /// 10 ms of serialization.
    const LEG_BANDWIDTH: f64 = 100_000.0;
    const LEG_PACKET: u32 = 1000;

    /// A hub with one leg per entry of `delays` (drop-tail at
    /// [`LEG_BANDWIDTH`], except that `red` names a leg and its bandwidth
    /// for a RED queue), each to a node whose [`Logged`] member on port 1
    /// joins the group (the member on leg `forward` forwards to port 2); a
    /// [`Scripted`] source on the hub sends one [`LEG_PACKET`] to the group
    /// at t = 0.  Agents added by the caller start after the source.
    /// Returns the simulation, the hub, the leaf nodes and the shared log.
    fn logged_star(
        delays: &[f64],
        red: Option<(usize, f64)>,
        forward: Option<usize>,
    ) -> (Simulator, NodeId, Vec<NodeId>, SharedLog) {
        let mut sim = Simulator::new(1);
        let hub = sim.add_node("hub");
        let group = GroupId(1);
        let log = SharedLog::default();
        let leaves = delays
            .iter()
            .enumerate()
            .map(|(i, &delay)| {
                let leaf = sim.add_node("leaf");
                match red {
                    Some((leg, bandwidth)) if leg == i => {
                        sim.add_link(hub, leaf, bandwidth, delay, QueueDiscipline::red(10))
                    }
                    _ => sim.add_link(
                        hub,
                        leaf,
                        LEG_BANDWIDTH,
                        delay,
                        QueueDiscipline::drop_tail(10),
                    ),
                };
                let mut member = Logged::new(&log);
                if forward == Some(i) {
                    member.forward = Some(Port(2));
                }
                let member = sim.add_agent(leaf, Port(1), Box::new(member));
                sim.join_group(member, group);
                leaf
            })
            .collect();
        let to_group = Dest::Multicast {
            group,
            port: Port(1),
        };
        let source = Scripted::new(to_group, LEG_PACKET, &[0.0]);
        sim.add_agent(hub, Port(1), Box::new(source));
        (sim, hub, leaves, log)
    }

    /// The instant a [`logged_star`] packet reaches the end of a leg.
    fn leg_arrival(delay: f64) -> SimTime {
        SimTime::ZERO + f64::from(LEG_PACKET) / LEG_BANDWIDTH + delay
    }

    const A: f64 = 0.005;
    const B: f64 = 0.007;

    /// The batch rule: replicas that arrive at one instant under
    /// consecutive `seq`s share one queue entry, a different instant starts
    /// a new one, and every delivery still counts as one event.
    #[test]
    fn same_instant_replicas_share_one_queue_entry() {
        let (mut sim, _, leaves, log) = logged_star(&[A, A, B, A, A, A], None, None);
        sim.run_until(SimTime::ZERO);
        // {0, 1}, {2}, {3, 4, 5}.
        assert_eq!(sim.scheduler_diagnostics().queued_events, 3);
        let before = sim.events_processed();
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.events_processed() - before, 6);
        let at = |leaf: usize, delay| {
            (
                leg_arrival(delay),
                Seen::Packet(Address::new(leaves[leaf], Port(1))),
            )
        };
        assert_eq!(
            *log.borrow(),
            vec![at(0, A), at(1, A), at(3, A), at(4, A), at(5, A), at(2, B)]
        );
    }

    /// A RED leg's transmission end takes a `seq` in the middle of the
    /// offer, so the replicas on either side of it cannot share an entry;
    /// its own arrival is scheduled later and follows the batch that
    /// shares its instant.
    #[test]
    fn a_red_leg_splits_the_batch_and_arrives_after_it() {
        let (mut sim, _, leaves, log) =
            logged_star(&[A, A, B, A, A, A], Some((1, LEG_BANDWIDTH)), None);
        sim.run_until(SimTime::ZERO);
        // {0}, leg 1's transmission end, {2}, {3, 4, 5}.
        assert_eq!(sim.scheduler_diagnostics().queued_events, 4);
        let before = sim.events_processed();
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.events_processed() - before, 7);
        let at = |leaf: usize, delay| {
            (
                leg_arrival(delay),
                Seen::Packet(Address::new(leaves[leaf], Port(1))),
            )
        };
        assert_eq!(
            *log.borrow(),
            vec![at(0, A), at(3, A), at(4, A), at(5, A), at(1, A), at(2, B)]
        );
    }

    /// A RED leg at half the bandwidth ends its transmission exactly when
    /// the drop-tail replicas arrive (10 ms + 10 ms of delay against 20 ms
    /// of serialization), under a `seq` between legs 0 and 2: the event
    /// sits inside the instant, so the replicas around it cannot share an
    /// entry, however equal their arrival.
    #[test]
    fn a_transmission_end_at_the_batch_instant_splits_it() {
        let d = f64::from(LEG_PACKET) / LEG_BANDWIDTH;
        let (mut sim, _, leaves, log) = logged_star(&[d; 6], Some((1, LEG_BANDWIDTH / 2.0)), None);
        sim.run_until(SimTime::ZERO);
        // {0}, leg 1's transmission end, {2, 3, 4, 5}.
        assert_eq!(sim.scheduler_diagnostics().queued_events, 3);
        let t = leg_arrival(d);
        assert_eq!(
            SimTime::ZERO + 2.0 * d,
            t,
            "the scenario must produce a tie"
        );
        let before = sim.events_processed();
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.events_processed() - before, 7);
        let at = |leaf: usize, t| (t, Seen::Packet(Address::new(leaves[leaf], Port(1))));
        let mut want: Vec<_> = [0, 2, 3, 4, 5]
            .into_iter()
            .map(|leaf| at(leaf, t))
            .collect();
        want.push(at(1, t + d));
        assert_eq!(*log.borrow(), want);
    }

    /// A member that sends to a local agent from inside its delivery
    /// enqueues a `Deliver` at the same instant, behind every remaining
    /// member of its batch.
    #[test]
    fn a_send_from_inside_a_batch_follows_the_whole_batch() {
        let (mut sim, _, leaves, log) = logged_star(&[A; 6], None, Some(1));
        sim.add_agent(leaves[1], Port(2), Box::new(Logged::new(&log)));
        sim.run_until(SimTime::from_secs(1.0));
        let t = leg_arrival(A);
        let member = |leaf: usize| (t, Seen::Packet(Address::new(leaves[leaf], Port(1))));
        let mut want: Vec<_> = (0..6).map(member).collect();
        want.push((t, Seen::Packet(Address::new(leaves[1], Port(2)))));
        assert_eq!(*log.borrow(), want);
    }

    /// A timer due at a batch's instant fires before the batch when it was
    /// armed before the offer, and after it when armed after the offer.
    #[test]
    fn timers_at_a_batch_instant_keep_their_arming_order() {
        let (mut sim, hub, leaves, log) = logged_star(&[A; 6], None, None);
        let t = leg_arrival(A);
        let mut timers = Logged::new(&log);
        // Token 1 is armed at start, before the source's send at t = 0;
        // token 0 fires at t = 0 after the send and arms token 2.
        timers.timers = vec![(t.as_secs(), 1), (0.0, 0)];
        timers.rearm = Some(t.as_secs());
        sim.add_agent(hub, Port(9), Box::new(timers));
        sim.run_until(SimTime::from_secs(1.0));
        let mut want = vec![(SimTime::ZERO, Seen::Timer(0)), (t, Seen::Timer(1))];
        want.extend((0..6).map(|leaf| (t, Seen::Packet(Address::new(leaves[leaf], Port(1))))));
        want.push((t, Seen::Timer(2)));
        assert_eq!(*log.borrow(), want);
    }

    /// The slot-edge rule: a packet stops occupying its queue slot at the
    /// instant its transmission starts, so an offer at exactly that instant
    /// finds the slot free — whatever else is scheduled for that instant.
    #[test]
    fn offer_at_the_instant_a_transmission_starts_finds_the_slot_free() {
        // 1000 B at 1 kB/s with one queue slot: packet 0 transmits over
        // [0, 1], packet 1 waits in the slot until t = 1.  Packet 2, offered
        // a nanosecond before that, is dropped; packet 3, offered at exactly
        // t = 1, is accepted and transmits over [2, 3].
        let (mut sim, link, sink) =
            scripted_pair(1000.0, 0.001, 1, 1000, &[0.0, 0.0, 1.0 - 1e-9, 1.0]);
        sim.run_until(SimTime::from_secs(0.5));
        assert_eq!(sim.link_queue_len(link), 1);
        sim.run_until(SimTime::from_secs(10.0));
        let got: Vec<(SimTime, u64)> = sim
            .agent::<Scripted>(sink)
            .unwrap()
            .got
            .iter()
            .map(|(t, p)| (*t, p.id))
            .collect();
        let at = |secs: f64| SimTime::from_secs(secs) + 0.001;
        assert_eq!(got, vec![(at(1.0), 0), (at(2.0), 1), (at(3.0), 3)]);
        let stats = sim.link_stats(link);
        assert_eq!((stats.enqueued, stats.dropped_queue), (3, 1));
    }

    /// `link_queue_len` is exact at the current time, including long after
    /// the last offer.
    #[test]
    fn link_queue_len_counts_only_packets_still_waiting() {
        // Three back-to-back 1 s packets: transmitted over [0,1], [1,2], [2,3].
        let (mut sim, link, _) = scripted_pair(1000.0, 0.001, 5, 1000, &[0.0, 0.0, 0.0]);
        for (until, waiting) in [(0.5, 2), (1.0, 1), (1.5, 1), (2.0, 0), (2.5, 0), (9.0, 0)] {
            sim.run_until(SimTime::from_secs(until));
            assert_eq!(sim.link_queue_len(link), waiting, "at t = {until}");
            assert_eq!(sim.link(link).is_busy(sim.now()), until < 3.0);
            // Delivery was certain at acceptance, long before the last arrival.
            assert_eq!(sim.link_stats(link).delivered, 3);
        }
    }

    /// `set_link_delay` applies to packets offered after the call: a packet
    /// already accepted keeps the delay it was offered under.
    #[test]
    fn set_link_delay_leaves_accepted_packets_on_the_old_delay() {
        // 100 B at 1 kB/s: 0.1 s of serialization, then 0.5 s of propagation.
        let (mut sim, link, sink) = scripted_pair(1000.0, 0.5, 5, 100, &[0.0, 1.0]);
        sim.run_until(SimTime::from_secs(0.05));
        sim.set_link_delay(link, 0.2);
        sim.run_until(SimTime::from_secs(5.0));
        let arrived: Vec<SimTime> = sim
            .agent::<Scripted>(sink)
            .unwrap()
            .got
            .iter()
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(
            arrived,
            vec![
                SimTime::from_secs(0.1) + 0.5,
                (SimTime::from_secs(1.0) + 0.1) + 0.2
            ]
        );
    }

    /// The delay reaches routing only through the link table: once
    /// `set_link_delay` makes the other of two paths shorter, both the next
    /// unicast packet and the next multicast replica take it.
    #[test]
    fn set_link_delay_reroutes_unicast_and_multicast() {
        let mut sim = Simulator::new(3);
        let [s, a, b, d] = ["s", "a", "b", "d"].map(|name| sim.add_node(name));
        let mut link =
            |from, to, delay| sim.add_link(from, to, 1e6, delay, QueueDiscipline::drop_tail(10));
        let via_a = [link(s, a, 0.01), link(a, d, 0.01)];
        let via_b = [link(s, b, 0.02), link(b, d, 0.02)];
        let group = GroupId(4);
        let unicast = Dest::Unicast(Address::new(d, Port(1)));
        let multicast = Dest::Multicast {
            group,
            port: Port(2),
        };
        let sink = sim.add_agent(d, Port(1), Box::new(Scripted::new(unicast, 0, &[])));
        let listener = GroupListener { group, received: 0 };
        let member = sim.add_agent(d, Port(2), Box::new(listener));
        sim.add_agent(
            s,
            Port(1),
            Box::new(Scripted::new(unicast, 100, &[0.5, 1.5])),
        );
        sim.add_agent(
            s,
            Port(2),
            Box::new(Scripted::new(multicast, 100, &[0.5, 1.5])),
        );
        let carried =
            |sim: &Simulator, path: [LinkId; 2]| path.map(|l| sim.link_stats(l).delivered);

        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(
            (carried(&sim, via_a), carried(&sim, via_b)),
            ([2, 2], [0, 0])
        );
        sim.set_link_delay(via_a[0], 0.5);
        sim.run_until(SimTime::from_secs(3.0));
        assert_eq!(
            (carried(&sim, via_a), carried(&sim, via_b)),
            ([2, 2], [2, 2])
        );
        assert_eq!(sim.agent::<Scripted>(sink).unwrap().got.len(), 2);
        assert_eq!(sim.agent::<GroupListener>(member).unwrap().received, 2);
    }

    /// A node's first port and first subscription take one slot each; more
    /// entries grow the tables geometrically, not one slot per insert.
    #[test]
    fn node_tables_start_at_one_entry() {
        let mut sim = Simulator::new(5);
        let n = sim.add_node("n");
        let slots = |sim: &mut Simulator, ports: std::ops::Range<u16>| {
            for port in ports {
                let listener = GroupListener {
                    group: GroupId(u32::from(port)),
                    received: 0,
                };
                sim.add_agent(n, Port(port), Box::new(listener));
            }
            sim.run_until(SimTime::ZERO);
            let node = &sim.world.nodes[n.0];
            (node.agents.capacity(), node.subscriptions.capacity())
        };
        assert_eq!(slots(&mut sim, 0..1), (1, 1));
        let (agents, subscriptions) = slots(&mut sim, 1..9);
        assert!(agents > 9 && subscriptions > 9, "{agents}, {subscriptions}");
    }

    /// A rejected duplicate binding leaves the node as it was: the next
    /// agent gets the next id and its own port, and the first port still
    /// reaches the first agent.
    #[test]
    fn rejected_duplicate_binding_leaves_the_node_intact() {
        let mut sim = Simulator::new(8);
        let n = sim.add_node("n");
        let to = |port| Dest::Unicast(Address::new(n, Port(port)));
        let sink = |sim: &mut Simulator, port| {
            sim.add_agent(n, Port(port), Box::new(Scripted::new(to(port), 0, &[])))
        };
        let first = sink(&mut sim, 1);
        let duplicate =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sink(&mut sim, 1)));
        assert!(duplicate.is_err(), "a bound port must be rejected");
        let second = sink(&mut sim, 2);
        sim.add_agent(n, Port(3), Box::new(Scripted::new(to(1), 10, &[0.5])));
        sim.run_until(SimTime::from_secs(1.0));
        let got = |id| sim.agent::<Scripted>(id).unwrap().got.len();
        assert_eq!((got(first), got(second)), (1, 0));
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_port_binding_panics() {
        let mut sim = Simulator::new(8);
        let n = sim.add_node("n");
        let mk = || {
            Box::new(GroupListener {
                group: GroupId(0),
                received: 0,
            })
        };
        sim.add_agent(n, Port(1), mk());
        sim.add_agent(n, Port(1), mk());
    }
}
