//! Packets, addresses and flow identifiers.
//!
//! The simulator is protocol-agnostic: a [`Packet`] carries routing metadata
//! (source address, destination, size, flow id) plus an opaque, cheaply
//! cloneable [`Payload`] that the protocol agents downcast to their own
//! header types.
//!
//! # Zero-copy representation
//!
//! A [`Packet`] is a thin handle (`Rc<PacketData>`): cloning it — which the
//! multicast fan-out does once per out-link and once per local subscriber —
//! is a single, non-atomic reference-count bump, no matter how many
//! receivers a group has.  The header fields are reached through `Deref`, so
//! `packet.size`, `packet.src` etc. read as before.  The simulator stamps
//! `id`/`src`/`sent_at` exactly once, at send time, while it still holds the
//! only reference (a free copy-on-write via [`Rc::make_mut`]); after that the
//! packet is immutable all the way to every receiver.
//!
//! Packets are simulation-local: a simulation is built, run and read out on
//! one thread, so the counts need not be atomic and a [`Packet`] is not
//! `Send` (nor is its [`Payload`], one more non-atomic handle shared by
//! every replica):
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<netsim::packet::Packet>();
//! ```

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::time::SimTime;

/// Identifier of a node (host or router) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifier of an agent (protocol endpoint) attached to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// Identifier of a multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifier of a flow, used for statistics attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A port number distinguishing multiple agents on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u16);

/// A (node, port) pair identifying a protocol endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address {
    /// Node the endpoint lives on.
    pub node: NodeId,
    /// Port the endpoint is bound to on that node.
    pub port: Port,
}

impl Address {
    /// Convenience constructor.
    pub fn new(node: NodeId, port: Port) -> Self {
        Self { node, port }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:{}", self.node.0, self.port.0)
    }
}

/// Destination of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Deliver to a single endpoint, forwarding hop by hop.
    Unicast(Address),
    /// Deliver to every member of a multicast group subscribed on `port`,
    /// replicating along the group's distribution tree.
    Multicast {
        /// Multicast group to fan out to.
        group: GroupId,
        /// Port the receivers are subscribed on.
        port: Port,
    },
}

/// Opaque protocol payload: a shared, non-atomic handle to any `'static`
/// value, or nothing at all.
///
/// Cloning is a plain reference-count bump, so every replica of a multicast
/// packet shares one value.  [`Payload::empty`] is `None`: filler traffic
/// (CBR sources, benchmark packets) allocates nothing.  Like [`Packet`], a
/// payload is simulation-local and not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<netsim::packet::Payload>();
/// ```
#[derive(Clone)]
pub struct Payload(Option<Rc<dyn Any>>);

impl Payload {
    /// Wraps a protocol header/body value.
    pub fn new<T: Any>(value: T) -> Self {
        Payload(Some(Rc::new(value)))
    }

    /// An empty payload for pure filler traffic; allocates nothing.
    pub fn empty() -> Self {
        Payload(None)
    }

    /// Attempts to view the payload as a `T`; `None` for an empty payload.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_deref()?.downcast_ref::<T>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload(..)")
    }
}

/// The header fields and payload of a packet.
///
/// Reached through [`Packet`]'s `Deref`; exists as its own type so the
/// simulator can share one allocation between all replicas of a multicast
/// packet.
#[derive(Debug, Clone)]
pub struct PacketData {
    /// Unique id assigned by the simulator when the packet is first sent.
    pub id: u64,
    /// Sending endpoint.
    pub src: Address,
    /// Destination endpoint or multicast group.
    pub dst: Dest,
    /// Size on the wire in bytes (headers included), used for serialization
    /// delay and queue accounting.
    pub size: u32,
    /// Flow this packet belongs to, for statistics.
    pub flow: FlowId,
    /// Simulation time at which the packet left the sending agent.
    pub sent_at: SimTime,
    /// Protocol payload.
    pub payload: Payload,
}

/// A packet in flight: a shared handle to one immutable [`PacketData`].
#[derive(Debug, Clone)]
pub struct Packet {
    data: Rc<PacketData>,
}

impl Deref for Packet {
    type Target = PacketData;
    fn deref(&self) -> &PacketData {
        &self.data
    }
}

impl Packet {
    /// Builds a packet ready to hand to [`crate::sim::Context::send`].
    ///
    /// `id` and `sent_at` are filled in by the simulator.
    pub fn new(src: Address, dst: Dest, size: u32, flow: FlowId, payload: Payload) -> Self {
        Packet {
            data: Rc::new(PacketData {
                id: 0,
                src,
                dst,
                size,
                flow,
                sent_at: SimTime::ZERO,
                payload,
            }),
        }
    }

    /// Stamps the send-time header fields.  Called by the simulator exactly
    /// once, before the packet enters the network; at that point the handle
    /// is still unique, so the copy-on-write is free.
    pub(crate) fn stamp(&mut self, id: u64, src: Address, sent_at: SimTime) {
        let data = Rc::make_mut(&mut self.data);
        data.id = id;
        data.src = src;
        data.sent_at = sent_at;
    }

    /// True if both handles point at the same `PacketData` allocation —
    /// i.e. the fan-out shared this packet instead of copying it.
    pub fn shares_data_with(&self, other: &Packet) -> bool {
        Rc::ptr_eq(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_downcasts_to_original_type() {
        #[derive(Debug, PartialEq)]
        struct Header {
            seq: u32,
        }
        let p = Payload::new(Header { seq: 7 });
        assert_eq!(p.downcast_ref::<Header>().unwrap().seq, 7);
        assert!(p.downcast_ref::<u32>().is_none());
    }

    #[test]
    fn empty_payload_downcasts_to_nothing() {
        let p = Payload::empty();
        assert!(p.downcast_ref::<()>().is_none());
        assert!(p.clone().downcast_ref::<u32>().is_none());
    }

    #[test]
    fn payload_clone_shares_value() {
        let p = Payload::new(vec![1u8, 2, 3]);
        let q = p.clone();
        assert_eq!(q.downcast_ref::<Vec<u8>>().unwrap(), &vec![1, 2, 3]);
    }

    #[test]
    fn packet_construction_defaults() {
        let src = Address::new(NodeId(0), Port(1));
        let dst = Dest::Unicast(Address::new(NodeId(1), Port(2)));
        let pkt = Packet::new(src, dst, 1000, FlowId(3), Payload::empty());
        assert_eq!(pkt.id, 0);
        assert_eq!(pkt.size, 1000);
        assert_eq!(pkt.flow, FlowId(3));
        assert_eq!(pkt.src, src);
    }

    #[test]
    fn clone_shares_packet_data() {
        let src = Address::new(NodeId(0), Port(1));
        let mut pkt = Packet::new(src, Dest::Unicast(src), 100, FlowId(1), Payload::empty());
        pkt.stamp(42, src, SimTime::from_secs(1.5));
        let shared = pkt.clone();
        assert!(pkt.shares_data_with(&shared));
        assert_eq!(shared.id, 42);
        assert_eq!(shared.sent_at, SimTime::from_secs(1.5));
        let other = Packet::new(src, Dest::Unicast(src), 100, FlowId(1), Payload::empty());
        assert!(!pkt.shares_data_with(&other));
    }

    #[test]
    fn stamp_after_clone_does_not_alias() {
        let src = Address::new(NodeId(0), Port(1));
        let mut pkt = Packet::new(src, Dest::Unicast(src), 100, FlowId(1), Payload::empty());
        let before = pkt.clone();
        pkt.stamp(7, src, SimTime::from_secs(2.0));
        // Copy-on-write: the earlier clone still sees the unstamped header.
        assert_eq!(before.id, 0);
        assert_eq!(pkt.id, 7);
    }

    #[test]
    fn address_display() {
        let a = Address::new(NodeId(4), Port(9));
        assert_eq!(format!("{a}"), "n4:9");
    }
}
