//! Blocking UDP endpoints driving the sans-I/O protocol core.
//!
//! [`UdpSenderEndpoint`] paces data packets to a set of receiver addresses
//! (unicast fan-out emulating the multicast group) and processes incoming
//! reports; [`UdpReceiverEndpoint`] consumes data packets, manages the single
//! feedback timer and unicasts reports back to the sender.  Both run their
//! socket loop on a background thread and expose a small control surface
//! protected by a mutex.

use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::ReceiverId;
use tfmcc_proto::receiver::TfmccReceiver;
use tfmcc_proto::sender::TfmccSender;

use crate::wire::{decode_message, encode_message, WireMessage};

/// Locks a snapshot, ignoring poisoning: a snapshot is plain counters, so
/// one a panicking thread left behind is still good to read.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared view of the sender's state for monitoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderSnapshot {
    /// Current sending rate in bytes/second.
    pub rate: f64,
    /// Data packets sent so far.
    pub packets_sent: u64,
    /// Feedback packets processed so far.
    pub feedback_received: u64,
}

/// A TFMCC sender bound to a UDP socket.
pub struct UdpSenderEndpoint {
    snapshot: Arc<Mutex<SenderSnapshot>>,
    stop: SyncSender<()>,
    handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl UdpSenderEndpoint {
    /// Binds a sender to `bind` and starts transmitting to `receivers`.
    pub fn start(
        bind: SocketAddr,
        receivers: Vec<SocketAddr>,
        config: TfmccConfig,
    ) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(2)))?;
        let snapshot = Arc::new(Mutex::new(SenderSnapshot {
            rate: config.initial_rate(),
            ..SenderSnapshot::default()
        }));
        let shared = Arc::clone(&snapshot);
        let (stop, stop_rx) = sync_channel::<()>(1);
        let handle = std::thread::spawn(move || {
            let mut sender = TfmccSender::new(config);
            #[allow(
                clippy::disallowed_methods,
                reason = "real-time UDP transport thread: the wall clock IS the protocol clock here, and nothing derived from it enters a simulation"
            )]
            let epoch = Instant::now();
            let mut next_send = 0.0_f64;
            let mut buf = [0u8; 2048];
            loop {
                if stop_rx.try_recv().is_ok() {
                    break;
                }
                let now = epoch.elapsed().as_secs_f64();
                if now >= next_send {
                    let header = sender.next_data(now);
                    let datagram = encode_message(&WireMessage::Data(header));
                    for addr in &receivers {
                        let _ = socket.send_to(&datagram, addr);
                    }
                    {
                        let mut snap = lock(&shared);
                        snap.packets_sent += 1;
                        snap.rate = sender.current_rate();
                    }
                    next_send = now + sender.packet_interval();
                }
                match socket.recv_from(&mut buf) {
                    Ok((len, _from)) => {
                        let now = epoch.elapsed().as_secs_f64();
                        if sender_on_datagram(&mut sender, now, &buf[..len]) {
                            lock(&shared).feedback_received += 1;
                        }
                    }
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        });
        Ok(UdpSenderEndpoint {
            snapshot,
            stop,
            handle: Some(handle),
            local_addr,
        })
    }

    /// The sender's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the sender's progress.
    pub fn snapshot(&self) -> SenderSnapshot {
        *lock(&self.snapshot)
    }

    /// Stops the background thread.
    pub fn shutdown(mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdpSenderEndpoint {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Feeds one received datagram to the sender state machine.  Anything that
/// does not decode as a receiver report — malformed, out of range (see
/// [`crate::wire`]), or a stray data packet — is dropped.  Returns whether a
/// report was processed.
fn sender_on_datagram(sender: &mut TfmccSender, now: f64, datagram: &[u8]) -> bool {
    match decode_message(datagram) {
        Ok(WireMessage::Feedback(fb)) => {
            sender.on_feedback(now, &fb);
            true
        }
        _ => false,
    }
}

/// Shared view of a receiver's state for monitoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverSnapshot {
    /// Data packets received.
    pub packets_received: u64,
    /// Feedback packets sent.
    pub feedback_sent: u64,
    /// Most recent loss event rate estimate.
    pub loss_event_rate: f64,
    /// Most recent RTT estimate in seconds.
    pub rtt: f64,
}

/// A TFMCC receiver bound to a UDP socket.
pub struct UdpReceiverEndpoint {
    snapshot: Arc<Mutex<ReceiverSnapshot>>,
    stop: SyncSender<()>,
    handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl UdpReceiverEndpoint {
    /// Binds a receiver to `bind`, reporting to the sender at `sender_addr`.
    pub fn start(
        bind: SocketAddr,
        sender_addr: SocketAddr,
        id: ReceiverId,
        config: TfmccConfig,
    ) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(2)))?;
        let snapshot = Arc::new(Mutex::new(ReceiverSnapshot::default()));
        let shared = Arc::clone(&snapshot);
        let (stop, stop_rx) = sync_channel::<()>(1);
        let handle = std::thread::spawn(move || {
            let mut receiver = TfmccReceiver::new(id, config);
            #[allow(
                clippy::disallowed_methods,
                reason = "real-time UDP transport thread: the wall clock IS the protocol clock here, and nothing derived from it enters a simulation"
            )]
            let epoch = Instant::now();
            let mut buf = [0u8; 2048];
            loop {
                if stop_rx.try_recv().is_ok() {
                    break;
                }
                let now = epoch.elapsed().as_secs_f64();
                // Fire the protocol feedback timer if due.
                if let Some(deadline) = receiver.next_timer() {
                    if now >= deadline {
                        if let Some(fb) = receiver.on_timer(now) {
                            let datagram = encode_message(&WireMessage::Feedback(fb));
                            let _ = socket.send_to(&datagram, sender_addr);
                            lock(&shared).feedback_sent += 1;
                        }
                    }
                }
                match socket.recv_from(&mut buf) {
                    Ok((len, _from)) => {
                        if let Ok(WireMessage::Data(header)) = decode_message(&buf[..len]) {
                            let now = epoch.elapsed().as_secs_f64();
                            let reply = receiver.on_data(now, &header);
                            let mut snap = lock(&shared);
                            snap.packets_received += 1;
                            snap.loss_event_rate = receiver.loss_event_rate();
                            snap.rtt = receiver.rtt();
                            drop(snap);
                            if let Some(fb) = reply {
                                let datagram = encode_message(&WireMessage::Feedback(fb));
                                let _ = socket.send_to(&datagram, sender_addr);
                                lock(&shared).feedback_sent += 1;
                            }
                        }
                    }
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        });
        Ok(UdpReceiverEndpoint {
            snapshot,
            stop,
            handle: Some(handle),
            local_addr,
        })
    }

    /// The receiver's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the receiver's progress.
    pub fn snapshot(&self) -> ReceiverSnapshot {
        *lock(&self.snapshot)
    }

    /// Stops the background thread.
    pub fn shutdown(mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for UdpReceiverEndpoint {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn localhost_any() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn forged_nan_rtt_feedback_is_dropped_before_the_sender() {
        use tfmcc_proto::packets::FeedbackPacket;

        let report = |receiver, rtt| {
            encode_message(&WireMessage::Feedback(FeedbackPacket {
                receiver: ReceiverId(receiver),
                timestamp: 1.0,
                echo_timestamp: 0.9,
                echo_delay: 0.001,
                calculated_rate: 50_000.0,
                loss_event_rate: 0.01,
                receive_rate: 60_000.0,
                rtt,
                has_rtt_measurement: true,
                feedback_round: 0,
                leaving: false,
            }))
        };
        let mut sender = TfmccSender::new(TfmccConfig::default());
        sender.next_data(0.0);
        assert!(sender_on_datagram(&mut sender, 1.0, &report(1, 0.05)));
        assert!(!sender_on_datagram(
            &mut sender,
            1.1,
            &report(666, f64::NAN)
        ));
        assert_eq!(sender.known_receivers(), 1, "the forged report registered");
        let header = sender.next_data(1.2);
        assert!(sender.max_rtt().is_finite() && header.max_rtt.is_finite());
        assert!(sender.current_rate().is_finite() && header.current_rate.is_finite());
    }

    #[test]
    fn loopback_session_exchanges_data_and_feedback() {
        // Start two receivers first (ephemeral ports), then the sender
        // pointed at them.
        let cfg = TfmccConfig::default();
        // A placeholder sender address is needed before the sender exists;
        // bind the sender socket first by creating it with no receivers, then
        // receivers, then a real sender. Simpler: reserve the sender port.
        let reserve = UdpSocket::bind(localhost_any()).unwrap();
        let sender_addr = reserve.local_addr().unwrap();
        drop(reserve);

        let r1 =
            UdpReceiverEndpoint::start(localhost_any(), sender_addr, ReceiverId(1), cfg.clone())
                .unwrap();
        let r2 =
            UdpReceiverEndpoint::start(localhost_any(), sender_addr, ReceiverId(2), cfg.clone())
                .unwrap();
        let sender =
            UdpSenderEndpoint::start(sender_addr, vec![r1.local_addr(), r2.local_addr()], cfg)
                .unwrap();

        // Poll until the session has moved data both ways.  The initial rate
        // is 2 packets/s and the slowstart feedback window is ~3 s, so this
        // takes a few seconds; the assertions below fire at the deadline.
        #[allow(
            clippy::disallowed_methods,
            reason = "test deadline for a real-time UDP session; nothing derived from it enters a simulation"
        )]
        let started = Instant::now();
        let (s, s1, s2) = loop {
            let (s, s1, s2) = (sender.snapshot(), r1.snapshot(), r2.snapshot());
            let done = s.packets_sent >= 3
                && s1.packets_received >= 2
                && s2.packets_received >= 2
                && s.feedback_received >= 1;
            if done || started.elapsed() >= Duration::from_secs(10) {
                break (s, s1, s2);
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(
            s.packets_sent >= 3,
            "sender sent only {} packets",
            s.packets_sent
        );
        assert!(
            s1.packets_received >= 2 && s2.packets_received >= 2,
            "receivers got {} / {} packets",
            s1.packets_received,
            s2.packets_received
        );
        assert!(
            s.feedback_received >= 1,
            "sender never processed feedback: {s:?}"
        );
        sender.shutdown();
        r1.shutdown();
        r2.shutdown();
    }
}
