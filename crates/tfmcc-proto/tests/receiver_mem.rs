//! Heap-footprint regression for 10⁵-receiver simulations.
//!
//! A single simulation at paper scale holds 10⁵ live [`TfmccReceiver`]
//! states, so the per-receiver heap footprint directly bounds the largest
//! receiver population one process can hold (ROADMAP: "memory profiling of
//! 10⁵ `TfmccReceiver` states").  This test builds a large batch of
//! receivers, drives each to its settled steady state (loss-history ring
//! full, rate-meter ring at its recycled capacity, feedback machinery
//! cycling), and measures the *net* heap bytes the batch retains through a
//! counting global allocator.  The per-receiver bound is pinned: growing the
//! steady-state footprint past it is a deliberate decision, not an accident.
//!
//! The companion probe for whole-simulation footprints (nodes, links,
//! agents, event queue) is `examples/scale_probe.rs`, which reports live
//! heap bytes per receiver for 10⁵-receiver topologies.
//!
//! The file contains exactly one test: the byte counter is process-global,
//! and a concurrently running sibling test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::Arc;

use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::{DataPacket, ReceiverId, RttEcho};
use tfmcc_proto::receiver::TfmccReceiver;

/// Pinned upper bound on the settled heap bytes one receiver retains
/// (measured 2120 bytes, plus 384 inline, with the 8-interval loss
/// history and a configuration shared by the batch — rate meter and
/// interval rings dominate; the 15 % headroom covers allocator layout drift
/// across toolchains, not new state: 10⁵ receivers stay under 250 MB of
/// protocol state).
const MAX_HEAP_BYTES_PER_RECEIVER: i64 = 2438;

/// Receivers in the measured batch — large enough that per-batch noise
/// (allocator bookkeeping, container growth slack) is amortized to nothing.
const BATCH: usize = 1024;

// Twin of the allocator in `examples/scale_probe.rs` — a
// `#[global_allocator]` must live in the binary that uses it, so the ~30
// lines are duplicated rather than shipped in a library crate; keep the two
// in sync.
struct NetCountingAllocator;

static NET_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with unchanged arguments; the
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
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: NetCountingAllocator = NetCountingAllocator;

/// Drives `packets` data packets (with ~2 % loss, periodic RTT echoes and
/// round advances) through the receiver so its rings reach their settled
/// capacities.
fn warm(r: &mut TfmccReceiver, packets: u64) {
    let mut now = 0.0;
    let mut seq = 0u64;
    for i in 0..packets {
        if i % 50 == 49 {
            seq += 1; // drop every 50th packet
        }
        let mut d = DataPacket {
            seqno: seq,
            timestamp: now,
            current_rate: 500_000.0,
            max_rtt: 0.05,
            feedback_round: 1 + i / 200,
            slowstart: false,
            clr: None,
            rtt_echo: None,
            suppression: None,
            size: 1000,
        };
        if i % 500 == 100 {
            d.rtt_echo = Some(RttEcho {
                receiver: r.id(),
                echo_timestamp: now - 0.06,
                echo_delay: 0.01,
            });
        }
        let _ = r.on_data(now, &d);
        if let Some(fire_at) = r.next_timer() {
            if fire_at <= now {
                let _ = r.on_timer(now);
            }
        }
        seq += 1;
        now += 0.002;
    }
}

#[test]
fn settled_receiver_heap_footprint_stays_under_pinned_bound() {
    // One configuration shared by the whole batch, as a session shares it.
    let config = Arc::new(TfmccConfig::default());
    let before = NET_BYTES.load(Relaxed);
    let mut batch: Vec<TfmccReceiver> = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        batch.push(TfmccReceiver::new(
            ReceiverId(i as u64 + 1),
            Arc::clone(&config),
        ));
    }
    for r in &mut batch {
        warm(r, 2000);
    }
    let retained = NET_BYTES.load(Relaxed) - before;
    // Everything still reachable from `batch` (minus the Vec spine) is
    // per-receiver state.
    let spine = (BATCH * std::mem::size_of::<TfmccReceiver>()) as i64;
    let per_receiver = (retained - spine) / BATCH as i64;
    assert!(
        batch.iter().all(|r| r.loss_event_rate() > 0.0),
        "warm-up must reach steady state"
    );
    eprintln!(
        "receiver footprint: {per_receiver} heap bytes + {} inline bytes each",
        std::mem::size_of::<TfmccReceiver>()
    );
    assert!(
        per_receiver <= MAX_HEAP_BYTES_PER_RECEIVER,
        "settled TfmccReceiver retains {per_receiver} heap bytes, over the pinned \
         {MAX_HEAP_BYTES_PER_RECEIVER}-byte bound — 10⁵ receivers would need \
         {} MB where the bound allows {} MB",
        per_receiver * 100_000 / (1 << 20),
        MAX_HEAP_BYTES_PER_RECEIVER * 100_000 / (1 << 20),
    );
    drop(batch);
    let leaked = NET_BYTES.load(Relaxed) - before;
    assert!(
        leaked.abs() < 4096,
        "dropping the batch must return its heap: {leaked} bytes outstanding"
    );
}
