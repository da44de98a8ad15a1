//! Agent spans recorded from outside the program: a [`Traced`] wrapper
//! around every agent times each callback the simulator makes into it.
//!
//! A span covers everything the callback does, *including* the engine work
//! inside `Context::send` / `schedule` / `join_group` (route lookup, link
//! offer, event push).  The layer replays in [`crate::replay`] bound that
//! share; spans inside the engine are the later `TraceSink` change.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::packet::Packet;
use netsim::sim::{Agent, Context};

/// One span in every `SAMPLE_EVERY` is kept verbatim; all are aggregated.
pub const SAMPLE_EVERY: u64 = 1024;

/// The callback a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `Agent::start`.
    Start,
    /// `Agent::on_packet`.
    OnPacket,
    /// `Agent::on_timer`.
    OnTimer,
}

impl Callback {
    const ALL: [Callback; 3] = [Callback::Start, Callback::OnPacket, Callback::OnTimer];

    /// The callback's name as spans print it.
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "start",
            Callback::OnPacket => "on_packet",
            Callback::OnTimer => "on_timer",
        }
    }
}

/// A span kept verbatim.  Its parent is the run span and it carries the run
/// id, both held once by the [`RunTrace`] it is stored in.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which callback ran.
    pub callback: Callback,
    /// Start, in nanoseconds since the run span began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run span began.
    pub end_ns: u64,
}

/// Aggregated spans of one agent kind (one layer: module name + type).
#[derive(Debug)]
pub struct KindTrace {
    /// The layer name, e.g. `netsim.apps.sink`.
    pub layer: &'static str,
    /// When the run span began; verbatim spans are relative to it.
    origin: Instant,
    calls: [AtomicU64; 3],
    busy_ns: [AtomicU64; 3],
    samples: Mutex<Vec<Span>>,
}

impl KindTrace {
    fn new(layer: &'static str, origin: Instant) -> Self {
        KindTrace {
            layer,
            origin,
            calls: Default::default(),
            busy_ns: Default::default(),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Calls of one callback.
    pub fn calls_of(&self, cb: Callback) -> u64 {
        self.calls[cb as usize].load(Relaxed)
    }

    /// Calls over all callbacks.
    pub fn calls(&self) -> u64 {
        Callback::ALL.iter().map(|&cb| self.calls_of(cb)).sum()
    }

    /// Host seconds spent inside the kind's callbacks.
    pub fn busy_s(&self) -> f64 {
        let ns: u64 = self.busy_ns.iter().map(|a| a.load(Relaxed)).sum();
        ns as f64 * 1e-9
    }

    /// The spans kept verbatim, in completion order.
    pub fn samples(&self) -> Vec<Span> {
        self.samples
            .lock()
            .expect("no agent panics while holding the sample lock")
            .clone()
    }
}

/// The spans of one simulation run: the run span plus one [`KindTrace`] per
/// agent kind wrapped.
#[derive(Debug)]
pub struct RunTrace {
    /// Identifier shared by every span of the run.
    pub run_id: u64,
    origin: Instant,
    kinds: Mutex<Vec<Arc<KindTrace>>>,
}

impl RunTrace {
    /// Opens the run span.
    pub fn new(run_id: u64) -> Arc<Self> {
        Arc::new(RunTrace {
            run_id,
            origin: Instant::now(),
            kinds: Mutex::new(Vec::new()),
        })
    }

    /// The aggregate for `layer`, created on first use.
    pub fn kind(&self, layer: &'static str) -> Arc<KindTrace> {
        let mut kinds = self.kinds.lock().expect("kind list lock is never poisoned");
        if let Some(k) = kinds.iter().find(|k| k.layer == layer) {
            return Arc::clone(k);
        }
        let k = Arc::new(KindTrace::new(layer, self.origin));
        kinds.push(Arc::clone(&k));
        k
    }

    /// Every agent kind seen, in first-use order.
    pub fn kinds(&self) -> Vec<Arc<KindTrace>> {
        self.kinds
            .lock()
            .expect("kind list lock is never poisoned")
            .clone()
    }

    /// Host seconds inside agent callbacks, over all kinds.
    pub fn agent_busy_s(&self) -> f64 {
        self.kinds().iter().map(|k| k.busy_s()).sum()
    }
}

/// An agent whose callbacks are timed into a [`KindTrace`].
///
/// `as_any` forwards to the wrapped agent, so `Simulator::agent::<A>` still
/// finds the concrete type and the run's read-out code is the same traced
/// or not.
pub struct Traced<A: Agent> {
    inner: A,
    kind: Arc<KindTrace>,
}

impl<A: Agent> Traced<A> {
    /// Wraps `inner`, attributing its callbacks to `kind`.
    pub fn new(inner: A, kind: Arc<KindTrace>) -> Self {
        Traced { inner, kind }
    }

    fn span<R>(&mut self, cb: Callback, f: impl FnOnce(&mut A) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let i = cb as usize;
        let nth = self.kind.calls[i].fetch_add(1, Relaxed);
        self.kind.busy_ns[i].fetch_add((end - start).as_nanos() as u64, Relaxed);
        if nth.is_multiple_of(SAMPLE_EVERY) {
            let since = |t: Instant| (t - self.kind.origin).as_nanos() as u64;
            self.kind
                .samples
                .lock()
                .expect("no agent panics while holding the sample lock")
                .push(Span {
                    callback: cb,
                    start_ns: since(start),
                    end_ns: since(end),
                });
        }
        out
    }
}

impl<A: Agent> Agent for Traced<A> {
    fn start(&mut self, ctx: &mut Context<'_>) {
        self.span(Callback::Start, |a| a.start(ctx));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.span(Callback::OnPacket, |a| a.on_packet(ctx, packet));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.span(Callback::OnTimer, |a| a.on_timer(ctx, token));
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// How a workload builder boxes its agents: plainly, or inside [`Traced`].
pub enum Wrap {
    /// `Box::new(agent)` — the untraced run.
    Plain,
    /// `Box::new(Traced::new(agent, run.kind(layer)))`.
    Traced(Arc<RunTrace>),
}

impl Wrap {
    /// Boxes `agent` for `Simulator::add_agent`.
    pub fn boxed<A: Agent>(&self, agent: A, layer: &'static str) -> Box<dyn Agent> {
        match self {
            Wrap::Plain => Box::new(agent),
            Wrap::Traced(run) => Box::new(Traced::new(agent, run.kind(layer))),
        }
    }
}
