//! The executor-agnostic runtime API: one surface for both executors.
//!
//! The paper's central claim is that one scheduler design — colored
//! events plus the three workstealing heuristics — serves both analysis
//! (the deterministic simulation) and real execution (the threaded
//! runtime). This module makes that claim a *type*: applications are
//! written once against the [`Executor`] trait and dispatched to either
//! executor, the way libasync-smp applications targeted one event API
//! regardless of deployment.
//!
//! Three abstractions:
//!
//! - [`Executor`] — the runtime surface every executor implements:
//!   handler registration, dataset allocation, event registration,
//!   injector acquisition and [`Executor::run`]. Implemented by the
//!   two crate-private executors and by [`Runtime`], the one public
//!   executor type, which [`crate::runtime::RuntimeBuilder::build`]
//!   returns.
//! - [`Service`] — an application bundle (handler specs, initial
//!   events, and event actions dispatching on [`crate::ctx::Ctx`]).
//!   `rt.install(MyService)` works identically on both executors; the
//!   cross-executor conformance suite in the repository root asserts
//!   that a [`Service`] processes the *same number of events* on sim
//!   and threads.
//! - [`Injector`] — a cloneable, `Send` handle for registering events
//!   from outside the runtime (load generators, network poll loops).
//!   On the threaded executor it wraps the injection inboxes;
//!   on the simulator it feeds a mailbox the run loop drains at
//!   iteration boundaries, so external-producer code is also written
//!   once.
//!
//! # Injection semantics (the unified naming)
//!
//! The injection surface is the admission boundary of the runtime's
//! overload control ([`crate::admission`]): the infallible paths shed an
//! event a queue limit refuses, the fallible `try_` twins return the
//! [`Overload`] to the caller. The full four-way table (plus twins)
//! lives on [`Injector`]. Each executor offers only a primitive
//! admit-and-enqueue; the shed path, the fallible twins and the
//! reject/shed accounting are written once on top of it, in this
//! module.
//!
//! # Examples
//!
//! The same application, dispatched to either executor:
//!
//! ```
//! use mely_core::prelude::*;
//!
//! struct Burst(u16);
//!
//! impl Service for Burst {
//!     fn name(&self) -> &str {
//!         "burst"
//!     }
//!     fn install(&mut self, exec: &mut dyn Executor) {
//!         for i in 0..self.0 {
//!             exec.register(Event::new(Color::new(i + 1), 1_000));
//!         }
//!     }
//! }
//!
//! for kind in [ExecKind::Sim, ExecKind::Threaded] {
//!     let mut rt = RuntimeBuilder::new().cores(2).build(kind);
//!     rt.install(Burst(50));
//!     assert_eq!(rt.run().events_processed(), 50);
//! }
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::admission::{AdmissionCtl, Overload, OverloadReason};
use crate::dataset::DataSetRef;
use crate::event::Event;
use crate::handler::{HandlerId, HandlerSpec};
use crate::metrics::RunReport;
use crate::runtime::{Flavor, Resolved};
use crate::steal::WsPolicy;
use crate::threaded;

/// Which executor to build: the deterministic simulation or the real
/// one-OS-thread-per-core runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecKind {
    /// The deterministic discrete-event simulator.
    #[default]
    Sim,
    /// The real executor with one OS thread per core.
    Threaded,
}

impl fmt::Display for ExecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecKind::Sim => "sim",
            ExecKind::Threaded => "threaded",
        })
    }
}

impl FromStr for ExecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sim" | "simulation" | "simulated" => Ok(ExecKind::Sim),
            "threaded" | "threads" | "thread" => Ok(ExecKind::Threaded),
            other => Err(format!(
                "unknown executor kind {other:?} (try \"sim\" or \"threaded\")"
            )),
        }
    }
}

/// The executor-agnostic runtime surface.
///
/// Everything an application needs — registering handlers, allocating
/// data sets, seeding events, acquiring an [`Injector`] for external
/// producers, and running to completion — is available through this
/// trait on both executors, so the application is written once.
///
/// The trait is object-safe: service crates accept `&mut dyn Executor`
/// and never name a concrete runtime.
pub trait Executor {
    /// Which executor this is.
    fn kind(&self) -> ExecKind;

    /// Number of cores (simulated or worker threads).
    fn cores(&self) -> usize;

    /// Queue architecture this executor runs.
    fn flavor(&self) -> Flavor;

    /// The active workstealing policy.
    fn policy(&self) -> WsPolicy;

    /// Registers an application handler (name, cost annotation,
    /// penalty). Must be called before [`Executor::run`].
    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId;

    /// The runtime's current cost estimate for a handler: the
    /// annotation, or the monitored EWMA for
    /// [`crate::handler::CostSource::Measured`] handlers.
    fn handler_estimate(&self, id: HandlerId) -> u64;

    /// Allocates a data set of `len` bytes (simulated addresses; swept
    /// through the cache simulator under sim, accounted under threads).
    fn alloc_dataset(&mut self, len: u64) -> DataSetRef;

    /// Registers an event. It is dispatched to the core owning its
    /// color (initially the color's home core).
    fn register(&mut self, ev: Event);

    /// Registers an event and pins its color to `core`, overriding the
    /// hash dispatch — how the microbenchmarks create their initial
    /// imbalance.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    fn register_pinned(&mut self, ev: Event, core: usize);

    /// A cloneable, `Send` handle for injecting events from other
    /// threads while the runtime runs.
    fn injector(&self) -> Injector;

    /// Runs until every registered event (and every event they spawn)
    /// has executed — or a handler called
    /// [`crate::ctx::Ctx::stop_runtime`] or an injector called
    /// [`Injector::stop`] — then returns the report: cumulative over
    /// every run so far on the simulator (virtual time and counters keep
    /// accumulating), this run's events on threads. Can be called again
    /// after registering more events.
    fn run(&mut self) -> RunReport;

    /// Installs a [`Service`]: the service registers its handlers and
    /// seeds its initial events, then is handed back so the caller can
    /// query it after [`Executor::run`].
    fn install<S: Service>(&mut self, mut svc: S) -> S
    where
        Self: Sized,
    {
        svc.install(self);
        svc
    }
}

/// An application bundle: handler specs, initial events, and a
/// [`crate::ctx::Ctx`]-driven dispatch entry (the actions attached to
/// its events).
///
/// A `Service` never names a concrete executor, so the same
/// implementation runs unmodified on the simulator and on threads:
///
/// ```
/// use mely_core::prelude::*;
///
/// struct Pings;
/// impl Service for Pings {
///     fn name(&self) -> &str {
///         "pings"
///     }
///     fn install(&mut self, exec: &mut dyn Executor) {
///         let h = exec.register_handler(HandlerSpec::new("ping").cost(500));
///         exec.register(Event::for_handler(Color::new(1), h).with_action(|ctx| {
///             ctx.register(Event::new(Color::new(2), 500));
///         }));
///     }
/// }
///
/// let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
/// rt.install(Pings);
/// assert_eq!(rt.run().events_processed(), 2);
/// ```
pub trait Service {
    /// Human-readable name (reports, conformance harnesses).
    fn name(&self) -> &str;

    /// Registers the service's handlers and seeds its initial events.
    /// Follow-up work is dispatched from event actions through
    /// [`crate::ctx::Ctx::register`] / [`crate::ctx::Ctx::register_after`],
    /// which are executor-agnostic by construction.
    fn install(&mut self, exec: &mut dyn Executor);
}

/// What one executor offers an external producer: its primitive door.
/// [`Injector`]'s four entry points — the shed path, the fallible twins
/// and the reject/shed accounting — are written once over this trait
/// ([`admit_or_shed`], [`admit_or_report`], [`enqueue_or_shed`]) and
/// monomorphised per executor. Nothing here counts a reject or a shed.
pub(crate) trait Door {
    /// The runtime's limits and producer-side counters.
    fn admission(&self) -> &AdmissionCtl;

    /// Admits `ev` against the quarantine set and the queue limits and
    /// enqueues it — now, or to fire after `delay` cycles — or drops it
    /// and returns the [`Overload`].
    fn try_enqueue(&self, delay: Option<u64>, ev: Event) -> Result<(), Overload>;

    /// Enqueues past the queue limits (`None`: right away, through the
    /// owning core's inbox on threads; `Some`: after a delay). `Err`
    /// names why the door takes nothing of this color whatever the
    /// limits say, and the event is dropped.
    fn enqueue_unchecked(&self, delay: Option<u64>, ev: Event) -> Result<(), OverloadReason>;
}

/// The fallible twins ([`Injector::try_inject`],
/// [`Injector::try_inject_after`]): one attempt, one counted reject, the
/// [`Overload`] to the caller.
fn admit_or_report<D: Door>(door: &D, delay: Option<u64>, ev: Event) -> Result<(), Overload> {
    door.try_enqueue(delay, ev)
        .inspect_err(|_| door.admission().note_reject())
}

/// The infallible admission path ([`Injector::inject`]): one attempt,
/// and a refused event counts one reject plus one shed. Never waiting
/// keeps a producer from stalling on a hot color, a quarantined color
/// or a stopped executor, none of which it can drain itself.
fn admit_or_shed<D: Door>(door: &D, ev: Event) {
    if let Err(ov) = admit_or_report(door, None, ev) {
        door.admission().note_shed(ov.reason);
    }
}

/// The unchecked paths ([`Injector::inject_after`], the threaded
/// runtime's own `register`):
/// an event the door refuses counts one reject plus one shed.
pub(crate) fn enqueue_or_shed<D: Door>(door: &D, delay: Option<u64>, ev: Event) {
    if let Err(reason) = door.enqueue_unchecked(delay, ev) {
        door.admission().note_reject();
        door.admission().note_shed(reason);
    }
}

/// The simulator's external-producer mailbox: a mutex-protected buffer
/// the run loop drains at iteration boundaries, giving [`Injector`]s a
/// target on an executor that is otherwise single-threaded.
///
/// Determinism note: a simulation that only ever registers events from
/// its own thread (the normal case) never observes the mailbox and
/// stays fully deterministic. Cross-thread injection into a *running*
/// simulation is inherently racy — the drain order depends on OS
/// scheduling — and is intended for running threaded-style producer
/// code unmodified, not for cycle-accurate claims.
pub(crate) struct SimMailbox {
    /// Buffered entries: `(None, ev)` is immediate, `(Some(delay), ev)`
    /// arms a timer.
    queue: Mutex<Vec<(Option<u64>, Event)>>,
    /// Entries pushed but not yet drained by the run loop.
    buffered: AtomicU64,
    /// Live keepalive guards: the run loop does not exit while nonzero.
    keepalive: AtomicU64,
    /// Hard-stop request ([`Injector::stop`]).
    stop: AtomicBool,
    /// Whether the simulated machine has nothing left to execute
    /// (queues and timers empty). Maintained by the run loop; starts
    /// `true` (an unstarted machine is empty). Lets
    /// [`Injector::stop_when_idle`] wait for *execution*, not just
    /// absorption — the same contract as the threaded executor's
    /// outstanding-event count.
    idle: AtomicBool,
    /// Shared with the run loop: the admission limits and counters, the
    /// quarantine set (injection into a quarantined color is refused at
    /// this boundary so producers see the failure instead of feeding a
    /// drain) and the core count behind the per-core check's home-core
    /// dispatch estimate.
    cfg: Arc<Resolved>,
    /// Per-core queue lengths as last published by the run loop; empty
    /// unless a per-core limit is configured. An approximation for
    /// producers: exact between run-loop iterations, stale mid-step.
    core_occupancy: Box<[AtomicU32]>,
}

impl SimMailbox {
    pub(crate) fn new(cfg: Arc<Resolved>) -> Self {
        let tracked = if cfg.admission.limits.per_core_events.is_some() {
            cfg.cores
        } else {
            0
        };
        let mut occ = Vec::with_capacity(tracked);
        occ.resize_with(tracked, || AtomicU32::new(0));
        SimMailbox {
            queue: Mutex::new(Vec::new()),
            buffered: AtomicU64::new(0),
            keepalive: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            idle: AtomicBool::new(true),
            cfg,
            core_occupancy: occ.into_boxed_slice(),
        }
    }

    fn push_raw(&self, delay: Option<u64>, ev: Event) {
        // Count before publishing so `outstanding` never under-reports
        // (the symmetric discipline to the threaded inbox's counter).
        self.buffered.fetch_add(1, Ordering::AcqRel);
        self.queue.lock().push((delay, ev));
    }

    /// Publishes one core's queue length for the per-core admission
    /// check (no-op unless a per-core limit is configured).
    pub(crate) fn publish_core_occupancy(&self, core: usize, len: u32) {
        if let Some(slot) = self.core_occupancy.get(core) {
            slot.store(len, Ordering::Release);
        }
    }

    /// Whether undrained entries are buffered. The sim run loop checks
    /// this before draining so schedule perturbation only consults its
    /// RNG when there is actually something to absorb.
    pub(crate) fn has_buffered(&self) -> bool {
        self.buffered.load(Ordering::Acquire) > 0
    }

    /// Takes the whole backlog. Called by the sim run loop.
    pub(crate) fn drain(&self) -> Vec<(Option<u64>, Event)> {
        if self.buffered.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let batch = std::mem::take(&mut *self.queue.lock());
        // Busy before the count drops: otherwise `stop_when_idle` can
        // observe "nothing buffered, machine idle" between this drain
        // and the run loop queueing the batch, and stop a run that has
        // not executed it yet.
        self.set_machine_idle(false);
        self.buffered
            .fetch_sub(batch.len() as u64, Ordering::AcqRel);
        batch
    }

    /// Whether the run loop must keep spinning with an empty machine.
    pub(crate) fn holds_open(&self) -> bool {
        self.keepalive.load(Ordering::Acquire) > 0 || self.buffered.load(Ordering::Acquire) > 0
    }

    pub(crate) fn clear_stop(&self) {
        self.stop.store(false, Ordering::Release);
    }

    /// Run-loop bookkeeping for the machine-idle flag (see the `idle`
    /// field).
    pub(crate) fn set_machine_idle(&self, idle: bool) {
        self.idle.store(idle, Ordering::Release);
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Entries pushed but not yet absorbed by the run loop.
    fn outstanding(&self) -> u64 {
        self.buffered.load(Ordering::Acquire)
    }

    fn keepalive(self: &Arc<Self>) -> KeepAlive {
        self.keepalive.fetch_add(1, Ordering::AcqRel);
        let m = Arc::clone(self);
        KeepAlive::new(move || {
            m.keepalive.fetch_sub(1, Ordering::AcqRel);
        })
    }

    /// Waits for the mailbox to drain *and* the simulated machine to go
    /// idle (queues and timers empty), then stops.
    fn stop_when_idle(&self) {
        while self.outstanding() > 0 || !self.idle.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.stop();
    }
}

impl Door for SimMailbox {
    fn admission(&self) -> &AdmissionCtl {
        &self.cfg.admission
    }

    fn try_enqueue(&self, delay: Option<u64>, mut ev: Event) -> Result<(), Overload> {
        let cfg = &*self.cfg;
        if self.stopped() {
            // The run loop will never drain again: unconditional reject
            // (reason InboxBacklog — the backlog can only grow).
            return Err(Overload {
                reason: OverloadReason::InboxBacklog,
            });
        }
        let color = ev.color();
        cfg.admission.admit(&cfg.faults, &mut ev, || {
            // Dispatch estimate: the color's home core (exact unless
            // workstealing moved the color), occupancy as last
            // published by the run loop (tracked only under a per-core
            // limit).
            let core_occ = self.core_occupancy.get(color.home_core(cfg.cores));
            (
                core_occ.map_or(0, |occ| u64::from(occ.load(Ordering::Acquire))),
                self.outstanding(),
            )
        })?;
        self.push_raw(delay, ev);
        Ok(())
    }

    /// Two checks still apply: a stopped run loop never drains its
    /// mailbox, so buffering into it would leak the event forever, and a
    /// quarantined color's events would only be drained and discarded by
    /// the run loop anyway.
    fn enqueue_unchecked(&self, delay: Option<u64>, ev: Event) -> Result<(), OverloadReason> {
        if self.stopped() {
            return Err(OverloadReason::InboxBacklog);
        }
        if self.cfg.faults.is_quarantined(ev.color()) {
            return Err(OverloadReason::Quarantined);
        }
        self.push_raw(delay, ev);
        Ok(())
    }
}

#[derive(Clone)]
enum InjectorInner {
    Sim(Arc<SimMailbox>),
    Threaded(Arc<threaded::Shared>),
}

/// Evaluates `$body` with `$door` bound to the executor's door, once
/// per variant, so every entry point is monomorphised — no `dyn` call
/// on the injection path.
macro_rules! with_door {
    ($injector:expr, $door:ident => $body:expr) => {
        match &$injector.inner {
            InjectorInner::Sim($door) => $body,
            InjectorInner::Threaded($door) => $body,
        }
    };
}

/// A cloneable, `Send` handle for registering events into a running
/// executor from other threads: the one producer door of both
/// executors, obtained from [`Executor::injector`].
///
/// # The injection surface
///
/// The injector is the *admission boundary* of the runtime's overload
/// control ([`crate::admission`]). Three ways in, each with one job:
///
/// | method | admission | semantics |
/// |---|---|---|
/// | [`Injector::inject`] | infallible — a refused event is dropped and counted as shed | enqueue to the color's owning core through its inbox (threaded) or the run-loop mailbox (sim). The default fire-and-forget path: producers never contend on a dispatch lock. |
/// | [`Injector::try_inject`] | fallible — returns `Err(`[`Overload`]`)` naming the limit hit; the event is dropped | same enqueue; the caller owns the overload response (retry, degrade, reject upstream). |
/// | [`Injector::inject_after`] | none — timers are scheduled work, not offered load | enqueue after a delay in cycles (virtual under sim, cycle-counter under threads). |
///
/// [`Injector::try_inject_after`] is the fallible twin of
/// `inject_after`: its admission check runs at *registration* time
/// against current occupancy, and an admitted event holds its per-color
/// slot across the delay. A quarantined color is refused on every path,
/// and on a stopped simulator every path rejects (the infallible ones
/// drop + count) instead of buffering forever.
#[derive(Clone)]
pub struct Injector {
    inner: InjectorInner,
}

impl Injector {
    pub(crate) fn for_sim(mailbox: Arc<SimMailbox>) -> Self {
        Injector {
            inner: InjectorInner::Sim(mailbox),
        }
    }

    pub(crate) fn for_threaded(shared: Arc<threaded::Shared>) -> Self {
        Injector {
            inner: InjectorInner::Threaded(shared),
        }
    }

    /// Which executor this injector feeds.
    pub fn kind(&self) -> ExecKind {
        match &self.inner {
            InjectorInner::Sim(_) => ExecKind::Sim,
            InjectorInner::Threaded(_) => ExecKind::Threaded,
        }
    }

    /// Registers an event through the owning core's injection inbox
    /// (threaded) or the run-loop mailbox (sim) — the producer
    /// never contends on a dispatch lock. The canonical *infallible*
    /// injection path: with bounded queues, one admission attempt, and
    /// an event a limit refuses is dropped and counted as one
    /// `admission_rejects` plus one `shed_requests` (see the table on
    /// [`Injector`]). Never blocks.
    pub fn inject(&self, ev: Event) {
        with_door!(self, d => admit_or_shed(&**d, ev))
    }

    /// The fallible admission path: admits `ev` or returns the
    /// [`Overload`] naming the limit that rejected it (the event is
    /// dropped and not counted as shed). Never blocks; each rejected call
    /// counts one `admission_rejects`.
    pub fn try_inject(&self, ev: Event) -> Result<(), Overload> {
        with_door!(self, d => admit_or_report(&**d, None, ev))
    }

    /// Registers an event to fire after `delay` cycles: virtual cycles
    /// under the simulator, calibrated cycle-counter cycles under the
    /// threaded executor. Infallible and unchecked — a timer firing is
    /// scheduled work, not offered load; use
    /// [`Injector::try_inject_after`] to subject delayed work to
    /// admission control.
    pub fn inject_after(&self, delay: u64, ev: Event) {
        with_door!(self, d => enqueue_or_shed(&**d, Some(delay), ev))
    }

    /// The fallible twin of [`Injector::inject_after`]: the admission
    /// check runs *now*, against current occupancy, and an admitted
    /// event holds its per-color slot across the delay.
    pub fn try_inject_after(&self, delay: u64, ev: Event) -> Result<(), Overload> {
        with_door!(self, d => admit_or_report(&**d, Some(delay), ev))
    }

    /// Asks the executor to stop at the next opportunity; events still
    /// queued may not execute (the usual producer/stop race).
    pub fn stop(&self) {
        with_door!(self, d => d.stop())
    }

    /// Events handed to this executor but not yet executed (threaded)
    /// or not yet absorbed by the run loop (sim). An estimate intended
    /// for idle checks, not exact accounting.
    pub fn outstanding(&self) -> u64 {
        with_door!(self, d => d.outstanding())
    }

    /// Keeps the executor alive while the returned guard lives, even
    /// with no events pending — the idiom for external producers that
    /// will inject *later*. Without it, the threaded workers exit (and
    /// the sim run loop returns) the moment everything registered so
    /// far has executed. Pair with [`Injector::stop_when_idle`].
    pub fn keepalive(&self) -> KeepAlive {
        with_door!(self, d => d.keepalive())
    }

    /// Blocks until every registered event has been executed, then
    /// requests a stop — identical semantics on both executors, so the
    /// producer idiom `pool.join(); injector.stop_when_idle();
    /// drop(keepalive);` ports unchanged. On the threaded executor this
    /// watches the outstanding-event count; on the simulator it waits
    /// for the mailbox to drain *and* the simulated machine to go idle
    /// (queues and timers empty). Events injected concurrently with the
    /// stop may or may not run — the usual producer/stop race.
    pub fn stop_when_idle(&self) {
        with_door!(self, d => d.stop_when_idle())
    }
}

impl fmt::Debug for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Injector")
            .field("kind", &self.kind())
            .finish()
    }
}

/// RAII guard from [`Injector::keepalive`]; dropping it lets the
/// executor wind down once no real events remain.
pub struct KeepAlive {
    release: Option<Box<dyn FnOnce() + Send>>,
}

impl KeepAlive {
    pub(crate) fn new(release: impl FnOnce() + Send + 'static) -> Self {
        KeepAlive {
            release: Some(Box::new(release)),
        }
    }
}

impl Drop for KeepAlive {
    fn drop(&mut self) {
        if let Some(release) = self.release.take() {
            // Guards are held by producer threads precisely so the
            // runtime outlives them; if such a thread panics, the guard
            // drops during its unwind, and a release that panicked here
            // would escalate to a double-panic abort. Contain it: the
            // counter decrement is the part that must happen.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(release));
        }
    }
}

impl fmt::Debug for KeepAlive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeepAlive")
    }
}

/// The unified runtime returned by
/// [`crate::runtime::RuntimeBuilder::build`] and the only public
/// executor type: either executor behind one concrete type, usable
/// wherever `&mut dyn Executor` is. Which one it holds is
/// [`Executor::kind`]; everything an experiment reads back — virtual
/// time, steals, cache misses — is in the [`RunReport`] that
/// [`Executor::run`] returns.
pub struct Runtime(Box<dyn Executor + Send>);

impl Runtime {
    pub(crate) fn new(exec: impl Executor + Send + 'static) -> Self {
        Runtime(Box::new(exec))
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("kind", &self.kind())
            .field("cores", &self.cores())
            .field("flavor", &self.flavor())
            .finish()
    }
}

impl Executor for Runtime {
    fn kind(&self) -> ExecKind {
        self.0.kind()
    }

    fn cores(&self) -> usize {
        self.0.cores()
    }

    fn flavor(&self) -> Flavor {
        self.0.flavor()
    }

    fn policy(&self) -> WsPolicy {
        self.0.policy()
    }

    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        self.0.register_handler(spec)
    }

    fn handler_estimate(&self, id: HandlerId) -> u64 {
        self.0.handler_estimate(id)
    }

    fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        self.0.alloc_dataset(len)
    }

    fn register(&mut self, ev: Event) {
        self.0.register(ev);
    }

    fn register_pinned(&mut self, ev: Event, core: usize) {
        self.0.register_pinned(ev, core);
    }

    fn injector(&self) -> Injector {
        self.0.injector()
    }

    fn run(&mut self) -> RunReport {
        self.0.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::runtime::RuntimeBuilder;

    struct Fanout {
        seeds: u16,
        children: u16,
    }

    impl Service for Fanout {
        fn name(&self) -> &str {
            "fanout"
        }

        fn install(&mut self, exec: &mut dyn Executor) {
            let children = self.children;
            for i in 0..self.seeds {
                exec.register(
                    Event::new(Color::new(i + 1), 1_000).with_action(move |ctx| {
                        for c in 0..children {
                            ctx.register(Event::new(Color::new(1_000 + c), 100));
                        }
                    }),
                );
            }
        }
    }

    #[test]
    fn exec_kind_parses_and_prints() {
        assert_eq!("sim".parse::<ExecKind>().unwrap(), ExecKind::Sim);
        assert_eq!("Threaded".parse::<ExecKind>().unwrap(), ExecKind::Threaded);
        assert!("quantum".parse::<ExecKind>().is_err());
        assert_eq!(ExecKind::Sim.to_string(), "sim");
        assert_eq!(ExecKind::Threaded.to_string(), "threaded");
    }

    #[test]
    fn one_service_same_count_on_both_executors() {
        let mut counts = Vec::new();
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let mut rt = RuntimeBuilder::new().cores(2).build(kind);
            assert_eq!(rt.kind(), kind);
            rt.install(Fanout {
                seeds: 10,
                children: 3,
            });
            counts.push(rt.run().events_processed());
        }
        assert_eq!(counts, vec![40, 40]);
    }

    #[test]
    fn sim_injector_feeds_the_run_loop() {
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        let injector = rt.injector();
        assert_eq!(injector.kind(), ExecKind::Sim);
        for i in 0..20u16 {
            injector.inject(Event::new(Color::new(i + 1), 100));
        }
        injector.inject_after(5_000, Event::new(Color::new(31), 100));
        assert_eq!(injector.outstanding(), 21);
        let report = rt.run();
        assert_eq!(report.events_processed(), 21);
        assert_eq!(injector.outstanding(), 0);
    }

    #[test]
    fn sim_keepalive_holds_the_run_open_for_external_producers() {
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        let injector = rt.injector();
        let keepalive = injector.keepalive();
        let producer = std::thread::spawn(move || {
            // The machine starts empty; without the keepalive the run
            // would have returned before these arrive.
            std::thread::sleep(std::time::Duration::from_millis(10));
            for i in 0..10u16 {
                injector.inject(Event::new(Color::new(i + 1), 100));
            }
            injector.stop_when_idle();
            drop(keepalive);
        });
        let report = rt.run();
        producer.join().unwrap();
        assert_eq!(report.events_processed(), 10);
    }

    #[test]
    fn sim_injector_stop_halts_the_run() {
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        let injector = rt.injector();
        for _ in 0..100 {
            injector.inject(Event::new(Color::new(1), 1_000_000_000));
        }
        injector.stop();
        let report = rt.run();
        assert!(report.events_processed() < 100);
        // The stop is consumed: a subsequent run proceeds normally.
        rt.register(Event::new(Color::new(2), 10));
        assert!(rt.run().events_processed() > report.events_processed());
    }
}
