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
//! - [`Executor`] — the runtime surface: handler registration, dataset
//!   allocation, event registration, injector acquisition and
//!   [`Executor::run`]. Implemented by [`Runtime`], the one executor
//!   type, which [`crate::runtime::RuntimeBuilder::build`] returns
//!   holding either crate-private executor.
//! - [`Service`] — an application bundle (handler specs, initial
//!   events, and event actions dispatching on [`crate::ctx::Ctx`]).
//!   `rt.install(MyService)` works identically on both executors; the
//!   cross-executor conformance suite in the repository root asserts
//!   that a [`Service`] processes the *same number of events* on sim
//!   and threads.
//! - [`Injector`] — a cloneable, `Send` handle for registering events
//!   from outside the runtime (load generators, network poll loops).
//!   On both executors it pushes into the owning core's injection
//!   inbox, which the core drains into its queue, so external-producer
//!   code is also written once.
//!
//! Both executors and their injectors share one `Doors`: the admission
//! limits and quarantine set, color ownership in one `ColorMap` (with
//! the pin rule), whether a run goes on in one `Liveness` record
//! (unexecuted events, keepalive tokens, the stop request), and per
//! core the inbox and the published queue length.
//!
//! # Injection semantics (the unified naming)
//!
//! The injection surface is the admission boundary of the runtime's
//! overload control ([`crate::admission`]): the infallible paths shed an
//! event a queue limit refuses, the fallible `try_` twins return the
//! [`Overload`] to the caller. The table lives on [`Injector`]. The
//! admission steps, the shed path and the reject/shed accounting are
//! written once, on the shared door.
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
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::admission::{Overload, OverloadReason};
use crate::color::{Color, COLOR_SPACE};
use crate::dataset::{DataSetAlloc, DataSetRef};
use crate::event::Event;
use crate::handler::{HandlerId, HandlerSpec};
use crate::metrics::{CoreMetrics, RunReport};
use crate::runtime::{Flavor, Resolved};
use crate::sim::SimRuntime;
use crate::steal::WsPolicy;
use crate::threaded;
use crate::threaded::inbox::InjectionInbox;

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
    /// A color lives on one core, so the pin moves a color only if it
    /// has no owner yet, is `core`'s already, or nothing holds it on its
    /// owner: no event queued there nor, on threads, in its inbox.
    /// Otherwise the event goes to the owner, and `refused_pins` counts
    /// one. On both executors, "holds" means an event of the color
    /// queued on the owner or waiting in its inbox. Armed timers hold
    /// nothing: they go to whoever owns the color when they fire. No
    /// handler is in flight while this borrows the executor.
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

const NO_OWNER: u32 = u32::MAX;

/// Which core owns each color, for both executors: claimed by its home
/// core when an event first needs an owner, moved whole by a steal or
/// by a pin.
pub(crate) struct ColorMap {
    owners: Box<[AtomicU32]>,
    cores: usize,
    /// Pins the pin rule refused (`CoreMetrics::refused_pins`).
    pub(crate) refused_pins: AtomicU64,
}

impl ColorMap {
    pub(crate) fn new(cores: usize) -> Self {
        ColorMap {
            owners: (0..COLOR_SPACE).map(|_| AtomicU32::new(NO_OWNER)).collect(),
            cores,
            refused_pins: AtomicU64::new(0),
        }
    }

    /// The color's current owner, claiming the color's home core for it
    /// if nobody owns it yet.
    pub(crate) fn owner_of(&self, color: Color) -> usize {
        let slot = &self.owners[color.value() as usize];
        let owner = slot.load(Ordering::Acquire);
        if owner != NO_OWNER {
            return owner as usize;
        }
        let home = color.home_core(self.cores) as u32;
        // A racing claim may win; its core is the owner then.
        let claim = slot.compare_exchange(NO_OWNER, home, Ordering::AcqRel, Ordering::Acquire);
        claim.err().unwrap_or(home) as usize
    }

    /// Whether `core` owns `color` now; claims nothing.
    pub(crate) fn owns(&self, core: usize, color: Color) -> bool {
        self.owners[color.value() as usize].load(Ordering::Acquire) == core as u32
    }

    /// A steal moved `color`'s whole queue to `thief`.
    pub(crate) fn moved(&self, color: Color, thief: usize) {
        self.owners[color.value() as usize].store(thief as u32, Ordering::Release);
    }

    /// The pin rule of [`Executor::register_pinned`]. `vacant(owner)`
    /// says whether nothing holds the color on its owner, and its `Some`
    /// keeps it so until the move.
    pub(crate) fn pin<G>(
        &self,
        color: Color,
        core: usize,
        vacant: impl FnOnce(usize) -> Option<G>,
    ) {
        let slot = &self.owners[color.value() as usize];
        let claim =
            slot.compare_exchange(NO_OWNER, core as u32, Ordering::AcqRel, Ordering::Acquire);
        let owner = match claim {
            Err(owner) if owner as usize != core => owner as usize,
            _ => return, // claimed just now, or `core`'s already
        };
        let Some(_still_vacant) = vacant(owner) else {
            self.refused_pins.fetch_add(1, Ordering::Relaxed);
            return;
        };
        slot.store(core as u32, Ordering::Release);
    }
}

/// One [`KeepAlive`] token in [`Liveness::count`]: tokens in the high
/// bits and events in the low 48, so one load reads both consistently.
const TOKEN: u64 = 1 << 48;

/// [`Liveness::stop`]: a stop is requested.
const STOP: u64 = 1;
/// [`Liveness::stop`]: the latest stop request came from a dying worker.
const BY_DEATH: u64 = 2;
/// [`Liveness::stop`]: one stop consumed by a run.
const CONSUMED: u64 = 4;

/// What ended an [`Injector::stop_when_idle`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleWait {
    /// Every registered event had executed; the wait requested the stop.
    Drained,
    /// A stop was requested ([`Injector::stop`],
    /// [`crate::ctx::Ctx::stop_runtime`]).
    Stopped,
    /// A threaded worker died, which stops its run.
    WorkerDied,
    /// The run in progress when the wait began ended.
    RunEnded,
}

/// Whether a run goes on, for both executors and their [`Injector`]s:
/// the events not executed yet, the [`KeepAlive`] tokens, the one stop
/// request and run ends.
#[derive(Debug, Default)]
pub(crate) struct Liveness {
    /// Events registered, armed as timers or injected and not executed
    /// yet, plus [`TOKEN`]s.
    count: AtomicU64,
    /// [`STOP`] and [`BY_DEATH`], and above them the stops consumed by
    /// runs, so that a waiter sees a stop even once it is consumed and
    /// whether the latest was a death's.
    stop: AtomicU64,
    /// Bit 0: a run is in progress. Above it: runs ended.
    runs: AtomicU64,
}

impl Liveness {
    pub(crate) fn add_event(&self) {
        self.count.fetch_add(1, Ordering::AcqRel);
    }

    /// One event dispatched, whatever became of it.
    pub(crate) fn event_done(&self) {
        self.count.fetch_sub(1, Ordering::AcqRel);
    }

    /// No event to execute and no [`KeepAlive`] token.
    pub(crate) fn idle(&self) -> bool {
        self.count.load(Ordering::Acquire) == 0
    }

    /// A new request clears the mark of a death whose stop is consumed;
    /// a pending death's stop stays a death's.
    pub(crate) fn request_stop(&self) {
        let _ = self
            .stop
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s & STOP == 0).then_some((s | STOP) & !BY_DEATH)
            });
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire) & STOP != 0
    }

    /// The events a dead worker held can no longer run: its run stops.
    pub(crate) fn worker_died(&self) {
        self.stop.fetch_or(STOP | BY_DEATH, Ordering::AcqRel);
    }

    /// A run is in progress until the guard drops, also by unwinding;
    /// the drop consumes the stop request, so that the next run goes on.
    pub(crate) fn run(&self) -> Running<'_> {
        self.runs.fetch_add(1, Ordering::AcqRel);
        Running(self)
    }
}

/// A run in progress ([`Liveness::run`]).
pub(crate) struct Running<'a>(&'a Liveness);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let _ = self
            .0
            .stop
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                (s & STOP != 0).then_some((s & !STOP) + CONSUMED)
            });
        self.0.runs.fetch_add(1, Ordering::AcqRel);
    }
}

/// One core's door: the inbox every event bound for the core enters
/// by, and the length of the core's queue as its executor last
/// published it.
#[derive(Default)]
pub(crate) struct CoreDoor {
    pub(crate) inbox: InjectionInbox,
    queued: AtomicUsize,
}

impl CoreDoor {
    /// The queue length as last published: exact while the core's
    /// executor holds the queue, a racy estimate for everyone else.
    pub(crate) fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    pub(crate) fn publish(&self, queued: usize) {
        self.queued.store(queued, Ordering::Relaxed);
    }

    /// Pending work on the core: its queue plus what waits in its inbox.
    /// Saturating: both inputs are racy estimates.
    pub(crate) fn load(&self) -> usize {
        self.queued().saturating_add(self.inbox.len())
    }
}

/// The one way into a runtime from outside its cores, shared by both
/// executors and every [`Injector`]: the admission limits and the
/// quarantine set, who owns each color, whether a run goes on, and one
/// [`CoreDoor`] per core.
///
/// An event enters by its color's owner's inbox: [`Doors::hand_off`]
/// re-checks the owner under the inbox lock, so an inbox only ever
/// holds colors its core owns. Its owner queues it, the threaded
/// worker at its loop's top, the simulator's run loop at its own, and a
/// thief drains the victim's inbox and its own when it moves a color;
/// each inbox is drained whole and in order, which keeps one
/// producer's events of one color in FIFO order on both executors.
pub(crate) struct Doors {
    cfg: Arc<Resolved>,
    pub(crate) colors: ColorMap,
    pub(crate) life: Liveness,
    pub(crate) cores: Box<[CoreDoor]>,
}

impl Doors {
    pub(crate) fn new(cfg: Arc<Resolved>) -> Arc<Self> {
        Arc::new(Doors {
            colors: ColorMap::new(cfg.cores),
            life: Liveness::default(),
            cores: (0..cfg.cores).map(|_| CoreDoor::default()).collect(),
            cfg,
        })
    }

    /// The admission steps of every producer path, written once: the
    /// quarantine gate and, when `limited`, the queue limits against
    /// the owner's load and inbox backlog. A refused event counts one
    /// reject and is dropped; an admitted one is counted and handed off.
    pub(crate) fn try_enter(&self, mut ev: Event, limited: bool) -> Result<(), Overload> {
        let (admission, faults) = (&self.cfg.admission, &self.cfg.faults);
        let color = ev.color();
        let admitted = if limited {
            admission.admit(faults, &mut ev, || {
                let core = &self.cores[self.colors.owner_of(color)];
                (core.load() as u64, core.inbox.len() as u64)
            })
        } else if faults.is_quarantined(color) {
            Err(Overload {
                reason: OverloadReason::Quarantined,
            })
        } else {
            Ok(())
        };
        if let Err(ov) = admitted {
            admission.note_reject();
            return Err(ov);
        }
        self.life.add_event();
        self.hand_off(ev);
        Ok(())
    }

    /// [`Doors::try_enter`] for the infallible paths: a refused event
    /// also counts one shed. Never waiting keeps a producer from
    /// stalling on a hot or quarantined color it cannot drain itself.
    pub(crate) fn enter(&self, ev: Event, limited: bool) {
        if let Err(ov) = self.try_enter(ev, limited) {
            self.cfg.admission.note_shed(ov.reason);
        }
    }

    /// Pushes a counted event into the inbox of the core owning its
    /// color. The push re-checks the owner under the inbox lock and,
    /// refused because a steal moved the color in between, retries on
    /// the new owner.
    pub(crate) fn hand_off(&self, mut ev: Event) {
        let color = ev.color();
        loop {
            let owner = self.colors.owner_of(color);
            let still_owner = || self.colors.owns(owner, color);
            match self.cores[owner].inbox.push_if(ev, still_owner) {
                Ok(()) => return,
                Err(refused) => ev = refused,
            }
        }
    }

    /// Whether any inbox holds an event.
    pub(crate) fn pending(&self) -> bool {
        self.cores.iter().any(|c| !c.inbox.is_empty())
    }

    /// Writes what the doors counted into a run's report: each inbox's
    /// pushes, reroutes and buffer reuses into its core's slot, the
    /// admission totals and refused pins into core 0's.
    pub(crate) fn attribute_to(&self, per_core: &mut [CoreMetrics]) {
        for (m, core) in per_core.iter_mut().zip(&self.cores) {
            m.inbox_pushes = core.inbox.total_pushes();
            m.inbox_rerouted = core.inbox.total_refusals();
            m.inbox_node_reuse = core.inbox.total_node_reuses();
        }
        self.cfg.admission.attribute_to(&mut per_core[0]);
        per_core[0].refused_pins = self.colors.refused_pins.load(Ordering::Relaxed);
    }
}

/// A cloneable, `Send` handle for registering events into a running
/// executor from other threads: the one producer door of both
/// executors, obtained from [`Executor::injector`].
///
/// # The injection surface
///
/// The injector is the *admission boundary* of the runtime's overload
/// control ([`crate::admission`]). Two ways in:
///
/// | method | admission | semantics |
/// |---|---|---|
/// | [`Injector::inject`] | infallible — a refused event is dropped and counted as shed | enqueue to the color's owning core through its inbox. The default fire-and-forget path: producers never contend on a dispatch lock. |
/// | [`Injector::try_inject`] | fallible — returns `Err(`[`Overload`]`)` naming the limit hit; the event is dropped | same enqueue; the caller owns the overload response (retry, degrade, reject upstream). |
///
/// A quarantined color is refused on both paths. A pending stop
/// refuses nothing: the injected event waits in its inbox, counted in
/// [`Injector::outstanding`], and the next run executes it. A producer
/// that wants an event later injects one whose action calls
/// [`crate::ctx::Ctx::register_after`].
#[derive(Clone)]
pub struct Injector {
    kind: ExecKind,
    doors: Arc<Doors>,
}

impl Injector {
    /// Which executor this injector feeds.
    pub fn kind(&self) -> ExecKind {
        self.kind
    }

    /// Registers an event through the owning core's injection inbox —
    /// the producer never contends on a dispatch lock. The canonical
    /// *infallible* injection path: with bounded queues, one admission
    /// attempt, and an event a limit refuses is dropped and counted as
    /// one `admission_rejects` plus one `shed_requests` (see the table
    /// on [`Injector`]). Never blocks.
    pub fn inject(&self, ev: Event) {
        self.doors.enter(ev, true)
    }

    /// The fallible admission path: admits `ev` or returns the
    /// [`Overload`] naming the limit that rejected it (the event is
    /// dropped and not counted as shed). Never blocks; each rejected call
    /// counts one `admission_rejects`.
    pub fn try_inject(&self, ev: Event) -> Result<(), Overload> {
        self.doors.try_enter(ev, true)
    }

    /// Asks the executor to stop at the next opportunity; events still
    /// queued may not execute (the usual producer/stop race). A run
    /// consumes the request when it returns.
    pub fn stop(&self) {
        self.doors.life.request_stop()
    }

    /// Events registered but not executed yet, whichever way they came
    /// in: [`Executor::register`], a handler, a timer or an injector.
    /// A snapshot for idle checks.
    pub fn outstanding(&self) -> u64 {
        self.doors.life.count.load(Ordering::Acquire) % TOKEN
    }

    /// Keeps the executor alive while the returned guard lives, even
    /// with no events pending — the idiom for external producers that
    /// will inject *later*. Without it, a run returns the moment
    /// everything registered so far has executed. Pair with
    /// [`Injector::stop_when_idle`].
    pub fn keepalive(&self) -> KeepAlive {
        self.doors.life.count.fetch_add(TOKEN, Ordering::AcqRel);
        KeepAlive(Arc::clone(&self.doors))
    }

    /// Blocks until every registered event has executed, then requests
    /// a stop, so the producer idiom `pool.join();
    /// injector.stop_when_idle(); drop(keepalive);` ports unchanged
    /// between executors. Also returns, without requesting anything,
    /// once a stop is requested (also before the call), a threaded
    /// worker dies, or the run in progress at the call ends; the
    /// [`IdleWait`] says which. Events injected concurrently with the
    /// stop may or may not run — the usual producer/stop race.
    pub fn stop_when_idle(&self) -> IdleWait {
        let life = &self.doors.life;
        let stop = life.stop.load(Ordering::Acquire);
        let runs = life.runs.load(Ordering::Acquire);
        loop {
            // Read before the stop: a run consumes its stop, then ends.
            let ran = life.runs.load(Ordering::Acquire);
            let now = life.stop.load(Ordering::Acquire);
            if now & STOP != 0 || now != stop {
                if now & BY_DEATH != 0 {
                    return IdleWait::WorkerDied;
                }
                return IdleWait::Stopped;
            }
            if self.outstanding() == 0 {
                life.request_stop();
                return IdleWait::Drained;
            }
            if runs & 1 != 0 && ran != runs {
                return IdleWait::RunEnded;
            }
            std::thread::yield_now();
        }
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
pub struct KeepAlive(Arc<Doors>);

impl fmt::Debug for KeepAlive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("KeepAlive").finish()
    }
}

impl Drop for KeepAlive {
    fn drop(&mut self) {
        self.0.life.count.fetch_sub(TOKEN, Ordering::AcqRel);
    }
}

/// The unified runtime returned by
/// [`crate::runtime::RuntimeBuilder::build`] and the only public
/// executor type: either executor behind one concrete type, usable
/// wherever `&mut dyn Executor` is. Which one it holds is
/// [`Executor::kind`]; everything an experiment reads back — virtual
/// time, steals, cache misses — is in the [`RunReport`] that
/// [`Executor::run`] returns.
pub struct Runtime {
    pub(crate) engine: Engine,
    pub(crate) datasets: DataSetAlloc,
}

/// The executor a [`Runtime`] holds; what the two do alike is on
/// [`Runtime`].
pub(crate) enum Engine {
    Sim(Box<SimRuntime>),
    Threaded(Arc<threaded::Shared>),
}

/// Evaluates `$body` with `$e` bound to the runtime's executor.
macro_rules! with_engine {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Sim($e) => $body,
            Engine::Threaded($e) => $body,
        }
    };
}

impl Runtime {
    fn cfg(&self) -> &Resolved {
        with_engine!(&self.engine, e => &e.cfg)
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
        match self.engine {
            Engine::Sim(_) => ExecKind::Sim,
            Engine::Threaded(_) => ExecKind::Threaded,
        }
    }

    fn cores(&self) -> usize {
        self.cfg().cores
    }

    fn flavor(&self) -> Flavor {
        self.cfg().flavor
    }

    fn policy(&self) -> WsPolicy {
        self.cfg().ws
    }

    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        let registry = match &mut self.engine {
            Engine::Sim(e) => &mut e.registry,
            // Workers share the executor only while `run` borrows it.
            Engine::Threaded(e) => &mut Arc::get_mut(e).expect("no run in progress").registry,
        };
        registry.register(spec)
    }

    fn handler_estimate(&self, id: HandlerId) -> u64 {
        with_engine!(&self.engine, e => e.registry.estimate(id))
    }

    fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        self.datasets.alloc(len)
    }

    fn register(&mut self, ev: Event) {
        with_engine!(&mut self.engine, e => e.register(ev))
    }

    fn register_pinned(&mut self, ev: Event, core: usize) {
        assert!(core < self.cores(), "core out of range");
        let color = ev.color();
        with_engine!(&self.engine, e => e.doors.colors.pin(color, core, |owner| e.vacant(owner, color)));
        self.register(ev);
    }

    /// A simulation fed only from its own thread stays fully
    /// deterministic; one fed while it runs depends on when the run
    /// loop finds the injected events.
    fn injector(&self) -> Injector {
        Injector {
            kind: self.kind(),
            doors: Arc::clone(with_engine!(&self.engine, e => &e.doors)),
        }
    }

    fn run(&mut self) -> RunReport {
        with_engine!(&mut self.engine, e => e.run())
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
        injector.inject(Event::new(Color::new(31), 100));
        assert_eq!(injector.outstanding(), 21);
        // No injector is out during the run: what it left still runs.
        drop(injector);
        let report = rt.run();
        assert_eq!(report.events_processed(), 21);
        assert_eq!(rt.injector().outstanding(), 0);
    }

    /// The stop word says whose stop is pending, so a wait that begins
    /// after a death still reads it.
    #[test]
    fn stop_when_idle_after_a_death_reads_worker_died() {
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let injector = RuntimeBuilder::new().cores(1).build(kind).injector();
            injector.doors.life.worker_died();
            assert_eq!(injector.stop_when_idle(), IdleWait::WorkerDied, "{kind}");
            // An ordinary stop after the death's is consumed is not one.
            drop(injector.doors.life.run());
            injector.stop();
            assert_eq!(injector.stop_when_idle(), IdleWait::Stopped, "{kind}");
        }
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
