//! The threaded executor: one OS thread per simulated core.
//!
//! This is the "real" runtime: per-core queues protected by cache-padded
//! spinlocks ([`crate::sync::SpinLock`]), events executed by the core's
//! thread, idle cores running the workstealing algorithm. A worker's turn
//! is the kernel it shares with the simulator (`kernel::turn`); around
//! it the worker drains its timers and inbox, and waits when idle.
//! An event costs what its action takes to run: declared costs and
//! [`Ctx::charge`](crate::ctx::Ctx::charge)s are never waited out here;
//! they only weigh a color for the steal heuristics.
//!
//! Two deliberate deviations from the paper's implementation, both
//! documented here for reviewers:
//!
//! - **No thread pinning.** The paper pins threads with
//!   `pthread_setaffinity_np`; this reproduction must run on machines
//!   with fewer physical cores than simulated ones, so workers are plain
//!   threads. On a real 8-core host the scheduler keeps them apart; all
//!   cycle-accurate claims are made by the simulation executor instead.
//! - **Two-lock migration.** Figure 2 releases the victim's lock before
//!   taking the thief's. With concurrent producers routing new events
//!   through the color map, that window could place events of one color
//!   on two cores. The threaded executor therefore performs
//!   detach + color-map update + absorb while holding both locks,
//!   acquired in core-id order (deadlock-free). The simulator charges
//!   costs per the paper's original sequence.
//!
//! One deliberate *extension* beyond the paper's implementation:
//!
//! - **Injection inboxes.** External producers (a cloned
//!   [`Injector`], the timer heap, the load-generation layers) do
//!   not take the destination core's spinlock per event; they push onto
//!   the core's [`InjectionInbox`] — a lock and a `Vec`, whose empty
//!   check takes no lock — and the core merges the whole backlog into
//!   its queue under a single lock acquisition at dispatch-loop
//!   boundaries. The color invariant is preserved because the drain
//!   re-checks the color map under the core's own lock (exactly the
//!   guarantee the two-lock migration relies on) and re-routes any
//!   event whose color has been stolen in the meantime. See [`inbox`]
//!   for the data structure and [`Injector::inject_locked`] for the
//!   legacy per-event-lock path (kept for benchmarking the
//!   difference). The steady-state dispatch path is allocation-free
//!   end to end: each worker swaps one retained drain buffer with its
//!   inbox's, and the Mely queue pools freed color-queue buffers
//!   (surfaced as the `inbox_node_reuse` / `queue_buf_reuse` counters
//!   in [`CoreMetrics`]).

pub mod inbox;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::admission::{AdmissionCtl, Overload, OverloadReason};
use crate::color::{Color, COLOR_SPACE};
use crate::cost::{Ewma, INITIAL_STEAL_ESTIMATE};
use crate::ctx::CtxEffects;
use crate::cycles;
use crate::dataset::{DataSetAlloc, DataSetRef};
use crate::event::Event;
use crate::exec::{enqueue_or_shed, Door, ExecKind, Executor, Injector, KeepAlive};
use crate::fault::{Fault, FaultKind};
use crate::fuzz::ScheduleRng;
use crate::handler::{HandlerId, HandlerRegistry, HandlerSpec};
use crate::kernel::{self, CoreEnv, CoreState, Pop, StealBufs, TimerEntry, Turn};
use crate::metrics::{CoreMetrics, RunReport};
use crate::queue::QueueImpl;
use crate::runtime::{Flavor, Resolved};
use crate::steal::WsPolicy;
use crate::sync::SpinLock;
use inbox::InjectionInbox;

const NO_COLOR: u32 = u32::MAX;
const NO_OWNER: u32 = u32::MAX;

/// One [`KeepAlive`] guard's contribution to `Shared::outstanding`.
/// Tokens live in the high bits and events in the low 48 so that one
/// atomic load yields a consistent (tokens, events) snapshot — two
/// separate counters would let `stop_when_idle` interleave with a
/// concurrent guard drop and stop while real events are still pending.
const KEEPALIVE_UNIT: u64 = 1 << 48;
/// Mask selecting the pending-event count from `Shared::outstanding`.
const EVENT_MASK: u64 = KEEPALIVE_UNIT - 1;

struct CoreShared {
    queue: SpinLock<QueueImpl>,
    /// MPSC inbox for cross-thread producers; drained by this core's
    /// worker at dispatch-loop boundaries.
    inbox: InjectionInbox,
    /// Color currently executing on this core (`NO_COLOR` when none).
    in_flight: AtomicU32,
    /// Approximate queue length for `construct_core_set`.
    len_hint: AtomicUsize,
}

impl CoreShared {
    /// Pending work visible to victim selection: queued events plus the
    /// inbox backlog that has not reached the queue yet. Saturating —
    /// both inputs are racy estimates.
    fn load_estimate(&self) -> usize {
        self.len_hint
            .load(Ordering::Relaxed)
            .saturating_add(self.inbox.len())
    }
}

/// Everything the workers and the producers share; an
/// [`Injector`] holds it directly and reaches it through [`Door`].
pub(crate) struct Shared {
    /// What the builder resolved. Workers consult its `faults` at
    /// dispatch (containment, drains); producers consult `faults` and
    /// `admission` at admission.
    cfg: Resolved,
    cores: Vec<CoreShared>,
    color_owner: Vec<AtomicU32>,
    registry: HandlerRegistry,
    /// Low 48 bits: events registered but not yet fully executed
    /// (timers included). High bits: live [`KeepAlive`] guards, in
    /// [`KEEPALIVE_UNIT`]s. Workers run while any bit is set.
    outstanding: AtomicU64,
    stop: AtomicBool,
    /// The monitored steal-cost estimate (updated once per successful
    /// steal, read once per visit: never on the dispatch path).
    steal_est: Mutex<Ewma>,
    next_seq: AtomicU64,
    timers: Mutex<BinaryHeap<Reverse<TimerEntry>>>,
}

impl Shared {
    /// Fills in the scheduling metadata a freshly registered event needs:
    /// handler-derived cost/penalty defaults and the global sequence
    /// number.
    fn prepare(&self, ev: &mut Event) {
        self.registry.fill_defaults(ev);
        ev.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
    }

    /// The color's current owner, claiming the color's home core for it
    /// if nobody owns it yet.
    fn owner_of(&self, color: Color) -> u32 {
        let slot = color.value() as usize;
        let owner = self.color_owner[slot].load(Ordering::Acquire);
        if owner != NO_OWNER {
            return owner;
        }
        let home = color.home_core(self.cores.len()) as u32;
        match self.color_owner[slot].compare_exchange(
            NO_OWNER,
            home,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => home,
            Err(cur) => cur,
        }
    }

    /// Routes an event to the core currently owning its color, taking
    /// that core's spinlock. Retries if a concurrent steal moves the
    /// color between lookup and lock. This is the *direct* path, used by
    /// worker threads themselves (handler registrations, inbox-drain
    /// re-routes) and by [`Injector::inject_locked`].
    fn route(&self, mut ev: Event) {
        self.prepare(&mut ev);
        self.route_prepared(ev);
    }

    /// [`Shared::route`] for an event whose metadata is already prepared.
    fn route_prepared(&self, ev: Event) {
        let slot = ev.color().value() as usize;
        loop {
            let owner = self.owner_of(ev.color());
            let core = &self.cores[owner as usize];
            let mut q = core.queue.lock();
            // Re-check under the lock: a steal may have moved the color.
            if self.color_owner[slot].load(Ordering::Acquire) == owner {
                q.push(ev);
                core.len_hint.store(q.len(), Ordering::Relaxed);
                return;
            }
        }
    }

    /// Hands an event to the owning core's inbox instead of taking its
    /// spinlock. If a steal moves the color before the core
    /// drains, the drain re-routes through the color map, so the color
    /// invariant holds either way.
    fn inject(&self, mut ev: Event) {
        self.prepare(&mut ev);
        let owner = self.owner_of(ev.color());
        self.cores[owner as usize].inbox.push(ev);
    }

    fn register(&self, ev: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.route(ev);
    }

    fn register_injected(&self, ev: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.inject(ev);
    }

    fn register_after(&self, delay: u64, event: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let due = cycles::now() + delay;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.timers
            .lock()
            .push(Reverse(TimerEntry { due, seq, event }));
    }

    /// Asks every worker to stop at the next opportunity.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Events registered but not yet executed.
    pub(crate) fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire) & EVENT_MASK
    }

    /// Keeps the workers alive while the returned guard lives, even
    /// with no events pending.
    pub(crate) fn keepalive(self: &Arc<Self>) -> KeepAlive {
        self.outstanding.fetch_add(KEEPALIVE_UNIT, Ordering::AcqRel);
        let shared = Arc::clone(self);
        KeepAlive::new(move || {
            shared
                .outstanding
                .fetch_sub(KEEPALIVE_UNIT, Ordering::AcqRel);
        })
    }

    /// Blocks until every registered event has executed (only
    /// [`KeepAlive`] guards remain outstanding), then stops the
    /// runtime. The token/event split lives in one atomic, so the idle
    /// check is a consistent snapshot — a concurrently dropped guard
    /// cannot make this stop while real events are pending.
    pub(crate) fn stop_when_idle(&self) {
        while self.outstanding() != 0 {
            std::thread::yield_now();
        }
        self.stop();
    }
}

impl Door for Shared {
    fn admission(&self) -> &AdmissionCtl {
        &self.cfg.admission
    }

    /// Admission runs against the owning core's current occupancy; an
    /// admitted event goes through that core's inbox, or onto
    /// the timer heap holding its per-color slot across the delay.
    fn try_enqueue(&self, delay: Option<u64>, mut ev: Event) -> Result<(), Overload> {
        let color = ev.color();
        self.cfg.admission.admit(&self.cfg.faults, &mut ev, || {
            let core = &self.cores[self.owner_of(color) as usize];
            (core.load_estimate() as u64, core.inbox.len() as u64)
        })?;
        match delay {
            None => self.register_injected(ev),
            Some(delay) => self.register_after(delay, ev),
        }
        Ok(())
    }

    /// A quarantined color's events are refused rather than queued for
    /// a pop-time drain; a stop request refuses nothing here (the
    /// workers drop what is still queued when they exit).
    fn enqueue_unchecked(&self, delay: Option<u64>, ev: Event) -> Result<(), OverloadReason> {
        if self.cfg.faults.is_quarantined(ev.color()) {
            return Err(OverloadReason::Quarantined);
        }
        match delay {
            None => self.register(ev),
            Some(delay) => self.register_after(delay, ev),
        }
        Ok(())
    }
}

/// The threaded executor.
pub(crate) struct ThreadedRuntime {
    shared: Arc<Shared>,
    ds_alloc: DataSetAlloc,
}

impl ThreadedRuntime {
    pub(crate) fn new(cfg: Resolved) -> Self {
        cycles::init();
        let cores = (0..cfg.cores)
            .map(|_| CoreShared {
                queue: SpinLock::new(cfg.new_queue()),
                inbox: InjectionInbox::new(),
                in_flight: AtomicU32::new(NO_COLOR),
                len_hint: AtomicUsize::new(0),
            })
            .collect();
        let mut owners = Vec::with_capacity(COLOR_SPACE);
        owners.resize_with(COLOR_SPACE, || AtomicU32::new(NO_OWNER));
        ThreadedRuntime {
            shared: Arc::new(Shared {
                cfg,
                cores,
                color_owner: owners,
                registry: HandlerRegistry::new(),
                outstanding: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                steal_est: Mutex::new(Ewma::new(INITIAL_STEAL_ESTIMATE)),
                next_seq: AtomicU64::new(0),
                timers: Mutex::new(BinaryHeap::new()),
            }),
            ds_alloc: DataSetAlloc::new(),
        }
    }
}

impl Executor for ThreadedRuntime {
    fn kind(&self) -> ExecKind {
        ExecKind::Threaded
    }

    fn cores(&self) -> usize {
        self.shared.cores.len()
    }

    fn flavor(&self) -> Flavor {
        self.shared.cfg.flavor
    }

    fn policy(&self) -> WsPolicy {
        self.shared.cfg.ws
    }

    /// # Panics
    ///
    /// Panics once an [`Injector`] exists: the registry is frozen from
    /// the moment anything else can reach it.
    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        let shared =
            Arc::get_mut(&mut self.shared).expect("register handlers before starting the runtime");
        shared.registry.register(spec)
    }

    fn handler_estimate(&self, id: HandlerId) -> u64 {
        self.shared.registry.estimate(id)
    }

    /// Touches are accounted but not materialised on threads.
    fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        self.ds_alloc.alloc(len)
    }

    /// Events of a quarantined color are shed (see [`crate::fault`]).
    fn register(&mut self, ev: Event) {
        enqueue_or_shed(&*self.shared, None, ev);
    }

    fn register_pinned(&mut self, ev: Event, core: usize) {
        assert!(core < self.shared.cores.len(), "core out of range");
        if !self.shared.cfg.faults.is_quarantined(ev.color()) {
            self.shared.color_owner[ev.color().value() as usize]
                .store(core as u32, Ordering::Release);
        }
        enqueue_or_shed(&*self.shared, None, ev);
    }

    fn injector(&self) -> Injector {
        Injector::for_threaded(Arc::clone(&self.shared))
    }

    /// Each call reports the events executed by *that* run (plus
    /// cumulative inbox counters).
    fn run(&mut self) -> RunReport {
        let n = self.shared.cores.len();
        let start = cycles::now();
        let mut joins = Vec::with_capacity(n);
        for core in 0..n {
            let shared = Arc::clone(&self.shared);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("mely-core-{core}"))
                    .spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, core)));
                        if out.is_err() {
                            // A dying worker must release its siblings:
                            // they wait on outstanding work this worker
                            // can no longer execute.
                            shared.stop.store(true, Ordering::Release);
                        }
                        match out {
                            Ok(m) => m,
                            Err(payload) => resume_unwind(payload),
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        // A worker death (a panic outside the contained handler path) is
        // folded into the report as a `WorkerDied` fault in the worker's
        // own slot, so per-core attribution keeps its shape and `run`
        // stays total.
        let mut per_core: Vec<CoreMetrics> = Vec::with_capacity(n);
        for (core, j) in joins.into_iter().enumerate() {
            per_core.push(match j.join() {
                Ok(m) => m,
                Err(_) => {
                    let kind = FaultKind::WorkerDied { core };
                    self.shared.cfg.faults.record(Fault {
                        color: None,
                        handler: None,
                        kind: kind.clone(),
                    });
                    let mut m = CoreMetrics::default();
                    m.note_fault(None, kind.code(), 0);
                    m
                }
            });
        }
        // Producer-side pushes happen on external threads; attribute each
        // inbox's totals to the core it feeds. The queue's push and
        // buffer-pool counters live in the (now idle) queue itself.
        for (m, core) in per_core.iter_mut().zip(&self.shared.cores) {
            m.inbox_pushes = core.inbox.total_pushes();
            m.inbox_node_reuse = core.inbox.total_node_reuses();
            let mut q = core.queue.lock();
            m.registered = q.take_pushes();
            m.queue_buf_reuse = q.buf_reuses();
        }
        self.shared.cfg.admission.attribute_to(&mut per_core[0]);
        let wall = cycles::now().wrapping_sub(start);
        // Consume any stop request so a later `run` proceeds normally.
        self.shared.stop.store(false, Ordering::Release);
        RunReport::new(per_core, wall, cycles::NOMINAL_FREQ_HZ, self.shared.cfg.ws)
            .with_fault_log(self.shared.cfg.faults.log_snapshot())
    }
}

fn worker_loop(shared: &Shared, me: usize) -> CoreMetrics {
    let mut w = Worker {
        shared,
        me,
        m: CoreMetrics::default(),
        // Seeded fault injection: each worker derives its own draw
        // stream from the plan's seed, so injection stays reproducible
        // per worker even though cross-worker interleaving is not.
        fault_rng: shared.cfg.faults.plan.map(|p| p.worker_rng(me)),
        steal_bufs: StealBufs::default(),
    };
    let mut idle_spins: u32 = 0;
    // Reused across iterations so steady-state inbox drains never
    // allocate: each drain swaps it with the inbox's buffer.
    let mut inbox_batch: Vec<Event> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        drain_timers(shared);
        drain_inbox(shared, me, &mut inbox_batch, &mut w.m);
        if kernel::turn(&mut w) == Turn::Ran {
            idle_spins = 0;
            continue;
        }
        // Idle: wind down, or wait for work.
        if shared.outstanding.load(Ordering::Acquire) == 0 {
            break;
        }
        idle_spins = idle_spins.saturating_add(1);
        if idle_spins > 64 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    w.m
}

fn drain_timers(shared: &Shared) {
    let Some(mut timers) = shared.timers.try_lock() else {
        return;
    };
    let now = cycles::now();
    while timers.peek().is_some_and(|Reverse(t)| t.due <= now) {
        let Reverse(t) = timers.pop().expect("peeked");
        // Timer firings are cross-thread producers like any other: they
        // go through the owning core's inbox, not its spinlock.
        shared.inject(t.event);
    }
}

/// Merges everything buffered in `me`'s inbox into its queue under a
/// single lock acquisition. Events whose color has been stolen since the
/// producer looked up the owner are re-routed through the color map —
/// the same discipline the two-lock migration enforces, so an event's
/// color is never executable on two cores.
fn drain_inbox(shared: &Shared, me: usize, batch: &mut Vec<Event>, m: &mut CoreMetrics) {
    let core = &shared.cores[me];
    debug_assert!(batch.is_empty(), "caller hands the buffer back empty");
    if core.inbox.drain_into(batch) == 0 {
        return;
    }
    m.inbox_drain_batches += 1;
    m.inbox_drained += batch.len() as u64;
    let mut strays = Vec::new();
    {
        let mut q = core.queue.lock();
        m.lock_wait_cycles += q.waited_cycles();
        m.lock_ops += 1;
        for ev in batch.drain(..) {
            let slot = ev.color().value() as usize;
            // Owner re-check under our own lock: a steal moving a color
            // in or out of this core needs this lock, so owner == me is
            // stable for the rest of the critical section.
            if shared.color_owner[slot].load(Ordering::Acquire) == me as u32 {
                q.push(ev);
            } else {
                strays.push(ev);
            }
        }
        core.len_hint.store(q.len(), Ordering::Relaxed);
    }
    // Stolen-away colors take the locked routing path (with its own
    // owner re-check loop); they are rare — one steal must have raced
    // the producer — so the per-event lock cost does not matter here.
    m.inbox_rerouted += strays.len() as u64;
    for ev in strays {
        shared.route_prepared(ev);
    }
}

/// One worker thread as the scheduling kernel sees it: time is the
/// shared cycle counter, an event costs the cycles its body ran for, and
/// a queue is reached through its real spinlock.
struct Worker<'a> {
    shared: &'a Shared,
    me: usize,
    m: CoreMetrics,
    fault_rng: Option<ScheduleRng>,
    steal_bufs: StealBufs,
}

impl CoreEnv for Worker<'_> {
    fn state(&mut self) -> CoreState<'_> {
        CoreState {
            core: self.me,
            metrics: &mut self.m,
            fault_rng: self.fault_rng.as_mut(),
            cfg: &self.shared.cfg,
            steal_bufs: &mut self.steal_bufs,
        }
    }

    fn registry(&self) -> &HandlerRegistry {
        &self.shared.registry
    }

    /// Publishes the popped color as in flight under the lock, so a
    /// thief's `migrate` never takes the color that is running.
    fn pop(&mut self, _stolen: bool) -> Pop {
        let core = &self.shared.cores[self.me];
        let mut q = core.queue.lock();
        self.m.lock_wait_cycles += q.waited_cycles();
        self.m.lock_ops += 1;
        let ev = q.pop(self.shared.cfg.batch_threshold);
        if let Some(ev) = &ev {
            core.in_flight
                .store(ev.color().value() as u32, Ordering::Release);
        }
        core.len_hint.store(q.len(), Ordering::Relaxed);
        ev.map_or(Pop::Empty, Pop::Event)
    }

    fn after_dispatch(&mut self) {
        self.shared.cores[self.me]
            .in_flight
            .store(NO_COLOR, Ordering::Release);
        self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    fn now(&self) -> u64 {
        cycles::now()
    }

    /// The declared cost is the steal heuristics' hint, not time to pass.
    fn start_event(&mut self, _ev: &Event) -> u64 {
        cycles::now()
    }

    /// Real time since the stamp: charges and touches are not waited out.
    fn finish_event(&mut self, t0: u64, _color: Color, _fx: Option<&CtxEffects>) -> u64 {
        cycles::now().wrapping_sub(t0)
    }

    fn schedule(&mut self, delay: u64, ev: Event) {
        self.shared.register_after(delay, ev);
    }

    fn route(&mut self, ev: Event) {
        self.shared.register(ev);
    }

    fn request_stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Loads include each core's inbox backlog: work a producer has
    /// pushed but the owner has not drained yet is still pending work,
    /// and `construct_core_set` must see it.
    fn steal_begin(&mut self, loads: &mut Vec<usize>) -> u64 {
        let t0 = cycles::now();
        loads.clear();
        loads.extend(self.shared.cores.iter().map(|c| c.load_estimate()));
        t0
    }

    /// A victim's inbox can only be drained by the victim itself, so
    /// only what already reached its queue counts.
    fn worth_visiting(&self, v: usize) -> bool {
        self.shared.cores[v].len_hint.load(Ordering::Relaxed) != 0
    }

    /// Migration happens with the victim's and the thief's locks both
    /// held, in core-id order.
    fn migrate(&mut self, v: usize, budget: usize) -> Option<(u64, u64)> {
        let (shared, me) = (self.shared, self.me);
        debug_assert_ne!(me, v);
        let (a, b) = if v < me { (v, me) } else { (me, v) };
        let ga = shared.cores[a].queue.lock();
        let gb = shared.cores[b].queue.lock();
        self.m.lock_wait_cycles += ga.waited_cycles() + gb.waited_cycles();
        self.m.lock_ops += 2;
        let (mut gv, mut gm) = if a == v { (ga, gb) } else { (gb, ga) };

        let vin = match shared.cores[v].in_flight.load(Ordering::Acquire) {
            NO_COLOR => None,
            c => Some(Color::new(c as u16)),
        };
        let est = shared.steal_est.lock().get();
        gv.set_steal_cost_estimate(est);
        gm.set_steal_cost_estimate(est);
        let (sets, _examined) = gv.steal_take(vin, shared.cfg.ws.time_left, budget, u64::MAX);
        if sets.is_empty() {
            return None;
        }
        let (mut events, mut cost) = (0, 0);
        for set in sets {
            events += set.len() as u64;
            cost += set.cum_cost();
            shared.color_owner[set.color().value() as usize].store(me as u32, Ordering::Release);
            gm.steal_absorb(set);
        }

        // Rescue the victim's inbox backlog while both locks are held.
        // Events of the just-stolen color would otherwise strand in the
        // victim's inbox until its next drain — by which time newer
        // events of that color may already have run here, inverting
        // per-producer order. Draining concurrently with the victim is
        // safe (the inbox lock hands each event to exactly one drain);
        // placement re-checks the color map under the locks we hold.
        let backlog = shared.cores[v].inbox.drain();
        if !backlog.is_empty() {
            self.m.inbox_drain_batches += 1;
            self.m.inbox_drained += backlog.len() as u64;
            for ev in backlog {
                let slot = ev.color().value() as usize;
                let owner = shared.color_owner[slot].load(Ordering::Acquire);
                if owner == me as u32 {
                    // The stolen color (or one we already own): goes
                    // after the just-migrated events, preserving
                    // producer order.
                    gm.push(ev);
                } else if owner == v as u32 {
                    gv.push(ev);
                } else if (owner as usize) < shared.cores.len() {
                    // A third core owns it (an earlier racing steal);
                    // hand the event to that core's inbox.
                    self.m.inbox_rerouted += 1;
                    shared.cores[owner as usize].inbox.push(ev);
                } else {
                    // Unclaimed colors cannot normally reach an inbox
                    // (inject claims an owner before pushing); keep the
                    // event with the victim and claim the color for it.
                    shared.color_owner[slot].store(v as u32, Ordering::Release);
                    gv.push(ev);
                }
            }
        }

        shared.cores[v].len_hint.store(gv.len(), Ordering::Relaxed);
        shared.cores[me].len_hint.store(gm.len(), Ordering::Relaxed);
        Some((events, cost))
    }

    fn steal_end(&mut self, t0: u64, _stolen: bool) -> u64 {
        cycles::now().wrapping_sub(t0)
    }

    fn record_steal_cost(&mut self, cycles: u64) {
        self.shared.steal_est.lock().record(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeBuilder;
    use std::sync::atomic::AtomicI64;
    use std::time::{Duration, Instant};

    fn rt(flavor: Flavor, ws: WsPolicy, cores: usize) -> ThreadedRuntime {
        let builder = RuntimeBuilder::new().cores(cores).flavor(flavor);
        ThreadedRuntime::new(builder.workstealing(ws).resolve())
    }

    #[test]
    fn executes_everything_without_ws() {
        for flavor in [Flavor::Libasync, Flavor::Mely] {
            let r = {
                let mut rt = rt(flavor, WsPolicy::off(), 2);
                for i in 0..200u16 {
                    rt.register(Event::new(Color::new(i), 0));
                }
                rt.run()
            };
            assert_eq!(r.events_processed(), 200, "{flavor:?}");
            assert_eq!(r.total().registered, 200, "{flavor:?}");
        }
    }

    #[test]
    fn a_lone_worker_never_probes_for_victims() {
        // Stealing is on, but there is no other core: the 20 ms timer
        // keeps the worker idling without a single steal attempt.
        let mut rt = rt(Flavor::Mely, WsPolicy::improved(), 1);
        for i in 0..4u16 {
            rt.register(Event::new(Color::new(i + 1), 0));
        }
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            ctx.register_after(cycles::NOMINAL_FREQ_HZ / 50, Event::new(Color::new(1), 0));
        }));
        let r = rt.run();
        assert_eq!(r.events_processed(), 6);
        assert_eq!(r.total().steal_attempts, 0);
    }

    #[test]
    fn mutual_exclusion_per_color_under_stealing() {
        // Events of one color must never run concurrently even with
        // aggressive stealing. A non-atomic-looking critical section
        // protected only by the color discipline detects violations.
        let mut rt = rt(Flavor::Mely, WsPolicy::base(), 4);
        let in_crit: Arc<AtomicI64> = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        for i in 0..400u16 {
            // Two colors; many events each; plus background noise colors
            // to give thieves something to do.
            let color = Color::new((i % 2) + 1);
            let crit = Arc::clone(&in_crit);
            let bad = Arc::clone(&violations);
            rt.register_pinned(
                Event::new(color, 0).with_action(move |_| {
                    // Per-color section: colors 1 and 2 may interleave with
                    // each other, so track them separately via sign bits.
                    let delta = if color.value() == 1 { 1 } else { 1 << 16 };
                    let prev = crit.fetch_add(delta, Ordering::SeqCst);
                    let mine = if color.value() == 1 {
                        prev & 0xFFFF
                    } else {
                        prev >> 16
                    };
                    if mine != 0 {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                    std::hint::spin_loop();
                    crit.fetch_sub(delta, Ordering::SeqCst);
                }),
                0,
            );
        }
        let r = rt.run();
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "color exclusion violated"
        );
        assert_eq!(r.events_processed(), 400);
    }

    #[test]
    fn stealing_spreads_pinned_load() {
        for cores in [2, 4] {
            let mut rt = rt(Flavor::Mely, WsPolicy::base(), cores);
            // Core 0 holds every event and stays in its first handler
            // until another core has run one, which only a steal can
            // bring about: the thieves get their chance however the OS
            // schedules the workers.
            let elsewhere = Arc::new(AtomicBool::new(false));
            for i in 0..64u16 {
                let seen = Arc::clone(&elsewhere);
                let ev = Event::new(Color::new(i + 1), 200_000).with_action(move |ctx| {
                    if ctx.core() != 0 {
                        seen.store(true, Ordering::Release);
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !seen.load(Ordering::Acquire) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                });
                rt.register_pinned(ev, 0);
            }
            let r = rt.run();
            assert_eq!(r.events_processed(), 64);
            assert!(
                r.total().steals > 0,
                "expected steals on an unbalanced load ({cores} cores)"
            );
        }
    }

    #[test]
    fn declared_cost_and_charges_are_not_waited_out() {
        // 16 x (200 M declared + 200 M charged) = 6.4 G cycles: waited
        // out, that is over a second even spread perfectly over both
        // cores. Declared cost is the simulator's input and the steal
        // heuristics' hint; on threads the (empty) body is the cost.
        const COST: u64 = 200_000_000;
        let mut rt = rt(Flavor::Mely, WsPolicy::base(), 2);
        for i in 0..16u16 {
            let ev = Event::new(Color::new(i + 1), COST);
            rt.register(ev.with_action(|ctx| ctx.charge(COST)));
        }
        let wall = std::time::Instant::now();
        let r = rt.run();
        let wall = wall.elapsed();
        assert_eq!(r.events_processed(), 16);
        assert!(wall.as_millis() < 250, "run took {wall:?}");
        let declared = 16 * 2 * COST;
        let busy = r.total().busy_cycles;
        assert!(busy < declared / 100, "busy {busy} of {declared} declared");
    }

    #[test]
    fn first_monitored_steal_replaces_the_initial_estimate() {
        // An estimate no real steal can match, so blending the first
        // sample into it (instead of replacing it, as `Ewma::record`
        // documents) shows.
        let mut rt = rt(Flavor::Mely, WsPolicy::base(), 2);
        *rt.shared.steal_est.lock() = Ewma::new(1_000_000_000);
        for i in 0..4u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 0), 0);
        }
        let mut thief = Worker {
            shared: &rt.shared,
            me: 1,
            m: CoreMetrics::default(),
            fault_rng: None,
            steal_bufs: StealBufs::default(),
        };
        // Each turn of the idle thief steals one color and runs it.
        assert_eq!(kernel::turn(&mut thief), Turn::Ran);
        assert_eq!(thief.m.steals, 1);
        let first = thief.m.steal_cycles;
        assert_eq!(rt.shared.steal_est.lock().get(), first);
        // Later samples are smoothed by 1/8.
        assert_eq!(kernel::turn(&mut thief), Turn::Ran);
        assert_eq!(thief.m.steals, 2);
        let second = thief.m.steal_cycles - first;
        assert_eq!(
            rt.shared.steal_est.lock().get(),
            first - first / 8 + second / 8
        );
    }

    #[test]
    fn handle_allows_external_injection_and_stop() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        // Seed one event so workers do not exit immediately.
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            // Keep the runtime alive long enough for the injector thread
            // to be scheduled (~20 ms of virtual headroom).
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            for i in 0..20u16 {
                handle.inject(Event::new(Color::new(i + 10), 0));
            }
        });
        let r = rt.run();
        injector.join().unwrap();
        assert!(r.events_processed() >= 21);
        // Injector registrations and the timer firing all went through the
        // inboxes, and every push was eventually drained.
        assert!(r.total().inbox_pushes >= 21);
        assert_eq!(r.total().inbox_drained, r.total().inbox_pushes);
        assert!(r.avg_inbox_drain_batch().unwrap() >= 1.0);
    }

    #[test]
    fn recycling_counters_surface_in_the_report() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 1);
        // Serialize everything on one color so the worker drains the
        // inbox in many small batches, reusing its buffers in between,
        // and the queue keeps retiring and recreating the color-queue.
        let keepalive = rt.injector().keepalive();
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            // Chunked with a drain barrier in between: waiting for
            // `outstanding` to hit zero guarantees the worker drained
            // the inbox (keeping its buffer) and popped the color-queue
            // empty (pooling its buffer) before the next chunk pushes —
            // so both reuse counters must advance no matter how the
            // scheduler interleaves the threads.
            for chunk in 0..40u64 {
                for i in 0..50u64 {
                    handle.inject(Event::new(Color::new(5), (chunk + i) % 3));
                }
                while handle.outstanding() > 0 {
                    std::thread::yield_now();
                }
            }
            handle.stop_when_idle();
            drop(keepalive);
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 2_000);
        assert!(
            r.total().inbox_node_reuse > 0,
            "inbox buffer never reused: {:?}",
            r.total()
        );
        assert!(
            r.total().queue_buf_reuse > 0,
            "queue buffer pool never hit: {:?}",
            r.total()
        );
    }

    #[test]
    fn keepalive_holds_workers_and_stop_when_idle_drains() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let keepalive = rt.injector().keepalive();
        let handle = rt.injector();
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        let injector = std::thread::spawn(move || {
            // The workers have nothing queued at start; without the
            // keepalive they would already have exited.
            std::thread::sleep(std::time::Duration::from_millis(20));
            for i in 0..30u16 {
                let d = Arc::clone(&d);
                handle.inject(Event::new(Color::new(i + 1), 0).with_action(move |_| {
                    d.fetch_add(1, Ordering::Relaxed);
                }));
            }
            handle.stop_when_idle();
            drop(keepalive);
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 30, "late work still ran");
        assert_eq!(r.events_processed(), 30);
    }

    #[test]
    fn direct_and_inbox_injection_paths_agree() {
        let mut rt = rt(Flavor::Libasync, WsPolicy::base(), 2);
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            for i in 0..40u16 {
                let ev = Event::new(Color::new(i % 8 + 10), 0);
                if i % 2 == 0 {
                    handle.inject(ev);
                } else {
                    handle.inject_locked(ev);
                }
            }
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 42);
        assert!(r.total().inbox_pushes >= 20, "inbox path used for half");
    }

    // The inject/inject_locked/inject_after trio is pinned by the
    // consolidated test
    // `runtime::tests::removed_aliases_have_working_replacements`.

    #[test]
    fn timers_fire() {
        let fired = Arc::new(AtomicU64::new(0));
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let f = Arc::clone(&fired);
        rt.register(Event::new(Color::new(1), 0).with_action(move |ctx| {
            let f2 = Arc::clone(&f);
            ctx.register_after(
                100_000,
                Event::new(Color::new(2), 0).with_action(move |_| {
                    f2.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }));
        let r = rt.run();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(r.events_processed(), 2);
    }
}
