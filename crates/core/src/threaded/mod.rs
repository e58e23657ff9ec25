//! The threaded executor: one OS thread per simulated core.
//!
//! This is the "real" runtime: per-core queues protected by cache-padded
//! spinlocks ([`crate::sync::SpinLock`]), events executed by the core's
//! thread, idle cores running the workstealing algorithm. A worker's turn
//! is the kernel it shares with the simulator (`kernel::turn`); around
//! it the worker drains its timers and inbox, and waits when idle.
//! The door into the cores is the simulator's too (`Doors` in
//! [`crate::exec`]): one color map, one liveness record and one inbox
//! per core. Workers wind down once the run's liveness record holds
//! nothing open or asks them to stop, and a dying worker asks.
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
//! - **One door into a core.** In the paper, a core registering an
//!   event takes the target core's spinlock. Here every event bound
//!   for a core — an [`Injector`](crate::exec::Injector) call, a timer firing,
//!   `Executor::register`, another core's route — enters through the
//!   core's [`InjectionInbox`](inbox::InjectionInbox) (`Doors::hand_off`): a lock and a
//!   `Vec`, whose empty check takes no lock, merged whole into the
//!   queue under one acquisition of the queue lock at dispatch-loop
//!   boundaries. The one exception is a worker routing an event of a
//!   color its own core owns: it pushes into its own queue under its
//!   own lock, with the owner re-checked under that lock. A core's
//!   queue lock is thus taken only by its own worker (pop, drain,
//!   own-color route), by a thief's `migrate`, which holds both the
//!   victim's and its own, by `run` after the join and by a re-pin's
//!   check between runs (`Shared::vacant`). The push
//!   re-checks the color's owner under the inbox lock and the owner
//!   drains under its queue lock, so an inbox only holds colors its
//!   core owns and a drain re-routes nothing; [`inbox`] has the
//!   argument for per-color FIFO across steals. An event takes its
//!   handler's defaults and its sequence number where it enters the
//!   queue, so the door needs no registry. The steady-state
//!   dispatch path is allocation-free end to end: each worker swaps
//!   one retained drain buffer with its inbox's, and the Mely queue
//!   pools freed color-queue buffers (surfaced as the
//!   `inbox_node_reuse` / `queue_buf_reuse` counters in
//!   [`CoreMetrics`]).

pub mod inbox;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::color::Color;
use crate::cost::{Ewma, INITIAL_STEAL_ESTIMATE};
use crate::ctx::CtxEffects;
use crate::cycles;
use crate::event::Event;
use crate::exec::Doors;
use crate::fault::{Fault, FaultKind};
use crate::fuzz::ScheduleRng;
use crate::handler::HandlerRegistry;
use crate::kernel::{self, CoreEnv, CoreState, StealBufs, TimerEntry};
use crate::metrics::{CoreMetrics, RunReport};
use crate::queue::QueueImpl;
use crate::runtime::Resolved;
use crate::sync::SpinLock;

const NO_COLOR: u32 = u32::MAX;

struct CoreShared {
    queue: SpinLock<QueueImpl>,
    /// Color currently executing on this core (`NO_COLOR` when none).
    in_flight: AtomicU32,
}

/// The threaded executor: everything its workers share.
pub(crate) struct Shared {
    /// What the builder resolved. Workers consult its `faults` at
    /// dispatch (containment, drains).
    pub(crate) cfg: Arc<Resolved>,
    cores: Vec<CoreShared>,
    /// Color ownership, liveness and each core's inbox and published
    /// queue length, shared with every [`crate::exec::Injector`].
    /// Workers run until its liveness record stops them or holds
    /// nothing open.
    pub(crate) doors: Arc<Doors>,
    pub(crate) registry: HandlerRegistry,
    /// The monitored steal-cost estimate (updated once per successful
    /// steal, read once per visit: never on the dispatch path).
    steal_est: Mutex<Ewma>,
    next_seq: AtomicU64,
    timers: Mutex<BinaryHeap<Reverse<TimerEntry>>>,
}

impl Shared {
    /// Fills in the scheduling metadata of events entering a queue:
    /// handler-derived cost/penalty defaults and the global sequence
    /// numbers, consecutive in order.
    fn prepare(&self, evs: &mut [Event]) {
        let first = self.next_seq.fetch_add(evs.len() as u64, Ordering::Relaxed);
        for (seq, ev) in (first..).zip(evs) {
            self.registry.fill_defaults(ev);
            ev.seq = seq;
        }
    }
}

/// What [`crate::exec::Runtime`] leaves to the threaded executor.
impl Shared {
    pub(crate) fn new(cfg: Resolved) -> Arc<Self> {
        cycles::init();
        let cores = (0..cfg.cores)
            .map(|_| CoreShared {
                queue: SpinLock::new(cfg.new_queue()),
                in_flight: AtomicU32::new(NO_COLOR),
            })
            .collect();
        let cfg = Arc::new(cfg);
        Arc::new(Shared {
            doors: Doors::new(Arc::clone(&cfg)),
            cfg,
            cores,
            registry: HandlerRegistry::new(),
            steal_est: Mutex::new(Ewma::new(INITIAL_STEAL_ESTIMATE)),
            next_seq: AtomicU64::new(0),
            timers: Mutex::new(BinaryHeap::new()),
        })
    }

    /// Whether nothing holds `color` on `core`, for
    /// [`crate::exec::ColorMap::pin`]: no event of it is queued there or
    /// waits in its inbox. `Some` holds both locks, so that no producer
    /// pushes the color there before the pin moves it.
    pub(crate) fn vacant(&self, core: usize, color: Color) -> Option<impl Sized + '_> {
        let q = self.cores[core].queue.lock();
        if q.holds(color) {
            return None;
        }
        Some((q, self.doors.cores[core].inbox.lock_unless_holds(color)?))
    }

    /// Through the owner's inbox, past the queue limits; events of a
    /// quarantined color are shed (see [`crate::fault`]).
    pub(crate) fn register(&self, ev: Event) {
        self.doors.enter(ev, false);
    }

    /// Each call reports the events executed by *that* run (plus
    /// cumulative inbox counters).
    pub(crate) fn run(self: &Arc<Self>) -> RunReport {
        let _running = self.doors.life.run();
        let n = self.cores.len();
        let start = cycles::now();
        let mut joins = Vec::with_capacity(n);
        for core in 0..n {
            let shared = Arc::clone(self);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("mely-core-{core}"))
                    .spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, core)))
                            .unwrap_or_else(|payload| {
                                // A dying worker must release its
                                // siblings: they wait on outstanding work
                                // it can no longer execute, nor on the
                                // event whose dispatch unwound it.
                                shared.doors.life.worker_died();
                                let in_flight = &shared.cores[core].in_flight;
                                if in_flight.swap(NO_COLOR, Ordering::AcqRel) != NO_COLOR {
                                    shared.doors.life.event_done();
                                }
                                resume_unwind(payload)
                            })
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
                    self.cfg.faults.record(Fault {
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
        // The queue's push and buffer-pool counters live in the (now
        // idle) queue itself; the doors counted the rest.
        for (m, core) in per_core.iter_mut().zip(&self.cores) {
            let mut q = core.queue.lock();
            m.registered = q.take_pushes();
            m.queue_buf_reuse = q.buf_reuses();
        }
        self.doors.attribute_to(&mut per_core);
        let wall = cycles::now().wrapping_sub(start);
        RunReport::new(per_core, wall, cycles::NOMINAL_FREQ_HZ, self.cfg.ws)
            .with_fault_log(self.cfg.faults.log_snapshot())
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
        inbox_batch: Vec::new(),
    };
    let mut idle_spins: u32 = 0;
    loop {
        if shared.doors.life.stop_requested() {
            break;
        }
        drain_timers(shared);
        w.drain_inbox();
        if kernel::turn(&mut w) {
            idle_spins = 0;
            continue;
        }
        // Idle: wind down, or wait for work.
        if shared.doors.life.idle() {
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
        shared.doors.hand_off(t.event);
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
    /// Reused across drains so steady-state inbox drains never
    /// allocate: each drain swaps it with the inbox's buffer.
    inbox_batch: Vec<Event>,
}

impl Worker<'_> {
    /// Appends `core`'s inbox backlog to `inbox_batch`, prepared for
    /// the queue, and counts the drain. The caller holds `core`'s queue
    /// lock.
    fn take_inbox(&mut self, core: usize) {
        let from = self.inbox_batch.len();
        let n = self.shared.doors.cores[core]
            .inbox
            .drain_into(&mut self.inbox_batch);
        if n != 0 {
            self.m.inbox_drain_batches += 1;
            self.m.inbox_drained += n as u64;
            self.shared.prepare(&mut self.inbox_batch[from..]);
        }
    }

    /// Merges this core's inbox into its queue under one acquisition of
    /// the queue lock. A thief moves a color only while holding that
    /// lock, so every event drained is still this core's to queue.
    fn drain_inbox(&mut self) {
        let (shared, me) = (self.shared, self.me);
        let door = &shared.doors.cores[me];
        if door.inbox.is_empty() {
            return;
        }
        let mut q = shared.cores[me].queue.lock();
        self.m.lock_wait_cycles += q.waited_cycles();
        self.m.lock_ops += 1;
        self.take_inbox(me);
        for ev in self.inbox_batch.drain(..) {
            debug_assert!(shared.doors.colors.owns(me, ev.color()), "foreign color");
            q.push(ev);
        }
        door.publish(q.len());
    }
}

impl CoreEnv for Worker<'_> {
    fn state(&mut self) -> CoreState<'_> {
        CoreState {
            core: self.me,
            metrics: &mut self.m,
            fault_rng: self.fault_rng.as_mut(),
            cfg: &self.shared.cfg,
            steal_bufs: &mut self.steal_bufs,
            life: &self.shared.doors.life,
        }
    }

    fn registry(&self) -> &HandlerRegistry {
        &self.shared.registry
    }

    /// Publishes the popped color as in flight under the lock, so a
    /// thief's `migrate` never takes the color that is running.
    fn pop(&mut self) -> Option<Event> {
        let core = &self.shared.cores[self.me];
        let mut q = core.queue.lock();
        self.m.lock_wait_cycles += q.waited_cycles();
        self.m.lock_ops += 1;
        let ev = q.pop(self.shared.cfg.batch_threshold);
        if let Some(ev) = &ev {
            core.in_flight
                .store(ev.color().value() as u32, Ordering::Release);
        }
        self.shared.doors.cores[self.me].publish(q.len());
        ev
    }

    fn after_dispatch(&mut self) {
        self.shared.cores[self.me]
            .in_flight
            .store(NO_COLOR, Ordering::Release);
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

    fn schedule(&mut self, delay: u64, event: Event) {
        let shared = self.shared;
        shared.doors.life.add_event();
        let due = cycles::now() + delay;
        let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
        shared
            .timers
            .lock()
            .push(Reverse(TimerEntry { due, seq, event }));
    }

    /// A color this core owns is pushed under its own lock, where the
    /// owner is stable: a thief needs the lock to move it. Everything
    /// else goes through the owner's inbox.
    fn route(&mut self, mut ev: Event) {
        let (shared, me) = (self.shared, self.me);
        let doors = &*shared.doors;
        doors.life.add_event();
        if doors.colors.owner_of(ev.color()) == me {
            let mut q = shared.cores[me].queue.lock();
            if doors.colors.owns(me, ev.color()) {
                shared.prepare(std::slice::from_mut(&mut ev));
                q.push(ev);
                doors.cores[me].publish(q.len());
                return;
            }
        }
        doors.hand_off(ev);
    }

    /// Loads include each core's inbox backlog: work a producer has
    /// pushed but the owner has not drained yet is still pending work,
    /// and `construct_core_set` must see it.
    fn steal_begin(&mut self, loads: &mut Vec<usize>) -> u64 {
        let t0 = cycles::now();
        loads.clear();
        loads.extend(self.shared.doors.cores.iter().map(|c| c.load()));
        t0
    }

    /// A victim's inbox can only be drained by the victim itself, so
    /// only what already reached its queue counts.
    fn worth_visiting(&self, v: usize) -> bool {
        self.shared.doors.cores[v].queued() != 0
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
            shared.doors.colors.moved(set.color(), me);
            gm.steal_absorb(set);
        }

        // Drain both inboxes while both locks are held. The victim's:
        // a push of a stolen color either came before this drain and
        // queues behind the migrated events here, or comes after it and
        // sees the new owner. Ours: a stolen color's handlers may have
        // routed events here while they ran on the victim, and those
        // must queue before what the same handlers route here directly
        // from now on. Each inbox holds only colors its core owned, so
        // every event is now either ours or still the victim's.
        self.take_inbox(v);
        self.take_inbox(me);
        for ev in self.inbox_batch.drain(..) {
            if shared.doors.colors.owns(me, ev.color()) {
                gm.push(ev);
            } else {
                debug_assert!(shared.doors.colors.owns(v, ev.color()), "foreign color");
                gv.push(ev);
            }
        }

        shared.doors.cores[v].publish(gv.len());
        shared.doors.cores[me].publish(gm.len());
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
    use crate::exec::{ExecKind, Executor, IdleWait, Runtime};
    use crate::handler::HandlerSpec;
    use crate::runtime::{Flavor, RuntimeBuilder};
    use crate::steal::WsPolicy;
    use std::sync::atomic::{AtomicBool, AtomicI64};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn rt(flavor: Flavor, ws: WsPolicy, cores: usize) -> Runtime {
        let builder = RuntimeBuilder::new().cores(cores).flavor(flavor);
        builder.workstealing(ws).build(ExecKind::Threaded)
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
        let builder = RuntimeBuilder::new().cores(2);
        let shared = Shared::new(builder.workstealing(WsPolicy::base()).resolve());
        *shared.steal_est.lock() = Ewma::new(1_000_000_000);
        // Even colors: all four are core 0's.
        for i in 1..=4u16 {
            shared.register(Event::new(Color::new(2 * i), 0));
        }
        let worker = |me| Worker {
            shared: &shared,
            me,
            m: CoreMetrics::default(),
            fault_rng: None,
            steal_bufs: StealBufs::default(),
            inbox_batch: Vec::new(),
        };
        // The registrations wait in core 0's inbox until its worker
        // queues them.
        worker(0).drain_inbox();
        let mut thief = worker(1);
        // Each turn of the idle thief steals one color and runs it.
        assert!(kernel::turn(&mut thief));
        assert_eq!(thief.m.steals, 1);
        let first = thief.m.steal_cycles;
        assert_eq!(shared.steal_est.lock().get(), first);
        // Later samples are smoothed by 1/8.
        assert!(kernel::turn(&mut thief));
        assert_eq!(thief.m.steals, 2);
        let second = thief.m.steal_cycles - first;
        assert_eq!(
            shared.steal_est.lock().get(),
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
    fn a_route_to_a_color_another_core_owns_enters_through_its_inbox() {
        const N: u64 = 200;
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let target = Color::new(2);
        // The seed pins the target color to core 1.
        rt.register_pinned(Event::new(target, 0), 1);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&ran);
        rt.register_pinned(
            Event::new(Color::new(3), 0).with_action(move |ctx| {
                assert_eq!(ctx.core(), 0);
                for i in 0..N {
                    let log = Arc::clone(&log);
                    ctx.register(Event::new(target, i).with_action(move |ctx| {
                        log.lock().push((ctx.core(), i));
                    }));
                }
            }),
            0,
        );
        let r = rt.run();
        assert_eq!(r.events_processed(), N + 2);
        let expected: Vec<_> = (0..N).map(|i| (1, i)).collect();
        assert_eq!(*ran.lock(), expected, "on core 1, in emission order");
        assert!(r.per_core()[1].inbox_pushes >= N, "{:?}", r.per_core()[1]);
    }

    #[test]
    fn a_worker_death_ends_stop_when_idle_and_the_run() {
        // A handler id from another registry: recording the dispatch
        // under it panics outside the handler's containment, so the
        // worker unwinds through its spawn closure.
        let foreign = HandlerRegistry::new().register(HandlerSpec::new("elsewhere"));
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        // Without the death, the keepalive would hold the run open.
        let keepalive = rt.injector().keepalive();
        let (color, holder) = (Color::new(1), Color::new(2));
        assert_ne!(color.home_core(2), holder.home_core(2));
        let waiting = Arc::new(AtomicBool::new(false));
        let returned = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&waiting);
        rt.register(Event::new(color, 0).with_action(move |_| {
            while !seen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }));
        // Cost and penalty set, so registering it never asks the registry.
        rt.register(
            Event::for_handler(color, foreign)
                .with_cost(1)
                .with_penalty(2),
        );
        // The other core holds the run, and so the death's stop, until
        // the waiter has returned, whenever it began to wait.
        let done = Arc::clone(&returned);
        rt.register(Event::new(holder, 0).with_action(move |_| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }));
        let (tx, rx) = mpsc::channel();
        let injector = rt.injector();
        let waiter = std::thread::spawn(move || {
            waiting.store(true, Ordering::Release);
            let _ = tx.send(injector.stop_when_idle());
            returned.store(true, Ordering::Release);
        });
        let r = rt.run();
        let ended = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(ended, Ok(IdleWait::WorkerDied));
        waiter.join().unwrap();
        drop(keepalive);
        let core = color.home_core(2);
        assert_eq!(r.per_core()[core].faults, 1, "{:?}", r.fault_log());
        assert!(r
            .fault_log()
            .iter()
            .any(|f| f.kind == FaultKind::WorkerDied { core }));
    }

    #[test]
    fn a_worker_death_counts_its_event_done() {
        // As above, the foreign id kills the worker that dispatches it.
        let foreign = HandlerRegistry::new().register(HandlerSpec::new("elsewhere"));
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let ev = Event::for_handler(Color::new(1), foreign);
        rt.register(ev.with_cost(1).with_penalty(2));
        let died = rt.run().fault_log()[0].kind.clone();
        assert!(matches!(died, FaultKind::WorkerDied { .. }), "{died:?}");
        assert_eq!(rt.injector().outstanding(), 0, "the death's event leaked");
        // Workers wait while anything is outstanding: a leaked count
        // would hold this run open for good.
        rt.register(Event::new(Color::new(1), 0));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(rt.run().events_processed()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
    }

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
