//! Deterministic discrete-event simulation of an N-core machine.
//!
//! This executor substitutes for the paper's 8-core Xeon testbed: each
//! virtual core has its own cycle clock, queue operations
//! and steals are charged with the paper's measured cost constants
//! ([`crate::cost::CostParams`]), spinlock contention is modelled by
//! per-lock availability times, and — optionally — every event
//! continuation and data-set access goes through a cache simulator built
//! from the machine's topology, so the experiments can report L2 misses
//! per event exactly like Tables V and VI.
//!
//! A core's turn is the kernel it shares with the threaded executor
//! (`kernel::turn`); this driver picks which core takes the next turn
//! and supplies virtual time, the lock cost model, timers and the
//! schedule-perturbation points. Visibility is the simulator's alone:
//! an event is queued stamped with the virtual time it may run from
//! (`Event::visible_at`), and before a picked core's turn the run loop
//! idles the core until the event the turn would pop is visible. So
//! the kernel's turn never meets an event it may not run. The door
//! into the cores is the threaded executor's too (`Doors` in
//! [`crate::exec`]): one color map, one liveness record, and per core
//! the inbox an [`crate::exec::Injector`] pushes into, which the run
//! loop's top drains into the core's queue and a steal drains as the
//! threaded thief does. A registration, a timer arm and an injection
//! count one event, and its dispatch uncounts it. Runs are fully
//! deterministic: identical inputs produce identical reports.
//!
//! # Inert steal attempts
//!
//! An idle core polling a busy machine fails most of its steal
//! attempts, and each would cost a whole turn. An attempt is *inert*
//! when the picked core's queue is empty and no other core passes the
//! unlocked screen (`worth_visiting`) at `clock + steal_setup`, the
//! time the attempt would screen at. It touches only its own core: the
//! clock advances one step of `steal_setup + idle_recheck`, and
//! `steal_attempts`, `idle_cycles` and `failed_steal_cycles` grow as
//! `steal_end` and the kernel grow them; it takes no lock, moves no
//! queue and draws nothing. While only such attempts happen, a busy
//! core's screen changes with the thief's clock alone: before its
//! in-flight handler ends the screen leaves that color out, after it
//! counts it, so it turns live at most once.
//!
//! So the run loop applies every inert attempt up to its next pick that
//! acts in closed form (`skip_inert_attempts`). Each idle core takes one
//! whole step per key `(clock, core)` below the stop key, which is the
//! smaller of the busy pick (lowest `(clock, core)` holding work) and
//! the first idle key whose screen is live. An armed timer cuts the
//! batch after the pick that brings every clock to its due time, and
//! the next loop top delivers it. The stop flag and the inboxes are
//! checked once, before the batch; on an unfed run with no timer cut
//! the stop key's core then takes its turn at once, with no second loop
//! top. The livelock watchdog counts every applied attempt and fires on
//! a threshold. So every simulated result is bit-identical to running
//! the turns. A perturbed run (`schedule_seed`) never skips: its core
//! pick, steal deferral and victim shuffle draw per turn, and skipping
//! would shift the draws.
//!
//! # Examples
//!
//! ```
//! use mely_core::prelude::*;
//!
//! let mut rt = RuntimeBuilder::new()
//!     .cores(8)
//!     .flavor(Flavor::Mely)
//!     .workstealing(WsPolicy::improved())
//!     .build(ExecKind::Sim);
//! for i in 0..64u16 {
//!     rt.register_pinned(Event::new(Color::new(i + 1), 10_000), 0);
//! }
//! let report = rt.run();
//! assert_eq!(report.events_processed(), 64);
//! // The imbalance was resolved by stealing.
//! assert!(report.per_core().iter().filter(|c| c.events_processed > 0).count() > 1);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use mely_cachesim::Hierarchy;

use crate::color::Color;
use crate::cost::{Ewma, INITIAL_STEAL_ESTIMATE};
use crate::ctx::CtxEffects;
use crate::event::Event;
use crate::exec::Doors;
use crate::fuzz::ScheduleRng;
use crate::handler::HandlerRegistry;
use crate::kernel::{self, CoreEnv, CoreState, StealBufs, TimerEntry};
use crate::metrics::{CoreMetrics, RunReport};
use crate::queue::QueueImpl;
use crate::runtime::{Flavor, Resolved};

struct SimCore {
    queue: QueueImpl,
    clock: u64,
    lock_free_at: u64,
    /// Color being executed and the virtual time its handler finishes.
    in_flight: Option<(Color, u64)>,
    metrics: CoreMetrics,
}

impl SimCore {
    fn in_flight_at(&self, t: u64) -> Option<Color> {
        match self.in_flight {
            Some((c, until)) if t < until => Some(c),
            _ => None,
        }
    }
}

/// The deterministic multicore simulator.
pub(crate) struct SimRuntime {
    /// What the builder resolved, shared with the doors (which admit
    /// against the same limits and quarantine set).
    pub(crate) cfg: Arc<Resolved>,
    cores: Vec<SimCore>,
    /// Color ownership, liveness and the inboxes, shared with every
    /// [`crate::exec::Injector`].
    pub(crate) doors: Arc<Doors>,
    pub(crate) registry: HandlerRegistry,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    cache: Option<Hierarchy>,
    steal_est: Ewma,
    next_seq: u64,
    /// Lock-wait cycles accumulated by the current steal attempt (waits
    /// are congestion, not steal work; see `steal_end`).
    attempt_wait: u64,
    /// One buffer set serves every core: turns never overlap.
    steal_bufs: StealBufs,
    /// What an inbox drain hands over, kept across drains.
    inbox_batch: Vec<Event>,
    /// Whether an inbox may hold events during this run. Only an
    /// injector pushes there, and none can be made while `run` holds
    /// the runtime: a run that starts with no injector or keepalive out
    /// and its inboxes empty never looks at them.
    fed: bool,
    /// The decision stream for schedule perturbation (`Some` iff
    /// `cfg.schedule_seed` is). Replay = fresh runtime + same seed.
    sched_rng: Option<ScheduleRng>,
    /// The dedicated fault-injection decision stream (`Some` iff
    /// `cfg.faults` holds a plan). Kept separate from `sched_rng` so
    /// enabling faults never shifts the schedule-perturbation draws.
    fault_rng: Option<ScheduleRng>,
    /// Off, every inert steal attempt runs as a kernel turn: the
    /// reference the closed form is checked against.
    #[cfg(test)]
    skip_inert: bool,
    /// Run-loop passes, cumulative.
    #[cfg(test)]
    passes: u64,
}

/// Scheduling decisions (run-loop passes and applied inert steal
/// attempts) between two livelock checks.
const WATCHDOG_ITERS: u64 = 10_000_000;

/// Simulated addresses of event continuations live below the dataset
/// space; one cache line per event.
const EVENT_ADDR_MASK: u64 = (1 << 32) - 1;

fn event_addr(seq: u64) -> u64 {
    (seq * 64) & EVENT_ADDR_MASK
}

impl SimRuntime {
    pub(crate) fn new(cfg: Resolved) -> Self {
        let cfg = Arc::new(cfg);
        let cores = (0..cfg.cores)
            .map(|_| SimCore {
                queue: cfg.new_queue(),
                clock: 0,
                lock_free_at: 0,
                in_flight: None,
                metrics: CoreMetrics::default(),
            })
            .collect();
        SimRuntime {
            cores,
            doors: Doors::new(Arc::clone(&cfg)),
            registry: HandlerRegistry::new(),
            timers: BinaryHeap::new(),
            cache: cfg.track_cache.then(|| Hierarchy::new(&cfg.machine)),
            steal_est: Ewma::new(INITIAL_STEAL_ESTIMATE),
            next_seq: 0,
            attempt_wait: 0,
            steal_bufs: StealBufs::default(),
            inbox_batch: Vec::new(),
            fed: false,
            sched_rng: cfg.schedule_seed.map(ScheduleRng::new),
            fault_rng: cfg.faults.plan.map(|p| p.rng()),
            #[cfg(test)]
            skip_inert: true,
            #[cfg(test)]
            passes: 0,
            cfg,
        }
    }

    /// Maximum virtual time reached by any core.
    fn virtual_now(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Prepares an event (sequence number, handler-derived cost/penalty)
    /// and pushes it to `core`, which owns its color, with the given
    /// visibility time.
    fn push_to(&mut self, core: usize, mut ev: Event, visible_at: u64) {
        debug_assert!(self.doors.colors.owns(core, ev.color()), "foreign color");
        self.registry.fill_defaults(&mut ev);
        ev.seq = self.next_seq;
        self.next_seq += 1;
        ev.visible_at = visible_at;
        self.cores[core].queue.push(ev);
        self.publish(core);
    }

    /// Publishes `core`'s queue length to the doors (admission).
    fn publish(&self, core: usize) {
        self.doors.cores[core].publish(self.cores[core].queue.len());
    }

    /// Hands every timer due by `upto` to its color's owner, visible
    /// from its due time.
    fn deliver_timers(&mut self, upto: u64) {
        while self.timers.peek().is_some_and(|Reverse(t)| t.due <= upto) {
            let Reverse(t) = self.timers.pop().expect("peeked");
            let owner = self.doors.colors.owner_of(t.event.color());
            self.push_to(owner, t.event, t.due);
        }
    }

    fn arm_timer(&mut self, due: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.push(Reverse(TimerEntry { due, seq, event }));
    }

    /// Models taking `owner`'s spinlock from `locker` for `hold` cycles:
    /// waits until the lock frees, charges the wait to `locker`, and
    /// advances both the lock and `locker`'s clock.
    fn lock(&mut self, owner: usize, locker: usize, hold: u64) {
        let at = self.cores[locker].clock;
        let start = at.max(self.cores[owner].lock_free_at);
        let end = start + hold;
        self.cores[owner].lock_free_at = end;
        let wait = start - at;
        let m = &mut self.cores[locker].metrics;
        m.lock_wait_cycles += wait;
        m.lock_ops += 1;
        self.cores[locker].clock = end;
        self.attempt_wait += wait;
    }

    /// Queues what producers handed to the cores' inboxes
    /// ([`crate::exec::Injector`]).
    ///
    /// Under schedule perturbation the drain is sometimes deferred to a
    /// later iteration (shifting the absorption point) and the cores are
    /// drained in a shuffled order; each inbox keeps its own order. The
    /// RNG is consulted only when an inbox holds entries, so the decision
    /// stream is keyed to deterministic state.
    fn drain_inboxes(&mut self) {
        if !self.fed || !self.doors.pending() {
            return;
        }
        let mut order: Vec<usize> = (0..self.cores.len()).collect();
        if let Some(rng) = &mut self.sched_rng {
            if rng.chance(1, 4) {
                return;
            }
            rng.shuffle(&mut order);
        }
        for c in order {
            self.drain_inbox(c, c);
        }
    }

    /// Queues what producers left in `core`'s inbox, in order, each
    /// event on the core owning its color: `core`, or `thief` when a
    /// steal just moved the color there. `thief` counts the drain.
    fn drain_inbox(&mut self, core: usize, thief: usize) {
        let mut batch = std::mem::take(&mut self.inbox_batch);
        let n = self.doors.cores[core].inbox.drain_into(&mut batch);
        if n != 0 {
            let m = &mut self.cores[thief].metrics;
            m.inbox_drain_batches += 1;
            m.inbox_drained += n as u64;
        }
        for ev in batch.drain(..) {
            let to = if self.doors.colors.owns(thief, ev.color()) {
                thief
            } else {
                core
            };
            self.push_to(to, ev, 0);
        }
        self.inbox_batch = batch;
    }

    /// Snapshot of the cumulative metrics.
    fn report(&self) -> RunReport {
        let mut per_core: Vec<CoreMetrics> = self.cores.iter().map(|c| c.metrics).collect();
        self.doors.attribute_to(&mut per_core);
        if let Some(cache) = &self.cache {
            for (i, m) in per_core.iter_mut().enumerate() {
                m.l2_misses = cache.level_stats(i, 2).map_or(0, |s| s.misses);
            }
        }
        RunReport::new(
            per_core,
            self.virtual_now(),
            self.cfg.machine.freq_hz(),
            self.cfg.ws,
        )
        .with_fault_log(self.cfg.faults.log_snapshot())
    }

    /// Sweeps `len` bytes at `base` through core `c`'s caches and
    /// returns the stall (0 when caches are not simulated).
    fn sweep(&mut self, c: usize, base: u64, len: u64) -> u64 {
        let Some(cache) = &mut self.cache else {
            return 0;
        };
        let (lat, _misses) = cache.sweep(c, base, len, 2);
        self.cores[c].metrics.mem_stall_cycles += lat;
        lat
    }

    /// Whether a thief screening at time `t` would visit `v`.
    fn worth_visiting(&self, v: usize, t: u64) -> bool {
        let victim = &self.cores[v];
        !victim.queue.is_empty()
            && victim
                .queue
                .can_be_stolen(victim.in_flight_at(t), self.cfg.ws.time_left)
    }

    /// Whether the run loop may pick core `i`: it holds work, or it may
    /// steal, some other core holds work, and its clock has not raced
    /// past `limit` (the busy horizon plus slack).
    fn actionable(&self, i: usize, total: usize, limit: Option<u64>) -> bool {
        let core = &self.cores[i];
        let qlen = core.queue.len();
        qlen > 0
            || (kernel::may_steal(&self.cfg)
                && total > qlen
                && limit.is_some_and(|l| core.clock <= l))
    }

    /// The unperturbed pick: the earliest actionable clock, ties to the
    /// lowest index.
    fn earliest_actionable(&self, total: usize, limit: Option<u64>) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for i in 0..self.cores.len() {
            let clock = self.cores[i].clock;
            if best.is_none_or(|(bt, _)| clock < bt) && self.actionable(i, total, limit) {
                best = Some((clock, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// The first thief clock from which a thief's screen would visit
    /// busy core `v`, `u64::MAX` for never while no turn runs: the
    /// screen leaves the in-flight color out until its handler ends.
    fn live_from(&self, v: usize, setup: u64) -> u64 {
        let core = &self.cores[v];
        let screen = |in_flight| core.queue.can_be_stolen(in_flight, self.cfg.ws.time_left);
        let after = screen(None);
        debug_assert!(
            after || core.in_flight.is_none_or(|(color, _)| !screen(Some(color))),
            "leaving a color out made another stealable"
        );
        match core.in_flight {
            _ if !after => u64::MAX,
            Some((color, until)) if !screen(Some(color)) => until.saturating_sub(setup),
            _ => 0,
        }
    }

    /// Applies, in closed form, every inert steal attempt the loop
    /// would pick from pick `c` on, up to its first pick that acts (see
    /// the module docs), and counts them in `iters`. Returns the core
    /// whose turn comes next, or `None` when the loop top must look
    /// first: a timer cut the batch, or a producer may have fed an inbox.
    fn skip_inert_attempts(&mut self, c: usize, iters: &mut u64) -> Option<usize> {
        let setup = self.cfg.costs.steal_setup;
        let step = setup + self.cfg.costs.idle_recheck;
        #[cfg(test)]
        if !self.skip_inert {
            return Some(c);
        }
        if !self.cores[c].queue.is_empty()
            || step == 0
            || self.doors.life.stop_requested()
            || (self.fed && self.doors.pending())
        {
            return Some(c);
        }
        // The busy pick, and the first thief clock at which any busy
        // core's screen is live. The busy pick is within the loop's
        // slack, so no key below it is past it.
        let (mut stop, mut live) = ((u64::MAX, usize::MAX), u64::MAX);
        for (v, core) in self.cores.iter().enumerate() {
            if !core.queue.is_empty() {
                stop = stop.min((core.clock, v));
                live = live.min(self.live_from(v, setup));
            }
        }
        if live != u64::MAX {
            for (i, core) in self.cores.iter().enumerate() {
                if core.queue.is_empty() {
                    let behind = live.saturating_sub(core.clock);
                    stop = stop.min((core.clock + behind.div_ceil(step) * step, i));
                }
            }
        }
        let due = self.timers.peek().map_or(u64::MAX, |Reverse(t)| t.due);
        let mut applied = 0;
        for (i, core) in self.cores.iter_mut().enumerate() {
            // One step per key below the stop key and the due time.
            let end = (stop.0 + u64::from(i < stop.1)).min(due);
            if !core.queue.is_empty() || core.clock >= end {
                continue;
            }
            let n = (end - core.clock).div_ceil(step);
            core.clock += n * step;
            core.metrics.steal_attempts += n;
            core.metrics.idle_cycles += n * step;
            core.metrics.failed_steal_cycles += n * step;
            applied += n;
        }
        debug_assert!(applied > 0 || stop.1 == c, "an inert pick applied nothing");
        *iters += applied;
        (applied == 0 || (!self.fed && stop.0 < due)).then_some(stop.1)
    }

    /// The time model before core `c`'s turn (batch cut `batch`): the
    /// core idles until the event the turn would pop is visible, or,
    /// perturbed and empty, defers one steal in four by a recheck
    /// period. Returns whether it idled instead of taking the turn.
    fn idles_before_turn(&mut self, c: usize, batch: u32) -> bool {
        let core = &mut self.cores[c];
        let idle = match core.queue.peek(batch) {
            Some(ev) if ev.visible_at > core.clock => ev.visible_at - core.clock,
            None if kernel::may_steal(&self.cfg)
                && self.sched_rng.as_mut().is_some_and(|r| r.chance(1, 4)) =>
            {
                self.cfg.costs.idle_recheck
            }
            _ => return false,
        };
        core.clock += idle;
        core.metrics.idle_cycles += idle;
        true
    }

    /// Propagates the monitored steal-cost estimate to every core's
    /// stealing-queue (worthiness threshold of the time-left heuristic).
    fn sync_steal_estimates(&mut self) {
        let est = self.steal_est.get();
        for core in &mut self.cores {
            core.queue.set_steal_cost_estimate(est);
        }
    }
}

/// Core `c` of the simulator for one turn, as the scheduling kernel
/// sees it: time is the core's virtual clock, cost is added to it, and
/// a queue is reached by `&mut` access plus a modelled lock charge.
struct OnCore<'a> {
    rt: &'a mut SimRuntime,
    c: usize,
    /// This turn's per-color dispatch batch, shared by the run loop's
    /// peek and the pop: both walk the same rotation state, so
    /// disagreeing values would desync them.
    batch: u32,
}

impl CoreEnv for OnCore<'_> {
    fn state(&mut self) -> CoreState<'_> {
        let rt = &mut *self.rt;
        CoreState {
            core: self.c,
            metrics: &mut rt.cores[self.c].metrics,
            fault_rng: rt.fault_rng.as_mut(),
            cfg: &rt.cfg,
            steal_bufs: &mut rt.steal_bufs,
            life: &rt.doors.life,
        }
    }

    fn registry(&self) -> &HandlerRegistry {
        &self.rt.registry
    }

    /// An empty queue is seen without the lock. The run loop has idled
    /// the core until its next event is visible, and a stolen set runs
    /// whatever its visibility.
    fn pop(&mut self) -> Option<Event> {
        let (rt, c) = (&mut *self.rt, self.c);
        if rt.cores[c].queue.is_empty() {
            return None;
        }
        rt.lock(c, c, rt.cfg.costs.lock_acquire + rt.cfg.costs.queue_op);
        let ev = rt.cores[c].queue.pop(self.batch)?;
        rt.publish(c);
        Some(ev)
    }

    fn now(&self) -> u64 {
        self.rt.cores[self.c].clock
    }

    /// The stamp is the cost accumulated so far; the clock only moves
    /// in `finish_event`, so the handler reads its dispatch time.
    fn start_event(&mut self, ev: &Event) -> u64 {
        let (rt, c) = (&mut *self.rt, self.c);
        let mut exec = rt.cfg.costs.dispatch + ev.cost();
        // The continuation itself occupies a cache line.
        if let Some(cache) = &mut rt.cache {
            exec += cache.access(c, event_addr(ev.seq)).latency_cycles;
        }
        exec
    }

    fn finish_event(&mut self, mut exec: u64, color: Color, fx: Option<&CtxEffects>) -> u64 {
        let (rt, c) = (&mut *self.rt, self.c);
        if let Some(fx) = fx {
            exec += fx.charged;
            for t in &fx.touches {
                exec += rt.sweep(c, t.ds.base() + t.offset, t.len);
            }
        }
        let core = &mut rt.cores[c];
        core.clock += exec;
        core.in_flight = Some((color, core.clock));
        exec
    }

    fn schedule(&mut self, delay: u64, event: Event) {
        let (rt, c) = (&mut *self.rt, self.c);
        rt.doors.life.add_event();
        rt.cores[c].clock += rt.cfg.costs.registration;
        rt.arm_timer(rt.cores[c].clock + delay, event);
    }

    fn route(&mut self, ev: Event) {
        let (rt, c) = (&mut *self.rt, self.c);
        rt.doors.life.add_event();
        rt.cores[c].clock += rt.cfg.costs.registration;
        let owner = rt.doors.colors.owner_of(ev.color());
        rt.lock(owner, c, rt.cfg.costs.lock_acquire + rt.cfg.costs.queue_op);
        rt.push_to(owner, ev, rt.cores[c].clock);
    }

    fn steal_begin(&mut self, loads: &mut Vec<usize>) -> u64 {
        let (rt, c) = (&mut *self.rt, self.c);
        let t0 = rt.cores[c].clock;
        rt.cores[c].clock += rt.cfg.costs.steal_setup;
        rt.attempt_wait = 0;
        loads.clear();
        loads.extend(rt.cores.iter().map(|x| x.queue.len()));
        t0
    }

    fn perturb_victims(&mut self, victims: &mut [usize]) {
        if let Some(rng) = &mut self.rt.sched_rng {
            // Perturbed victim choice: visit candidates in a shuffled
            // order instead of the policy's canonical one.
            rng.shuffle(victims);
        }
    }

    /// Unlocked pre-screen of `can_be_stolen`: queue lengths, color
    /// counts and the stealing-queue are readable without the victim's
    /// lock (racily — the decision is re-validated under the lock by
    /// the steal itself). Without this, seven idle thieves polling a
    /// busy core would serialize it on futile lock acquisitions.
    fn worth_visiting(&self, v: usize) -> bool {
        self.rt.worth_visiting(v, self.rt.cores[self.c].clock)
    }

    /// Takes up to `budget` colors under one victim-lock hold, then
    /// absorbs them under our own lock, pricing both holds from what
    /// the queue reports it examined and moved. A budget of 1 is the
    /// classic algorithm, charge for charge; larger budgets (far-tier
    /// steals under [`crate::steal::StealPolicy::Hierarchical`])
    /// amortize the lock pair and the migration trip over several
    /// colors.
    fn migrate(&mut self, v: usize, budget: usize) -> Option<(u64, u64)> {
        let (rt, c) = (&mut *self.rt, self.c);
        let (k, time_left) = (rt.cfg.costs.clone(), rt.cfg.ws.time_left);
        let vin = rt.cores[v].in_flight_at(rt.cores[c].clock);
        let victim = &mut rt.cores[v].queue;
        // `construct_event_set` walks the victim's linked list; the
        // paper's measurements (Section II-C: 197 Kcycles on ~1000-event
        // queues at ~190 cycles per scanned event) show the traversal
        // effectively covers the whole queue, so that is what a legacy
        // steal is charged, bounded by `scan_cap_events` (the
        // pending-count early stop).
        let (sets, examined) = victim.steal_take(vin, time_left, budget, k.scan_cap_events);
        // Per element examined, then per (color, event) leaving the
        // victim and entering the thief.
        let (scan, unlink, link) = match rt.cfg.flavor {
            Flavor::Libasync => (
                k.scan_per_event,
                (0, k.migrate_per_event),
                (0, k.migrate_per_event),
            ),
            Flavor::Mely => (k.queue_op, (k.colorqueue_unlink, 0), (k.colorqueue_link, 0)),
        };
        let colors = sets.len() as u64;
        let events: u64 = sets.iter().map(|s| s.len() as u64).sum();
        rt.lock(
            v,
            c,
            k.lock_acquire + scan * examined + unlink.0 * colors + unlink.1 * events,
        );
        if sets.is_empty() {
            return None;
        }
        rt.lock(c, c, k.lock_acquire + link.0 * colors + link.1 * events);
        let now = rt.cores[c].clock;
        let mut cost = 0;
        for mut set in sets {
            rt.doors.colors.moved(set.color(), c);
            // Stolen events are visible from the steal's end at the
            // earliest, also to a later thief.
            for ev in set.events_mut() {
                ev.visible_at = ev.visible_at.max(now);
            }
            cost += set.cum_cost();
            rt.cores[c].queue.steal_absorb(set);
        }
        // Both inboxes, as the threaded thief drains them: a stolen
        // color's injected events queue behind the migrated ones, and
        // each inbox keeps holding only colors its core owns.
        if rt.fed {
            rt.drain_inbox(v, c);
            rt.drain_inbox(c, c);
        }
        rt.publish(v);
        rt.publish(c);
        Some((events, cost))
    }

    fn steal_end(&mut self, t0: u64, stolen: bool) -> u64 {
        let (rt, c) = (&mut *self.rt, self.c);
        if stolen {
            // Waits on contended locks are congestion (already
            // accounted as lock-wait time), not steal *work*: exclude
            // them from the duration fed to the time-left estimate,
            // like the runtime's profiling of "the time it takes to
            // steal one single event".
            return (rt.cores[c].clock - t0).saturating_sub(rt.attempt_wait);
        }
        // Nothing stealable anywhere: pause before retrying.
        rt.cores[c].clock += rt.cfg.costs.idle_recheck;
        let wasted = rt.cores[c].clock - t0;
        rt.cores[c].metrics.idle_cycles += wasted;
        wasted
    }

    fn record_steal_cost(&mut self, cycles: u64) {
        self.rt.steal_est.record(cycles);
        self.rt.sync_steal_estimates();
    }
}

/// What [`crate::exec::Runtime`] leaves to the simulator.
impl SimRuntime {
    /// Whether nothing holds `color` on `core`, for
    /// [`crate::exec::ColorMap::pin`]: no event of it is queued there or
    /// waits in its inbox. `Some` holds the inbox lock, so that no
    /// producer pushes the color there before the pin moves it.
    pub(crate) fn vacant(&self, core: usize, color: Color) -> Option<impl Sized + '_> {
        if self.cores[core].queue.holds(color) {
            return None;
        }
        self.doors.cores[core].inbox.lock_unless_holds(color)
    }

    pub(crate) fn register(&mut self, ev: Event) {
        self.doors.life.add_event();
        let owner = self.doors.colors.owner_of(ev.color());
        self.push_to(owner, ev, 0);
    }

    /// Clocks and metrics accumulate across calls: the report is
    /// cumulative.
    pub(crate) fn run(&mut self) -> RunReport {
        self.fed = Arc::strong_count(&self.doors) > 1;
        // Pairs with the release of a dropped injector's last reference:
        // whatever it pushed is seen below.
        fence(Ordering::Acquire);
        self.fed |= self.doors.pending();
        let doors = Arc::clone(&self.doors);
        let _running = doors.life.run();
        let mut iters: u64 = 0;
        let mut last_progress = (0u64, 0u64); // (iters, events at checkpoint)
        loop {
            iters += 1;
            #[cfg(test)]
            {
                self.passes += 1;
            }
            if iters >= last_progress.0 + WATCHDOG_ITERS {
                // Livelock watchdog: virtual time always advances, but if
                // tens of millions of scheduling decisions pass without a
                // single event executing, something is structurally wrong.
                let processed: u64 = self.cores.iter().map(|c| c.metrics.events_processed).sum();
                if processed == last_progress.1 {
                    panic!(
                        "simulation livelock: no event executed between \
                         iterations {} and {iters}",
                        last_progress.0
                    );
                }
                last_progress = (iters, processed);
            }
            if doors.life.stop_requested() {
                break;
            }
            self.drain_inboxes();
            // Deliver timers that are due with respect to the slowest
            // core (they only carry a visibility floor, so delivering
            // early is harmless; this just keeps the heap small).
            if !self.timers.is_empty() {
                let min_clock = self.cores.iter().map(|c| c.clock).min().unwrap_or(0);
                self.deliver_timers(min_clock);
            }

            // Pick the earliest actionable core. An idle core may only
            // attempt steals while its clock has not raced past every
            // core that actually holds work (a real idle core stops
            // spinning the moment work appears; letting its virtual
            // clock run ahead would delay any set it later steals).
            let (mut total, mut busy_horizon) = (0, None);
            for core in &self.cores {
                if !core.queue.is_empty() {
                    total += core.queue.len();
                    busy_horizon = busy_horizon.max(Some(core.clock.max(core.lock_free_at)));
                }
            }
            let limit = busy_horizon.map(|h| h + 4 * self.cfg.costs.idle_recheck);
            let best = if self.sched_rng.is_none() {
                self.earliest_actionable(total, limit)
            } else {
                // Perturbed core pick: any actionable core may step next,
                // not just the earliest clock — this shifts *when* each
                // core runs (and checks for steals) relative to its
                // peers while every legal choice still makes progress.
                let actionable: Vec<usize> = (0..self.cores.len())
                    .filter(|&i| self.actionable(i, total, limit))
                    .collect();
                let n = actionable.len();
                let rng = self.sched_rng.as_mut().filter(|_| n > 0);
                rng.map(|rng| actionable[rng.pick(n)])
            };
            match best {
                Some(c) => {
                    let c = if self.sched_rng.is_some() {
                        c
                    } else {
                        match self.skip_inert_attempts(c, &mut iters) {
                            Some(next) => next,
                            None => continue,
                        }
                    };
                    // Batch-cut jitter: a random 1..=batch_threshold.
                    let threshold = self.cfg.batch_threshold;
                    let batch = match &mut self.sched_rng {
                        Some(rng) => rng.pick(threshold as usize) as u32 + 1,
                        None => threshold,
                    };
                    if !self.idles_before_turn(c, batch) {
                        kernel::turn(&mut OnCore { rt: self, c, batch });
                    }
                }
                None => {
                    // Nothing runnable: deliver the earliest timer batch,
                    // or finish.
                    let Some(Reverse(next)) = self.timers.peek() else {
                        // Queues and timers are empty: everything
                        // absorbed so far has executed.
                        if !doors.life.idle() {
                            // An external producer holds a keepalive (or
                            // has pushed events we have not drained yet):
                            // wait for it instead of returning. Real
                            // waiting, not scheduling work — keep it out
                            // of the livelock watchdog's iteration count.
                            iters -= 1;
                            std::thread::yield_now();
                            continue;
                        }
                        break;
                    };
                    self.deliver_timers(next.due);
                }
            }
        }
        for core in &mut self.cores {
            core.metrics.registered += core.queue.take_pushes();
        }
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use crate::exec::{Engine, ExecKind, Executor, Runtime};
    use crate::runtime::RuntimeBuilder;
    use crate::steal::{StealPolicy, WsPolicy};

    fn sim(flavor: Flavor, ws: WsPolicy, cores: usize) -> Runtime {
        RuntimeBuilder::new()
            .cores(cores)
            .flavor(flavor)
            .workstealing(ws)
            .build(ExecKind::Sim)
    }

    #[test]
    fn drains_all_events_without_ws() {
        for flavor in [Flavor::Libasync, Flavor::Mely] {
            let mut rt = sim(flavor, WsPolicy::off(), 4);
            for i in 0..100u16 {
                rt.register(Event::new(Color::new(i), 100));
            }
            let r = rt.run();
            assert_eq!(r.events_processed(), 100, "{flavor:?}");
            assert_eq!(r.total().steals, 0);
        }
    }

    #[test]
    fn hash_dispatch_spreads_colors() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 4);
        for i in 0..8u16 {
            rt.register(Event::new(Color::new(i), 10));
        }
        let r = rt.run();
        for c in r.per_core() {
            assert_eq!(c.events_processed, 2, "color % 4 spreads evenly");
        }
    }

    #[test]
    fn pinned_registration_creates_imbalance_then_ws_fixes_it() {
        let mut rt = sim(Flavor::Mely, WsPolicy::base(), 8);
        for i in 0..64u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 50_000), 0);
        }
        let r = rt.run();
        assert_eq!(r.events_processed(), 64);
        assert!(r.total().steals > 0, "steals must happen");
        let active = r
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 4, "load must spread (got {active} active cores)");
    }

    #[test]
    fn no_ws_means_pinned_stays_serial() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 8);
        for i in 0..64u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 50_000), 0);
        }
        let r = rt.run();
        assert_eq!(r.per_core()[0].events_processed, 64);
    }

    #[test]
    fn delayed_events_fire_at_due_time() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 100).with_action(|ctx| {
            ctx.register_after(1_000_000, Event::new(Color::new(1), 100));
        }));
        let r = rt.run();
        assert_eq!(r.events_processed(), 2);
        assert!(r.wall_cycles() >= 1_000_000);
    }

    #[test]
    fn a_core_idles_until_its_routed_event_is_visible() {
        // Core 0's 1 M-cycle event routes one to core 1, idle at clock 0
        // with stealing off: core 1 idles until the route completes.
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        let ran_at = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ran_at);
        let routed = Event::new(Color::new(3), 10)
            .with_action(move |ctx| seen.store(ctx.now(), Ordering::Relaxed));
        let first = Event::new(Color::new(2), 1_000_000).with_action(|ctx| ctx.register(routed));
        rt.register_pinned(first, 0);
        let r = rt.run();
        let (core, now) = (r.per_core()[1], ran_at.load(Ordering::Relaxed));
        assert_eq!(core.events_processed, 1);
        assert!(core.idle_cycles >= 1_000_000, "idled {}", core.idle_cycles);
        assert!(now >= core.idle_cycles, "ran at {now}, before the route");
    }

    #[test]
    fn stop_runtime_halts_early() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 10).with_action(|ctx| ctx.stop_runtime()));
        for _ in 0..50 {
            rt.register(Event::new(Color::new(3), 1_000_000_000));
        }
        let r = rt.run();
        assert!(r.events_processed() < 51);
    }

    #[test]
    fn same_color_is_serialized_on_one_core() {
        // All events share a color: exactly one core may process them.
        let mut rt = sim(Flavor::Mely, WsPolicy::base(), 8);
        for _ in 0..32 {
            rt.register(Event::new(Color::new(5), 10_000));
        }
        let r = rt.run();
        let active = r
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert_eq!(active, 1, "single color must stay serial");
    }

    #[test]
    fn mely_steals_are_cheaper_than_legacy() {
        // Same unbalanced load on both flavors with base WS; Mely's O(1)
        // detach must beat Libasync's scan-based extraction.
        let cost = |flavor: Flavor| {
            let mut rt = sim(flavor, WsPolicy::base(), 8);
            for i in 0..2_000u16 {
                rt.register_pinned(Event::new(Color::new(i.wrapping_add(1)), 100), 0);
            }
            let r = rt.run();
            r.avg_steal_cycles().unwrap_or(f64::INFINITY)
        };
        let legacy = cost(Flavor::Libasync);
        let mely = cost(Flavor::Mely);
        assert!(
            mely < legacy,
            "mely steals ({mely:.0} cy) must be cheaper than legacy ({legacy:.0} cy)"
        );
    }

    #[test]
    fn time_left_refuses_unworthy_colors() {
        // Tiny events: not worth stealing once the estimate is seeded.
        let mut rt = sim(Flavor::Mely, WsPolicy::base().with_time_left(true), 4);
        for i in 0..100u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 10), 0);
        }
        let r = rt.run();
        // The initial estimate (default > 10) classifies every color as
        // unworthy: no steal should happen at all.
        assert_eq!(r.total().steals, 0, "unworthy colors must not be stolen");
    }

    #[test]
    fn cache_tracking_reports_misses() {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .track_cache(true)
            .build(ExecKind::Sim);
        let ds = rt.alloc_dataset(64 * 100);
        rt.register(Event::new(Color::new(1), 100).with_action(move |ctx| ctx.touch(&ds)));
        let r = rt.run();
        assert!(r.total().l2_misses > 0);
        assert!(r.total().mem_stall_cycles > 0);
    }

    #[test]
    fn reports_accumulate_across_runs() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 100));
        assert_eq!(rt.run().events_processed(), 1);
        rt.register(Event::new(Color::new(1), 100));
        assert_eq!(rt.run().events_processed(), 2);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let run = || {
            let mut rt = sim(Flavor::Mely, WsPolicy::improved(), 8);
            for i in 0..500u16 {
                rt.register_pinned(
                    Event::new(Color::new(i + 1), (i as u64 % 7) * 1_000 + 50),
                    (i as usize) % 2,
                );
            }
            let r = rt.run();
            (
                r.fingerprint(),
                r.events_processed(),
                r.wall_cycles(),
                r.total().steals,
                r.total().lock_wait_cycles,
            )
        };
        assert_eq!(run(), run());
    }

    /// The simulator a runtime built for it holds.
    fn engine(rt: &mut Runtime) -> &mut SimRuntime {
        match &mut rt.engine {
            Engine::Sim(e) => e,
            Engine::Threaded(_) => unreachable!("a simulator runtime"),
        }
    }

    /// Registers one round of the paper's unbalanced microbenchmark: `n`
    /// independent colors on the cores `pin` names, 2 % of them long
    /// (10–50 K cycles) and the rest 100 cycles.
    fn fork(rt: &mut Runtime, rng: &mut ScheduleRng, n: usize, pin: impl Fn(usize) -> usize) {
        for i in 0..n {
            let cost = if rng.chance(2, 100) {
                10_000 + rng.pick(40_001) as u64
            } else {
                100
            };
            rt.register_pinned(Event::new(Color::new(1 + i as u16), cost), pin(i));
        }
    }

    /// A 2 000-event fork on core 0.
    fn fork_on_core_0(rt: &mut Runtime, rng: &mut ScheduleRng) {
        fork(rt, rng, 2_000, |_| 0);
    }

    /// An event that re-arms itself `left` more times, `delay` apart.
    fn ticker(left: usize, delay: u64) -> Event {
        Event::new(Color::new(65_000), 500).with_action(move |ctx| {
            if left > 0 {
                ctx.register_after(delay, ticker(left - 1, delay));
            }
        })
    }

    /// Runs `rounds` rounds of `load`, drawing from `seed`, on runtimes
    /// from `build` with the inert-attempt skip on and off, and asserts
    /// that each round reports the same per-core metrics, wall clock and
    /// fingerprint. Returns whether the skip saved loop passes.
    #[must_use]
    fn skip_is_exact(
        seed: u64,
        rounds: usize,
        build: impl Fn() -> Runtime,
        load: impl Fn(&mut Runtime, &mut ScheduleRng),
    ) -> bool {
        let outcome = |skip| {
            let (mut rt, mut rng) = (build(), ScheduleRng::new(seed));
            engine(&mut rt).skip_inert = skip;
            let reports: Vec<_> = (0..rounds)
                .map(|_| {
                    load(&mut rt, &mut rng);
                    let r = rt.run();
                    (r.per_core().to_vec(), r.wall_cycles(), r.fingerprint())
                })
                .collect();
            (reports, engine(&mut rt).passes)
        };
        let ((on, skipping), (off, turning)) = (outcome(true), outcome(false));
        assert_eq!(on, off, "seed {seed}");
        assert!(
            skipping <= turning,
            "seed {seed}: {skipping} passes vs {turning}"
        );
        skipping < turning
    }

    const WS_CONFIGS: [(Flavor, WsPolicy); 4] = [
        (Flavor::Mely, WsPolicy::base()),
        (Flavor::Mely, WsPolicy::base().with_time_left(true)),
        (Flavor::Mely, WsPolicy::improved()),
        (Flavor::Libasync, WsPolicy::base()),
    ];

    #[test]
    fn skipping_inert_attempts_matches_their_turns_on_a_pinned_fork() {
        for (flavor, ws) in WS_CONFIGS {
            let build = || sim(flavor, ws, 8);
            assert!(skip_is_exact(1, 2, build, fork_on_core_0));
        }
    }

    #[test]
    fn skipping_inert_attempts_matches_their_turns_at_the_cuts() {
        let build = || sim(Flavor::Mely, WsPolicy::improved(), 8);
        // A timer falls due every 25 K cycles while idle cores skip.
        assert!(skip_is_exact(2, 2, build, |rt, rng| {
            rt.register(ticker(40, 25_000));
            fork_on_core_0(rt, rng);
        }));
        // Two busy cores.
        let on_cores_0_and_1 = |rt: &mut Runtime, rng: &mut ScheduleRng| {
            fork(rt, rng, 2_000, |i| i % 2);
        };
        assert!(skip_is_exact(3, 2, build, on_cores_0_and_1));
        // Core 1's long event leaves it idle past the busy horizon's
        // slack, where the loop may not pick it.
        assert!(skip_is_exact(4, 2, build, |rt, rng| {
            rt.register_pinned(Event::new(Color::new(65_001), 5_000_000), 1);
            fork_on_core_0(rt, rng);
        }));
        // Tiered victims and multi-color budgets.
        let tiered = || {
            RuntimeBuilder::new()
                .cores(8)
                .flavor(Flavor::Mely)
                .workstealing(WsPolicy::improved())
                .steal_policy(StealPolicy::Hierarchical)
                .build(ExecKind::Sim)
        };
        assert!(skip_is_exact(5, 2, tiered, fork_on_core_0));
    }

    /// `MELY_FUZZ_SEEDS` widens the sweep (default 16; CI uses 64).
    #[test]
    fn skipping_inert_attempts_matches_their_turns_on_random_loads() {
        let seeds: u64 = std::env::var("MELY_FUZZ_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        let mut saved = 0;
        for seed in 0..seeds {
            let mut draw = ScheduleRng::new(seed);
            let cores = 2 + draw.pick(7);
            let (flavor, ws) = WS_CONFIGS[draw.pick(WS_CONFIGS.len())];
            let policy = [StealPolicy::Flat, StealPolicy::Hierarchical][draw.pick(2)];
            let busy = 1 + draw.pick(cores);
            let long_pct = draw.pick(30) as u32;
            let delay = 1_000 + draw.pick(100_000) as u64;
            let build = || {
                RuntimeBuilder::new()
                    .cores(cores)
                    .flavor(flavor)
                    .workstealing(ws)
                    .steal_policy(policy)
                    .build(ExecKind::Sim)
            };
            saved += u64::from(skip_is_exact(seed, 2, build, |rt, rng| {
                rt.register(ticker(rng.pick(20), delay));
                for i in 0..200 + rng.pick(800) {
                    let cost = if rng.chance(long_pct, 100) {
                        1_000 + rng.pick(100_000) as u64
                    } else {
                        10 + rng.pick(500) as u64
                    };
                    rt.register_pinned(Event::new(Color::new(1 + i as u16), cost), rng.pick(busy));
                }
            }));
        }
        assert!(
            saved * 2 > seeds,
            "the skip saved passes on {saved} of {seeds} seeds"
        );
    }

    #[test]
    fn an_unbalanced_fork_takes_one_loop_pass_per_event() {
        // The benchmark's scenario: 20 000-event forks pinned on core 0
        // of eight under improved WS. Running each inert steal attempt
        // as a turn takes about 1.9 passes per event.
        let mut rt = sim(Flavor::Mely, WsPolicy::improved(), 8);
        let mut rng = ScheduleRng::new(1);
        let mut events = 0;
        for _ in 0..2 {
            fork(&mut rt, &mut rng, 20_000, |_| 0);
            events = rt.run().events_processed();
        }
        let per_event = engine(&mut rt).passes as f64 / events as f64;
        assert!(per_event <= 1.05, "{per_event:.3} loop passes per event");
    }
}
