//! The scheduling kernel: one turn of a core, written once for both
//! executors.
//!
//! The paper defines one runtime algorithm — pop a color's event, run
//! its handler, and when idle `construct_core_set` → `can_be_stolen` →
//! `choose_color_to_steal` → `migrate` (Figure 2). [`turn`] is that
//! algorithm plus this repository's admission, fault and accounting
//! rules, monomorphised over a per-core [`CoreEnv`]. The environment
//! supplies only what genuinely differs between the simulator and real
//! threads: the clock and an event's cost (declared vs. real time), how
//! a queue is reached, and where a timer or a routed event goes. The
//! victim shuffle is the one perturbation hook. The simulator's time
//! model (an event queued but not visible yet) and its other draws, and
//! the threaded executor's inbox and waiting, stay in the drivers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::color::Color;
use crate::ctx::{Ctx, CtxEffects};
use crate::event::Event;
use crate::exec::Liveness;
use crate::fault::{kind_of_panic, Fault, FaultKind, InjectedPanicMarker};
use crate::fuzz::ScheduleRng;
use crate::handler::HandlerRegistry;
use crate::metrics::CoreMetrics;
use crate::runtime::Resolved;

/// A pending delayed registration, ordered by due time then
/// registration order (both executors keep a min-heap of these).
pub(crate) struct TimerEntry {
    pub due: u64,
    pub seq: u64,
    pub event: Event,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The scheduling state every core has, borrowed from wherever its
/// executor keeps it.
pub(crate) struct CoreState<'a> {
    pub core: usize,
    pub metrics: &'a mut CoreMetrics,
    /// The fault-injection draw stream (`Some` iff a plan is armed).
    pub fault_rng: Option<&'a mut ScheduleRng>,
    /// What the builder resolved: policies, machine, admission, faults.
    pub cfg: &'a Resolved,
    pub steal_bufs: &'a mut StealBufs,
    /// The run's liveness record, where a handler's stop request goes.
    pub life: &'a Liveness,
}

/// What one steal attempt fills, kept by the executor so that an
/// attempt allocates nothing once the buffers are warm.
#[derive(Default)]
pub(crate) struct StealBufs {
    /// One pending-work estimate per running core.
    loads: Vec<usize>,
    /// The policy's victim order.
    victims: Vec<usize>,
}

/// One core of one executor, as the kernel sees it.
pub(crate) trait CoreEnv {
    fn state(&mut self) -> CoreState<'_>;
    /// Where this executor keeps its handlers (it alone registers them).
    fn registry(&self) -> &HandlerRegistry;

    /// Pops the core's next event under its own lock.
    fn pop(&mut self) -> Option<Event>;
    /// Runs after every dispatched event, whatever became of it, before
    /// the run's liveness record counts the event done.
    fn after_dispatch(&mut self) {}

    /// The time a handler reads through [`Ctx::now`].
    fn now(&self) -> u64;
    /// Opens a dispatch and returns the stamp for `finish_event`; the
    /// simulator pays the dispatch and the declared cost here.
    fn start_event(&mut self, ev: &Event) -> u64;
    /// The cycles the whole dispatch took; the simulator first pays the
    /// handler's charges and touches (`fx` is `None` when it panicked).
    fn finish_event(&mut self, stamp: u64, color: Color, fx: Option<&CtxEffects>) -> u64;

    /// Arms a timer `delay` cycles from now.
    fn schedule(&mut self, delay: u64, ev: Event);
    /// Sends a handler-registered event to the core owning its color.
    fn route(&mut self, ev: Event);

    /// Opens a steal attempt: fills `loads` with one pending-work
    /// estimate per running core and returns the start stamp.
    fn steal_begin(&mut self, loads: &mut Vec<usize>) -> u64;
    /// The perturbation point between victim choice and the visits.
    fn perturb_victims(&mut self, _victims: &mut [usize]) {}
    /// Cheap unlocked check that visiting `v` can pay off (idle cores
    /// poll every victim, so this is the hot part of a futile attempt).
    fn worth_visiting(&self, v: usize) -> bool;
    /// Moves up to `budget` whole colors (and their ownership) from
    /// `v`'s queue into this core's, under the executor's locking.
    /// Returns the events and declared cost moved, `None` when nothing
    /// was stealable.
    fn migrate(&mut self, v: usize, budget: usize) -> Option<(u64, u64)>;
    /// Closes the attempt opened at `t0`: the cycles of steal work when
    /// `stolen`, of wasted time otherwise.
    fn steal_end(&mut self, t0: u64, stolen: bool) -> u64;
    /// Feeds one monitored steal duration to the runtime's estimate
    /// ([`crate::cost::Ewma`]), the time-left heuristic's threshold.
    fn record_steal_cost(&mut self, cycles: u64);
}

/// Whether an idle core looks for work elsewhere at all: stealing is on
/// and there is another core to steal from.
pub(crate) fn may_steal(cfg: &Resolved) -> bool {
    cfg.ws.enabled && cfg.cores > 1
}

/// One turn of a core: its own next event, else — when it
/// [`may_steal`] — one steal attempt whose catch runs at once.
/// Otherwise another idle core could re-steal the set before its holder
/// ever ran it (on the simulator, lower-clock idle cores would pass it
/// back and forth forever). Returns whether an event ran.
pub(crate) fn turn<E: CoreEnv>(env: &mut E) -> bool {
    let ev = match env.pop() {
        Some(ev) => ev,
        None => {
            if !may_steal(env.state().cfg) || !steal_attempt(env) {
                return false;
            }
            // None only when another thief took the set back first.
            let Some(ev) = env.pop() else {
                return false;
            };
            ev
        }
    };
    dispatch_one(env, ev);
    env.after_dispatch();
    env.state().life.event_done();
    true
}

/// Counts one event lost to a quarantined color.
fn shed_by_fault(m: &mut CoreMetrics, ev: &Event) {
    m.shed_by_fault += 1;
    if ev.carries_request {
        m.failed_requests += 1;
    }
}

/// Executes one popped event: admission-slot release, quarantine gate,
/// fault-plan draws, contained handler run, then either the fault
/// record and the color's quarantine or the completion accounting and
/// the handler's buffered effects.
fn dispatch_one<E: CoreEnv>(env: &mut E, mut ev: Event) {
    let color = ev.color();
    let st = env.state();
    let (me, faults) = (st.core, &st.cfg.faults);
    if ev.color_counted {
        // The admission boundary claimed a per-color in-flight slot for
        // this event; dispatching it frees the slot.
        st.cfg.admission.release_color(color.value() as usize);
    }
    // Lazy quarantine drain: a poisoned color's events already queued
    // (or arriving via timers and steals) are discarded at pop time, so
    // the queues shrink through their normal machinery.
    if faults.is_quarantined(color) {
        shed_by_fault(st.metrics, &ev);
        return;
    }
    // Seeded fault injection: the drop and panic decisions each consume
    // one draw per dispatch whenever a plan is armed (even at rate
    // zero), so changing one rate never shifts the other's sites.
    let mut inject_panic = false;
    if let (Some(plan), Some(rng)) = (faults.plan, st.fault_rng) {
        if rng.chance(plan.drop_per_million, 1_000_000) {
            st.metrics
                .note_fault(Some(color), FaultKind::InjectedDrop.code(), ev.seq);
            if ev.carries_request {
                st.metrics.failed_requests += 1;
            }
            faults.record(Fault {
                color: Some(color),
                handler: ev.handler(),
                kind: FaultKind::InjectedDrop,
            });
            return;
        }
        inject_panic = rng.chance(plan.panic_per_million, 1_000_000);
    }

    // The handler's effects are buffered and applied only on normal
    // return: a panicking execution discards them wholesale, so a fault
    // never emits half a fan-out.
    let stamp = env.start_event(&ev);
    let mut fx = CtxEffects::default();
    let action = ev.take_action();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            std::panic::panic_any(InjectedPanicMarker);
        }
        if let Some(action) = action {
            action(&mut Ctx::new(me, env.now(), &mut fx));
        }
    }))
    .err();
    // Time up to and including a faulting dispatch is real: it is
    // charged, but counts neither an event nor a completion.
    let elapsed = env.finish_event(stamp, color, unwound.is_none().then_some(&fx));
    let st = env.state();
    let faults = &st.cfg.faults;
    st.metrics.busy_cycles += elapsed;
    if let Some(payload) = unwound {
        let kind = kind_of_panic(payload.as_ref());
        st.metrics.note_fault(Some(color), kind.code(), ev.seq);
        if ev.carries_request {
            st.metrics.failed_requests += 1;
        }
        faults.record(Fault {
            color: Some(color),
            handler: ev.handler(),
            kind,
        });
        if faults.quarantined.quarantine(color) {
            st.metrics.quarantined_colors += 1;
        }
        return;
    }
    // Recorded before the event counts: should `record` panic (an id
    // from another registry), the event counts as neither an event nor
    // a completion in what the dying worker publishes.
    if let Some(h) = ev.handler() {
        env.registry().record(h, elapsed);
    }
    let st = env.state();
    st.metrics.events_processed += 1;
    st.metrics.note_completion(color, ev.seq);
    for latency in fx.completions() {
        st.metrics.completed_requests += 1;
        st.metrics.latency.record(latency);
    }
    st.metrics.failed_requests += fx.failed;

    for (mut delay, ev2) in fx.delayed {
        let st = env.state();
        if let (Some(plan), Some(rng)) = (st.cfg.faults.plan, st.fault_rng) {
            // Injected late timer: the delay stretches, the event still
            // fires. Fingerprint coverage comes from the shifted
            // completion order, not a fault record.
            if rng.chance(plan.timer_spike_per_million, 1_000_000) {
                delay += plan.timer_spike_cycles;
            }
        }
        env.schedule(delay, ev2);
    }
    for ev2 in fx.registrations {
        let st = env.state();
        if st.cfg.faults.is_quarantined(ev2.color()) {
            // A surviving handler fanned out into a poisoned color:
            // shed at the registration boundary rather than queue work
            // the drain would discard anyway.
            shed_by_fault(st.metrics, &ev2);
            continue;
        }
        env.route(ev2);
    }
    if fx.stop {
        env.state().life.request_stop();
    }
}

/// One full steal attempt (Figure 2): the policy's victims are visited
/// in order with the policy's per-victim budget; the first successful
/// migration is accounted (steal, tier, duration) and feeds the
/// steal-cost estimate. Returns whether events were stolen.
fn steal_attempt<E: CoreEnv>(env: &mut E) -> bool {
    // The buffers leave the state for the attempt, so the visits below
    // can borrow the env, and go back with their capacity.
    let StealBufs {
        mut loads,
        mut victims,
    } = std::mem::take(env.state().steal_bufs);
    let t0 = env.steal_begin(&mut loads);
    let st = env.state();
    let me = st.core;
    st.metrics.steal_attempts += 1;
    let cfg = st.cfg;
    cfg.steal_policy
        .victims(me, &loads, cfg.ws, &cfg.domains, &mut victims);
    env.perturb_victims(&mut victims);
    let mut stolen = false;
    for &v in &victims {
        if v == me || v >= loads.len() || !env.worth_visiting(v) {
            continue;
        }
        let cfg = env.state().cfg;
        let budget = cfg.steal_policy.steal_budget(me, v, &cfg.domains);
        let Some((events, cost)) = env.migrate(v, budget) else {
            continue;
        };
        let dur = env.steal_end(t0, true);
        let st = env.state();
        st.metrics.steals += 1;
        st.metrics.steal_cycles += dur;
        st.metrics.stolen_events += events;
        st.metrics.stolen_cost_cycles += cost;
        st.metrics.note_steal_tier(st.cfg.domains.tier_of(me, v));
        env.record_steal_cost(dur);
        stolen = true;
        break;
    }
    if !stolen {
        let wasted = env.steal_end(t0, false);
        env.state().metrics.failed_steal_cycles += wasted;
    }
    *env.state().steal_bufs = StealBufs { loads, victims };
    stolen
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    use crate::admission::QueueLimits;
    use crate::fault::FaultCtl;
    use crate::fuzz::FaultPlan;
    use crate::runtime::RuntimeBuilder;
    use crate::steal::WsPolicy;

    /// An executor-free environment whose clock never moves: an event
    /// costs its declaration plus its handler's charge, effects are
    /// recorded as `(delay, color)` / color, the core's queue is `queue`,
    /// and a steal takes `victim`.
    struct Recording {
        m: CoreMetrics,
        cfg: Resolved,
        registry: HandlerRegistry,
        rng: Option<ScheduleRng>,
        timers: Vec<(u64, u16)>,
        routed: Vec<u16>,
        life: Liveness,
        queue: VecDeque<Event>,
        victim: Option<Event>,
        after_dispatch: u64,
        steal_bufs: StealBufs,
    }

    impl Recording {
        fn new(cfg: Resolved, rng: Option<ScheduleRng>) -> Self {
            Recording {
                m: CoreMetrics::default(),
                cfg,
                registry: HandlerRegistry::new(),
                rng,
                timers: Vec::new(),
                routed: Vec::new(),
                life: Liveness::default(),
                queue: VecDeque::new(),
                victim: None,
                after_dispatch: 0,
                steal_bufs: StealBufs::default(),
            }
        }
    }

    impl CoreEnv for Recording {
        fn state(&mut self) -> CoreState<'_> {
            CoreState {
                core: 0,
                metrics: &mut self.m,
                fault_rng: self.rng.as_mut(),
                cfg: &self.cfg,
                steal_bufs: &mut self.steal_bufs,
                life: &self.life,
            }
        }
        fn registry(&self) -> &HandlerRegistry {
            &self.registry
        }
        fn pop(&mut self) -> Option<Event> {
            self.queue.pop_front()
        }
        fn after_dispatch(&mut self) {
            self.after_dispatch += 1;
        }
        fn now(&self) -> u64 {
            0
        }
        fn start_event(&mut self, ev: &Event) -> u64 {
            ev.cost()
        }
        fn finish_event(&mut self, stamp: u64, _: Color, fx: Option<&CtxEffects>) -> u64 {
            stamp + fx.map_or(0, |fx| fx.charged)
        }
        fn schedule(&mut self, delay: u64, ev: Event) {
            self.timers.push((delay, ev.color().value()));
        }
        fn route(&mut self, ev: Event) {
            self.routed.push(ev.color().value());
        }
        fn steal_begin(&mut self, loads: &mut Vec<usize>) -> u64 {
            loads.clear();
            loads.extend([0, 5]);
            0
        }
        fn worth_visiting(&self, _: usize) -> bool {
            self.victim.is_some()
        }
        fn migrate(&mut self, _: usize, _: usize) -> Option<(u64, u64)> {
            let ev = self.victim.take()?;
            let cost = ev.cost();
            self.queue.push_back(ev);
            Some((1, cost))
        }
        fn steal_end(&mut self, _: u64, _: bool) -> u64 {
            777
        }
        fn record_steal_cost(&mut self, _: u64) {}
    }

    /// A request-carrying event of color 7, cost 100, seq 42, whose
    /// handler charges 30, completes one request, fans out to colors 8
    /// and 9 (the latter carrying a request), arms a 1 000-cycle timer
    /// on color 10 and finally runs `tail`.
    fn event(tail: fn(&mut Ctx<'_>)) -> Event {
        let mut ev = Event::new(Color::new(7), 100).with_action(move |ctx| {
            ctx.charge(30);
            ctx.complete_request(64);
            ctx.register(Event::new(Color::new(8), 1));
            let mut carried = Event::new(Color::new(9), 1);
            carried.carries_request = true;
            ctx.register(carried);
            ctx.register_after(1_000, Event::new(Color::new(10), 1));
            tail(ctx);
        });
        ev.seq = 42;
        ev.carries_request = true;
        ev
    }

    /// What a completed `event` leaves in the counters.
    fn completed() -> CoreMetrics {
        let mut m = CoreMetrics {
            events_processed: 1,
            busy_cycles: 130,
            completed_requests: 1,
            ..CoreMetrics::default()
        };
        m.latency.record(64);
        m.note_completion(Color::new(7), 42);
        m
    }

    /// What a fault of `kind` on `event` leaves in the counters.
    fn faulted(kind: FaultKind, busy_cycles: u64, quarantined_colors: u64) -> CoreMetrics {
        let mut m = CoreMetrics {
            busy_cycles,
            failed_requests: 1,
            quarantined_colors,
            ..CoreMetrics::default()
        };
        m.note_fault(Some(Color::new(7)), kind.code(), 42);
        m
    }

    /// The identical `CoreMetrics` deltas and effects both drivers
    /// produce for each dispatch rule, checked with no executor.
    #[test]
    fn dispatch_rules_hold_without_an_executor() {
        #[derive(Clone, Copy)]
        struct Case {
            name: &'static str,
            /// Per-million rates of (drop, panic, timer spike).
            rates: Option<(u32, u32, u32)>,
            poisoned: Option<u16>,
            tail: fn(&mut Ctx<'_>),
            want: CoreMetrics,
            routed: &'static [u16],
            timers: &'static [(u64, u16)],
            stopped: bool,
        }
        const ALWAYS: u32 = 1_000_000;
        let done = Case {
            name: "completion applies every buffered effect",
            rates: None,
            poisoned: None,
            tail: |ctx| ctx.stop_runtime(),
            want: completed(),
            routed: &[8, 9],
            timers: &[(1_000, 10)],
            stopped: true,
        };
        let lost = Case {
            tail: |_| panic!("boom"),
            routed: &[],
            timers: &[],
            stopped: false,
            ..done
        };
        let cases = [
            done,
            Case {
                name: "a quarantined color's event is shed at pop",
                poisoned: Some(7),
                want: CoreMetrics {
                    shed_by_fault: 1,
                    failed_requests: 1,
                    ..CoreMetrics::default()
                },
                ..lost
            },
            Case {
                name: "an injected drop loses the event, not the color",
                rates: Some((ALWAYS, 0, 0)),
                want: faulted(FaultKind::InjectedDrop, 0, 0),
                ..lost
            },
            Case {
                name: "a panic discards the effects and quarantines",
                want: faulted(FaultKind::HandlerPanic(String::new()), 100, 1),
                ..lost
            },
            Case {
                name: "an injected panic takes the containment path",
                rates: Some((0, ALWAYS, 0)),
                tail: |_| {},
                want: faulted(FaultKind::InjectedPanic, 100, 1),
                ..lost
            },
            Case {
                name: "a timer spike stretches the delay",
                rates: Some((0, 0, ALWAYS)),
                timers: &[(1_500, 10)],
                ..done
            },
            Case {
                name: "fan-out into a quarantined color is shed",
                poisoned: Some(9),
                want: CoreMetrics {
                    shed_by_fault: 1,
                    failed_requests: 1,
                    ..completed()
                },
                routed: &[8],
                ..done
            },
        ];
        for case in cases {
            let plan = case.rates.map(|(drop, panic, spike)| FaultPlan {
                seed: 9,
                panic_per_million: panic,
                drop_per_million: drop,
                timer_spike_per_million: spike,
                timer_spike_cycles: 500,
            });
            let mut builder = RuntimeBuilder::new()
                .cores(2)
                .workstealing(WsPolicy::base())
                .queue_limits(QueueLimits::default().per_color_events(4));
            if let Some(plan) = plan {
                builder = builder.fault_plan(plan);
            }
            let mut env = Recording::new(builder.resolve(), plan.map(|p| p.rng()));
            if let Some(c) = case.poisoned {
                env.cfg.faults.quarantined.quarantine(Color::new(c));
            }
            let mut ev = event(case.tail);
            // Admitted before the case poisoned anything.
            let clean = FaultCtl::new(None);
            let admitted = env.cfg.admission.admit(&clean, &mut ev, || (0, 0));
            assert!(admitted.is_ok());
            dispatch_one(&mut env, ev);
            let name = case.name;
            assert_eq!(env.m, case.want, "{name}");
            assert_eq!(env.routed, case.routed, "{name}");
            assert_eq!(env.timers, case.timers, "{name}");
            assert_eq!(env.life.stop_requested(), case.stopped, "{name}");
            assert_eq!(
                env.cfg.faults.is_quarantined(Color::new(7)),
                env.m.quarantined_colors == 1 || case.poisoned == Some(7),
                "{name}"
            );
            assert_eq!(
                env.cfg.faults.log_snapshot().len() as u64,
                env.m.faults,
                "{name}"
            );
            assert_eq!(
                env.cfg.admission.color_occupancy(7),
                0,
                "slot freed: {name}"
            );
        }
    }

    /// One turn's sequence, checked with no executor: the core's own
    /// event first; else, only where stealing can pay, one
    /// attempt whose catch runs in the same turn.
    #[test]
    fn a_turn_runs_its_own_event_else_what_it_steals() {
        #[derive(Clone, Copy)]
        struct Case {
            name: &'static str,
            ws: WsPolicy,
            cores: usize,
            queued: bool,
            victim: bool,
            ran: u64,
            attempts: u64,
            steals: u64,
        }
        let own = Case {
            name: "a popped event is dispatched",
            ws: WsPolicy::base(),
            cores: 2,
            queued: true,
            victim: true,
            ran: 1,
            attempts: 0,
            steals: 0,
        };
        let idle = Case {
            queued: false,
            ran: 0,
            ..own
        };
        let cases = [
            own,
            Case {
                name: "an empty core with WS off idles",
                ws: WsPolicy::off(),
                ..idle
            },
            Case {
                name: "an empty lone core idles",
                cores: 1,
                ..idle
            },
            Case {
                name: "a failed attempt idles",
                victim: false,
                attempts: 1,
                ..idle
            },
            Case {
                name: "a stolen event runs in the same turn",
                ran: 1,
                attempts: 1,
                steals: 1,
                ..idle
            },
        ];
        for case in cases {
            let builder = RuntimeBuilder::new().cores(case.cores);
            let mut env = Recording::new(builder.workstealing(case.ws).resolve(), None);
            let ev = || Event::new(Color::new(3), 10);
            if case.queued {
                env.queue.push_back(ev());
            }
            env.victim = case.victim.then(ev);
            let name = case.name;
            assert_eq!(turn(&mut env), case.ran == 1, "{name}");
            assert_eq!(env.m.events_processed, case.ran, "{name}");
            assert_eq!(env.after_dispatch, case.ran, "{name}");
            assert_eq!(env.m.steal_attempts, case.attempts, "{name}");
            assert_eq!(env.m.steals, case.steals, "{name}");
        }
    }
}
