//! Cross-executor conformance: the same [`Service`] implementations run
//! on the simulator and on the threaded runtime through the unified
//! [`Executor`] API, and the suite asserts the executor-agnostic
//! contract:
//!
//! - **identical `events_processed`** — a service whose event count is
//!   structural processes exactly the same number of events on both
//!   executors;
//! - **zero lost events** — every event a service registers (seeds and
//!   handler follow-ups) executes exactly once, pinned by exact
//!   structural counts on both sides;
//! - **per-color exclusion** — no color is ever in flight on two cores
//!   on either executor (trivial on the single-threaded sim, a real
//!   guarantee under threads + stealing);
//! - **structural request accounting** — the typed stage pipeline's
//!   `completed_requests` and latency percentiles are populated
//!   identically on both executors (the Cascade service runs as a
//!   three-stage typed pipeline; the raw-`Event` `ExclusionProbe`
//!   stays on the low-level API on purpose, covering both layers);
//! - **per-color order** — with the simulator as the reference, a
//!   threaded run with stealing on executes each color's events in the
//!   same order, and one producer's injected events of one color run in
//!   injection order on both executors;
//! - **one color, one core through the public API** — a pin that would
//!   split a queued color is refused and counted;
//! - **one liveness record** — `Injector::outstanding` counts every
//!   registered event and `Injector::stop_when_idle` returns on a stop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mely_repro::core::exec::IdleWait;
use mely_repro::core::prelude::*;
use mely_repro::sfs::{FileServerConfig, FileServerService};

/// Each handler's `(color, payload)`, in execution order: the raw
/// material of the per-color order oracle.
#[derive(Clone, Default)]
struct OrderLog(Arc<Mutex<Vec<(u16, u64)>>>);

impl OrderLog {
    fn note(&self, color: Color, payload: u64) {
        self.0.lock().unwrap().push((color.value(), payload));
    }

    /// The payload sequence of each color. Every color of the services
    /// below has one producer, so this is also their per-(producer,
    /// color) order.
    fn per_color(&self) -> BTreeMap<u16, Vec<u64>> {
        let mut out = BTreeMap::<u16, Vec<u64>>::new();
        for &(color, payload) in self.0.lock().unwrap().iter() {
            out.entry(color).or_default().push(payload);
        }
        out
    }
}

/// Runs `svc` on a fresh executor of `kind` and returns the service and
/// the report.
fn run_on<S: Service>(
    kind: ExecKind,
    cores: usize,
    flavor: Flavor,
    ws: WsPolicy,
    svc: S,
) -> (S, RunReport) {
    let mut rt = RuntimeBuilder::new()
        .cores(cores)
        .flavor(flavor)
        .workstealing(ws)
        .build(kind);
    let svc = rt.install(svc);
    let report = rt.run();
    (svc, report)
}

/// A fork/join cascade with a structural event count, expressed as a
/// typed three-stage pipeline: `seeds` seed messages each fork `width`
/// children, and every child chains one leaf — `seeds * (1 + 2 *
/// width)` events total, on any executor. Every seed is pinned to core
/// 0 so workstealing has an imbalance to fix; each child chain is one
/// request of the latency pipeline, completed at the leaf.
struct Cascade {
    seeds: u16,
    width: u16,
    order: OrderLog,
}

/// Fork stage message: which seed this is.
struct SeedMsg {
    s: u16,
}

/// Child/leaf message: the chain's id (colors derive from it).
#[derive(Clone, Copy)]
struct ChainMsg {
    id: u64,
}

struct ForkStage {
    width: u16,
    order: OrderLog,
}
struct ChildStage(OrderLog);
struct LeafStage(OrderLog);

impl Stage for ForkStage {
    type In = SeedMsg;
    fn spec(&self) -> StageSpec<SeedMsg> {
        StageSpec::new("fork").cost(5_000).keyed(|m| u64::from(m.s))
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: SeedMsg) {
        self.order.note(ctx.color(), u64::from(msg.s));
        for w in 0..self.width {
            let id = u64::from(msg.s) * u64::from(self.width) + u64::from(w);
            // Each child chain is its own request.
            ctx.spawn::<ChildStage>(ChainMsg { id: 1_000 + id });
        }
    }
}

impl Stage for ChildStage {
    type In = ChainMsg;
    fn spec(&self) -> StageSpec<ChainMsg> {
        StageSpec::new("child").cost(2_000).keyed(|m| m.id)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: ChainMsg) {
        self.0.note(ctx.color(), 2 * msg.id);
        // The leaf inherits the child's color, like the raw cascade.
        ctx.to::<LeafStage>(msg);
    }
}

impl Stage for LeafStage {
    type In = ChainMsg;
    fn spec(&self) -> StageSpec<ChainMsg> {
        StageSpec::new("leaf").cost(1_000).inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: ChainMsg) {
        self.0.note(ctx.color(), 2 * msg.id + 1);
        ctx.complete(());
    }
}

impl Cascade {
    fn new(seeds: u16, width: u16) -> Self {
        Cascade {
            seeds,
            width,
            order: OrderLog::default(),
        }
    }

    fn expected_events(&self) -> u64 {
        u64::from(self.seeds) * (1 + 2 * u64::from(self.width))
    }

    fn expected_requests(&self) -> u64 {
        u64::from(self.seeds) * u64::from(self.width)
    }
}

impl Service for Cascade {
    fn name(&self) -> &str {
        "cascade"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        let mut b = PipelineBuilder::new("cascade")
            .stage(ForkStage {
                width: self.width,
                order: self.order.clone(),
            })
            .stage(ChildStage(self.order.clone()))
            .stage(LeafStage(self.order.clone()));
        for s in 0..self.seeds {
            b = b.seed_pinned::<ForkStage>(0, SeedMsg { s });
        }
        b.build().install(exec);
    }
}

/// Every event's action checks that no other event of its color is in
/// flight anywhere — the runtime's core mutual-exclusion guarantee.
struct ExclusionProbe {
    colors: u16,
    events_per_color: u32,
    in_flight: Arc<Vec<AtomicI64>>,
    violations: Arc<AtomicU64>,
    executed: Arc<AtomicU64>,
    order: OrderLog,
}

impl ExclusionProbe {
    fn new(colors: u16, events_per_color: u32) -> Self {
        ExclusionProbe {
            colors,
            events_per_color,
            in_flight: Arc::new(
                std::iter::repeat_with(|| AtomicI64::new(0))
                    .take(usize::from(colors) + 1)
                    .collect(),
            ),
            violations: Arc::new(AtomicU64::new(0)),
            executed: Arc::new(AtomicU64::new(0)),
            order: OrderLog::default(),
        }
    }

    fn expected_events(&self) -> u64 {
        u64::from(self.colors) * u64::from(self.events_per_color)
    }
}

impl Service for ExclusionProbe {
    fn name(&self) -> &str {
        "exclusion-probe"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        for c in 1..=self.colors {
            for k in 0..self.events_per_color {
                let in_flight = Arc::clone(&self.in_flight);
                let violations = Arc::clone(&self.violations);
                let executed = Arc::clone(&self.executed);
                let order = self.order.clone();
                // Pin everything to core 0 so stealing has to spread it.
                exec.register_pinned(
                    Event::new(Color::new(c), 2_000).with_action(move |_ctx| {
                        order.note(Color::new(c), u64::from(k));
                        let cell = &in_flight[usize::from(c)];
                        if cell.fetch_add(1, Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        std::hint::spin_loop();
                        cell.fetch_sub(1, Ordering::SeqCst);
                        executed.fetch_add(1, Ordering::SeqCst);
                    }),
                    0,
                );
            }
        }
    }
}

#[test]
fn cascade_processes_identical_event_counts_on_both_executors() {
    for flavor in [Flavor::Mely, Flavor::Libasync] {
        for ws in [WsPolicy::off(), WsPolicy::base(), WsPolicy::improved()] {
            let mut counts = Vec::new();
            for kind in [ExecKind::Sim, ExecKind::Threaded] {
                let svc = Cascade::new(24, 3);
                let expected = svc.expected_events();
                let expected_requests = svc.expected_requests();
                let (_, report) = run_on(kind, 4, flavor, ws, svc);
                assert_eq!(
                    report.events_processed(),
                    expected,
                    "{kind}/{flavor}/{ws}: lost or duplicated events"
                );
                // The typed pipeline's request accounting is structural
                // too: one completion per child chain, on any executor.
                assert_eq!(
                    report.completed_requests(),
                    expected_requests,
                    "{kind}/{flavor}/{ws}: lost or duplicated requests"
                );
                assert!(
                    report.latency_p50() > 0,
                    "{kind}/{flavor}/{ws}: two-hop chains take time"
                );
                assert!(report.latency_p50() <= report.latency_p99());
                counts.push(report.events_processed());
            }
            assert_eq!(counts[0], counts[1], "{flavor}/{ws}: executors disagree");
        }
    }
}

#[test]
fn file_server_service_runs_unmodified_on_both_executors() {
    // The acceptance criterion of the unified API: the file-server app,
    // real crypto included, processes identical event counts on sim and
    // threads, with every response verified on both.
    let cfg = FileServerConfig {
        sessions: 8,
        requests_per_session: 12,
        ..FileServerConfig::default()
    };
    let mut results = Vec::new();
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let (svc, report) = run_on(
            kind,
            4,
            Flavor::Mely,
            WsPolicy::improved(),
            FileServerService::new(cfg.clone()),
        );
        assert_eq!(
            report.events_processed(),
            svc.expected_events(),
            "{kind}: lost events"
        );
        let stats = svc.stats();
        assert_eq!(stats.corrupt, 0, "{kind}: corrupted responses");
        assert_eq!(stats.verified, stats.reads, "{kind}: unverified responses");
        assert_eq!(
            stats.reads,
            cfg.sessions * cfg.requests_per_session,
            "{kind}: wrong read count"
        );
        // The latency pipeline closes exactly one request per read on
        // both executors, and its percentiles are ordered.
        assert_eq!(
            report.completed_requests(),
            svc.expected_requests(),
            "{kind}: request accounting disagrees with the reads"
        );
        assert!(report.latency_p50() > 0, "{kind}: four-hop reads take time");
        assert!(report.latency_p50() <= report.latency_p99(), "{kind}");
        results.push((report.events_processed(), stats));
    }
    assert_eq!(
        results[0], results[1],
        "the same unmodified service must behave identically on both executors"
    );
}

#[test]
fn per_color_exclusion_holds_on_both_executors() {
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let svc = ExclusionProbe::new(12, 40);
        let expected = svc.expected_events();
        let (svc, report) = run_on(kind, 4, Flavor::Mely, WsPolicy::improved(), svc);
        assert_eq!(report.events_processed(), expected, "{kind}: lost events");
        assert_eq!(
            svc.executed.load(Ordering::SeqCst),
            expected,
            "{kind}: action count mismatch"
        );
        assert_eq!(
            svc.violations.load(Ordering::SeqCst),
            0,
            "{kind}: a color was in flight on two cores"
        );
    }
}

#[test]
fn injectors_feed_both_executors_identically() {
    // The external-producer path of the unified API: the same injector
    // loop (no concrete-executor types) delivers every event on both.
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::base())
            .build(kind);
        let keepalive = rt.injector().keepalive();
        let injector = rt.injector();
        let executed = Arc::new(AtomicU64::new(0));
        let e = Arc::clone(&executed);
        let producer = std::thread::spawn(move || {
            for i in 0..500u16 {
                let e = Arc::clone(&e);
                injector.inject(
                    Event::new(Color::new(i % 16 + 1), 500).with_action(move |_ctx| {
                        e.fetch_add(1, Ordering::Relaxed);
                    }),
                );
            }
            injector.stop_when_idle();
            drop(keepalive);
        });
        let report = rt.run();
        producer.join().unwrap();
        assert_eq!(executed.load(Ordering::Relaxed), 500, "{kind}");
        assert!(report.events_processed() >= 500, "{kind}");
    }
}

/// The core-count contract is checked once, by `RuntimeBuilder::build`,
/// before an executor exists: zero cores and more cores than the machine
/// model has are refused with the same message whichever executor was
/// asked for.
#[test]
fn build_rejects_bad_core_counts_identically_on_both_executors() {
    let refusal = |cores: usize, kind: ExecKind| {
        let build = move || {
            RuntimeBuilder::new()
                .machine(MachineModel::xeon_e5410())
                .cores(cores)
                .build(kind)
        };
        let payload = std::panic::catch_unwind(build).expect_err("build must refuse");
        *payload.downcast::<String>().expect("formatted message")
    };
    for cores in [0, 9] {
        let on_sim = refusal(cores, ExecKind::Sim);
        assert!(
            on_sim.contains(&format!("runs 1..=8 cores (asked for {cores})")),
            "{on_sim}"
        );
        assert_eq!(on_sim, refusal(cores, ExecKind::Threaded));
    }
}

/// The per-color differential oracle, with the simulator as the
/// reference: on a 4-core threaded run with stealing on, every color
/// executes its events in the simulator's order, for the typed
/// pipeline and for the pinned probe.
#[test]
fn per_color_order_matches_the_simulator() {
    let cascade = |kind| {
        let svc = Cascade::new(24, 3);
        let (svc, _) = run_on(kind, 4, Flavor::Mely, WsPolicy::improved(), svc);
        svc.order.per_color()
    };
    let reference = cascade(ExecKind::Sim);
    assert_eq!(reference.len(), 24 + 24 * 3, "one color per seed and chain");
    assert_eq!(cascade(ExecKind::Threaded), reference, "cascade");

    let probe = |kind| {
        let svc = ExclusionProbe::new(12, 40);
        let (svc, _) = run_on(kind, 4, Flavor::Mely, WsPolicy::improved(), svc);
        svc.order.per_color()
    };
    let reference = probe(ExecKind::Sim);
    let in_order: Vec<u64> = (0..40).collect();
    assert!(reference.values().all(|seq| *seq == in_order));
    assert_eq!(probe(ExecKind::Threaded), reference, "exclusion probe");
}

/// Per-color FIFO at the door: one producer's numbered events of one
/// color run in the order it made them, through registration, the
/// owner's inbox and steals that move the color. On the simulator the
/// producer injects before the run, under 64 perturbed schedules (the
/// inbox drain deferred, the cores drained in shuffled order), and the
/// sweep must move the color; on threads it injects while the run goes
/// on, with stealing on.
#[test]
fn one_producers_events_of_one_color_run_in_injection_order() {
    const REGISTERED: u64 = 20;
    const INJECTED: u64 = 40;
    // Core 1's, with all the other colors: core 0 starts idle.
    const COLOR: Color = Color::new(3);
    // The `i`-th event of the color, noting in `moved` a run off its
    // home core, and one of another color beside it; on threads each
    // burns 20 us, real work for the thieves to find.
    fn pair(kind: ExecKind, log: &OrderLog, moved: &Arc<AtomicU64>, i: u64) -> (Event, Event) {
        let busy = move || {
            let until = Instant::now() + Duration::from_micros(20);
            while kind == ExecKind::Threaded && Instant::now() < until {}
        };
        let (log, moved) = (log.clone(), Arc::clone(moved));
        let numbered = Event::new(COLOR, 10_000).with_action(move |ctx| {
            busy();
            log.note(COLOR, i);
            if ctx.core() != 1 {
                moved.fetch_add(1, Ordering::Relaxed);
            }
        });
        let other = Event::new(Color::new(101 + 2 * (i % 8) as u16), 10_000);
        (numbered, other.with_action(move |_| busy()))
    }
    let moved = Arc::new(AtomicU64::new(0));
    let run = |kind, builder: RuntimeBuilder| {
        let mut rt = builder
            .cores(2)
            .workstealing(WsPolicy::improved())
            .build(kind);
        let log = OrderLog::default();
        for i in 0..REGISTERED {
            let (numbered, other) = pair(kind, &log, &moved, i);
            rt.register(numbered);
            rt.register(other);
        }
        let injector = rt.injector();
        let keepalive = injector.keepalive();
        let producer = {
            let (log, moved) = (log.clone(), Arc::clone(&moved));
            move || {
                for i in REGISTERED..REGISTERED + INJECTED {
                    let (numbered, other) = pair(kind, &log, &moved, i);
                    injector.inject(numbered);
                    injector.inject(other);
                }
                drop(keepalive);
            }
        };
        let report = if kind == ExecKind::Sim {
            producer();
            rt.run()
        } else {
            let producer = std::thread::spawn(producer);
            let report = rt.run();
            producer.join().unwrap();
            report
        };
        let total = 2 * (REGISTERED + INJECTED);
        assert_eq!(report.events_processed(), total, "{kind}");
        log.per_color().remove(&COLOR.value()).unwrap_or_default()
    };
    let in_order: Vec<u64> = (0..REGISTERED + INJECTED).collect();
    for seed in 0..64 {
        let ran = run(ExecKind::Sim, RuntimeBuilder::new().schedule_seed(seed));
        assert_eq!(ran, in_order, "sim, schedule seed {seed}");
    }
    assert!(moved.load(Ordering::Relaxed) > 0, "no seed moved the color");
    for round in 0..4 {
        let ran = run(ExecKind::Threaded, RuntimeBuilder::new());
        assert_eq!(ran, in_order, "threaded, round {round}");
    }
}

/// A color lives on one core, also through `register_pinned`: pinning a
/// color whose first event is still queued on its home core is refused
/// and counted, and both events run on that core.
#[test]
fn a_pin_never_splits_a_queued_color() {
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .workstealing(WsPolicy::off())
            .build(kind);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let event = || {
            let ran = Arc::clone(&ran);
            Event::new(Color::new(2), 1_000).with_action(move |ctx| {
                ran.lock().unwrap().push(ctx.core());
            })
        };
        rt.register(event());
        rt.register_pinned(event(), 1);
        let report = rt.run();
        assert_eq!(*ran.lock().unwrap(), [0, 0], "{kind}: one color, one core");
        assert_eq!(report.total().refused_pins, 1, "{kind}");
        assert!(
            !report
                .fault_log()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::WorkerDied { .. })),
            "{kind}: {:?}",
            report.fault_log()
        );
    }
}

/// `Injector::outstanding` counts every event not executed yet, however
/// it was registered, on both executors.
#[test]
fn outstanding_counts_registered_events_on_both_executors() {
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let mut rt = RuntimeBuilder::new().cores(2).build(kind);
        let injector = rt.injector();
        for i in 0..20u16 {
            rt.register(Event::new(Color::new(i + 1), 100));
        }
        injector.inject(Event::new(Color::new(40), 100));
        assert_eq!(injector.outstanding(), 21, "{kind}");
        assert_eq!(rt.run().events_processed(), 21, "{kind}");
        assert_eq!(injector.outstanding(), 0, "{kind}");
    }
}

/// A waiter started before `run` returns `Stopped` when
/// `Injector::stop` halts the run with events still queued, and the
/// queued events stay outstanding.
#[test]
fn stop_when_idle_returns_when_a_stop_halts_the_run() {
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let mut rt = RuntimeBuilder::new().cores(1).build(kind);
        let returned = Arc::new(AtomicBool::new(false));
        let (seen, stopper) = (Arc::clone(&returned), rt.injector());
        // The first event stops the run and stays in flight until the
        // waiter has returned, so the run cannot consume the stop before
        // the waiter looks; the other 99 of its color stay queued.
        rt.register(Event::new(Color::new(1), 1_000).with_action(move |_| {
            stopper.stop();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !seen.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }));
        for _ in 0..99 {
            rt.register(Event::new(Color::new(1), 1_000));
        }
        let (tx, rx) = mpsc::channel();
        let injector = rt.injector();
        let waiter = std::thread::spawn(move || {
            let ended = injector.stop_when_idle();
            returned.store(true, Ordering::Release);
            let _ = tx.send(ended);
        });
        let report = rt.run();
        assert_eq!(report.events_processed(), 1, "{kind}");
        let ended = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(ended, Ok(IdleWait::Stopped), "{kind}");
        waiter.join().unwrap();
        assert_eq!(rt.injector().outstanding(), 99, "{kind}");
    }
}
