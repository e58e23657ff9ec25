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
//!   stays on the low-level API on purpose, covering both layers).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use mely_repro::core::prelude::*;
use mely_repro::sfs::{FileServerConfig, FileServerService};

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
}
struct ChildStage;
struct LeafStage;

impl Stage for ForkStage {
    type In = SeedMsg;
    fn spec(&self) -> StageSpec<SeedMsg> {
        StageSpec::new("fork").cost(5_000).keyed(|m| u64::from(m.s))
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: SeedMsg) {
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
        // The leaf inherits the child's color, like the raw cascade.
        ctx.to::<LeafStage>(msg);
    }
}

impl Stage for LeafStage {
    type In = ChainMsg;
    fn spec(&self) -> StageSpec<ChainMsg> {
        StageSpec::new("leaf").cost(1_000).inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ChainMsg) {
        ctx.complete(());
    }
}

impl Cascade {
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
            .stage(ForkStage { width: self.width })
            .stage(ChildStage)
            .stage(LeafStage);
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
            for _ in 0..self.events_per_color {
                let in_flight = Arc::clone(&self.in_flight);
                let violations = Arc::clone(&self.violations);
                let executed = Arc::clone(&self.executed);
                // Pin everything to core 0 so stealing has to spread it.
                exec.register_pinned(
                    Event::new(Color::new(c), 2_000).with_action(move |_ctx| {
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
                let svc = Cascade {
                    seeds: 24,
                    width: 3,
                };
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
