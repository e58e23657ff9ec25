//! Schedule fuzzing: the runtime's invariants, checked across many
//! perturbed sim schedules.
//!
//! The sim executor normally explores exactly one interleaving per
//! workload. `RuntimeBuilder::schedule_seed` turns that into a
//! seed-indexed family of schedules, and this harness sweeps seeds over
//! the conformance services asserting, on every perturbed schedule:
//!
//! - **per-color mutual exclusion** — no color in flight twice;
//! - **per-color FIFO** — events of one color execute in registration
//!   order;
//! - **structural counts** — no event or request is lost or duplicated.
//!
//! Every failure names the offending seed as a copy-pasteable replay
//! command, and replaying a seed reproduces its schedule (and its
//! [`RunFingerprint`]) bit for bit.
//!
//! Knobs (environment):
//!
//! - `MELY_FUZZ_SEEDS=<n>` — sweep width (default 16; CI uses 64);
//! - `MELY_FUZZ_SEED=0x<hex>` — replay exactly one seed instead of
//!   sweeping.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use mely_repro::core::prelude::*;
use mely_repro::sfs::{FileServerConfig, FileServerService};

/// The seeds to sweep: `MELY_FUZZ_SEED` pins a single seed for replay,
/// otherwise `MELY_FUZZ_SEEDS` (default 16) consecutive seeds from a
/// fixed base so local runs and CI cover a superset of each other.
fn seeds() -> Vec<u64> {
    if let Ok(one) = std::env::var("MELY_FUZZ_SEED") {
        let s = one.trim();
        let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        return vec![parsed.unwrap_or_else(|_| panic!("bad MELY_FUZZ_SEED {s:?}"))];
    }
    let n: u64 = std::env::var("MELY_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    (0..n).collect()
}

/// The replay command printed on every failure.
fn replay(seed: u64, test: &str) -> String {
    format!("replay: MELY_FUZZ_SEED={seed:#x} cargo test --test fuzz_schedules {test}")
}

fn perturbed(seed: u64, cores: usize, ws: WsPolicy) -> Runtime {
    RuntimeBuilder::new()
        .cores(cores)
        .flavor(Flavor::Mely)
        .workstealing(ws)
        .schedule_seed(seed)
        .build(ExecKind::Sim)
}

/// Fork/join cascade as a typed three-stage pipeline (the conformance
/// suite's structural-count service): `seeds` seed messages fork
/// `width` children each, every child chains one leaf — `seeds * (1 +
/// 2 * width)` events and `seeds * width` completed requests on any
/// schedule. All seeds pinned to core 0, so stealing must spread them.
struct Cascade {
    seeds: u16,
    width: u16,
}

struct SeedMsg {
    s: u16,
}

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

/// Raw-event probe asserting exclusion *and* FIFO per color: event `i`
/// of a color must observe exactly `i` prior executions of that color
/// (FIFO), and no concurrent one (exclusion). Everything is pinned to
/// core 0 so perturbed stealing gets maximal opportunity to reorder.
struct OrderProbe {
    colors: u16,
    events_per_color: u32,
    in_flight: Arc<Vec<AtomicI64>>,
    executed_per_color: Arc<Vec<AtomicU64>>,
    exclusion_violations: Arc<AtomicU64>,
    fifo_violations: Arc<AtomicU64>,
}

impl OrderProbe {
    fn new(colors: u16, events_per_color: u32) -> Self {
        let cell = |_: usize| AtomicI64::new(0);
        OrderProbe {
            colors,
            events_per_color,
            in_flight: Arc::new((0..=usize::from(colors)).map(cell).collect()),
            executed_per_color: Arc::new(
                (0..=usize::from(colors))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            ),
            exclusion_violations: Arc::new(AtomicU64::new(0)),
            fifo_violations: Arc::new(AtomicU64::new(0)),
        }
    }

    fn expected_events(&self) -> u64 {
        u64::from(self.colors) * u64::from(self.events_per_color)
    }
}

impl Service for OrderProbe {
    fn name(&self) -> &str {
        "order-probe"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        for c in 1..=self.colors {
            for i in 0..self.events_per_color {
                let in_flight = Arc::clone(&self.in_flight);
                let executed = Arc::clone(&self.executed_per_color);
                let excl = Arc::clone(&self.exclusion_violations);
                let fifo = Arc::clone(&self.fifo_violations);
                exec.register_pinned(
                    Event::new(Color::new(c), 2_000).with_action(move |_ctx| {
                        let slot = usize::from(c);
                        if in_flight[slot].fetch_add(1, Ordering::SeqCst) != 0 {
                            excl.fetch_add(1, Ordering::SeqCst);
                        }
                        // FIFO: this is the i-th event of color c, so
                        // exactly i predecessors must have run.
                        if executed[slot].fetch_add(1, Ordering::SeqCst) != u64::from(i) {
                            fifo.fetch_add(1, Ordering::SeqCst);
                        }
                        in_flight[slot].fetch_sub(1, Ordering::SeqCst);
                    }),
                    0,
                );
            }
        }
    }
}

/// The sweep: every seed's perturbed schedule must satisfy exclusion,
/// FIFO, and the Cascade's structural counts (satellite property (c)).
#[test]
fn seed_sweep_preserves_invariants_on_cascade() {
    for seed in seeds() {
        for ws in [WsPolicy::base(), WsPolicy::improved()] {
            let mut rt = perturbed(seed, 4, ws);
            let svc = Cascade {
                seeds: 24,
                width: 3,
            };
            let (expected, expected_req) = (svc.expected_events(), svc.expected_requests());
            rt.install(svc);
            let report = rt.run();
            assert_eq!(
                report.events_processed(),
                expected,
                "seed {seed:#x} ({ws}) lost or duplicated events \
                 [fingerprint {}]\n{}",
                report.fingerprint(),
                replay(seed, "seed_sweep_preserves_invariants_on_cascade"),
            );
            assert_eq!(
                report.completed_requests(),
                expected_req,
                "seed {seed:#x} ({ws}) lost or duplicated requests\n{}",
                replay(seed, "seed_sweep_preserves_invariants_on_cascade"),
            );
        }
    }
}

#[test]
fn seed_sweep_preserves_exclusion_and_fifo() {
    for seed in seeds() {
        let mut rt = perturbed(seed, 4, WsPolicy::improved());
        let svc = rt.install(OrderProbe::new(12, 40));
        let report = rt.run();
        let cmd = replay(seed, "seed_sweep_preserves_exclusion_and_fifo");
        assert_eq!(
            report.events_processed(),
            svc.expected_events(),
            "seed {seed:#x} lost events\n{cmd}"
        );
        assert_eq!(
            svc.exclusion_violations.load(Ordering::SeqCst),
            0,
            "seed {seed:#x}: a color was in flight twice\n{cmd}"
        );
        assert_eq!(
            svc.fifo_violations.load(Ordering::SeqCst),
            0,
            "seed {seed:#x}: per-color FIFO order broken\n{cmd}"
        );
    }
}

/// The file server (real crypto, four-hop request pipeline) survives
/// every perturbed schedule with all responses intact.
#[test]
fn seed_sweep_preserves_file_server_responses() {
    for seed in seeds() {
        let cfg = FileServerConfig {
            sessions: 6,
            requests_per_session: 8,
            ..FileServerConfig::default()
        };
        let mut rt = perturbed(seed, 4, WsPolicy::improved());
        let svc = rt.install(FileServerService::new(cfg.clone()));
        let report = rt.run();
        let cmd = replay(seed, "seed_sweep_preserves_file_server_responses");
        assert_eq!(
            report.events_processed(),
            svc.expected_events(),
            "seed {seed:#x}: lost events\n{cmd}"
        );
        let stats = svc.stats();
        assert_eq!(stats.corrupt, 0, "seed {seed:#x}: corrupt responses\n{cmd}");
        assert_eq!(
            stats.verified, stats.reads,
            "seed {seed:#x}: unverified responses\n{cmd}"
        );
        assert_eq!(
            stats.reads,
            cfg.sessions * cfg.requests_per_session,
            "seed {seed:#x}: wrong read count\n{cmd}"
        );
    }
}

/// Property (a): the same seed replays bit-identically on two fresh
/// runtimes — equal fingerprints, reports, and RNG draw counts are all
/// implied by equal schedules; the fingerprint is the witness.
#[test]
fn same_seed_replays_identical_fingerprints() {
    let fp = |seed: u64| {
        let mut rt = perturbed(seed, 4, WsPolicy::improved());
        rt.install(Cascade {
            seeds: 24,
            width: 3,
        });
        let report = rt.run();
        (
            report.fingerprint(),
            report.events_processed(),
            report.total().steals,
            report.wall_cycles(),
        )
    };
    for seed in seeds() {
        assert_eq!(
            fp(seed),
            fp(seed),
            "seed {seed:#x} did not replay bit-identically\n{}",
            replay(seed, "same_seed_replays_identical_fingerprints"),
        );
    }
}

/// Different seeds must actually explore different schedules: across a
/// modest sweep at least one fingerprint differs (all-equal would mean
/// the perturbation is wired to nothing).
#[test]
fn different_seeds_explore_different_schedules() {
    let fp = |seed: u64| {
        let mut rt = perturbed(seed, 4, WsPolicy::improved());
        rt.install(Cascade {
            seeds: 24,
            width: 3,
        });
        rt.run().fingerprint()
    };
    let prints: Vec<RunFingerprint> = (0..8).map(fp).collect();
    assert!(
        prints.iter().any(|p| *p != prints[0]),
        "8 different seeds produced one schedule: {prints:?}"
    );
}

/// Property (b): seed mode is fully off by default, and a seed turns
/// every perturbation point on. Both schedules are pinned: the canonical
/// one (no seed; repeat runs agree) and seed 7's, whose values were
/// captured when each perturbation point still had its own toggle —
/// so a seed still draws the same stream at the same points.
#[test]
fn unperturbed_fingerprint_is_unchanged_by_the_feature() {
    let run = |seed: Option<u64>| {
        let mut b = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved());
        if let Some(s) = seed {
            b = b.schedule_seed(s);
        }
        let mut rt = b.build(ExecKind::Sim);
        rt.install(Cascade {
            seeds: 24,
            width: 3,
        });
        let report = rt.run();
        (
            report.fingerprint().to_string(),
            report.wall_cycles(),
            report.total().steals,
        )
    };
    let canonical = run(None);
    assert_eq!(
        canonical,
        run(None),
        "the canonical schedule is deterministic"
    );
    assert_eq!(canonical, ("9590d7955dda7f98".to_string(), 196_555, 10));
    assert_eq!(
        run(Some(7)),
        ("d94da7c28c249b30".to_string(), 215_985, 6),
        "seed 7 no longer replays its pinned schedule\n{}",
        replay(7, "unperturbed_fingerprint_is_unchanged_by_the_feature"),
    );
}
