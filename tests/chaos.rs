//! Chaos testing: seeded fault injection and panic containment, on
//! both executors.
//!
//! [`mely_core::fuzz::FaultPlan`] arms a runtime with a seeded stream
//! of injected handler panics, event drops, and timer-delay spikes.
//! This harness sweeps fault seeds over the conformance file server
//! asserting, under every fault schedule:
//!
//! - **containment** — `run()` returns a report; no worker dies;
//! - **isolation** — requests untouched by faults complete with their
//!   MACs intact (zero corrupt responses);
//! - **accounting** — every submitted request is either completed or
//!   failed, never silently lost;
//! - **determinism** — on the sim executor the same seed replays the
//!   identical fault schedule, fault log, and [`RunFingerprint`].
//!
//! Knobs (environment):
//!
//! - `MELY_FAULT_RATE=<p>` — injected panic probability per dispatch,
//!   as a float in `[0, 1]` (default 0.02);
//! - `MELY_FUZZ_SEEDS=<n>` — sweep width (default 16; CI uses 64);
//! - `MELY_FUZZ_SEED=0x<hex>` — replay exactly one seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

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
    format!("replay: MELY_FUZZ_SEED={seed:#x} cargo test --test chaos {test}")
}

/// Injected panic probability per dispatch (`MELY_FAULT_RATE`).
fn fault_rate_per_million() -> u32 {
    let rate: f64 = std::env::var("MELY_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);
    FaultPlan::rate_per_million(rate)
}

/// Contained panics still run the default hook, and a chaos sweep
/// triggers thousands of them. Silence the deliberate ones — the
/// injector's marker payload (not a string) and our own
/// `chaos-panic`-tagged messages — and keep the default hook for
/// everything else (real assertion failures stay loud).
fn quiet_deliberate_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let msg = p
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| p.downcast_ref::<String>().map(String::as_str));
            match msg {
                Some(m) if m.contains("chaos-panic") => {}
                None => {}
                Some(_) => default_hook(info),
            }
        }));
    });
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        panic_per_million: fault_rate_per_million(),
        drop_per_million: fault_rate_per_million() / 2,
        timer_spike_per_million: fault_rate_per_million(),
        timer_spike_cycles: 50_000,
    }
}

fn sfs_config() -> FileServerConfig {
    FileServerConfig {
        sessions: 8,
        requests_per_session: 12,
        ..FileServerConfig::default()
    }
}

fn chaos_file_server(kind: ExecKind, seed: u64) -> (RunReport, mely_repro::sfs::FileServerStats) {
    quiet_deliberate_panics();
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .fault_plan(plan(seed))
        .build(kind);
    let svc = rt.install(FileServerService::new(sfs_config()));
    let report = rt.run();
    (report, svc.stats())
}

/// The acceptance sweep on the deterministic executor: every fault
/// schedule is survived, non-faulted requests stay intact, and the
/// fault counters balance.
#[test]
fn chaos_file_server_survives_injected_faults_on_sim() {
    let mut total_faults = 0;
    for seed in seeds() {
        let cmd = replay(seed, "chaos_file_server_survives_injected_faults_on_sim");
        let (report, stats) = chaos_file_server(ExecKind::Sim, seed);
        // Containment: run() returned (we are here) and no worker died.
        assert!(
            !report
                .fault_log()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::WorkerDied { .. })),
            "seed {seed:#x}: a worker died\n{cmd}"
        );
        // Isolation: every response that did complete verified its MAC.
        assert_eq!(stats.corrupt, 0, "seed {seed:#x}: corrupt responses\n{cmd}");
        assert_eq!(
            stats.verified, stats.reads,
            "seed {seed:#x}: unverified responses\n{cmd}"
        );
        // Accounting: goodput + failures + sheds is exactly the offered
        // load — faults fail requests, they never lose them silently.
        let t = report.total();
        assert_eq!(
            t.completed_requests + t.failed_requests + t.shed_requests,
            report.offered_requests(),
            "seed {seed:#x}: request accounting broken\n{cmd}"
        );
        // Every injected panic quarantines its color (default policy).
        if report
            .fault_log()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::InjectedPanic))
        {
            assert!(
                t.quarantined_colors > 0,
                "seed {seed:#x}: a panic left no quarantine\n{cmd}"
            );
        }
        total_faults += t.faults;
    }
    assert!(
        total_faults > 0,
        "the sweep injected no faults at all — the plan is wired to nothing"
    );
}

/// The same chaos on the real threaded executor: workers contain the
/// injected panics instead of dying, and the report stays coherent.
#[test]
fn chaos_file_server_survives_injected_faults_on_threaded() {
    // Fewer, hotter runs: thread interleaving already varies per run.
    for seed in seeds().into_iter().take(4) {
        let cmd = replay(
            seed,
            "chaos_file_server_survives_injected_faults_on_threaded",
        );
        let (report, stats) = chaos_file_server(ExecKind::Threaded, seed);
        assert!(
            !report
                .fault_log()
                .iter()
                .any(|f| matches!(f.kind, FaultKind::WorkerDied { .. })),
            "seed {seed:#x}: a worker died\n{cmd}"
        );
        assert_eq!(stats.corrupt, 0, "seed {seed:#x}: corrupt responses\n{cmd}");
        assert_eq!(
            stats.verified, stats.reads,
            "seed {seed:#x}: unverified responses\n{cmd}"
        );
        let t = report.total();
        assert_eq!(
            t.completed_requests + t.failed_requests + t.shed_requests,
            report.offered_requests(),
            "seed {seed:#x}: request accounting broken\n{cmd}"
        );
        assert!(
            t.faults >= report.fault_log().len() as u64,
            "seed {seed:#x}: counters disagree with the log\n{cmd}"
        );
    }
}

/// Determinism: on the sim executor the same fault seed replays the
/// identical fault schedule — equal fingerprints, fault counts, and
/// fault logs, down to each fault's color and kind.
#[test]
fn same_fault_seed_replays_identical_fault_schedule() {
    for seed in seeds() {
        let (r1, _) = chaos_file_server(ExecKind::Sim, seed);
        let (r2, _) = chaos_file_server(ExecKind::Sim, seed);
        let cmd = replay(seed, "same_fault_seed_replays_identical_fault_schedule");
        assert_eq!(
            r1.fingerprint(),
            r2.fingerprint(),
            "seed {seed:#x}: fingerprints diverged\n{cmd}"
        );
        let (t1, t2) = (r1.total(), r2.total());
        assert_eq!(
            (t1.faults, t1.failed_requests, t1.shed_by_fault),
            (t2.faults, t2.failed_requests, t2.shed_by_fault),
            "seed {seed:#x}: fault counters diverged\n{cmd}"
        );
        assert_eq!(
            r1.fault_log(),
            r2.fault_log(),
            "seed {seed:#x}: fault logs diverged\n{cmd}"
        );
    }
}

/// Different fault seeds must explore different fault schedules.
#[test]
fn different_fault_seeds_explore_different_faults() {
    quiet_deliberate_panics();
    let prints: Vec<RunFingerprint> = (0..8)
        .map(|seed| chaos_file_server(ExecKind::Sim, seed).0.fingerprint())
        .collect();
    assert!(
        prints.iter().any(|p| *p != prints[0]),
        "8 fault seeds produced one schedule: {prints:?}"
    );
}

/// Fault injection is fully off by default: a builder without a plan
/// and one carrying an all-zero-rate plan produce the identical
/// canonical schedule, report, and (absent) fault log.
#[test]
fn noop_fault_plan_leaves_the_canonical_schedule_untouched() {
    let run = |plan: Option<FaultPlan>| {
        let mut b = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved());
        if let Some(p) = plan {
            b = b.fault_plan(p);
        }
        let mut rt = b.build(ExecKind::Sim);
        rt.install(FileServerService::new(sfs_config()));
        let report = rt.run();
        (
            report.fingerprint(),
            report.total().faults,
            report.wall_cycles(),
        )
    };
    let canonical = run(None);
    assert_eq!(canonical.1, 0, "no faults without a plan");
    let noop = FaultPlan {
        seed: 0xdead_beef,
        panic_per_million: 0,
        drop_per_million: 0,
        timer_spike_per_million: 0,
        timer_spike_cycles: 50_000,
    };
    assert_eq!(
        canonical,
        run(Some(noop)),
        "an all-zero plan must not consult the RNG or perturb the run"
    );
}

/// After a handler panic quarantines a color, admission for that color
/// is refused with [`OverloadReason::Quarantined`] at every injector
/// entry point — producers observe the degradation instead of feeding a
/// silent drain.
#[test]
fn quarantined_color_rejects_subsequent_admission() {
    quiet_deliberate_panics();
    for kind in [ExecKind::Sim, ExecKind::Threaded] {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .build(kind);
        let bad = Color::new(7);
        rt.register(Event::new(bad, 100).with_action(|_| panic!("chaos-panic: poison")));
        rt.register(Event::new(Color::new(9), 100));
        let report = rt.run();
        assert_eq!(report.total().faults, 1, "{kind}");
        assert_eq!(report.total().quarantined_colors, 1, "{kind}");
        // The healthy color was untouched.
        assert_eq!(report.events_processed(), 1, "{kind}");
        // Post-quarantine, both producer entry points refuse the color
        // with one ledger on both executors: the fallible one returns
        // the typed reason and counts a reject, the infallible one counts
        // a reject plus a shed.
        let inj = rt.injector();
        let ran = Arc::new(AtomicU64::new(0));
        let probe = |color| {
            let ran = Arc::clone(&ran);
            Event::new(color, 100).with_action(move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        let err = inj
            .try_inject(probe(bad))
            .expect_err("quarantined color must not admit");
        assert_eq!(err.reason, OverloadReason::Quarantined, "{kind}");
        inj.inject(probe(bad));
        assert_eq!(inj.outstanding(), 0, "{kind}: nothing was queued");
        // The healthy color still admits.
        inj.try_inject(probe(Color::new(9)))
            .expect("healthy colors admit");
        let t = rt.run().total();
        assert_eq!(
            (t.admission_rejects, t.shed_requests, t.shed_by_fault),
            (2, 1, 1),
            "{kind}"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 1, "{kind}: only color 9 ran");
    }
}

// ---------------------------------------------------------------------
// Property: a stage panicking on an arbitrary subset of keys never
// disturbs the other colors — FIFO and exclusion hold for everything
// not quarantined, and every submitted request is either completed or
// failed. On both executors.
// ---------------------------------------------------------------------

use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct Job {
    key: u64,
    idx: u64,
}

/// Execution observations shared by the pipeline stages.
#[derive(Default)]
struct Probe {
    /// Per-key submission indices, in Mid-stage execution order.
    order: Mutex<Vec<(u64, u64)>>,
    /// Exclusion check: per-key in-flight markers.
    in_flight: Mutex<std::collections::HashSet<u64>>,
    exclusion_violations: AtomicU64,
    /// Panics each poisoned key has thrown (at most one fires under
    /// quarantine; the counter tolerates ShedEvent-style repeats).
    panics: AtomicU64,
}

struct Front {
    probe: Arc<Probe>,
}
struct Mid {
    probe: Arc<Probe>,
    poison_keys: u64,
    poison_at: u64,
    per_key_runs: Arc<Mutex<std::collections::HashMap<u64, u64>>>,
}
struct Back {
    probe: Arc<Probe>,
}

impl Stage for Front {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        StageSpec::new("chaos-front").cost(500).keyed(|j| j.key)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        let _ = &self.probe;
        ctx.to::<Mid>(job);
    }
}

impl Stage for Mid {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        // Distinct stage name ⇒ distinct color per key from Front's,
        // so a Mid quarantine exercises the fan-out shed path too.
        StageSpec::new("chaos-mid").cost(1_000).keyed(|j| j.key)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        {
            let mut in_flight = self.probe.in_flight.lock().unwrap();
            if !in_flight.insert(job.key) {
                self.probe
                    .exclusion_violations
                    .fetch_add(1, Ordering::SeqCst);
            }
        }
        let runs = {
            let mut per_key = self.per_key_runs.lock().unwrap();
            let slot = per_key.entry(job.key).or_insert(0);
            let prev = *slot;
            *slot += 1;
            prev
        };
        self.probe.order.lock().unwrap().push((job.key, job.idx));
        self.probe.in_flight.lock().unwrap().remove(&job.key);
        if self.poison_keys & (1 << job.key) != 0 && runs == self.poison_at {
            self.probe.panics.fetch_add(1, Ordering::SeqCst);
            panic!("chaos-panic: key {} run {}", job.key, runs);
        }
        ctx.to::<Back>(job);
    }
}

impl Stage for Back {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        StageSpec::new("chaos-back").cost(200).inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        let _ = (&self.probe, job);
        ctx.complete(());
    }
}

fn chaos_pipeline_run(
    kind: ExecKind,
    keys: &[u64],
    poison_keys: u64,
    poison_at: u64,
) -> (RunReport, Arc<Probe>) {
    quiet_deliberate_panics();
    let probe = Arc::new(Probe::default());
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .build(kind);
    let mut b = PipelineBuilder::new("chaos")
        .stage(Front {
            probe: Arc::clone(&probe),
        })
        .stage(Mid {
            probe: Arc::clone(&probe),
            poison_keys,
            poison_at,
            per_key_runs: Arc::new(Mutex::new(Default::default())),
        })
        .stage(Back {
            probe: Arc::clone(&probe),
        });
    for (idx, &key) in keys.iter().enumerate() {
        b = b.seed::<Front>(Job {
            key,
            idx: idx as u64,
        });
    }
    rt.install(b.build());
    let report = rt.run();
    (report, probe)
}

fn assert_chaos_pipeline_invariants(
    report: &RunReport,
    probe: &Probe,
    offered: u64,
    poison_keys: u64,
) -> Result<(), TestCaseError> {
    // No request lost: each seed either completed or was failed by a
    // fault (panic, quarantine drain, or fan-out shed).
    prop_assert_eq!(
        report.completed_requests() + report.total().failed_requests,
        offered
    );
    // Exclusion held for every key, poisoned or not.
    prop_assert_eq!(probe.exclusion_violations.load(Ordering::SeqCst), 0);
    // Per-key FIFO: Mid executions of one key happen in submission
    // order (quarantine drains only ever remove a suffix).
    let order = probe.order.lock().unwrap();
    let mut last: std::collections::HashMap<u64, u64> = Default::default();
    for &(key, idx) in order.iter() {
        if let Some(prev) = last.insert(key, idx) {
            prop_assert!(prev < idx, "key {} ran out of order", key);
        }
    }
    // A clean run is exactly clean.
    if poison_keys == 0 {
        prop_assert_eq!(report.total().faults, 0);
        prop_assert_eq!(report.completed_requests(), offered);
        prop_assert_eq!(probe.panics.load(Ordering::SeqCst), 0);
    } else {
        prop_assert_eq!(report.total().faults, probe.panics.load(Ordering::SeqCst));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sim executor: panic containment under arbitrary poison subsets.
    #[test]
    fn poisoned_stages_never_disturb_other_colors_on_sim(
        keys in prop::collection::vec(0u64..6, 1..80),
        poison_keys in 0u64..64,
        poison_at in 0u64..4,
    ) {
        let offered = keys.len() as u64;
        let (report, probe) = chaos_pipeline_run(ExecKind::Sim, &keys, poison_keys, poison_at);
        assert_chaos_pipeline_invariants(&report, &probe, offered, poison_keys)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Threaded executor: the same invariants against real threads.
    #[test]
    fn poisoned_stages_never_disturb_other_colors_on_threaded(
        keys in prop::collection::vec(0u64..6, 1..60),
        poison_keys in 0u64..64,
        poison_at in 0u64..4,
    ) {
        let offered = keys.len() as u64;
        let (report, probe) = chaos_pipeline_run(ExecKind::Threaded, &keys, poison_keys, poison_at);
        assert_chaos_pipeline_invariants(&report, &probe, offered, poison_keys)?;
    }
}
