//! `sim_sws` and `sim_unbalanced`: the paper's two opposite uses of the
//! steal and queue code, on the deterministic simulator (8 simulated
//! cores, one host thread). One op is a simulated event.
//!
//! A run repeats one fixed simulation as often as fits into
//! `--seconds`. Every repetition must reproduce the first bit for bit
//! (fingerprint, virtual cycles, event count), which is the check that a
//! change meant only to speed the simulator left the simulated result
//! alone.
//!
//! The host speed is the lower quartile of the repetitions' rates (and
//! the CPU cost the upper quartile of theirs). A single-threaded,
//! compute-bound run follows the host's clock fully, and the container
//! this was calibrated on alternates, seconds at a time, between two
//! clock speeds a quarter apart, mostly the lower: over ten runs the
//! lower quartile spread 4 %, the median 12 %, the mean 12 %.

use std::time::{Duration, Instant};

use mely_bench::scenarios::sws_run;
use mely_bench::workloads::unbalanced::{unbalanced as unbalanced_run, UnbalancedCfg};
use mely_bench::PaperConfig;
use mely_core::prelude::*;

use super::{cpu_us_per_op, runtime, twin, Outcome, RunCfg, SETUP_REPEATS};
use crate::replay::{self, Captured};
use crate::stats::{quantile, sorted};

const SWS_CLIENTS: usize = 1_000;
/// Virtual length of one `sim_sws` repetition: 0.5 s at 2.33 GHz, about
/// 0.7 s of host time; the 1 000 connects at the start are 2 % of it.
const SWS_DURATION: u64 = 1_165_000_000;
/// Virtual length of one `sim_unbalanced` repetition: 0.2 s, 51
/// fork/join rounds, about 1.1 s of host time.
const UNBALANCED_DURATION: u64 = 466_000_000;
/// Below this many `--seconds` the repetition itself is shortened in
/// proportion (`all --smoke`), so even one repetition stays short.
const FULL_LENGTH_FROM_SECONDS: f64 = 8.0;

/// What one repetition produced: the simulated result, which must
/// repeat exactly, and the host time it took.
struct Rep {
    report: RunReport,
    /// Simulated ops per simulated second, in thousands.
    virtual_kops: f64,
    /// `(got, want)` pairs the workload's own accounting must satisfy.
    identities: Vec<(&'static str, u64, u64)>,
    host: Duration,
    cpu: Duration,
}

/// Times one simulation: host time and process CPU time around `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let (t, cpu0) = (Instant::now(), crate::host::cpu_time());
    let out = f();
    (
        out,
        t.elapsed(),
        crate::host::cpu_time().saturating_sub(cpu0),
    )
}

fn virtual_duration(full: u64, cfg: &RunCfg) -> u64 {
    (full as f64 * (cfg.seconds / FULL_LENGTH_FROM_SECONDS).min(1.0)) as u64
}

/// Runs `one` until the next repetition would overrun `--seconds`; a
/// traced run makes one repetition (its time goes to the comparators).
fn repeat(
    cfg: &RunCfg,
    out: &mut Outcome,
    mut one: impl FnMut(PaperConfig) -> Rep,
) -> (Vec<Rep>, f64) {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let t = Instant::now();
        let rep = one(PaperConfig::MelyImprovedWs);
        out.spans
            .record("run", reps.len() as u64, None, t, Instant::now());
        if reps.is_empty() {
            // One simulation's footprint; later repetitions only add
            // what the allocator keeps of the earlier ones.
            peak_rss_mb = crate::host::peak_rss_mb();
        }
        reps.push(rep);
        let last = reps.last().expect("just pushed").host;
        if cfg.trace || start.elapsed() + last > budget {
            break;
        }
    }
    let first = &reps[0];
    let same = reps.iter().all(|r| {
        r.report.fingerprint() == first.report.fingerprint()
            && r.report.wall_cycles() == first.report.wall_cycles()
            && r.report.events_processed() == first.report.events_processed()
            && r.virtual_kops.to_bits() == first.virtual_kops.to_bits()
    });
    out.check(
        "every repetition is bit-equal to the first",
        same,
        format!(
            "{} repetitions, fingerprint {}",
            reps.len(),
            first.report.fingerprint()
        ),
    );
    for &(name, got, want) in &first.identities {
        out.check_eq(name, got, want);
    }
    (reps, peak_rss_mb)
}

/// Fills the sheet from the repetitions; shared by both workloads.
fn account(
    cfg: &RunCfg,
    out: &mut Outcome,
    (reps, peak_rss_mb): &(Vec<Rep>, f64),
    setups: &[Duration],
    one: impl FnMut(PaperConfig) -> Rep,
    colors: Vec<u16>,
) {
    let first = &reps[0];
    let events = first.report.events_processed();
    let total_events = events * reps.len() as u64;
    let t = first.report.total();
    out.attempted = total_events;
    out.failed = (t.failed_requests + t.shed_requests) * reps.len() as u64;
    out.fingerprint = Some(first.report.fingerprint().to_string());

    let quartile = |v: &[f64], q: f64| quantile(&sorted(v.to_vec()), q);
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| events as f64 / r.host.as_secs_f64())
        .collect();
    let cpu_us: Vec<f64> = reps.iter().map(|r| cpu_us_per_op(r.cpu, events)).collect();
    let host_rate = quartile(&rates, 0.25);
    let s = &mut out.sheet;
    s.set("throughput_ops_s", host_rate, total_events);
    // The simulator has no per-op latency on the host side, and its
    // virtual latencies are bit-constant; the latency cell carries the
    // host time per 1 000 simulated events (README, "fill cells").
    s.set("latency_p50_us", 1e9 / host_rate, reps.len() as u64);
    s.set("virtual_throughput", first.virtual_kops, reps.len() as u64);
    out.set_process_metrics(quartile(&cpu_us, 0.75), total_events, setups, *peak_rss_mb);

    let s = &mut out.sheet;
    s.set(
        "fail_frac",
        out.failed as f64 / total_events.max(1) as f64,
        total_events,
    );
    crate::ledger::scheduler(s, &first.report);
    s.set("core.sim.host_ns_per_event", 1e9 / host_rate, total_events);
    s.set(
        "core.sim.virtual_cycles_per_event",
        t.busy_cycles as f64 / events.max(1) as f64,
        events,
    );
    s.set(
        "core.sim.lock_time_frac",
        first.report.lock_time_fraction(),
        t.lock_ops,
    );
    s.set(
        "core.sim.l2_misses_per_event",
        first.report.l2_misses_per_event(),
        events,
    );
    if cfg.trace {
        comparators(out, first.virtual_kops, one);
        let captured = Captured {
            colors,
            ..Captured::default()
        };
        replay::run_all(&mut out.sheet, &captured, cfg);
    }
}

/// The paper's two baselines for the same workload, traced run only:
/// Libasync-smp without workstealing and with its own.
fn comparators(out: &mut Outcome, mely_ws: f64, mut one: impl FnMut(PaperConfig) -> Rep) {
    for (name, config) in [
        ("core.sim.virtual_speedup_vs_nows", PaperConfig::Libasync),
        (
            "core.sim.virtual_speedup_vs_legacy_ws",
            PaperConfig::LibasyncWs,
        ),
    ] {
        let t = Instant::now();
        let base = one(config);
        out.spans.record("comparator", 0, None, t, Instant::now());
        out.sheet
            .set(name, mely_ws / base.virtual_kops.max(1e-9), 1);
    }
}

pub fn sws(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new(cfg, 1);
    let duration = virtual_duration(SWS_DURATION, cfg);
    out.notes.push(format!(
        "seed-independent; sws_run(Mely - WS, {SWS_CLIENTS} clients, {duration} cycles) on 8 simulated cores"
    ));
    // `sws_run` builds, installs and runs in one call; set-up is timed
    // on the same public constructors it uses (after the repetitions,
    // to keep it out of `peak_rss_mb`).
    let timed_setups = || -> Vec<Duration> {
        (0..=SETUP_REPEATS)
            .map(|_| {
                let t = Instant::now();
                let built = twin::sws_sim(SWS_CLIENTS, 150, duration);
                let took = t.elapsed();
                drop(built);
                took
            })
            .collect()
    };

    let one = |config: PaperConfig| {
        let (r, host, cpu) = timed(|| sws_run(config, SWS_CLIENTS, duration));
        Rep {
            virtual_kops: r.kreq_per_sec(),
            identities: vec![
                (
                    "runtime completed requests == server responses",
                    r.report.completed_requests(),
                    r.server.responses,
                ),
                (
                    "server 200 responses == server responses",
                    r.server.ok,
                    r.server.responses,
                ),
            ],
            report: r.report,
            host,
            cpu,
        }
    };
    let reps = repeat(cfg, &mut out, one);
    // 1 000 connections, a handful of events each, reopened every 150
    // requests: the color order a core's queue sees.
    let colors = (0..4_096u32)
        .map(|i| 0x100 + ((i / 4) % 1_000) as u16)
        .collect();
    account(cfg, &mut out, &reps, &timed_setups(), one, colors);
    out
}

pub fn unbalanced(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new(cfg, 1);
    let ucfg = UnbalancedCfg {
        duration: virtual_duration(UNBALANCED_DURATION, cfg),
        seed: cfg.seed,
        ..UnbalancedCfg::default()
    };
    out.notes.push(format!(
        "unbalanced(Mely - WS, duration {} cycles, seed {}) on {} simulated cores",
        ucfg.duration, ucfg.seed, ucfg.cores
    ));
    // Set-up ends when the first event can run: the runtime is built
    // and the first round's fork is registered on core 0.
    let timed_setups = || -> Vec<Duration> {
        (0..=SETUP_REPEATS)
            .map(|_| {
                let t = Instant::now();
                let mut rt = runtime(ExecKind::Sim, ucfg.cores);
                for i in 0..ucfg.events_per_round {
                    let color = Color::new((1 + (i % 65_000)) as u16);
                    rt.register_pinned(Event::new(color, ucfg.short_cost), 0);
                }
                let took = t.elapsed();
                drop(rt);
                took
            })
            .collect()
    };

    let one = |config: PaperConfig| {
        let (report, host, cpu) = timed(|| unbalanced_run(config, &ucfg));
        let total = report.total();
        Rep {
            virtual_kops: report.kevents_per_sec(),
            identities: vec![(
                "events processed == events registered",
                total.events_processed,
                total.registered,
            )],
            report,
            host,
            cpu,
        }
    };
    let reps = repeat(cfg, &mut out, one);
    // `unbalanced` gives event `i` of a round color `1 + i % 65000`.
    let colors = (0..4_096u32).map(|i| (1 + i % 65_000) as u16).collect();
    account(cfg, &mut out, &reps, &timed_setups(), one, colors);
    out
}
