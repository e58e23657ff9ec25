//! `sfs_threaded`: `FileServerService` on the threaded executor — 16
//! closed-loop sessions of 8 KB reads with real encrypt + MAC and
//! in-graph verification. The service drives itself, so all N cores are
//! workers. Seed-independent: the request schedule is structural.

use std::time::{Duration, Instant};

use mely_core::prelude::*;
use mely_crypto::crypto_cost_cycles;
use sfs::{FileServerConfig, FileServerService};

use super::{cpu_us_per_op, runtime, twin, Outcome, RunCfg, Slices, SETUP_REPEATS};
use crate::replay::{self, Captured};
use crate::spans::Spans;
use crate::stats::hist_quantile;

pub const SESSIONS: u64 = 16;
pub const CHUNK: u64 = 8 << 10;
/// Reads per session per second of `--seconds`: the work is fixed by
/// the run length, not by the clock, so the ledger's structural event
/// count can be checked. Sized to about three quarters of the run
/// length on the 2-CPU container the benchmark was calibrated on.
const READS_PER_SESSION_PER_SECOND: f64 = 450.0;

pub fn config(reads_per_session: u64) -> FileServerConfig {
    FileServerConfig {
        sessions: SESSIONS,
        requests_per_session: reads_per_session,
        chunk: CHUNK,
        ..FileServerConfig::default()
    }
}

fn build(workers: usize, reads: u64, spans: &mut Spans) -> (Runtime, FileServerService) {
    let mut rt = spans.scope("setup.build_runtime", || {
        runtime(ExecKind::Threaded, workers)
    });
    let svc = spans.scope("setup.install", || {
        rt.install(FileServerService::new(config(reads)))
    });
    (rt, svc)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let workers = cfg.sizing.n;
    let reads_per_session = ((cfg.seconds * READS_PER_SESSION_PER_SECOND) as u64).max(20);
    let mut out = Outcome::new(cfg, workers);
    out.notes.push(format!(
        "seed-independent; {SESSIONS} sessions x {reads_per_session} reads of {CHUNK} B, {workers} worker core(s)"
    ));

    let (mut rt, svc) = build(workers, reads_per_session, &mut out.spans);

    // The runtime runs on its own thread; this one watches the read
    // counter to cut the run into slices.
    let run_start = Instant::now();
    let cpu0 = crate::host::cpu_time();
    let mut slices = Slices::default();
    let (report, elapsed) = std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let report = rt.run();
            (report, run_start.elapsed())
        });
        let mut seen = 0;
        while !runner.is_finished() {
            std::thread::sleep(Duration::from_millis(5));
            let reads = svc.stats().reads;
            slices.add(run_start.elapsed(), reads - seen);
            seen = reads;
        }
        runner.join().expect("the runtime thread panicked")
    });
    let cpu = crate::host::cpu_time().saturating_sub(cpu0);
    out.spans
        .record("run", 0, None, run_start, run_start + elapsed);
    let rss_after_run = crate::host::peak_rss_mb();

    // Set-up through the first verified read of every session: build,
    // install (the file is generated), start the workers. Timed after
    // the measured part, so that what the allocator keeps of the
    // throw-away runtimes is not in `peak_rss_mb`.
    let mut quiet = Spans::new(false, cfg.process_start);
    let setups: Vec<Duration> = (0..=SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let (mut rt, svc) = build(workers, 1, &mut quiet);
            rt.run();
            assert_eq!(svc.stats().verified, SESSIONS, "set-up probe reads verify");
            t.elapsed()
        })
        .collect();

    let stats = svc.stats();
    out.attempted = svc.expected_requests();
    out.failed = out.attempted - stats.verified.min(out.attempted);
    out.check_eq(
        "reads == expected requests",
        stats.reads,
        svc.expected_requests(),
    );
    out.check_eq("verified == reads", stats.verified, stats.reads);
    out.check_eq("corrupt", stats.corrupt, 0);
    out.check_eq(
        "events processed == expected events",
        report.events_processed(),
        svc.expected_events(),
    );
    out.check_eq(
        "runtime completed requests == reads",
        report.completed_requests(),
        stats.reads,
    );

    // The last slices hold the tail where sessions finish one by one;
    // the median does not see them.
    let throughput = slices.throughput(elapsed, stats.reads);
    let hist = report.latency_histogram();
    let s = &mut out.sheet;
    s.set("throughput_ops_s", throughput, stats.reads);
    for (name, q) in [("latency_p50_us", 0.50), ("client.latency_p99_us", 0.99)] {
        s.set(
            name,
            cfg.cycles_to_us(hist_quantile(&hist, q)),
            hist.count(),
        );
    }
    s.set("virtual_throughput", twin::sfs(), 1);
    out.set_process_metrics(
        cpu_us_per_op(cpu, stats.reads),
        stats.reads,
        &setups,
        rss_after_run,
    );

    let s = &mut out.sheet;
    let reads = stats.reads.max(1);
    s.set(
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    crate::ledger::threaded(s, &report, reads as f64);
    s.set(
        "sfs.verified_frac",
        stats.verified as f64 / reads as f64,
        reads,
    );
    s.set("sfs.corrupt", stats.corrupt as f64, reads);
    let costs = &svc.config().costs;
    let declared =
        costs.read_request + costs.process_read + crypto_cost_cycles(CHUNK) + costs.send_reply;
    s.set(
        "sfs.annotated_cost_share",
        (declared * reads) as f64 / report.total().busy_cycles.max(1) as f64,
        reads,
    );
    if cfg.trace {
        let captured = Captured {
            chunk: (0..CHUNK).map(sfs::gen_byte).collect(),
            // `Encrypt` is keyed per session, the protocol stages share
            // one serial color: per read, serial, serial, session, serial.
            colors: (0..SESSIONS * 16)
                .flat_map(|i| {
                    let session = 16 + ((i % SESSIONS) * 5) % 13;
                    [1, 1, 0x100 + session as u16, 1]
                })
                .collect(),
            ..Captured::default()
        };
        replay::run_all(&mut out.sheet, &captured, cfg);
    }
    out
}
