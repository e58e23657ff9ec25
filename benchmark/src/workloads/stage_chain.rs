//! `stage_chain`: the four-hop typed pipeline of `micro_stage` (zero
//! declared cost, keyed → inherit → keyed → keyed) on the threaded
//! executor. One producer — this thread — keeps `OUTSTANDING` chains in
//! flight through `StageSender::submit`; one op is a completed chain.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mely_core::prelude::*;

use super::{
    cpu_us_per_op, quarter_is_traced, runtime, twin, AttribRow, Background, Outcome, Rng, RunCfg,
    Slices, SETUP_REPEATS,
};
use crate::replay::{self, Captured};
use crate::spans::{Spans, SAMPLE_EVERY};
use crate::stats::LatHist;

const OUTSTANDING: u64 = 1_024;

/// The message every hop forwards.
#[derive(Clone, Copy)]
pub struct Token {
    pub key: u64,
    /// Submit time, on one chain in `SAMPLE_EVERY` of the measured part:
    /// those chains give the latency metrics (two clock reads each).
    pub sent: Option<Instant>,
}

/// What the last hop tells the producer.
#[derive(Default)]
pub struct Completions {
    done: AtomicU64,
    /// Submit → last hop, of the chains that carried a submit time.
    latency: Mutex<LatHist>,
    /// While set, those chains are also kept as `request` spans.
    tracing: AtomicBool,
    spans: Mutex<Vec<(Instant, Instant)>>,
}

pub struct Hop1;
pub struct Hop2;
pub struct Hop3;
pub struct Hop4(pub Arc<Completions>);

impl Stage for Hop1 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop1").keyed(|t| t.key)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop2>(t);
    }
}

impl Stage for Hop2 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop2").inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop3>(t);
    }
}

impl Stage for Hop3 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop3").keyed(|t| t.key.wrapping_mul(31))
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.to::<Hop4>(t);
    }
}

impl Stage for Hop4 {
    type In = Token;
    fn spec(&self) -> StageSpec<Token> {
        StageSpec::new("hop4")
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, t: Token) {
        ctx.complete(());
        if let Some(sent) = t.sent {
            let now = Instant::now();
            self.0
                .latency
                .lock()
                .record(now.duration_since(sent).as_nanos() as u64);
            if self.0.tracing.load(Ordering::Relaxed) {
                self.0.spans.lock().push((sent, now));
            }
        }
        self.0.done.fetch_add(1, Ordering::Release);
    }
}

pub fn pipeline(completions: Arc<Completions>) -> Pipeline {
    PipelineBuilder::new("stage_chain")
        .stage(Hop1)
        .stage(Hop2)
        .stage(Hop3)
        .stage(Hop4(completions))
        .build()
}

struct Running {
    sender: StageSender,
    completions: Arc<Completions>,
    background: Background,
}

fn start(workers: usize, spans: &mut Spans) -> Running {
    let mut rt = spans.scope("setup.build_runtime", || {
        runtime(ExecKind::Threaded, workers)
    });
    let completions = Arc::new(Completions::default());
    let installed = spans.scope("setup.install", || {
        rt.install(pipeline(Arc::clone(&completions)))
    });
    let sender = installed.sender(rt.injector());
    let background = Background::start(rt);
    // Set-up ends when the first chain has come through.
    sender.submit::<Hop1>(Token { key: 0, sent: None });
    while completions.done.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    Running {
        sender,
        completions,
        background,
    }
}

impl Running {
    fn stop(self, spans: &mut Spans) -> RunReport {
        spans.scope("shutdown.drain", || self.background.stop())
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let workers = cfg.sizing.workers_beside_client();
    let mut out = Outcome::new(cfg, workers);
    let spans = &mut out.spans;
    let setup_start = Instant::now();
    let running = start(workers, spans);
    let first_setup = setup_start.elapsed();

    let warm = cfg.share(1, 8);
    let length = cfg.share(7, 8);
    let mut rng = Rng::new(cfg.seed);
    let mut keys: Vec<u64> = Vec::new();
    let mut slices = Slices::default();
    // The first chain was set-up's probe.
    let (mut submitted, mut seen) = (1u64, 1u64);

    let run_start = Instant::now();
    let mut measure_from: Option<(Instant, Duration, u64)> = None;
    let done = &running.completions.done;
    loop {
        let now = Instant::now();
        let since = now.duration_since(run_start);
        if measure_from.is_none() && since >= warm {
            measure_from = Some((now, crate::host::cpu_time(), seen));
        }
        if since >= warm + length {
            break;
        }
        let completed = done.load(Ordering::Acquire);
        if let Some((from, _, _)) = measure_from {
            slices.add(now.duration_since(from), completed - seen);
        }
        seen = completed;
        let traced_now = cfg.trace
            && measure_from
                .is_some_and(|(from, _, _)| quarter_is_traced(now.duration_since(from), length));
        running
            .completions
            .tracing
            .store(traced_now, Ordering::Relaxed);
        if submitted - completed >= OUTSTANDING {
            std::thread::yield_now();
            continue;
        }
        while submitted - completed < OUTSTANDING {
            let key = rng.next();
            if keys.len() < 4_096 {
                keys.push(key);
            }
            let sent = (submitted.is_multiple_of(SAMPLE_EVERY) && measure_from.is_some())
                .then(Instant::now);
            running.sender.submit::<Hop1>(Token { key, sent });
            submitted += 1;
        }
    }
    let (measured_from, cpu0, seen_at_start) = measure_from.expect("the run outlasts its warm-up");
    let elapsed = measured_from.elapsed();
    let cpu = crate::host::cpu_time().saturating_sub(cpu0);
    let measured_ops = done.load(Ordering::Acquire) - seen_at_start;
    spans.record("run", 0, None, run_start, Instant::now());
    let rss_after_run = crate::host::peak_rss_mb();

    let completions = Arc::clone(&running.completions);
    let report = running.stop(spans);
    let completed = completions.done.load(Ordering::Acquire);

    // More set-ups for `setup_s`'s median, after the measured part so
    // that what the allocator keeps of them is not in `peak_rss_mb`.
    let mut quiet = Spans::new(false, cfg.process_start);
    let mut setups = vec![first_setup];
    setups.extend((0..SETUP_REPEATS).map(|_| {
        let t = Instant::now();
        let running = start(workers, &mut quiet);
        let took = t.elapsed();
        running.stop(&mut quiet);
        took
    }));
    let lat = completions.latency.lock().clone();
    for (i, &(sent, done)) in completions.spans.lock().iter().enumerate() {
        spans.record("request", i as u64 + 1, None, sent, done);
    }

    out.attempted = submitted;
    out.failed = submitted - completed;
    out.check_eq("chains completed == submitted", completed, submitted);
    out.check_eq(
        "runtime completed requests == submitted",
        report.completed_requests(),
        submitted,
    );
    out.check_eq(
        "events processed == 4 per chain",
        report.events_processed(),
        4 * submitted,
    );
    out.notes.push(format!(
        "one producer keeps {OUTSTANDING} chains outstanding; {workers} worker core(s)"
    ));

    let throughput = slices.throughput(elapsed, measured_ops);
    let s = &mut out.sheet;
    s.set("throughput_ops_s", throughput, measured_ops);
    s.set("latency_p50_us", lat.quantile_us(0.50), lat.count());
    s.set("virtual_throughput", twin::stage_chain(), 1);
    out.set_process_metrics(
        cpu_us_per_op(cpu, measured_ops),
        measured_ops,
        &setups,
        rss_after_run,
    );

    let s = &mut out.sheet;
    s.set(
        "fail_frac",
        out.failed as f64 / submitted.max(1) as f64,
        submitted,
    );
    s.set("client.latency_p99_us", lat.quantile_us(0.99), lat.count());
    crate::ledger::threaded(s, &report, submitted as f64);
    let events = report.events_processed().max(1);
    // Worker-seconds per event over the measured window.
    s.set(
        "core.stage.ns_per_hop",
        workers as f64 * 1e9 / (throughput * 4.0).max(1e-9),
        events,
    );
    if cfg.trace {
        s.set(
            "trace.overhead_frac",
            slices.trace_overhead(elapsed, length),
            measured_ops,
        );
        let captured = Captured {
            // Keyed stages hash their key into the color plane; the
            // harness cannot see the hash, so the replay uses the keys'
            // low bits — as many distinct colors, in the same order.
            colors: keys.iter().map(|k| 1 + (k % 0x7FFF) as u16).collect(),
            ..Captured::default()
        };
        replay::run_all(&mut out.sheet, &captured, cfg);
        let v = |name: &str| out.sheet.get(name).map_or(0.0, |(v, _)| v);
        let rows = vec![
            AttribRow {
                layer: "core::threaded::inbox (push+drain)",
                calls_per_op: v("core.inbox.pushes_per_op"),
                ns_per_call: v("core.inbox.push_drain_ns"),
            },
            AttribRow {
                layer: "core::queue (push+pop)",
                calls_per_op: v("core.threaded.events_per_op"),
                ns_per_call: v("core.queue.mely_push_pop_ns"),
            },
        ];
        crate::ledger::attribution(&mut out, workers as f64 * 1e9 / throughput.max(1e-9), rows);
    }
    out
}
