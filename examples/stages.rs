//! The typed stage-graph API end to end: declare stages, build a
//! pipeline, run it unmodified on either executor, and read per-request
//! latency percentiles from the report.
//!
//! A tiny three-stage "image service": `Resize` (keyed per client — one
//! client's jobs serialize, different clients parallelize) → `Compress`
//! (inherits the client's color) → `Deliver` (serial bookkeeping,
//! completes the request). Half the jobs are seeded before the run;
//! the other half arrive *while it runs*, submitted from a producer
//! thread through the typed `StageSender` (the owning core's injection
//! inbox, on both executors).
//!
//! Pick an executor with `MELY_EXEC=sim` (default) or
//! `MELY_EXEC=threaded`. Run with `cargo run --release --example
//! stages`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mely_repro::core::prelude::*;

/// One resize job: which client asked, and how many pixels.
#[derive(Clone, Copy)]
struct Job {
    client: u64,
    pixels: u64,
}

struct Resize;
struct Compress;
struct Deliver {
    delivered: Arc<AtomicU64>,
}

impl Stage for Resize {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        // Cost annotation drives the workstealing heuristics; keyed
        // coloring serializes per client.
        StageSpec::new("Resize").cost(30_000).keyed(|j| j.client)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        ctx.charge(job.pixels / 64); // data-dependent extra work
        ctx.to::<Compress>(job);
    }
}

impl Stage for Compress {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        StageSpec::new("Compress").cost(20_000).inherit_color()
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        ctx.to::<Deliver>(job);
    }
}

impl Stage for Deliver {
    type In = Job;
    fn spec(&self) -> StageSpec<Job> {
        StageSpec::new("Deliver").cost(5_000)
    }
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, job: Job) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        // Close the request (latency: Resize dispatch → here) and hand
        // the result to the pipeline's collector.
        ctx.complete(job.client);
    }
}

const CLIENTS: u64 = 12;
const JOBS_PER_CLIENT: u64 = 8;

fn main() {
    let kind = mely_repro::exec_kind_from_env(ExecKind::Sim);
    let delivered = Arc::new(AtomicU64::new(0));

    let mut builder = PipelineBuilder::new("image-service")
        .stage(Resize)
        .stage(Compress)
        .stage(Deliver {
            delivered: Arc::clone(&delivered),
        });
    let outputs = builder.collect::<u64>();
    // First half of the load: seeded before the run.
    for client in 0..CLIENTS {
        for j in 0..JOBS_PER_CLIENT / 2 {
            builder = builder.seed::<Resize>(Job {
                client,
                pixels: 1_000 + j * 500,
            });
        }
    }

    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(kind);
    let pipeline = rt.install(builder.build());

    // Second half: submitted mid-run by an external producer through
    // the typed sender — identical code on both executors.
    let sender = pipeline.sender(rt.injector());
    let keepalive = sender.injector().keepalive();
    let producer = std::thread::spawn(move || {
        for client in 0..CLIENTS {
            for j in JOBS_PER_CLIENT / 2..JOBS_PER_CLIENT {
                sender.submit::<Resize>(Job {
                    client,
                    pixels: 1_000 + j * 500,
                });
            }
        }
        sender.injector().stop_when_idle();
        drop(keepalive);
    });

    let report = rt.run();
    producer.join().unwrap();

    let total = CLIENTS * JOBS_PER_CLIENT;
    assert_eq!(delivered.load(Ordering::Relaxed), total);
    assert_eq!(report.completed_requests(), total);
    assert_eq!(report.events_processed(), 3 * total);
    assert!(report.latency_p50() <= report.latency_p99());
    let outs = outputs.take();
    assert_eq!(outs.len() as u64, total);

    println!("executor           : {kind}");
    println!("jobs delivered     : {}", delivered.load(Ordering::Relaxed));
    println!("events processed   : {}", report.events_processed());
    println!("completed requests : {}", report.completed_requests());
    println!(
        "request latency    : p50 ≤ {} cycles, p99 ≤ {} cycles",
        report.latency_p50(),
        report.latency_p99()
    );
    println!("steals             : {}", report.total().steals);
    for (i, c) in report.per_core().iter().enumerate() {
        println!(
            "core {i}: {:>3} events, {:>3} requests completed",
            c.events_processed, c.completed_requests
        );
    }
}
