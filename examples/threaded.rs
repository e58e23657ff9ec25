//! External producers injecting into a running executor through the
//! executor-agnostic `Injector` — per-core injection inboxes on both
//! executors.
//!
//! Defaults to the threaded executor (that is where the inbox stats are
//! interesting); set `MELY_EXEC=sim` to watch the identical producer
//! code drive the simulation instead.
//!
//! Run with `cargo run --release --example threaded`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mely_repro::core::cycles;
use mely_repro::core::prelude::*;

fn main() {
    let kind = mely_repro::exec_kind_from_env(ExecKind::Threaded);
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(kind);

    let sum = Arc::new(AtomicU64::new(0));
    // 200 colored tasks, all pinned to core 0. The declared 20 000
    // cycles are virtual time under `sim` and the thieves' hint under
    // threads, where a task costs what its action takes: the action
    // burns them, then does its real work.
    for i in 0..200u16 {
        let sum = Arc::clone(&sum);
        rt.register_pinned(
            Event::new(Color::new(i + 1), 20_000).with_action(move |_ctx| {
                cycles::spin(20_000);
                sum.fetch_add(u64::from(i) + 1, Ordering::Relaxed);
            }),
            0,
        );
    }

    // Meanwhile, two external producer threads inject 300 more events
    // each through the executor's injection path (never touching a
    // core's dispatch spinlock), the way a network frontend would.
    let injected = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..2u16)
        .map(|p| {
            let injector = rt.injector();
            let injected = Arc::clone(&injected);
            std::thread::spawn(move || {
                for i in 0..300u16 {
                    let injected = Arc::clone(&injected);
                    injector.inject(
                        Event::new(Color::new(500 + p * 300 + i), 5_000).with_action(move |_ctx| {
                            injected.fetch_add(1, Ordering::Relaxed);
                        }),
                    );
                }
            })
        })
        .collect();

    // Keep the workers alive until every producer is done, then let the
    // runtime drain and stop it.
    let keepalive = rt.injector().keepalive();
    let stopper = rt.injector();
    let waiter = std::thread::spawn(move || {
        for p in producers {
            p.join().unwrap();
        }
        stopper.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    waiter.join().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), (1..=200u64).sum());
    assert_eq!(injected.load(Ordering::Relaxed), 600);
    println!("executor         : {kind}");
    println!("events processed : {}", report.events_processed());
    println!("steals           : {}", report.total().steals);
    println!(
        "injected         : {} executed of {} pushed via inboxes",
        injected.load(Ordering::Relaxed),
        report.total().inbox_pushes
    );
    println!(
        "inbox drains     : {} events in {} batches (avg {:.1}/drain, {} re-routed after steals)",
        report.total().inbox_drained,
        report.total().inbox_drain_batches,
        report.avg_inbox_drain_batch().unwrap_or(0.0),
        report.total().inbox_rerouted,
    );
    println!(
        "wall             : {:.2} ms (cycle-counter time)",
        report.wall_secs() * 1e3
    );
    for (i, c) in report.per_core().iter().enumerate() {
        println!(
            "core {i}: {:>4} events ({} drained from inbox)",
            c.events_processed, c.inbox_drained
        );
    }
}
