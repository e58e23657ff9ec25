//! Quickstart: build a Mely runtime, register colored events, watch the
//! improved workstealing balance an unbalanced load.
//!
//! The same code drives either executor through the unified
//! `Executor` API — pick one with `MELY_EXEC=sim` (default) or
//! `MELY_EXEC=threaded`.
//!
//! Run with `cargo run --example quickstart`.

use mely_repro::core::cycles;
use mely_repro::core::prelude::*;

fn main() {
    let kind = mely_repro::exec_kind_from_env(ExecKind::Sim);

    // An 8-core machine running Mely with the paper's full improved
    // workstealing (locality + time-left + penalty heuristics): a
    // simulated Xeon E5410 under `sim`, one OS thread per core under
    // `threaded` — same builder, same API.
    let mut rt = RuntimeBuilder::new()
        .cores(8)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(kind);

    // 400 independent events, all placed on core 0: a badly unbalanced
    // load. Each carries its own color, so they may run concurrently —
    // once thieves move them. The declared 25 000 cycles are the event's
    // virtual time under `sim` and what thieves weigh it by; under
    // `threaded` an event costs what its action takes, so the action
    // burns them for real.
    for i in 0..400u16 {
        rt.register_pinned(
            Event::new(Color::new(i + 1), 25_000)
                .named("quickstart-work")
                .with_action(|_| cycles::spin(25_000)),
            0,
        );
    }

    // Chain follow-up events from a handler: same color => serialized.
    rt.register(Event::new(Color::new(5_000), 10_000).with_action(|ctx| {
        ctx.register(Event::new(Color::new(5_000), 10_000).named("follow-up"));
    }));

    let report = rt.run();
    println!("executor         : {kind}");
    println!("events processed : {}", report.events_processed());
    println!("wall time        : {:.3} ms", report.wall_secs() * 1e3);
    println!(
        "throughput       : {:.0} KEvents/s",
        report.kevents_per_sec()
    );
    println!("steals           : {}", report.total().steals);
    println!(
        "avg steal cost   : {:.0} cycles",
        report.avg_steal_cycles().unwrap_or(0.0)
    );
    for (i, c) in report.per_core().iter().enumerate() {
        println!("core {i}: {:>4} events", c.events_processed);
    }
    assert_eq!(report.events_processed(), 402);
    assert!(report.total().steals > 0, "thieves should have helped");
}
