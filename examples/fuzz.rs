//! Schedule fuzzing from the command line: sweep seeds over a fork/join
//! workload on the perturbed sim executor, check the structural
//! invariants on every schedule, and print each seed's fingerprint.
//!
//! Run with `cargo run --example fuzz` (16 seeds), or pick the sweep
//! with `MELY_FUZZ_SEEDS=64 cargo run --example fuzz`. Replay one seed
//! with `MELY_FUZZ_SEED=0x2a cargo run --example fuzz` — same seed,
//! same fingerprint, every time.
//!
//! A second sweep arms each seed with a [`FaultPlan`] (injected handler
//! panics and event drops at `MELY_FAULT_RATE`, default 2%) and prints
//! the supervision counters — faults, quarantined colors, events shed
//! by quarantine — checking that every fault schedule is contained and
//! the event accounting balances.

use mely_repro::core::prelude::*;

/// The workload under test: an unbalanced fork/join cascade of raw
/// events. Each of 32 seeds (all pinned to core 0) forks 3 children on
/// fresh colors; 32 * (1 + 3) = 128 events total on every schedule.
fn install(rt: &mut Runtime) {
    for s in 0..32u16 {
        rt.register_pinned(
            Event::new(Color::new(s + 1), 8_000).with_action(move |ctx| {
                for w in 0..3u16 {
                    ctx.register(Event::new(Color::new(1_000 + s * 3 + w), 3_000));
                }
            }),
            0,
        );
    }
}

fn sweep_seeds() -> Vec<u64> {
    if let Ok(one) = std::env::var("MELY_FUZZ_SEED") {
        let s = one.trim();
        let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        return vec![parsed.unwrap_or_else(|_| panic!("bad MELY_FUZZ_SEED {s:?}"))];
    }
    let n = std::env::var("MELY_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    (0..n).collect()
}

fn main() {
    let seeds = sweep_seeds();
    println!("sweeping {} perturbed schedule(s)\n", seeds.len());
    let mut failures = 0u32;
    let mut distinct: Vec<RunFingerprint> = Vec::new();
    for seed in seeds {
        let mut rt = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved())
            .schedule_seed(seed)
            .build(ExecKind::Sim);
        install(&mut rt);
        let report = rt.run();
        let fp = report.fingerprint();
        let ok = report.events_processed() == 128;
        if !ok {
            failures += 1;
        }
        if !distinct.contains(&fp) {
            distinct.push(fp);
        }
        println!(
            "seed {seed:#06x}  fingerprint {fp}  events {:>3}  steals {:>3}  {}",
            report.events_processed(),
            report.total().steals,
            if ok { "ok" } else { "INVARIANT VIOLATED" }
        );
        if !ok {
            println!("  replay: MELY_FUZZ_SEED={seed:#x} cargo run --example fuzz");
        }
    }
    println!("\n{} distinct schedule(s) explored", distinct.len());
    assert_eq!(failures, 0, "some perturbed schedule broke an invariant");

    chaos_sweep();
}

/// The chaos sweep: the same workload, now with seeded fault injection.
/// Contained panics quarantine their colors; the run must still return
/// a coherent report on every seed.
fn chaos_sweep() {
    // Injected panics still run the panic hook; a sweep fires dozens.
    // The payloads are the injector's marker (not a string), so a
    // filtering hook keeps deliberate chaos quiet and real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        if p.downcast_ref::<&str>().is_some() || p.downcast_ref::<String>().is_some() {
            default_hook(info);
        }
    }));

    let rate: f64 = std::env::var("MELY_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);
    let seeds = sweep_seeds();
    println!(
        "\nsweeping {} fault schedule(s) at {:.1}% injection\n",
        seeds.len(),
        rate * 100.0
    );
    let mut total_faults = 0u64;
    for seed in seeds {
        let mut rt = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved())
            .fault_plan(FaultPlan {
                seed,
                panic_per_million: FaultPlan::rate_per_million(rate),
                drop_per_million: FaultPlan::rate_per_million(rate / 2.0),
                timer_spike_per_million: 0,
                timer_spike_cycles: 0,
            })
            .build(ExecKind::Sim);
        install(&mut rt);
        let report = rt.run();
        total_faults += report.total().faults;
        println!(
            "seed {seed:#06x}  fingerprint {}  events {:>3}  faults {:>2}  \
             quarantined {:>2}  shed-by-fault {:>3}  of {:>3} registered",
            report.fingerprint(),
            report.events_processed(),
            report.total().faults,
            report.total().quarantined_colors,
            report.total().shed_by_fault,
            report.total().registered,
        );
        // Containment accounting. Every *queued* event ends exactly one
        // way — executed, faulted (injected drop or contained panic), or
        // discarded by the quarantine drain — so processed + faults +
        // sheds covers `registered`. It can exceed it (fan-out into a
        // quarantined color is shed before queueing) but never
        // undershoot, and processed + faults alone never exceed it.
        let t = report.total();
        let replay = format!("MELY_FUZZ_SEED={seed:#x} cargo run --example fuzz");
        assert!(
            t.events_processed + t.faults + t.shed_by_fault >= t.registered,
            "seed {seed:#x}: a queued event vanished unaccounted (replay: {replay})"
        );
        assert!(
            t.events_processed + t.faults <= t.registered,
            "seed {seed:#x}: an event was double-counted (replay: {replay})"
        );
        assert_eq!(
            report.fault_log().len() as u64,
            t.faults,
            "seed {seed:#x}: fault log out of sync with counters (replay: {replay})"
        );
    }
    println!("\n{total_faults} fault(s) injected and contained across the sweep");
}
