//! Ablations beyond the paper's tables:
//!
//! 1. every heuristic combination on the *unbalanced* workload;
//! 2. the batch-threshold starvation knob (paper fixes it at 10);
//! 3. sensitivity of the Libasync collapse to the per-event scan cost
//!    (the paper's measured 190 cycles).

use mely_bench::table::TextTable;
use mely_bench::workloads::UnbalancedCfg;
use mely_core::cost::CostParams;
use mely_core::prelude::*;

/// The unbalanced workload's fork/join rounds on a runtime configured by
/// the caller; returns the last round's (cumulative) report.
fn run_rounds(mut rt: Runtime, cfg: &UnbalancedCfg) -> RunReport {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    loop {
        for i in 0..cfg.events_per_round {
            let color = Color::new((1 + (i % 65_000)) as u16);
            let cost = if rng.gen_range(0u32..100) < cfg.long_pct {
                rng.gen_range(cfg.long_cost.0..=cfg.long_cost.1)
            } else {
                cfg.short_cost
            };
            rt.register_pinned(Event::new(color, cost), 0);
        }
        let report = rt.run();
        if report.wall_cycles() >= cfg.duration {
            return report;
        }
    }
}

fn heuristic_matrix() {
    let cfg = UnbalancedCfg::default();
    let mut t = TextTable::new(vec!["locality", "time-left", "penalty", "KEvents/s"]);
    for bits in 0..8u8 {
        let (loc, tl, pen) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let ws = WsPolicy::base()
            .with_locality(loc)
            .with_time_left(tl)
            .with_penalty(pen);
        let rt = RuntimeBuilder::new()
            .cores(cfg.cores)
            .flavor(Flavor::Mely)
            .workstealing(ws)
            .build(ExecKind::Sim);
        let r = run_rounds(rt, &cfg);
        t.row(vec![
            loc.to_string(),
            tl.to_string(),
            pen.to_string(),
            format!("{:.0}", r.kevents_per_sec()),
        ]);
    }
    t.print("Ablation 1: heuristic combinations on unbalanced (Mely)");
}

fn batch_threshold_sweep() {
    let mut t = TextTable::new(vec![
        "batch threshold",
        "KEvents/s (unbalanced, Mely time-WS)",
    ]);
    for thr in [1u32, 2, 10, 50, 1_000] {
        let cfg = UnbalancedCfg::default();
        let rt = RuntimeBuilder::new()
            .cores(cfg.cores)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::base().with_time_left(true))
            .batch_threshold(thr)
            .build(ExecKind::Sim);
        t.row(vec![
            thr.to_string(),
            format!("{:.0}", run_rounds(rt, &cfg).kevents_per_sec()),
        ]);
    }
    t.print("Ablation 2: batch threshold (paper fixes 10)");
}

fn scan_cost_sensitivity() {
    let mut t = TextTable::new(vec![
        "scan cycles/event",
        "Libasync-WS KEvents/s (unbalanced)",
    ]);
    for scan in [0u64, 50, 190, 500] {
        let cfg = UnbalancedCfg {
            duration: 20_000_000,
            events_per_round: 5_000,
            ..UnbalancedCfg::default()
        };
        let rt = RuntimeBuilder::new()
            .cores(cfg.cores)
            .flavor(Flavor::Libasync)
            .workstealing(WsPolicy::base())
            .costs(CostParams {
                scan_per_event: scan,
                ..CostParams::default()
            })
            .build(ExecKind::Sim);
        t.row(vec![
            scan.to_string(),
            format!("{:.0}", run_rounds(rt, &cfg).kevents_per_sec()),
        ]);
    }
    t.print("Ablation 3: Libasync-WS collapse vs per-event scan cost");
    println!("(the paper's measured 190 cycles/event is the middle of the cliff)");
}

fn main() {
    heuristic_matrix();
    batch_threshold_sweep();
    scan_cost_sensitivity();
}
