//! Steal-domain ablation: flat vs hierarchical victim selection on a
//! spoofed dual-socket machine, scored by the cachesim transfer model.
//!
//! The workload is the worst case for locality-blind stealing: one hot
//! core *per socket* (cores 0 and 8 of a `2s×4c×2t/l2=2/llc=8` machine)
//! seeded with hundreds of single-color events while every other core
//! idles. A topology-blind victim order sends the idle cores of socket 1
//! to the globally busiest core — across the interconnect — even though
//! an equally loaded victim sits on their own socket. The hierarchical
//! policy keeps them home.
//!
//! Each policy runs the same deterministic sim workload; from the
//! per-tier steal counters the bench computes the *predicted* transfer
//! penalty with `mely_cachesim::steal_transfer_penalty_cycles` (one
//! working set refetched per successful steal, priced by the first
//! cache level the thief/victim pair shares) and prints it next to the
//! *measured* steal cost the simulator charged.
//!
//! The run is deterministic, so the contract — hierarchical predicts
//! well under flat's cross-socket traffic — is pinned exactly by the
//! golden output CI diffs (`benches/golden/steal_domains.txt`).

use mely_bench::steal::{predicted_transfer_cycles, tier_split};
use mely_core::prelude::*;

/// The spoofed topology: 2 sockets × 4 physical cores × 2 SMT threads,
/// L2 per SMT pair, LLC per socket — the shape from the steal-domains
/// design discussion.
const SPEC: &str = "2s×4c×2t/l2=2/llc=8";

/// Working set assumed to move with one successful steal (a stolen
/// color queue's events plus the data they touch): 4 KiB.
const WORKSET_BYTES: u64 = 4 << 10;

/// Single-color events seeded on each of the two hot cores.
const EVENTS_PER_HOT_CORE: u16 = 200;

/// Runs the two-hot-cores workload under `ws` and `policy` and returns
/// the report. Deterministic: same policy, same schedule, same counters.
fn run(machine: &MachineModel, ws: WsPolicy, policy: StealPolicy) -> RunReport {
    let mut rt = RuntimeBuilder::new()
        .cores(machine.num_cores())
        .machine(machine.clone())
        .flavor(Flavor::Mely)
        .workstealing(ws)
        .steal_policy(policy)
        .build(ExecKind::Sim);
    for (hot, base) in [(0usize, 1u16), (8, 20_000)] {
        for i in 0..EVENTS_PER_HOT_CORE {
            rt.register_pinned(Event::new(Color::new(base + i), 30_000), hot);
        }
    }
    rt.run()
}

fn main() {
    let machine = MachineModel::from_spec(SPEC).expect("valid spec");
    let domains = StealDomains::new(&machine, machine.num_cores());

    println!(
        "steal-domain ablation on {} ({EVENTS_PER_HOT_CORE} events per hot core)",
        machine.name()
    );
    println!(
        "{:<16} {:>9} {:>22} {:>8} {:>15} {:>15}",
        "policy", "KEvents/s", "steals smt/llc/s/r", "remote%", "predicted cy", "measured cy"
    );

    // Flat follows the locality toggle: off is the paper's Figure 2
    // order, on its Section III-A cache-distance order.
    let base = WsPolicy::base();
    let rows = [
        ("flat", base, StealPolicy::Flat),
        ("flat+loc", base.with_locality(true), StealPolicy::Flat),
        ("hierarchical", base, StealPolicy::Hierarchical),
    ];
    for (name, ws, policy) in rows {
        let r = run(&machine, ws, policy);
        let by_tier = r.steals_by_tier();
        let steals = r.total().steals.max(1);
        let remote_frac = by_tier[3] as f64 / steals as f64;
        let predicted = predicted_transfer_cycles(&machine, &domains, by_tier, WORKSET_BYTES);
        let measured = r.total().steal_cycles;
        println!(
            "{:<16} {:>9.0} {:>22} {:>7.1}% {:>15} {:>15}",
            name,
            r.kevents_per_sec(),
            tier_split(by_tier),
            100.0 * remote_frac,
            predicted,
            measured
        );
    }
}
