//! Topology explorer: print the machine model the runtime would use,
//! its steal tiers, and the victim order each core's thief follows.
//!
//! The model is the `MELY_TOPOLOGY` spec when the variable is set (e.g.
//! `MELY_TOPOLOGY=2s×4c×2t/l2=2/llc=8`, see `mely_topology::spec` for
//! the grammar), else the paper's Xeon E5410 preset.
//!
//! Run with `cargo run --example topology`, optionally with the env var:
//!
//! ```text
//! MELY_TOPOLOGY=2s×4c×2t/l2=2/llc=8 cargo run --example topology
//! ```

use mely_repro::core::prelude::*;
use mely_repro::topology::TOPOLOGY_ENV;

fn main() {
    let (machine, source) = match MachineModel::from_env() {
        Ok(Some(m)) => (m, format!("spoofed via {TOPOLOGY_ENV}")),
        Ok(None) => (MachineModel::xeon_e5410(), "preset".to_string()),
        Err(e) => {
            eprintln!("bad {TOPOLOGY_ENV} spec: {e}");
            std::process::exit(1);
        }
    };

    println!("machine : {} ({source})", machine.name());
    println!(
        "shape   : {} cores, {} socket(s), {} SMT thread(s)/core",
        machine.num_cores(),
        machine.num_sockets(),
        machine.smt_per_core()
    );
    for l in machine.levels() {
        println!(
            "cache   : L{} {:>8} B, {:>3} cycles, shared by {} core(s)",
            l.level, l.size_bytes, l.latency_cycles, l.cores_per_instance
        );
    }
    println!("memory  : {} cycles", machine.mem_latency_cycles());

    let domains = StealDomains::new(&machine, machine.num_cores());
    let policy = StealPolicy::for_machine(&machine);
    println!("policy  : {policy} (builder default for this machine)");
    println!();

    println!("steal tiers and victim order per thief:");
    for thief in 0..machine.num_cores() {
        let groups: Vec<String> = domains
            .tiers(thief)
            .iter()
            .map(|(tier, members)| format!("{tier}:{members:?}"))
            .collect();
        println!("  core {thief:>2}: {}", groups.join("  "));
    }
    println!();
    println!("hierarchical victim order (nearest tier first, then distance):");
    for thief in 0..machine.num_cores() {
        println!("  core {thief:>2}: {:?}", domains.victims(thief));
    }
}
