//! Steal-domain invariants and the flat-policy compatibility contract.
//!
//! Three layers of assurance for the `StealPolicy` choice:
//!
//! - **structural properties** (proptest over random `from_spec`
//!   shapes): every thief's victim order is a permutation of the other
//!   running cores and is tier-monotone — a victim never appears before
//!   one at a strictly nearer tier;
//! - **bit-compatibility**: on machines that declare a single steal
//!   tier (every preset), the default policy resolves to `Flat`, and
//!   an explicitly set `StealPolicy::Flat` replays the exact default
//!   schedule — fingerprint-equal across the full perturbation seed
//!   sweep, and pinned to a hard-coded fingerprint so an accidental
//!   schedule change fails loudly even if it changes both sides alike;
//! - **locality**: on a spoofed dual-socket machine the hierarchical
//!   policy probes SMT and cache-sharing victims before remote sockets,
//!   and a two-hot-sockets workload finishes with zero cross-socket
//!   steals (the flat order crosses the interconnect on the same
//!   workload).
//!
//! The CI topology matrix runs this file under several `MELY_TOPOLOGY`
//! spoofs; [`topology_env_shapes_hold_the_invariants`] picks up
//! whatever shape the environment dictates.

use proptest::prelude::*;

use mely_repro::core::prelude::*;
use mely_repro::topology::{MachineModel, TOPOLOGY_ENV};

/// Mirrors the fuzz harness: `MELY_FUZZ_SEED` pins one seed,
/// `MELY_FUZZ_SEEDS` widens the sweep (default 16; CI uses 64).
fn seeds() -> Vec<u64> {
    if let Ok(one) = std::env::var("MELY_FUZZ_SEED") {
        let s = one.trim();
        let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        return vec![parsed.unwrap_or_else(|_| panic!("bad MELY_FUZZ_SEED {s:?}"))];
    }
    let n: u64 = std::env::var("MELY_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    (0..n).collect()
}

/// The canonical steal-heavy workload: every event pinned to core 0 so
/// every other core works purely through stealing.
fn canonical_workload(rt: &mut Runtime) {
    for c in 1..=24u16 {
        for i in 0..8u64 {
            rt.register_pinned(Event::new(Color::new(c), 3_000 + 500 * i), 0);
        }
    }
}

fn check_domain_invariants(machine: &MachineModel, cores: usize) {
    let d = StealDomains::new(machine, cores);
    assert_eq!(d.num_cores(), cores);
    for thief in 0..cores {
        let order = d.victims(thief);
        // Permutation of all other running cores.
        let mut seen = vec![false; cores];
        for &v in order {
            assert!(v < cores && v != thief, "victim {v} out of range");
            assert!(!seen[v], "victim {v} listed twice for thief {thief}");
            seen[v] = true;
        }
        assert_eq!(order.len(), cores - 1, "thief {thief} misses victims");
        // Tier-monotone: never a nearer tier after a farther one.
        for w in order.windows(2) {
            assert!(
                d.tier_of(thief, w[0]) <= d.tier_of(thief, w[1]),
                "thief {thief}: victim {} (tier {}) ordered after {} (tier {})",
                w[1],
                d.tier_of(thief, w[1]),
                w[0],
                d.tier_of(thief, w[0]),
            );
        }
        // The tier groups flatten to exactly the victim order.
        let flat: Vec<usize> = d
            .tiers(thief)
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect();
        assert_eq!(flat, order, "tiers and victim order disagree");
    }
    // Sockets partition the running cores.
    let mut by_socket: Vec<usize> = (0..d.num_sockets())
        .flat_map(|s| d.socket_cores(s).iter().copied())
        .collect();
    by_socket.sort_unstable();
    assert_eq!(by_socket, (0..cores).collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Victim orders are tier-monotone permutations on arbitrary spoofed
    /// shapes, including runtimes using fewer cores than the machine has.
    #[test]
    fn victim_orders_are_tier_monotone_permutations(
        sockets in 1usize..4,
        cores_per in 1usize..5,
        smt in 1usize..3,
        llc_all in any::<bool>(),
        drop in 0usize..3,
    ) {
        let units_per_socket = cores_per * smt;
        let mut spec = format!("{sockets}s×{cores_per}c×{smt}t");
        if llc_all && units_per_socket > 1 {
            spec.push_str(&format!("/llc={units_per_socket}"));
        }
        let machine = MachineModel::from_spec(&spec).unwrap();
        let total = machine.num_cores();
        let cores = (total - drop.min(total - 1)).max(1);
        check_domain_invariants(&machine, cores);
    }
}

/// Whatever shape `MELY_TOPOLOGY` dictates (the CI matrix sweeps
/// several) keeps the domain invariants; without the variable the test
/// covers the Xeon E5410 preset the executors default to.
#[test]
fn topology_env_shapes_hold_the_invariants() {
    let machine = match MachineModel::from_env() {
        Ok(Some(m)) => m,
        Ok(None) => MachineModel::xeon_e5410(),
        Err(e) => panic!("bad {TOPOLOGY_ENV} spec: {e}"),
    };
    for cores in [1, machine.num_cores().div_ceil(2), machine.num_cores()] {
        check_domain_invariants(&machine, cores);
    }
    // The default policy honors the declared tiers: hierarchical iff
    // the machine has more than one.
    let multi_tier = machine.num_sockets() > 1 || machine.smt_per_core() > 1;
    assert_eq!(
        StealPolicy::for_machine(&machine),
        if multi_tier {
            StealPolicy::Hierarchical
        } else {
            StealPolicy::Flat
        },
    );
}

/// On single-tier machines, an explicit `StealPolicy::Flat` replays the
/// default-built runtime bit for bit — equal fingerprints on the
/// canonical schedule and on every perturbed schedule of the seed
/// sweep.
#[test]
fn flat_policy_replays_default_schedules_bit_for_bit() {
    let run = |seed: Option<u64>, explicit_flat: bool| {
        let mut b = RuntimeBuilder::new()
            .cores(4)
            .machine(MachineModel::xeon_e5410())
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved());
        if let Some(s) = seed {
            b = b.schedule_seed(s);
        }
        if explicit_flat {
            b = b.steal_policy(StealPolicy::Flat);
        }
        let mut rt = b.build(ExecKind::Sim);
        canonical_workload(&mut rt);
        let report = rt.run();
        (
            report.fingerprint(),
            report.events_processed(),
            report.total().steals,
            report.wall_cycles(),
        )
    };
    assert_eq!(
        run(None, false),
        run(None, true),
        "explicit Flat policy changed the canonical schedule"
    );
    for seed in seeds() {
        assert_eq!(
            run(Some(seed), false),
            run(Some(seed), true),
            "explicit Flat policy changed the perturbed schedule of seed {seed:#x}\n\
             replay: MELY_FUZZ_SEED={seed:#x} cargo test --test steal_domains \
             flat_policy_replays_default_schedules_bit_for_bit"
        );
    }
}

/// The canonical workload's fingerprint, pinned. This is the
/// compatibility tripwire: if a refactor changes default schedules —
/// even changing the default *and* the flat policy identically — this
/// constant moves and the change must be acknowledged here.
#[test]
fn canonical_fingerprint_is_pinned() {
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .machine(MachineModel::xeon_e5410())
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Sim);
    canonical_workload(&mut rt);
    let fp = rt.run().fingerprint();
    assert_eq!(
        format!("{fp}"),
        PINNED_CANONICAL_FINGERPRINT,
        "the canonical default schedule changed; if intentional, update the pin"
    );
}

/// See [`canonical_fingerprint_is_pinned`].
const PINNED_CANONICAL_FINGERPRINT: &str = "30501279faa56ca3";

/// On a spoofed dual-socket SMT machine the hierarchical victim order
/// starts at the SMT sibling and reaches the remote socket last, while
/// the flat base order happily crosses sockets first when the load is
/// there.
#[test]
fn hierarchical_prefers_close_victims_on_dual_socket() {
    let machine = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
    let domains = StealDomains::new(&machine, machine.num_cores());
    let ws = WsPolicy::base();
    // Remote core 8 is the busiest; the SMT sibling (1) has a little.
    let mut loads = vec![0usize; 16];
    loads[8] = 100;
    loads[1] = 10;

    let mut hier = Vec::new();
    StealPolicy::Hierarchical.victims(0, &loads, ws, &domains, &mut hier);
    assert_eq!(hier[0], 1, "SMT sibling probed first: {hier:?}");
    let remote_rank = hier.iter().position(|&v| v == 8).unwrap();
    assert!(
        remote_rank >= 7,
        "remote socket before the local one: {hier:?}"
    );
    let mut flat = Vec::new();
    StealPolicy::Flat.victims(0, &loads, ws, &domains, &mut flat);
    assert_eq!(flat[0], 8, "base order goes to the busiest core: {flat:?}");

    // Budgets escalate with the tier.
    let smt = StealPolicy::Hierarchical.steal_budget(0, 1, &domains);
    let remote = StealPolicy::Hierarchical.steal_budget(0, 8, &domains);
    assert!(
        smt < remote,
        "budget must escalate with distance ({smt} vs {remote})"
    );
}

/// End to end on the spoofed machine: the hot-core-per-socket workload
/// finishes with zero cross-socket steals under the hierarchical
/// default, and with some under an explicit flat policy.
#[test]
fn dual_socket_run_keeps_steals_on_socket() {
    let machine = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
    let run = |policy: Option<StealPolicy>| {
        let mut b = RuntimeBuilder::new()
            .cores(machine.num_cores())
            .machine(machine.clone())
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::base());
        if let Some(p) = policy {
            b = b.steal_policy(p);
        }
        let mut rt = b.build(ExecKind::Sim);
        for (hot, base) in [(0usize, 1u16), (8, 20_000)] {
            for i in 0..120u16 {
                rt.register_pinned(Event::new(Color::new(base + i), 30_000), hot);
            }
        }
        rt.run()
    };
    // Spoofed multi-tier machine: the default resolves to hierarchical.
    let hier = run(None);
    let [_, _, _, remote] = hier.steals_by_tier();
    assert!(hier.total().steals > 0, "workload must actually steal");
    assert_eq!(remote, 0, "hierarchical crossed sockets: {hier:?}");

    let flat = run(Some(StealPolicy::Flat));
    let [_, _, _, remote_flat] = flat.steals_by_tier();
    assert!(
        remote_flat > 0,
        "flat stealing should cross sockets on this workload"
    );
}
