//! Steal domains: topology-aware victim tiers and the steal policy.
//!
//! [`StealDomains`] is computed once per runtime from the
//! [`MachineModel`]: for every thief core it groups every other core
//! into escalating tiers — SMT sibling, shares-a-cache, same socket,
//! remote socket — so victim selection can prefer the victims whose
//! queues are already warm in a nearby cache (paper Section III-A,
//! generalized from "order by cache distance" to explicit tiers).
//!
//! The *decision* of which victim to rob, and how much, is a
//! [`StealPolicy`]:
//!
//! | policy | victim order | budget |
//! |---|---|---|
//! | [`StealPolicy::Flat`] | the paper's `construct_core_set`: busiest-first wrap-around (Figure 2), or cache distance (Section III-A) under [`WsPolicy::locality`] | 1 color |
//! | [`StealPolicy::Hierarchical`] | tier by tier, busiest first within a tier | escalates with tier |
//!
//! `Flat` is the default; the builder picks `Hierarchical` only on
//! machines that declare more than one tier (multiple sockets or SMT —
//! see [`StealPolicy::for_machine`]), which no preset model does. The
//! budget escalation is the "steal more when crossing a socket"
//! amortization: a cross-socket steal pays the transfer penalty once
//! per attempt, so taking several colors per attempt divides that cost
//! across more work.

use std::cmp::Reverse;
use std::fmt;

use mely_topology::MachineModel;

use super::{construct_core_set_base, WsPolicy};

/// How far a steal reaches, nearest first. The order of the variants
/// is the escalation order: `Smt < Llc < Socket < Remote`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StealTier {
    /// Victim is an SMT sibling of the thief (same physical core).
    Smt,
    /// Victim shares at least one cache level with the thief.
    Llc,
    /// Victim is on the thief's socket but shares no cache with it.
    Socket,
    /// Victim is on another socket.
    Remote,
}

impl StealTier {
    /// All tiers, nearest first.
    pub const ALL: [StealTier; 4] = [
        StealTier::Smt,
        StealTier::Llc,
        StealTier::Socket,
        StealTier::Remote,
    ];

    /// Default steal budget for this tier: the maximum number of color
    /// queues one successful steal attempt may take. Near steals stay
    /// surgical (one color keeps the victim warm); far steals amortize
    /// the transfer penalty over more work.
    pub fn default_budget(self) -> usize {
        match self {
            StealTier::Smt | StealTier::Llc => 1,
            StealTier::Socket => 2,
            StealTier::Remote => 4,
        }
    }
}

impl fmt::Display for StealTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StealTier::Smt => "smt",
            StealTier::Llc => "llc",
            StealTier::Socket => "socket",
            StealTier::Remote => "remote",
        })
    }
}

/// Classifies the relationship between two distinct cores.
fn tier_between(machine: &MachineModel, a: usize, b: usize) -> StealTier {
    if machine.is_smt_sibling(a, b) {
        StealTier::Smt
    } else if machine.distance(a, b) <= machine.levels().len() as u32 {
        // `distance` is 1 + index of the first shared level, so any
        // value within 1..=levels.len() means some cache is shared.
        StealTier::Llc
    } else if machine.socket_of(a) == machine.socket_of(b) {
        StealTier::Socket
    } else {
        StealTier::Remote
    }
}

/// The per-core steal tiers of one machine, computed once at runtime
/// construction and shared read-only by every worker.
///
/// Built for the `cores` worker cores actually running, which may be
/// fewer than the machine has; victims and sockets only cover the
/// running cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealDomains {
    num_cores: usize,
    /// `tier[a * num_cores + b]`; the diagonal is padded with `Smt`
    /// and never read.
    tier: Vec<StealTier>,
    /// Per thief: non-empty tiers nearest first, victims in id order.
    tiers: Vec<Vec<(StealTier, Vec<usize>)>>,
    /// Per thief: the flattened tier order (a permutation of all other
    /// running cores).
    order: Vec<Vec<usize>>,
    /// Running cores grouped by machine socket (only non-empty groups,
    /// in socket order).
    sockets: Vec<Vec<usize>>,
    /// Per thief: the machine's cache-distance order
    /// ([`MachineModel::victims_by_distance`]), the flat policy's
    /// locality-aware victims. It lists every machine core, so cores
    /// beyond the running ones stay in it (the kernel skips them).
    by_distance: Vec<Vec<usize>>,
}

impl StealDomains {
    /// Computes the steal domains of the first `cores` cores of
    /// `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the machine's core count
    /// (the same contract as the executors).
    pub fn new(machine: &MachineModel, cores: usize) -> Self {
        assert!(
            cores >= 1 && cores <= machine.num_cores(),
            "steal domains need 1..=num_cores cores"
        );
        let mut tier = vec![StealTier::Smt; cores * cores];
        for a in 0..cores {
            for b in 0..cores {
                if a != b {
                    tier[a * cores + b] = tier_between(machine, a, b);
                }
            }
        }
        let mut tiers = Vec::with_capacity(cores);
        let mut order = Vec::with_capacity(cores);
        for a in 0..cores {
            let mut by_tier: Vec<(StealTier, Vec<usize>)> = Vec::new();
            for t in StealTier::ALL {
                let members: Vec<usize> = (0..cores)
                    .filter(|&b| b != a && tier[a * cores + b] == t)
                    .collect();
                if !members.is_empty() {
                    by_tier.push((t, members));
                }
            }
            order.push(
                by_tier
                    .iter()
                    .flat_map(|(_, m)| m.iter().copied())
                    .collect(),
            );
            tiers.push(by_tier);
        }
        let mut sockets: Vec<Vec<usize>> = vec![Vec::new(); machine.num_sockets()];
        for c in 0..cores {
            sockets[machine.socket_of(c)].push(c);
        }
        sockets.retain(|s| !s.is_empty());
        StealDomains {
            num_cores: cores,
            tier,
            tiers,
            order,
            sockets,
            by_distance: (0..cores).map(|a| machine.victims_by_distance(a)).collect(),
        }
    }

    /// Number of (running) cores the domains cover.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The tier a steal from `victim` by `thief` crosses.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or equal.
    pub fn tier_of(&self, thief: usize, victim: usize) -> StealTier {
        assert!(
            thief < self.num_cores && victim < self.num_cores && thief != victim,
            "tier_of needs two distinct running cores"
        );
        self.tier[thief * self.num_cores + victim]
    }

    /// The non-empty tiers of `thief`, nearest first; victims within a
    /// tier are in core-id order.
    pub fn tiers(&self, thief: usize) -> &[(StealTier, Vec<usize>)] {
        &self.tiers[thief]
    }

    /// All other running cores in tier order (a permutation of
    /// `0..num_cores` minus `thief`).
    pub fn victims(&self, thief: usize) -> &[usize] {
        &self.order[thief]
    }

    /// Number of sockets that have at least one running core.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// The running cores of occupied socket `socket` (indices into the
    /// occupied-socket list, not raw machine sockets).
    pub fn socket_cores(&self, socket: usize) -> &[usize] {
        &self.sockets[socket]
    }
}

/// Victim selection and steal budgets: which cores an idle thief
/// probes, in which order, and how many colors one successful attempt
/// may take. Set per runtime with
/// [`RuntimeBuilder::steal_policy`](crate::runtime::RuntimeBuilder::steal_policy);
/// unset, the builder picks [`StealPolicy::for_machine`].
///
/// Victim order and budget are deterministic functions of their
/// inputs: identical `(thief, loads)` give identical victim orders,
/// which schedule replay (the sim executor's fingerprints) relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealPolicy {
    /// The paper's `construct_core_set`: busiest-first wrap-around
    /// (Figure 2), or cache-distance order (Section III-A) under
    /// [`WsPolicy::locality`]. Single-color steals.
    Flat,
    /// Topology-aware: the nearest tier first (SMT sibling, then
    /// cache-sharing cores, then the rest of the socket, then remote
    /// sockets), busiest victim first *within* a tier, and a budget
    /// that escalates with the tier ([`StealTier::default_budget`]) so
    /// a cross-socket steal amortizes its transfer penalty over several
    /// colors.
    Hierarchical,
}

impl StealPolicy {
    /// The builder's choice when none is set explicitly:
    /// [`StealPolicy::Hierarchical`] on machines that declare more than
    /// one steal tier (multiple sockets or SMT),
    /// [`StealPolicy::Flat`] everywhere else. No preset model declares
    /// either; spoofed topologies ([`MachineModel::from_spec`]) opt in
    /// automatically.
    pub fn for_machine(machine: &MachineModel) -> Self {
        if machine.num_sockets() > 1 || machine.smt_per_core() > 1 {
            StealPolicy::Hierarchical
        } else {
            StealPolicy::Flat
        }
    }

    /// Writes the victims `thief` probes, in order, into `out` (cleared
    /// first, so a reused buffer makes the choice allocation-free).
    /// `loads` holds one pending-work estimate per running core (the
    /// thief's own entry included); the executors skip victims whose
    /// queue is empty.
    pub fn victims(
        self,
        thief: usize,
        loads: &[usize],
        ws: WsPolicy,
        domains: &StealDomains,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match self {
            StealPolicy::Flat if ws.locality => out.extend_from_slice(&domains.by_distance[thief]),
            StealPolicy::Flat => construct_core_set_base(thief, loads, out),
            StealPolicy::Hierarchical => {
                for (_, members) in domains.tiers(thief) {
                    let tier = out.len();
                    out.extend_from_slice(members);
                    // Busiest first within the tier; ties to the lowest
                    // id so the order is a deterministic function of
                    // the loads.
                    out[tier..].sort_unstable_by_key(|&v| {
                        (Reverse(loads.get(v).copied().unwrap_or(0)), v)
                    });
                }
            }
        }
    }

    /// Maximum number of color queues one successful attempt against
    /// `victim` may take.
    pub fn steal_budget(self, thief: usize, victim: usize, domains: &StealDomains) -> usize {
        match self {
            StealPolicy::Flat => 1,
            StealPolicy::Hierarchical => domains.tier_of(thief, victim).default_budget(),
        }
    }
}

impl fmt::Display for StealPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StealPolicy::Flat => "flat",
            StealPolicy::Hierarchical => "hierarchical",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dual_socket() -> MachineModel {
        MachineModel::from_spec("2s×4c×2t/llc=8").unwrap()
    }

    #[test]
    fn tiers_classify_the_dual_socket_shape() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        assert_eq!(d.tier_of(0, 1), StealTier::Smt);
        assert_eq!(d.tier_of(0, 2), StealTier::Llc);
        assert_eq!(d.tier_of(0, 8), StealTier::Remote);
        assert_eq!(d.tier_of(8, 0), StealTier::Remote);
        assert_eq!(d.tier_of(8, 9), StealTier::Smt);
        // With an LLC spanning the socket there is no cache-less
        // same-socket pair; drop the LLC to see the Socket tier.
        let m2 = MachineModel::from_spec("2s×4c×2t").unwrap();
        let d2 = StealDomains::new(&m2, 16);
        assert_eq!(d2.tier_of(0, 2), StealTier::Socket);
        assert_eq!(d2.tier_of(0, 8), StealTier::Remote);
    }

    #[test]
    fn victim_order_is_a_permutation_in_tier_order() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        for thief in 0..16 {
            let v = d.victims(thief);
            let mut sorted: Vec<usize> = v.to_vec();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..16).filter(|&c| c != thief).collect();
            assert_eq!(sorted, expect, "thief {thief}: not a permutation");
            // Tier of successive victims never decreases.
            for w in v.windows(2) {
                assert!(d.tier_of(thief, w[0]) <= d.tier_of(thief, w[1]));
            }
        }
    }

    #[test]
    fn domains_respect_fewer_running_cores() {
        let m = dual_socket();
        // Only 6 running cores: all in socket 0.
        let d = StealDomains::new(&m, 6);
        assert_eq!(d.num_cores(), 6);
        assert_eq!(d.num_sockets(), 1);
        assert_eq!(d.socket_cores(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(d.victims(5).len(), 5);
        // 10 running cores: two cores spill onto socket 1.
        let d = StealDomains::new(&m, 10);
        assert_eq!(d.num_sockets(), 2);
        assert_eq!(d.socket_cores(1), &[8, 9]);
    }

    #[test]
    fn flat_policy_matches_construct_core_set() {
        let m = MachineModel::xeon_e5410();
        let d = StealDomains::new(&m, 8);
        for ws in [WsPolicy::base(), WsPolicy::improved()] {
            let loads = vec![3, 0, 7, 1, 0, 2, 9, 4];
            for thief in 0..8 {
                let mut want = Vec::new();
                if ws.locality {
                    want = m.victims_by_distance(thief);
                } else {
                    construct_core_set_base(thief, &loads, &mut want);
                }
                let mut got = vec![99];
                StealPolicy::Flat.victims(thief, &loads, ws, &d, &mut got);
                assert_eq!(
                    got, want,
                    "flat must be bit-identical ({ws}, thief {thief})"
                );
                assert_eq!(
                    StealPolicy::Flat.steal_budget(thief, (thief + 1) % 8, &d),
                    1
                );
            }
        }
    }

    #[test]
    fn hierarchical_prefers_near_tiers_and_escalates_budget() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        let hier = StealPolicy::Hierarchical;
        // Remote core 9 is by far the busiest, but the SMT sibling and
        // the LLC neighbours still come first.
        let mut loads = vec![1; 16];
        loads[9] = 1000;
        loads[5] = 7;
        let mut v = Vec::new();
        hier.victims(0, &loads, WsPolicy::improved(), &d, &mut v);
        assert_eq!(v[0], 1, "SMT sibling first");
        assert_eq!(v[1], 5, "busiest LLC neighbour next");
        assert_eq!(&v[2..7], &[2, 3, 4, 6, 7], "rest of the socket by id");
        assert_eq!(v[7], 9, "busiest remote core leads the remote tier");
        // Budgets escalate with the tier.
        assert_eq!(hier.steal_budget(0, 1, &d), 1);
        assert_eq!(hier.steal_budget(0, 5, &d), 1);
        assert_eq!(hier.steal_budget(0, 9, &d), 4);
        let m2 = MachineModel::from_spec("2s×4c×2t").unwrap();
        let d2 = StealDomains::new(&m2, 16);
        assert_eq!(hier.steal_budget(0, 2, &d2), 2);
    }

    #[test]
    fn default_policy_is_flat_unless_multi_tier() {
        let of = |m: &MachineModel| StealPolicy::for_machine(m).to_string();
        assert_eq!(of(&MachineModel::xeon_e5410()), "flat");
        assert_eq!(of(&MachineModel::amd_16core()), "flat");
        assert_eq!(of(&dual_socket()), "hierarchical");
        assert_eq!(
            of(&MachineModel::from_spec("1s×4c×2t").unwrap()),
            "hierarchical"
        );
    }
}
