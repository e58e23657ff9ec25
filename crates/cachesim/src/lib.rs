//! Multi-level, set-associative, LRU cache simulator.
//!
//! The paper's evaluation reports L2 cache misses per event (Tables V and
//! VI) and attributes the poor behaviour of naïve workstealing to cache
//! pollution (Section II-C: +146% L2 misses when enabling workstealing on
//! the web server). Since this reproduction runs on a machine without the
//! paper's hardware-counter setup, the simulation executor accounts cache
//! behaviour through this simulator instead: each simulated core issues
//! line-granular accesses, private L1s and *shared* L2s (one per core
//! group, as on the Xeon E5410) are modelled with LRU replacement, and the
//! per-access latency feeds the virtual cycle clock (Table II: L1 = 4,
//! L2 = 15, memory = 110 cycles).
//!
//! # Examples
//!
//! ```
//! use mely_cachesim::Hierarchy;
//! use mely_topology::MachineModel;
//!
//! let mut h = Hierarchy::new(&MachineModel::xeon_e5410());
//! // First touch of a line from core 0 misses everywhere.
//! let a = h.access(0, 0x1000);
//! assert_eq!(a.latency_cycles, 4 + 15 + 110);
//! // Second touch hits in L1.
//! let b = h.access(0, 0x1000);
//! assert_eq!(b.latency_cycles, 4);
//! // Core 1 shares core 0's L2, so it hits in L2.
//! let c = h.access(1, 0x1000);
//! assert_eq!(c.latency_cycles, 4 + 15);
//! // Core 2 is in another group: full miss.
//! let d = h.access(2, 0x1000);
//! assert_eq!(d.latency_cycles, 4 + 15 + 110);
//! ```

use mely_topology::MachineModel;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the level-`n` cache (1-based, as in "L1", "L2"...).
    Cache(u8),
    /// Served by main memory (missed every cache level).
    Memory,
}

/// Outcome of a single line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The level that served the access.
    pub hit: HitLevel,
    /// Total load-to-use latency in cycles (sum of the latencies of every
    /// level probed, plus memory latency on a full miss).
    pub latency_cycles: u64,
}

/// One set-associative cache instance with LRU replacement.
#[derive(Debug, Clone)]
struct Cache {
    sets: Vec<Vec<u64>>, // each set: tags, most-recently-used last
    assoc: usize,
    set_shift: u32, // line-bits
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    fn new(size_bytes: u64, line_bytes: u32, assoc: u32) -> Self {
        let assoc = assoc.max(1) as usize;
        let lines = (size_bytes / line_bytes as u64).max(1) as usize;
        let num_sets = (lines / assoc).max(1).next_power_of_two();
        Cache {
            sets: vec![Vec::with_capacity(assoc); num_sets],
            assoc,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns `true` on hit. On miss, fills the line (evicting LRU).
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.push(t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0); // evict LRU
            }
            set.push(tag);
            self.misses += 1;
            false
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// Per-core, per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses served at this level.
    pub hits: u64,
    /// Accesses that probed this level and missed.
    pub misses: u64,
}

/// A full cache hierarchy for a machine: one instance of each level per
/// sharing group, with per-core statistics.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// levels[i] = (spec index shared instances)
    levels: Vec<LevelInstances>,
    mem_latency: u64,
    /// stats[core][level_idx]
    stats: Vec<Vec<LevelStats>>,
    mem_accesses: Vec<u64>,
    line_bytes: u32,
}

#[derive(Debug, Clone)]
struct LevelInstances {
    level: u8,
    latency: u64,
    cores_per_instance: usize,
    instances: Vec<Cache>,
}

impl Hierarchy {
    /// Builds the hierarchy for `machine`, one cache instance per sharing
    /// group at every level.
    pub fn new(machine: &MachineModel) -> Self {
        let n = machine.num_cores();
        let levels = machine
            .levels()
            .iter()
            .map(|spec| LevelInstances {
                level: spec.level,
                latency: spec.latency_cycles,
                cores_per_instance: spec.cores_per_instance.max(1),
                instances: (0..spec.instances(n))
                    .map(|_| Cache::new(spec.size_bytes, spec.line_bytes, spec.associativity))
                    .collect(),
            })
            .collect();
        Hierarchy {
            levels,
            mem_latency: machine.mem_latency_cycles(),
            stats: vec![vec![LevelStats::default(); machine.levels().len()]; n],
            mem_accesses: vec![0; n],
            line_bytes: machine.levels().first().map(|l| l.line_bytes).unwrap_or(64),
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Issues one access from `core` at byte address `addr` and returns
    /// where it hit and the accumulated latency. Lower levels are filled on
    /// the way back (inclusive fill).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the machine this hierarchy was
    /// built from.
    pub fn access(&mut self, core: usize, addr: u64) -> Access {
        let mut latency = 0;
        let mut hit = HitLevel::Memory;
        let mut hit_idx = self.levels.len();
        for (i, li) in self.levels.iter_mut().enumerate() {
            let inst = core / li.cores_per_instance;
            latency += li.latency;
            if li.instances[inst].access(addr) {
                self.stats[core][i].hits += 1;
                hit = HitLevel::Cache(li.level);
                hit_idx = i;
                break;
            } else {
                self.stats[core][i].misses += 1;
            }
        }
        if hit_idx == self.levels.len() {
            latency += self.mem_latency;
            self.mem_accesses[core] += 1;
        }
        let _ = hit_idx;
        Access {
            hit,
            latency_cycles: latency,
        }
    }

    /// Sweeps `len` bytes starting at `addr` (line-granular) and returns
    /// the total latency and the number of misses at cache level `level`.
    pub fn sweep(&mut self, core: usize, addr: u64, len: u64, level: u8) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let line = self.line_bytes as u64;
        let first = addr / line;
        let last = (addr + len - 1) / line;
        let mut latency = 0;
        let mut misses = 0;
        for l in first..=last {
            let a = self.access(core, l * line);
            latency += a.latency_cycles;
            if level_missed(a.hit, level) {
                misses += 1;
            }
        }
        (latency, misses)
    }

    /// Hit/miss counters of `core` at cache level `level` (1-based), or
    /// `None` if the machine has no such level.
    pub fn level_stats(&self, core: usize, level: u8) -> Option<LevelStats> {
        let idx = self.levels.iter().position(|l| l.level == level)?;
        Some(self.stats[core][idx])
    }

    /// Number of accesses that went all the way to memory, per core.
    pub fn mem_accesses(&self, core: usize) -> u64 {
        self.mem_accesses[core]
    }

    /// Empties every cache (keeps statistics). Used by workloads that want
    /// a cold start, like the paper's SFS clients flushing their cache
    /// before each request.
    pub fn flush(&mut self) {
        for li in &mut self.levels {
            for c in &mut li.instances {
                c.flush();
            }
        }
    }
}

/// Predicted cost, in cycles, of moving a stolen working set of `bytes`
/// bytes from `victim`'s caches to `thief` — the analytical counterpart
/// of what [`Hierarchy`] measures access by access, used by the steal-
/// domain ablation benches to score a victim order without running the
/// full simulation.
///
/// The model is deliberately simple: every line of the working set is
/// refetched once by the thief, served by the *first cache level the two
/// cores share*. With no shared level the line comes from memory; when
/// the cores are on different sockets the fetch also crosses the
/// interconnect, modelled as twice the memory latency (the classic
/// local:remote NUMA ratio). Same core, or an empty working set, costs
/// nothing.
///
/// # Panics
///
/// Panics if either core is out of range for `machine`.
pub fn steal_transfer_penalty_cycles(
    machine: &MachineModel,
    thief: usize,
    victim: usize,
    bytes: u64,
) -> u64 {
    if thief == victim || bytes == 0 {
        return 0;
    }
    let levels = machine.levels();
    let line = levels.first().map(|l| l.line_bytes as u64).unwrap_or(64);
    let lines = bytes.div_ceil(line);
    let d = machine.distance(thief, victim) as usize;
    let per_line = if (1..=levels.len()).contains(&d) {
        // distance = 1 + index of the first shared level.
        levels[d - 1].latency_cycles
    } else if machine.socket_of(thief) == machine.socket_of(victim) {
        machine.mem_latency_cycles()
    } else {
        2 * machine.mem_latency_cycles()
    };
    per_line * lines
}

/// Did an access that ended at `hit` miss in cache level `level`?
fn level_missed(hit: HitLevel, level: u8) -> bool {
    match hit {
        HitLevel::Cache(l) => l > level,
        HitLevel::Memory => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_topology::{CacheLevel, MachineModel};

    fn tiny_machine() -> MachineModel {
        // 4 cores, tiny private L1 (4 lines), tiny shared-by-2 L2 (16 lines).
        MachineModel::new(
            "tiny",
            4,
            vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 256,
                    line_bytes: 64,
                    associativity: 2,
                    latency_cycles: 4,
                    cores_per_instance: 1,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 1024,
                    line_bytes: 64,
                    associativity: 4,
                    latency_cycles: 15,
                    cores_per_instance: 2,
                },
            ],
            110,
            1_000_000_000,
        )
        .unwrap()
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l1() {
        let mut h = Hierarchy::new(&tiny_machine());
        let a = h.access(0, 0);
        assert_eq!(a.hit, HitLevel::Memory);
        assert_eq!(a.latency_cycles, 4 + 15 + 110);
        let b = h.access(0, 63); // same line
        assert_eq!(b.hit, HitLevel::Cache(1));
        assert_eq!(b.latency_cycles, 4);
    }

    #[test]
    fn l2_is_shared_within_group_only() {
        let mut h = Hierarchy::new(&tiny_machine());
        h.access(0, 0x40);
        // Core 1 shares L2 instance 0.
        assert_eq!(h.access(1, 0x40).hit, HitLevel::Cache(2));
        // Core 2 uses L2 instance 1: full miss.
        assert_eq!(h.access(2, 0x40).hit, HitLevel::Memory);
    }

    #[test]
    #[allow(clippy::erasing_op)] // `0 * 64` mirrors the `2 * 64` / `4 * 64` line math
    fn lru_eviction_in_l1() {
        let mut h = Hierarchy::new(&tiny_machine());
        // L1: 256B/64B = 4 lines, assoc 2 => 2 sets. Lines mapping to set 0:
        // line numbers 0, 2, 4 (even). Fill set 0 beyond capacity.
        h.access(0, 0 * 64);
        h.access(0, 2 * 64);
        h.access(0, 4 * 64); // evicts line 0 from L1
        let a = h.access(0, 0 * 64);
        assert_ne!(a.hit, HitLevel::Cache(1), "line 0 must have left L1");
        // But it is still in the (larger) L2.
        assert_eq!(a.hit, HitLevel::Cache(2));
    }

    #[test]
    fn sweep_counts_l2_misses() {
        let mut h = Hierarchy::new(&tiny_machine());
        // 8 lines, all cold: 8 L2 misses.
        let (lat, misses) = h.sweep(0, 0, 8 * 64, 2);
        assert_eq!(misses, 8);
        assert_eq!(lat, 8 * (4 + 15 + 110));
        // Sweep again: fits in L2 (16 lines) but only 4 lines fit in L1.
        let (_, misses2) = h.sweep(0, 0, 8 * 64, 2);
        assert_eq!(misses2, 0);
    }

    #[test]
    fn sweep_is_line_granular() {
        let mut h = Hierarchy::new(&tiny_machine());
        // 1 byte touches exactly 1 line; 65 bytes spanning a boundary: 2.
        let (_, m1) = h.sweep(0, 0, 1, 2);
        assert_eq!(m1, 1);
        h.flush();
        let (_, m2) = h.sweep(0, 63, 65, 2);
        assert_eq!(m2, 2);
        // Zero-length sweep touches nothing.
        assert_eq!(h.sweep(0, 0, 0, 2), (0, 0));
    }

    #[test]
    fn stats_accumulate_per_core() {
        let mut h = Hierarchy::new(&tiny_machine());
        h.access(0, 0);
        h.access(0, 0);
        let s1 = h.level_stats(0, 1).unwrap();
        assert_eq!(s1.hits, 1);
        assert_eq!(s1.misses, 1);
        assert_eq!(h.level_stats(1, 1).unwrap(), LevelStats::default());
        assert_eq!(h.level_stats(0, 2).unwrap().misses, 1);
        assert_eq!(h.mem_accesses(0), 1);
        assert!(h.level_stats(0, 3).is_none());
    }

    #[test]
    fn flush_empties_caches() {
        let mut h = Hierarchy::new(&tiny_machine());
        h.access(0, 0);
        h.flush();
        assert_eq!(h.access(0, 0).hit, HitLevel::Memory);
    }

    #[test]
    fn transfer_penalty_follows_the_first_shared_level() {
        let m = MachineModel::xeon_e5410();
        let line = m.levels()[0].line_bytes as u64;
        // Same core or nothing to move: free.
        assert_eq!(steal_transfer_penalty_cycles(&m, 0, 0, 4096), 0);
        assert_eq!(steal_transfer_penalty_cycles(&m, 0, 1, 0), 0);
        // L2 partners refetch from the shared L2: 15 cycles per line.
        assert_eq!(
            steal_transfer_penalty_cycles(&m, 0, 1, 8 * line),
            8 * m.levels()[1].latency_cycles
        );
        // No shared cache, one socket: memory latency per line.
        assert_eq!(
            steal_transfer_penalty_cycles(&m, 0, 2, 8 * line),
            8 * m.mem_latency_cycles()
        );
        // Partial lines round up.
        assert_eq!(
            steal_transfer_penalty_cycles(&m, 0, 1, line + 1),
            2 * m.levels()[1].latency_cycles
        );
    }

    #[test]
    fn transfer_penalty_is_monotone_in_steal_distance() {
        let m = MachineModel::from_spec("2s×4c×2t/l2=2/llc=8").unwrap();
        let smt = steal_transfer_penalty_cycles(&m, 0, 1, 4096);
        let llc = steal_transfer_penalty_cycles(&m, 0, 2, 4096);
        let remote = steal_transfer_penalty_cycles(&m, 0, 8, 4096);
        assert!(smt < llc, "SMT sibling refetch must be cheapest");
        assert!(llc < remote, "cross-socket refetch must be dearest");
        assert_eq!(remote, 2 * m.mem_latency_cycles() * (4096 / 64));
    }

    #[test]
    fn xeon_doc_example_numbers() {
        let mut h = Hierarchy::new(&MachineModel::xeon_e5410());
        assert_eq!(h.access(0, 0x1000).latency_cycles, 129);
        assert_eq!(h.access(0, 0x1000).latency_cycles, 4);
        assert_eq!(h.access(1, 0x1000).latency_cycles, 19);
        assert_eq!(h.access(2, 0x1000).latency_cycles, 129);
    }
}
