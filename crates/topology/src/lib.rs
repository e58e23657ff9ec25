//! Machine and cache-hierarchy models for the Mely runtime.
//!
//! The paper's locality-aware stealing heuristic (Section III-A) orders
//! steal victims by their distance in the cache hierarchy: a core sharing
//! an L2 cache with the thief is preferred over a core in another package.
//! Mely obtains this information from `/sys` at startup; this crate
//! provides the same *cache map* abstraction as an explicit
//! [`MachineModel`], so every experiment is reproducible on any host:
//! a preset — including a faithful model of the paper's dual quad-core
//! Intel Xeon E5410 testbed, see [`MachineModel::xeon_e5410`] — or a
//! shape spoofed through the `MELY_TOPOLOGY` spec
//! ([`MachineModel::from_spec`], [`MachineModel::from_env`]).
//!
//! # Examples
//!
//! ```
//! use mely_topology::MachineModel;
//!
//! let m = MachineModel::xeon_e5410();
//! assert_eq!(m.num_cores(), 8);
//! // Cores 0 and 1 share an L2 cache; 0 and 2 do not.
//! assert!(m.distance(0, 1) < m.distance(0, 2));
//! // Victims for core 0, nearest first.
//! let order = m.victims_by_distance(0);
//! assert_eq!(order[0], 1);
//! ```

use std::fmt;

mod spec;

pub use spec::{SpecError, TOPOLOGY_ENV};

/// Description of one level of the cache hierarchy.
///
/// `cores_per_instance` expresses sharing: with 8 cores and
/// `cores_per_instance == 2`, cores {0,1} share instance 0, {2,3} share
/// instance 1, and so on (this matches how the Linux kernel enumerates
/// `shared_cpu_list` on the machines modelled here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevel {
    /// Hierarchy level (1 = L1, 2 = L2, ...). Levels must be listed in
    /// increasing order in [`MachineModel`].
    pub level: u8,
    /// Total capacity of one cache instance, in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (64 on every machine modelled here).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Load-to-use latency in cycles (paper Table II: L1 = 4, L2 = 15).
    pub latency_cycles: u64,
    /// Number of cores sharing one instance of this cache.
    pub cores_per_instance: usize,
}

impl CacheLevel {
    /// Index of the cache instance serving `core` at this level.
    pub fn instance_of(&self, core: usize) -> usize {
        core / self.cores_per_instance.max(1)
    }

    /// Number of instances of this level on a machine with `num_cores`.
    pub fn instances(&self, num_cores: usize) -> usize {
        num_cores.div_ceil(self.cores_per_instance.max(1))
    }
}

/// A model of a multicore machine: core count, cache hierarchy and memory
/// latency, plus the nominal clock frequency used to convert simulated
/// cycles into seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineModel {
    name: String,
    num_cores: usize,
    levels: Vec<CacheLevel>,
    mem_latency_cycles: u64,
    freq_hz: u64,
    /// Hardware threads per physical core: consecutive blocks of
    /// `smt_per_core` core ids are SMT siblings of one physical core.
    /// `1` (the default) means no SMT.
    smt_per_core: usize,
    /// Processor packages: consecutive blocks of
    /// `num_cores / sockets` core ids share a socket. `1` (the
    /// default) means the package layout is unknown or single-socket;
    /// cache distances are unaffected either way — sockets only refine
    /// steal-domain tiers.
    sockets: usize,
}

/// Error returned by [`MachineModel::new`] when the description is
/// inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The machine must have at least one core.
    NoCores,
    /// Cache levels must be listed in strictly increasing level order.
    LevelsOutOfOrder,
    /// A cache level has a zero-sized or zero-associativity configuration.
    DegenerateLevel(u8),
    /// An SMT or socket grouping does not evenly partition the cores.
    UnevenPartition(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoCores => write!(f, "machine model has no cores"),
            ModelError::LevelsOutOfOrder => {
                write!(f, "cache levels are not in increasing order")
            }
            ModelError::DegenerateLevel(l) => {
                write!(f, "cache level L{l} has a degenerate configuration")
            }
            ModelError::UnevenPartition(what) => {
                write!(f, "{what} does not evenly partition the cores")
            }
        }
    }
}

impl std::error::Error for ModelError {}

impl MachineModel {
    /// Builds a machine model from an explicit description.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if `num_cores` is zero, if `levels` are not
    /// in strictly increasing level order, or if any level has a zero size,
    /// line size or associativity.
    pub fn new(
        name: impl Into<String>,
        num_cores: usize,
        levels: Vec<CacheLevel>,
        mem_latency_cycles: u64,
        freq_hz: u64,
    ) -> Result<Self, ModelError> {
        if num_cores == 0 {
            return Err(ModelError::NoCores);
        }
        for w in levels.windows(2) {
            if w[1].level <= w[0].level {
                return Err(ModelError::LevelsOutOfOrder);
            }
        }
        for l in &levels {
            if l.size_bytes == 0
                || l.line_bytes == 0
                || l.associativity == 0
                || l.cores_per_instance == 0
            {
                return Err(ModelError::DegenerateLevel(l.level));
            }
        }
        Ok(MachineModel {
            name: name.into(),
            num_cores,
            levels,
            mem_latency_cycles,
            freq_hz,
            smt_per_core: 1,
            sockets: 1,
        })
    }

    /// Declares `threads` SMT siblings per physical core (consecutive
    /// core ids form one physical core). Cache distances do not change;
    /// the information feeds the steal-domain tiering.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnevenPartition`] when `threads` is zero or
    /// does not divide the core count.
    pub fn with_smt_per_core(mut self, threads: usize) -> Result<Self, ModelError> {
        if threads == 0 || !self.num_cores.is_multiple_of(threads) {
            return Err(ModelError::UnevenPartition("SMT sibling grouping"));
        }
        self.smt_per_core = threads;
        Ok(self)
    }

    /// Declares `sockets` processor packages (consecutive blocks of core
    /// ids share a socket). Cache distances do not change; the
    /// information feeds the steal-domain tiering.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnevenPartition`] when `sockets` is zero or
    /// does not divide the core count.
    pub fn with_sockets(mut self, sockets: usize) -> Result<Self, ModelError> {
        if sockets == 0 || !self.num_cores.is_multiple_of(sockets) {
            return Err(ModelError::UnevenPartition("socket grouping"));
        }
        self.sockets = sockets;
        Ok(self)
    }

    /// The paper's testbed: two quad-core Intel Xeon E5410 "Harpertown"
    /// processors at 2.33 GHz. Each pair of cores shares a 6 MB L2 cache;
    /// L1 is 32 KB private. Latencies are the measured values from Table II
    /// of the paper (L1 = 4 cycles, L2 = 15 cycles, memory = 110 cycles).
    pub fn xeon_e5410() -> Self {
        MachineModel::new(
            "Intel Xeon E5410 (2x4 cores, paired 6MB L2)",
            8,
            vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 32 * 1024,
                    line_bytes: 64,
                    associativity: 8,
                    latency_cycles: 4,
                    cores_per_instance: 1,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 6 * 1024 * 1024,
                    line_bytes: 64,
                    associativity: 24,
                    latency_cycles: 15,
                    cores_per_instance: 2,
                },
            ],
            110,
            2_330_000_000,
        )
        .expect("static model is valid")
    }

    /// A scaled-down Xeon E5410 for fast cycle-level simulation: the cache
    /// *shape* (private L1, paired shared L2, same latencies) is preserved
    /// but capacities are scaled down so that the working sets of the
    /// microbenchmarks exercise the same hit/miss patterns with far fewer
    /// simulated lines. All experiments that report cache misses use this
    /// model together with proportionally scaled working sets.
    pub fn xeon_e5410_scaled() -> Self {
        MachineModel::new(
            "Intel Xeon E5410 (scaled caches for simulation)",
            8,
            vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 1024,
                    line_bytes: 64,
                    associativity: 2,
                    latency_cycles: 4,
                    cores_per_instance: 1,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 96 * 1024,
                    line_bytes: 64,
                    associativity: 12,
                    latency_cycles: 15,
                    cores_per_instance: 2,
                },
            ],
            110,
            2_330_000_000,
        )
        .expect("static model is valid")
    }

    /// The 16-core AMD machine described in Section III-A of the paper:
    /// four groups of four cores, private L1 and L2, one shared L3 per
    /// group, non-uniform memory access between groups.
    pub fn amd_16core() -> Self {
        MachineModel::new(
            "AMD 16-core (4x4, shared L3 per group)",
            16,
            vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 64 * 1024,
                    line_bytes: 64,
                    associativity: 2,
                    latency_cycles: 3,
                    cores_per_instance: 1,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 512 * 1024,
                    line_bytes: 64,
                    associativity: 16,
                    latency_cycles: 12,
                    cores_per_instance: 1,
                },
                CacheLevel {
                    level: 3,
                    size_bytes: 6 * 1024 * 1024,
                    line_bytes: 64,
                    associativity: 48,
                    latency_cycles: 40,
                    cores_per_instance: 4,
                },
            ],
            200,
            2_000_000_000,
        )
        .expect("static model is valid")
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Cache levels, L1 first.
    pub fn levels(&self) -> &[CacheLevel] {
        &self.levels
    }

    /// Main-memory access latency in cycles (paper Table II: 110).
    pub fn mem_latency_cycles(&self) -> u64 {
        self.mem_latency_cycles
    }

    /// Nominal core frequency in Hz, used to convert cycles to seconds.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Cache distance between two cores: `0` for the same core, otherwise
    /// `1 + i` where `i` is the index (into [`Self::levels`]) of the first
    /// level whose instance is shared by both cores, and
    /// `1 + levels.len()` when the cores share nothing but memory.
    ///
    /// On the Xeon E5410 model: `distance(0, 0) == 0`,
    /// `distance(0, 1) == 2` (shared L2 is the second level) and
    /// `distance(0, 2) == 3` (memory only).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not a valid core id for this machine.
    pub fn distance(&self, a: usize, b: usize) -> u32 {
        assert!(
            a < self.num_cores && b < self.num_cores,
            "core out of range"
        );
        if a == b {
            return 0;
        }
        for (i, l) in self.levels.iter().enumerate() {
            if l.cores_per_instance > 1 && l.instance_of(a) == l.instance_of(b) {
                return 1 + i as u32;
            }
        }
        1 + self.levels.len() as u32
    }

    /// All other cores ordered by increasing cache distance from `core`
    /// (ties broken by core id). This is the victim order used by the
    /// locality-aware `construct_core_set` (paper Section III-A).
    pub fn victims_by_distance(&self, core: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.num_cores).filter(|&c| c != core).collect();
        v.sort_by_key(|&c| (self.distance(core, c), c));
        v
    }

    /// Hardware threads per physical core (`1` when no SMT is
    /// declared). See [`MachineModel::with_smt_per_core`].
    pub fn smt_per_core(&self) -> usize {
        self.smt_per_core
    }

    /// Number of processor packages (`1` when the package layout is
    /// unknown). See [`MachineModel::with_sockets`].
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// Cores (hardware threads) per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.num_cores / self.sockets
    }

    /// The socket `core` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not a valid core id for this machine.
    pub fn socket_of(&self, core: usize) -> usize {
        assert!(core < self.num_cores, "core out of range");
        core / self.cores_per_socket()
    }

    /// The physical core `core` belongs to (identity when no SMT is
    /// declared).
    ///
    /// # Panics
    ///
    /// Panics if `core` is not a valid core id for this machine.
    pub fn physical_core_of(&self, core: usize) -> usize {
        assert!(core < self.num_cores, "core out of range");
        core / self.smt_per_core
    }

    /// Whether `a` and `b` are distinct hardware threads of the same
    /// physical core.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not a valid core id for this machine.
    pub fn is_smt_sibling(&self, a: usize, b: usize) -> bool {
        a != b && self.smt_per_core > 1 && self.physical_core_of(a) == self.physical_core_of(b)
    }
}

impl fmt::Display for MachineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} cores)", self.name, self.num_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_distances_match_paper_topology() {
        let m = MachineModel::xeon_e5410();
        assert_eq!(m.distance(0, 0), 0);
        assert_eq!(m.distance(0, 1), 2); // shared L2
        assert_eq!(m.distance(2, 3), 2);
        assert_eq!(m.distance(0, 2), 3); // memory only
        assert_eq!(m.distance(0, 7), 3);
        // Symmetry.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(m.distance(a, b), m.distance(b, a));
            }
        }
    }

    #[test]
    fn xeon_victim_order_prefers_l2_neighbor() {
        let m = MachineModel::xeon_e5410();
        let v = m.victims_by_distance(2);
        assert_eq!(v[0], 3); // L2 partner first
        assert_eq!(v.len(), 7);
        // The rest are the remaining cores in id order.
        assert_eq!(&v[1..], &[0, 1, 4, 5, 6, 7]);
    }

    #[test]
    fn amd_victim_order_prefers_l3_group() {
        let m = MachineModel::amd_16core();
        let v = m.victims_by_distance(5);
        // Same L3 group (4..8) first.
        assert_eq!(&v[..3], &[4, 6, 7]);
        assert_eq!(v.len(), 15);
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert_eq!(
            MachineModel::new("x", 0, vec![], 100, 1_000_000).unwrap_err(),
            ModelError::NoCores
        );
        let l1 = CacheLevel {
            level: 1,
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 2,
            latency_cycles: 4,
            cores_per_instance: 1,
        };
        let mut l0 = l1.clone();
        l0.level = 1;
        assert_eq!(
            MachineModel::new("x", 4, vec![l1.clone(), l0], 100, 1_000_000).unwrap_err(),
            ModelError::LevelsOutOfOrder
        );
        let mut bad = l1.clone();
        bad.size_bytes = 0;
        assert_eq!(
            MachineModel::new("x", 4, vec![bad], 100, 1_000_000).unwrap_err(),
            ModelError::DegenerateLevel(1)
        );
    }

    #[test]
    fn default_topology_is_single_socket_no_smt() {
        let m = MachineModel::xeon_e5410();
        assert_eq!(m.smt_per_core(), 1);
        assert_eq!(m.num_sockets(), 1);
        assert_eq!(m.cores_per_socket(), 8);
        assert_eq!(m.socket_of(7), 0);
        assert_eq!(m.physical_core_of(5), 5);
        assert!(!m.is_smt_sibling(0, 1));
    }

    #[test]
    fn declared_smt_and_sockets_partition_cores() {
        let m = MachineModel::xeon_e5410()
            .with_sockets(2)
            .unwrap()
            .with_smt_per_core(2)
            .unwrap();
        // Sockets are consecutive blocks: {0..4} and {4..8}.
        assert_eq!(m.socket_of(3), 0);
        assert_eq!(m.socket_of(4), 1);
        assert_eq!(m.cores_per_socket(), 4);
        // SMT pairs: {0,1}, {2,3}, ...
        assert!(m.is_smt_sibling(0, 1));
        assert!(!m.is_smt_sibling(1, 2));
        assert!(m.is_smt_sibling(6, 7));
        assert_eq!(m.physical_core_of(7), 3);
        // Cache distances are untouched by the declarations.
        assert_eq!(m.distance(0, 1), 2);
        assert_eq!(m.distance(0, 7), 3);
    }

    #[test]
    fn uneven_partitions_are_rejected() {
        assert_eq!(
            MachineModel::xeon_e5410().with_sockets(3).unwrap_err(),
            ModelError::UnevenPartition("socket grouping")
        );
        assert_eq!(
            MachineModel::xeon_e5410().with_smt_per_core(0).unwrap_err(),
            ModelError::UnevenPartition("SMT sibling grouping")
        );
    }

    #[test]
    fn instance_math() {
        let l2 = CacheLevel {
            level: 2,
            size_bytes: 6 << 20,
            line_bytes: 64,
            associativity: 24,
            latency_cycles: 15,
            cores_per_instance: 2,
        };
        assert_eq!(l2.instance_of(0), 0);
        assert_eq!(l2.instance_of(1), 0);
        assert_eq!(l2.instance_of(6), 3);
        assert_eq!(l2.instances(8), 4);
        assert_eq!(l2.instances(7), 4);
    }
}
