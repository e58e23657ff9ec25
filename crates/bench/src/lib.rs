//! Workloads and experiment runners for the paper's evaluation.
//!
//! This crate holds everything the bench targets share:
//!
//! - [`workloads`] — the three microbenchmarks of Section V-B
//!   (*unbalanced*, *penalty*, *cache efficient*), parameterised and
//!   runnable on any runtime configuration;
//! - [`scenarios`] — the two system services wired to closed-loop load
//!   (SWS and SFS runs with any flavor/policy), plus the Figure 7
//!   comparators;
//! - [`table`] — a fixed-width text-table printer so every bench target
//!   reproduces the paper's rows verbatim;
//! - [`steal`] — shared helpers turning per-tier steal counters into
//!   cachesim-predicted transfer cycles for the locality ablations.
//!
//! Each `benches/*.rs` target (with `harness = false`) regenerates one
//! table or figure, named after it (`table3_base_ws`, `fig7_sws_full`, …);
//! the deterministic ones are pinned by `benches/golden/` (README,
//! *Benchmark regression gate*).

pub mod scenarios;
pub mod steal;
pub mod table;
pub mod workloads;

/// The runtime configurations that appear across the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperConfig {
    /// Libasync-smp without workstealing.
    Libasync,
    /// Libasync-smp with its base workstealing.
    LibasyncWs,
    /// Mely without workstealing.
    Mely,
    /// Mely with the base workstealing algorithm.
    MelyBaseWs,
    /// Mely with only the time-left heuristic added.
    MelyTimeWs,
    /// Mely with the time-left gate computing penalty-weighted times
    /// (the penalty-aware configuration of Table V).
    MelyPenaltyWs,
    /// Mely with only the locality-aware heuristic added.
    MelyLocalityWs,
    /// Mely with the full improved workstealing (all heuristics).
    MelyImprovedWs,
}

impl PaperConfig {
    /// Flavor and policy of this configuration.
    pub fn setup(self) -> (mely_core::Flavor, mely_core::WsPolicy) {
        use mely_core::{Flavor, WsPolicy};
        match self {
            PaperConfig::Libasync => (Flavor::Libasync, WsPolicy::off()),
            PaperConfig::LibasyncWs => (Flavor::Libasync, WsPolicy::base()),
            PaperConfig::Mely => (Flavor::Mely, WsPolicy::off()),
            PaperConfig::MelyBaseWs => (Flavor::Mely, WsPolicy::base()),
            PaperConfig::MelyTimeWs => (Flavor::Mely, WsPolicy::base().with_time_left(true)),
            PaperConfig::MelyPenaltyWs => (
                Flavor::Mely,
                WsPolicy::base().with_time_left(true).with_penalty(true),
            ),
            PaperConfig::MelyLocalityWs => (Flavor::Mely, WsPolicy::base().with_locality(true)),
            PaperConfig::MelyImprovedWs => (Flavor::Mely, WsPolicy::improved()),
        }
    }

    /// The label used in the paper's tables (also the `Display` text).
    pub fn label(self) -> &'static str {
        match self {
            PaperConfig::Libasync => "Libasync-smp",
            PaperConfig::LibasyncWs => "Libasync-smp - WS",
            PaperConfig::Mely => "Mely",
            PaperConfig::MelyBaseWs => "Mely - base WS",
            PaperConfig::MelyTimeWs => "Mely - time-aware WS",
            PaperConfig::MelyPenaltyWs => "Mely - penalty-aware WS",
            PaperConfig::MelyLocalityWs => "Mely - locality-aware WS",
            PaperConfig::MelyImprovedWs => "Mely - WS",
        }
    }
}

impl std::fmt::Display for PaperConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_map_to_expected_policies() {
        let (f, p) = PaperConfig::LibasyncWs.setup();
        assert_eq!(f, mely_core::Flavor::Libasync);
        assert!(p.enabled && !p.time_left);
        let (f, p) = PaperConfig::MelyImprovedWs.setup();
        assert_eq!(f, mely_core::Flavor::Mely);
        assert!(p.locality && p.time_left && p.penalty);
        let (_, p) = PaperConfig::Mely.setup();
        assert!(!p.enabled);
        assert_eq!(PaperConfig::MelyBaseWs.label(), "Mely - base WS");
    }
}
