//! The *unbalanced* microbenchmark (paper Section V-B).
//!
//! "It implements a fork/join pattern: at each round, 50000 events are
//! registered on the first core. 98% of these events are very short (100
//! cycles), whereas the other events are much longer (between 10 and 50
//! Kcycles). Events are independent (i.e. they are registered with
//! different colors and can thus be processed concurrently). When all
//! events have been processed, a new round begins."
//!
//! Defaults are scaled (fewer events per round, shorter wall time) so a
//! full four-configuration table runs in seconds on a laptop; ratios
//! between configurations — the paper's result — are insensitive to the
//! scaling.

use mely_core::metrics::RunReport;
use mely_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::PaperConfig;

/// Parameters of the unbalanced workload.
#[derive(Debug, Clone)]
pub struct UnbalancedCfg {
    /// Simulated cores.
    pub cores: usize,
    /// Events registered on core 0 per round (paper: 50,000).
    pub events_per_round: usize,
    /// Cost of a short event in cycles (paper: 100).
    pub short_cost: u64,
    /// Long event cost range in cycles (paper: 10,000..=50,000).
    pub long_cost: (u64, u64),
    /// Percentage of long events (paper: 2).
    pub long_pct: u32,
    /// Virtual run duration in cycles (paper: 5 s; default scaled).
    pub duration: u64,
    /// RNG seed for the long-event costs and positions.
    pub seed: u64,
}

impl Default for UnbalancedCfg {
    fn default() -> Self {
        UnbalancedCfg {
            cores: 8,
            events_per_round: 20_000,
            short_cost: 100,
            long_cost: (10_000, 50_000),
            long_pct: 2,
            duration: 60_000_000,
            seed: 42,
        }
    }
}

/// Runs the unbalanced workload under `config` and returns the
/// cumulative report (throughput, locking time, steal costs).
pub fn unbalanced(config: PaperConfig, cfg: &UnbalancedCfg) -> RunReport {
    let (flavor, ws) = config.setup();
    let mut rt = RuntimeBuilder::new()
        .cores(cfg.cores)
        .flavor(flavor)
        .workstealing(ws)
        .build(ExecKind::Sim);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    loop {
        // One fork/join round: independent colors, all pinned on core 0.
        for i in 0..cfg.events_per_round {
            let color = Color::new((1 + (i % 65_000)) as u16);
            let cost = if rng.gen_range(0u32..100) < cfg.long_pct {
                rng.gen_range(cfg.long_cost.0..=cfg.long_cost.1)
            } else {
                cfg.short_cost
            };
            rt.register_pinned(Event::new(color, cost).named("unbalanced"), 0);
        }
        // Join: run() drains the round completely; virtual time and
        // counters accumulate across rounds.
        let report = rt.run();
        if report.wall_cycles() >= cfg.duration {
            return report;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> UnbalancedCfg {
        UnbalancedCfg {
            events_per_round: 2_000,
            duration: 8_000_000,
            ..UnbalancedCfg::default()
        }
    }

    #[test]
    fn all_events_execute_every_round() {
        let r = unbalanced(PaperConfig::Mely, &quick());
        let t = r.total();
        assert_eq!(t.events_processed, t.registered);
        assert!(t.events_processed >= 2_000);
    }

    #[test]
    fn libasync_ws_collapses_vs_plain_libasync() {
        // The paper's headline: base workstealing on the legacy queue
        // destroys throughput on this workload (1310 -> 122 KEvents/s).
        let plain = unbalanced(PaperConfig::Libasync, &quick());
        let ws = unbalanced(PaperConfig::LibasyncWs, &quick());
        assert!(
            ws.kevents_per_sec() < plain.kevents_per_sec() * 0.6,
            "Libasync WS {:.0} must collapse vs plain {:.0}",
            ws.kevents_per_sec(),
            plain.kevents_per_sec()
        );
        assert!(
            ws.lock_time_fraction() > plain.lock_time_fraction() * 5.0,
            "locking time must explode ({:.1}% vs {:.1}%)",
            ws.lock_time_fraction() * 100.0,
            plain.lock_time_fraction() * 100.0
        );
    }

    #[test]
    fn mely_base_ws_is_much_cheaper_than_libasync_ws() {
        let legacy = unbalanced(PaperConfig::LibasyncWs, &quick());
        let mely = unbalanced(PaperConfig::MelyBaseWs, &quick());
        let legacy_steal = legacy.avg_steal_cycles().expect("legacy steals");
        let mely_steal = mely.avg_steal_cycles().expect("mely steals");
        assert!(
            mely_steal * 4.0 < legacy_steal,
            "Mely steal {mely_steal:.0}cy must be several times cheaper than {legacy_steal:.0}cy"
        );
    }

    #[test]
    fn time_left_beats_base_on_mely() {
        let base = unbalanced(PaperConfig::MelyBaseWs, &quick());
        let time = unbalanced(PaperConfig::MelyTimeWs, &quick());
        assert!(
            time.kevents_per_sec() > base.kevents_per_sec(),
            "time-left {:.0} must beat base {:.0}",
            time.kevents_per_sec(),
            base.kevents_per_sec()
        );
        // And it steals far larger sets (only worthy colors).
        let stolen_base = base.avg_stolen_cost().unwrap_or(0.0);
        let stolen_time = time.avg_stolen_cost().unwrap_or(f64::INFINITY);
        assert!(stolen_time > stolen_base * 3.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = unbalanced(PaperConfig::MelyImprovedWs, &quick());
        let b = unbalanced(PaperConfig::MelyImprovedWs, &quick());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.wall_cycles(), b.wall_cycles());
    }
}
