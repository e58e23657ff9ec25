//! The *cache efficient* microbenchmark (paper Section V-B, Table VI).
//!
//! "At each round, one core per pair of cores starts with a hundred
//! events of type A. The handlers for these events allocate an array
//! fitting in their cache and register two events of type B, associated
//! to different colors, on the same core. These events will sort the
//! first and the last part of the array (this mimics the beginning of a
//! merge sort). Once the handler of an event of type B has finished
//! sorting its array, it registers a synchronization event of type C.
//! When the two events of type C registered on each array have been
//! processed, the final part of the merge sort occurs."
//!
//! The ideal steal is the pair partner taking one B: the halves then
//! sort in parallel *within the shared L2*. The locality-aware heuristic
//! finds exactly that victim order.

use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::handler::HandlerSpec;
use mely_core::metrics::RunReport;
use mely_core::prelude::*;

use crate::PaperConfig;

/// Parameters of the cache-efficient workload.
#[derive(Debug, Clone)]
pub struct CacheEfficientCfg {
    /// Simulated cores (must be even; one seeding core per pair).
    pub cores: usize,
    /// Type-A events per seeding core per round (paper: 100).
    pub n_a: usize,
    /// Rounds to run.
    pub rounds: usize,
    /// Array allocated per A, in bytes.
    pub array_len: u64,
    /// Cost annotation of A (allocate + split).
    pub a_cost: u64,
    /// Cost annotation of B (sort half): roughly n log n.
    pub b_cost: u64,
    /// Cost annotation of C (synchronization).
    pub c_cost: u64,
    /// Cost annotation of the final merge.
    pub merge_cost: u64,
}

impl Default for CacheEfficientCfg {
    fn default() -> Self {
        CacheEfficientCfg {
            cores: 8,
            n_a: 100,
            rounds: 3,
            array_len: 16 << 10,
            a_cost: 8_000,
            b_cost: 40_000,
            c_cost: 1_200,
            merge_cost: 20_000,
        }
    }
}

/// Colors ≡ `core` (mod `cores`) pin every event of a task to its pair's
/// seeding core, while keeping the two B colors distinct so one half can
/// be stolen.
fn task_color(core: usize, cores: usize, k: usize) -> Color {
    Color::new((core + cores * (1 + k)) as u16 % 65_535)
}

/// Runs the cache-efficient workload and returns the report (throughput
/// and L2 misses per event — the two columns of Table VI).
///
/// # Panics
///
/// Panics if `cfg.cores` is odd.
pub fn cache_efficient(config: PaperConfig, cfg: &CacheEfficientCfg) -> RunReport {
    assert!(cfg.cores.is_multiple_of(2), "pairs of cores required");
    let (flavor, ws) = config.setup();
    let mut rt = RuntimeBuilder::new()
        .cores(cfg.cores)
        .flavor(flavor)
        .workstealing(ws)
        .track_cache(true)
        .machine(mely_topology::MachineModel::xeon_e5410())
        .build(ExecKind::Sim);
    let h_a = rt.register_handler(HandlerSpec::new("A").cost(cfg.a_cost));
    let h_b = rt.register_handler(HandlerSpec::new("B").cost(cfg.b_cost));
    let h_c = rt.register_handler(HandlerSpec::new("C").cost(cfg.c_cost));
    let h_m = rt.register_handler(HandlerSpec::new("Merge").cost(cfg.merge_cost));
    let cfg = Arc::new(cfg.clone());

    for _round in 0..cfg.rounds {
        for pair in 0..cfg.cores / 2 {
            let seed_core = 2 * pair;
            for i in 0..cfg.n_a {
                let array = rt.alloc_dataset(cfg.array_len);
                let a_color = task_color(seed_core, cfg.cores, 7_000 + i);
                let cfg2 = Arc::clone(&cfg);
                let ev = Event::for_handler(a_color, h_a).with_action(move |ctx| {
                    // A allocates/touches the array and forks the two
                    // sort halves, "registered on the same core" (paper):
                    // their colors are derived from the core *executing*
                    // A, so a stolen A migrates its whole task.
                    ctx.touch(&array);
                    let here = ctx.core();
                    let pending = Arc::new(Mutex::new(0u8));
                    let half = array.len() / 2;
                    // The task's synchronization color (C and the final
                    // merge serialize on it).
                    let sync_color = task_color(here, cfg2.cores, 40_000 + 2 * i);
                    for (k, (off, len)) in [(0u64, half), (half, array.len() - half)]
                        .into_iter()
                        .enumerate()
                    {
                        let b_color = task_color(here, cfg2.cores, 2 * i + k);
                        let arr = array.clone();
                        let pend = Arc::clone(&pending);
                        let arr_merge = array.clone();
                        ctx.register(Event::for_handler(b_color, h_b).with_action(move |ctx| {
                            // "Sort" the half: two passes over it.
                            ctx.touch_range(&arr, off, len);
                            ctx.touch_range(&arr, off, len);
                            let pend2 = Arc::clone(&pend);
                            // Synchronization event C.
                            ctx.register(Event::for_handler(sync_color, h_c).with_action(
                                move |ctx| {
                                    let mut n = pend2.lock();
                                    *n += 1;
                                    if *n == 2 {
                                        // Final merge pass.
                                        ctx.register(
                                            Event::for_handler(sync_color, h_m).with_action(
                                                move |ctx| {
                                                    ctx.touch(&arr_merge);
                                                },
                                            ),
                                        );
                                    }
                                },
                            ));
                        }));
                    }
                });
                rt.register_pinned(ev, seed_core);
            }
        }
        rt.run();
    }
    // Nothing is queued any more: this only reads the cumulative report.
    rt.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CacheEfficientCfg {
        CacheEfficientCfg {
            n_a: 24,
            rounds: 1,
            ..CacheEfficientCfg::default()
        }
    }

    #[test]
    fn forkjoin_completes_with_exact_event_count() {
        let cfg = quick();
        let r = cache_efficient(PaperConfig::Mely, &cfg);
        // Per A: 1 A + 2 B + 2 C + 1 merge = 6 events.
        let per_a = 6;
        let total = (cfg.cores / 2) * cfg.n_a * per_a * cfg.rounds;
        assert_eq!(r.events_processed(), total as u64);
    }

    #[test]
    fn workstealing_helps_this_workload() {
        // Unlike the web server, stealing improves this benchmark even
        // in its base form (paper: 1156 -> 1497 KEvents/s on Libasync).
        let cfg = quick();
        let off = cache_efficient(PaperConfig::Mely, &cfg);
        let ws = cache_efficient(PaperConfig::MelyBaseWs, &cfg);
        assert!(
            ws.kevents_per_sec() > off.kevents_per_sec(),
            "base WS {:.0} must beat no-WS {:.0}",
            ws.kevents_per_sec(),
            off.kevents_per_sec()
        );
    }

    #[test]
    fn locality_cuts_l2_misses_vs_base() {
        let cfg = quick();
        let base = cache_efficient(PaperConfig::MelyBaseWs, &cfg);
        let loc = cache_efficient(PaperConfig::MelyLocalityWs, &cfg);
        assert!(
            loc.l2_misses_per_event() < base.l2_misses_per_event(),
            "locality {:.2} misses/ev must beat base {:.2}",
            loc.l2_misses_per_event(),
            base.l2_misses_per_event()
        );
    }
}

#[cfg(test)]
mod probe {
    use super::*;

    #[test]
    #[ignore]
    fn diag() {
        for cfgp in [
            PaperConfig::Mely,
            PaperConfig::MelyBaseWs,
            PaperConfig::MelyLocalityWs,
            PaperConfig::LibasyncWs,
        ] {
            let cfg = CacheEfficientCfg {
                n_a: 24,
                rounds: 1,
                ..CacheEfficientCfg::default()
            };
            let r = cache_efficient(cfgp, &cfg);
            let t = r.total();
            eprintln!(
                "{:<26} ev={} wall={} kev/s={:.0} steals={} attempts={} fail_cy={} l2/ev={:.2}",
                cfgp,
                t.events_processed,
                r.wall_cycles(),
                r.kevents_per_sec(),
                t.steals,
                t.steal_attempts,
                t.failed_steal_cycles,
                r.l2_misses_per_event()
            );
        }
    }
}
