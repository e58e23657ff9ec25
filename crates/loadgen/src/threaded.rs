//! Multi-threaded load injection into a running executor.
//!
//! The closed-loop driver in [`crate`] lives in *virtual* time and feeds
//! the simulated executor's poll loop. This module is its real-time
//! counterpart: a pool of OS producer threads hammering an executor
//! through the executor-agnostic [`Injector`],
//! the way a network frontend or RPC ingress would. Each producer is an
//! *external* producer in the sense of the injection architecture — its
//! registrations go through the owning core's inbox on the
//! threaded executor (and the run-loop mailbox on the simulator) and
//! never contend on a dispatch spinlock.
//!
//! # Examples
//!
//! ```
//! use mely_core::prelude::*;
//! use mely_loadgen::threaded::{InjectMode, InjectorConfig, InjectorPool};
//!
//! // The same producer pool drives either executor.
//! for kind in [ExecKind::Threaded, ExecKind::Sim] {
//!     let mut rt = RuntimeBuilder::new()
//!         .cores(2)
//!         .flavor(Flavor::Mely)
//!         .build(kind);
//!     // Keep the workers alive until the pool is done, then drain + stop.
//!     let keepalive = rt.injector().keepalive();
//!     let pool = InjectorPool::spawn(
//!         rt.injector(),
//!         InjectorConfig {
//!             producers: 2,
//!             events_per_producer: 100,
//!             colors: 8,
//!             cost: 0,
//!             mode: InjectMode::Inbox,
//!         },
//!     );
//!     let stopper = rt.injector();
//!     std::thread::spawn(move || {
//!         assert_eq!(pool.join().expect("no producer panicked"), 200);
//!         stopper.stop_when_idle();
//!         drop(keepalive);
//!     });
//!     let report = rt.run();
//!     assert!(report.events_processed() >= 200);
//! }
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use mely_core::color::Color;
use mely_core::cycles;
use mely_core::event::Event;
use mely_core::exec::Injector;
use rand::distributions::{Distribution, Pareto, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which load the producers offer; both go through [`Injector::inject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InjectMode {
    /// Uniform load: colors cycle through each producer's range and
    /// every event costs [`InjectorConfig::cost`] — the default.
    #[default]
    Inbox,
    /// Heavy-tailed load: colors drawn from a Zipf(s = 1) distribution
    /// over each producer's color range (a few hot colors take most of
    /// the traffic) and per-event cost drawn from a Pareto(shape = 1.5)
    /// distribution with [`InjectorConfig::cost`] as its scale
    /// (minimum). Deterministic per producer — the overload benchmarks'
    /// request mix.
    HeavyTail,
}

/// Shape of the injected load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectorConfig {
    /// Number of OS producer threads.
    pub producers: usize,
    /// Events each producer registers.
    pub events_per_producer: u64,
    /// Events cycle through this many distinct colors per producer
    /// (disjoint across producers, so producers never serialize on a
    /// color).
    pub colors: u16,
    /// Cost of each event, in cycles: declared, and burned by its body.
    pub cost: u64,
    /// Load shape.
    pub mode: InjectMode,
}

impl Default for InjectorConfig {
    fn default() -> Self {
        InjectorConfig {
            producers: 4,
            events_per_producer: 10_000,
            colors: 16,
            cost: 0,
            mode: InjectMode::Inbox,
        }
    }
}

/// A producer thread panicked; returned by [`InjectorPool::join`]
/// instead of aborting the joining thread. The count of events the
/// pool *did* inject (including the dead producer's, up to the panic)
/// stays observable through the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerPanic {
    /// Index of the first producer (in spawn order) that panicked.
    pub producer: usize,
    /// The panic message, when the payload was a string (a placeholder
    /// otherwise).
    pub message: String,
    /// Events the pool injected before and around the panic.
    pub injected: u64,
}

impl fmt::Display for ProducerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "producer {} panicked after the pool injected {} events: {}",
            self.producer, self.injected, self.message
        )
    }
}

impl std::error::Error for ProducerPanic {}

/// A running pool of producer threads.
///
/// Construction ([`InjectorPool::spawn`]) starts all producers behind a
/// barrier so they begin injecting simultaneously; [`InjectorPool::join`]
/// waits for completion and returns the total events injected.
pub struct InjectorPool {
    threads: Vec<JoinHandle<()>>,
    injected: Arc<AtomicU64>,
}

impl fmt::Debug for InjectorPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InjectorPool")
            .field("threads", &self.threads.len())
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

/// Flushes a producer's local injection count into the pool total on
/// scope exit — including an unwinding one, so a panicking producer's
/// completed work is still counted.
struct CountGuard {
    injected: Arc<AtomicU64>,
    n: u64,
}

impl Drop for CountGuard {
    fn drop(&mut self) {
        self.injected.fetch_add(self.n, Ordering::Relaxed);
    }
}

impl InjectorPool {
    /// Starts `cfg.producers` threads injecting through `injector`, the
    /// value of [`Executor::injector`](mely_core::exec::Executor::injector).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.producers` or `cfg.colors` is zero, or if
    /// `producers * colors` exceeds the 16-bit color space (the
    /// disjoint-per-producer color ranges could not exist).
    pub fn spawn(injector: Injector, cfg: InjectorConfig) -> Self {
        assert!(cfg.producers > 0, "need at least one producer");
        assert!(cfg.colors > 0, "need at least one color per producer");
        assert!(
            cfg.producers as u64 * u64::from(cfg.colors) <= u64::from(u16::MAX),
            "producers x colors must fit the 16-bit color space for the \
             per-producer ranges to stay disjoint"
        );
        // Heavy-tail draws share one CDF across producers; samples are
        // seeded per (producer, event) so the mix is deterministic
        // regardless of thread interleaving.
        let zipf = Zipf::new(u64::from(cfg.colors), 1.0);
        let pareto = Pareto::new(cfg.cost.max(1) as f64, 1.5);
        let cost_cap = cfg.cost.max(1).saturating_mul(10_000);
        // One pool mechanism: the synthetic-event shape delegates to
        // the generic producer pool below.
        Self::spawn_with(cfg.producers, cfg.events_per_producer, move |p, i| {
            // Disjoint color range per producer: producer p uses colors
            // [1 + p*colors, 1 + (p+1)*colors) (in-bounds by the assert
            // in `spawn`; colors start at 1 to avoid the
            // fully-serializing default color 0).
            let base = 1 + p as u64 * u64::from(cfg.colors);
            let (color, cost) = match cfg.mode {
                InjectMode::Inbox => (base + i % u64::from(cfg.colors), cfg.cost),
                InjectMode::HeavyTail => {
                    let mut rng =
                        StdRng::seed_from_u64(((p as u64) << 32) ^ i ^ 0x9E37_79B9_7F4A_7C15);
                    // Zipf rank 1 (the hottest) maps to the first color
                    // of the producer's range.
                    let color = base + zipf.sample(&mut rng) - 1;
                    (color, (pareto.sample(&mut rng) as u64).min(cost_cap))
                }
            };
            // The body burns what the event declares: no executor
            // manufactures service time for a synthetic load.
            let ev = Event::new(Color::new(color as u16), cost);
            injector.inject(ev.with_action(move |_| cycles::spin(cost)));
        })
    }

    /// The generic form of [`InjectorPool::spawn`]: `producers` threads
    /// start behind one barrier and each calls `produce(p, i)` for
    /// `events_per_producer` values of `i`. The closure does the actual
    /// submission, so the same pool machinery drives raw events *or*
    /// the typed stage layer (a cloned
    /// [`StageSender`](mely_core::stage::StageSender) submitting
    /// pipeline messages), with [`InjectorPool::join`] still returning
    /// the total count.
    ///
    /// # Panics
    ///
    /// Panics if `producers` is zero.
    pub fn spawn_with<F>(producers: usize, events_per_producer: u64, produce: F) -> Self
    where
        F: Fn(usize, u64) + Send + Sync + 'static,
    {
        assert!(producers > 0, "need at least one producer");
        let produce = Arc::new(produce);
        let barrier = Arc::new(Barrier::new(producers));
        let injected = Arc::new(AtomicU64::new(0));
        let threads = (0..producers)
            .map(|p| {
                let produce = Arc::clone(&produce);
                let barrier = Arc::clone(&barrier);
                let injected = Arc::clone(&injected);
                std::thread::Builder::new()
                    .name(format!("mely-inject-{p}"))
                    .spawn(move || {
                        barrier.wait();
                        let mut guard = CountGuard { injected, n: 0 };
                        for i in 0..events_per_producer {
                            produce(p, i);
                            guard.n += 1;
                        }
                    })
                    .expect("spawn producer")
            })
            .collect();
        InjectorPool { threads, injected }
    }

    /// The coarse-grained sibling of [`InjectorPool::spawn_with`]:
    /// `workers` threads start behind one barrier and each runs
    /// `work(w)` once, returning how many units it completed. The pool
    /// total (what [`InjectorPool::join`] returns) is the sum of those
    /// returns — and a worker that panics mid-run contributes zero, so
    /// the total only counts work whose completion the worker itself
    /// vouched for. The TCP load generator uses this shape: each worker
    /// owns a set of real client sockets for the whole run and returns
    /// its client-verified response count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn spawn_workers<F>(workers: usize, work: F) -> Self
    where
        F: Fn(usize) -> u64 + Send + Sync + 'static,
    {
        assert!(workers > 0, "need at least one worker");
        let work = Arc::new(work);
        let barrier = Arc::new(Barrier::new(workers));
        let injected = Arc::new(AtomicU64::new(0));
        let threads = (0..workers)
            .map(|w| {
                let work = Arc::clone(&work);
                let barrier = Arc::clone(&barrier);
                let injected = Arc::clone(&injected);
                std::thread::Builder::new()
                    .name(format!("mely-load-{w}"))
                    .spawn(move || {
                        barrier.wait();
                        let mut guard = CountGuard { injected, n: 0 };
                        guard.n = work(w);
                    })
                    .expect("spawn worker")
            })
            .collect();
        InjectorPool { threads, injected }
    }

    /// Waits for every producer and returns the total events injected,
    /// or a [`ProducerPanic`] naming the first producer that died. All
    /// threads are joined either way — an error never leaves stragglers
    /// running.
    pub fn join(self) -> Result<u64, ProducerPanic> {
        let mut first_panic: Option<(usize, String)> = None;
        for (p, t) in self.threads.into_iter().enumerate() {
            if let Err(payload) = t.join() {
                let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                first_panic.get_or_insert((p, message));
            }
        }
        let injected = self.injected.load(Ordering::Relaxed);
        match first_panic {
            None => Ok(injected),
            Some((producer, message)) => Err(ProducerPanic {
                producer,
                message,
                injected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_core::prelude::*;

    fn run_with_pool(kind: ExecKind, mode: InjectMode) -> RunReport {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .build(kind);
        let keepalive = rt.injector().keepalive();
        let pool = InjectorPool::spawn(
            rt.injector(),
            InjectorConfig {
                producers: 3,
                events_per_producer: 500,
                colors: 4,
                cost: 0,
                mode,
            },
        );
        let stopper = rt.injector();
        let waiter = std::thread::spawn(move || {
            assert_eq!(pool.join().expect("no producer panicked"), 1_500);
            stopper.stop_when_idle();
            drop(keepalive);
        });
        let report = rt.run();
        waiter.join().unwrap();
        report
    }

    #[test]
    fn inbox_pool_injects_everything() {
        let r = run_with_pool(ExecKind::Threaded, InjectMode::Inbox);
        assert!(r.events_processed() >= 1_500);
        assert!(r.total().inbox_pushes >= 1_500, "inbox path must be used");
    }

    #[test]
    fn the_same_pool_drives_the_simulator() {
        let r = run_with_pool(ExecKind::Sim, InjectMode::Inbox);
        assert!(r.events_processed() >= 1_500);
    }

    #[test]
    fn heavy_tail_pool_skews_colors_and_costs() {
        // Costs are seeded per (producer, event), so total busy time is
        // deterministic: Pareto draws (minimum = the configured cost's
        // floor of 1) must stretch it past the flat mix's.
        let uniform = run_with_pool(ExecKind::Sim, InjectMode::Inbox);
        let heavy = run_with_pool(ExecKind::Sim, InjectMode::HeavyTail);
        assert!(heavy.events_processed() >= 1_500);
        assert!(
            heavy.total().busy_cycles > uniform.total().busy_cycles,
            "Pareto costs (scale = uniform cost) must exceed the flat mix"
        );
    }

    #[test]
    fn generic_pool_drives_a_typed_pipeline() {
        use std::sync::atomic::AtomicU64;

        struct Work {
            done: Arc<AtomicU64>,
        }
        impl Stage for Work {
            type In = u64;
            fn spec(&self) -> StageSpec<u64> {
                StageSpec::new("work").cost(100).keyed(|&k| k)
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _k: u64) {
                self.done.fetch_add(1, Ordering::Relaxed);
                ctx.complete(());
            }
        }

        for kind in [ExecKind::Threaded, ExecKind::Sim] {
            let done = Arc::new(AtomicU64::new(0));
            let mut rt = RuntimeBuilder::new()
                .cores(2)
                .flavor(Flavor::Mely)
                .build(kind);
            let pipeline = rt.install(
                PipelineBuilder::new("pool-typed")
                    .stage(Work {
                        done: Arc::clone(&done),
                    })
                    .build(),
            );
            let keepalive = rt.injector().keepalive();
            let sender = pipeline.sender(rt.injector());
            let pool = InjectorPool::spawn_with(3, 200, move |p, i| {
                sender.submit::<Work>(p as u64 * 1_000 + i);
            });
            let stopper = rt.injector();
            let waiter = std::thread::spawn(move || {
                assert_eq!(pool.join().expect("no producer panicked"), 600);
                stopper.stop_when_idle();
                drop(keepalive);
            });
            let report = rt.run();
            waiter.join().unwrap();
            assert_eq!(done.load(Ordering::Relaxed), 600, "{kind}");
            assert_eq!(report.completed_requests(), 600, "{kind}");
        }
    }

    #[test]
    fn producer_panic_surfaces_as_typed_error() {
        // Producer 1 dies mid-stream; join must still join everyone,
        // keep the surviving producers' counts, and name the culprit.
        let panicking = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = InjectorPool::spawn_with(3, 100, |p, i| {
            if p == 1 && i == 50 {
                panic!("producer blew up");
            }
        });
        let err = pool.join().expect_err("producer 1 panicked");
        std::panic::set_hook(panicking);
        assert_eq!(err.producer, 1);
        assert!(err.message.contains("blew up"), "{err}");
        // Two full producers plus the dead one's first 50 iterations.
        assert_eq!(err.injected, 250);
        assert!(format!("{err}").contains("producer 1"));
    }

    #[test]
    #[should_panic(expected = "at least one producer")]
    fn zero_producers_rejected() {
        let rt = RuntimeBuilder::new().cores(1).build(ExecKind::Threaded);
        let _ = InjectorPool::spawn(
            rt.injector(),
            InjectorConfig {
                producers: 0,
                ..InjectorConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "16-bit color space")]
    fn color_space_overflow_rejected() {
        let rt = RuntimeBuilder::new().cores(1).build(ExecKind::Threaded);
        let _ = InjectorPool::spawn(
            rt.injector(),
            InjectorConfig {
                producers: 9,
                colors: 8_192,
                ..InjectorConfig::default()
            },
        );
    }
}
