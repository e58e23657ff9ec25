//! Cross-thread injection throughput: spinlock-direct vs. the
//! injection inbox.
//!
//! The threaded runtime's producers used to take the destination core's
//! dispatch spinlock for every registered event; they now push onto the
//! core's MPSC inbox (a lock of its own) and the core merges batches
//! under one lock acquisition. This bench quantifies the difference where it
//! matters — many producers hammering a running runtime:
//!
//! - `inject/spin_direct/{1,4,8}p` — `Injector::inject_locked`, the
//!   legacy per-event-lock path;
//! - `inject/inbox/{1,4,8}p` — `Injector::inject`, the inbox path.
//!
//! One *operation* is one event injected by a producer thread into a
//! runtime whose workers are concurrently dispatching; the reported
//! time is the pool's wall time over the total ops — aggregate
//! injection throughput. The op count is fixed, not auto-sized: thread
//! spawn/wake costs would dominate small probe batches, and each
//! producer must inject long enough to overlap the dispatch loop
//! (several scheduler quanta) or lock contention never materializes on
//! an oversubscribed host. Each configuration is repeated with the
//! median kept.
//!
//! The final `speedup@8p` line is the ratio the acceptance bar cares
//! about, and the bench gates itself on it: the process exits non-zero
//! when the inbox is less than [`MIN_SPEEDUP_AT_8P`] times faster than
//! the spinlock-direct path at 8 producers.

use std::time::Duration;

use mely_core::prelude::*;
use mely_loadgen::threaded::{InjectMode, InjectorConfig, InjectorPool};

/// Worker cores of the target runtime (the consumers the producers race).
const CORES: usize = 4;
/// Colors per producer; disjoint ranges, so producers never serialize on
/// a color and every core receives load.
const COLORS_PER_PRODUCER: u16 = 8;
/// Repetitions per configuration; the median filters scheduler noise
/// without rewarding a producer that got a whole timeslice to itself.
const REPS: usize = 5;
/// Events each producer injects: enough to span many scheduler quanta
/// (the lock-contention events this measures are rare per quantum).
const EVENTS_PER_PRODUCER: u64 = 80_000;
/// Tripwire, well under the measured 4.8-5.1x (2 vCPUs): a ratio survives
/// a change of machine where absolute ns/op do not.
const MIN_SPEEDUP_AT_8P: f64 = 1.5;
/// Cost the injected events burn in their bodies. Nonzero so the workers
/// stay busy popping and executing (cycling their queue locks, as a loaded
/// server would) instead of idle-yielding — an idle, yielding consumer
/// makes the spinlock look artificially cheap on an oversubscribed host.
const EVENT_COST: u64 = 1_000;

/// Injects [`EVENTS_PER_PRODUCER`] events from each of `producers`
/// threads into a fresh running runtime; returns the pool's wall time (spawn to last
/// producer done — identical spawn overhead in both modes, so it
/// cancels out of the comparison).
fn injection_run(mode: InjectMode, producers: usize) -> Duration {
    let mut rt = RuntimeBuilder::new()
        .cores(CORES)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Threaded);
    // Keep workers spinning on dispatch (the realistic contention)
    // instead of exiting the moment their queues run dry.
    let _keepalive = rt.injector().keepalive();
    let pool_handle = rt.injector();
    let stopper = rt.injector();
    let runner = std::thread::spawn(move || rt.run());
    let start = std::time::Instant::now();
    let pool = InjectorPool::spawn(
        pool_handle,
        InjectorConfig {
            producers,
            events_per_producer: EVENTS_PER_PRODUCER,
            colors: COLORS_PER_PRODUCER,
            cost: EVENT_COST,
            mode,
        },
    );
    pool.join().expect("producers must not panic");
    let wall = start.elapsed();
    stopper.stop();
    runner.join().expect("runtime must not panic");
    wall
}

/// Median-of-[`REPS`] ns/op for one configuration.
fn measure(mode: InjectMode, producers: usize) -> f64 {
    let mut runs: Vec<Duration> = (0..REPS).map(|_| injection_run(mode, producers)).collect();
    runs.sort();
    let median = runs[REPS / 2];
    median.as_secs_f64() * 1e9 / (EVENTS_PER_PRODUCER * producers as u64) as f64
}

fn main() {
    let mut at_8p = [0.0f64; 2];
    for (m, (mode, label)) in [
        (InjectMode::DirectLock, "spin_direct"),
        (InjectMode::Inbox, "inbox"),
    ]
    .into_iter()
    .enumerate()
    {
        for producers in [1usize, 4, 8] {
            let id = format!("inject/{label}/{producers}p");
            let ns = measure(mode, producers);
            println!(
                "{id:<40} {ns:>12.1} ns/op  ({producers}x{EVENTS_PER_PRODUCER} ops, median of {REPS})"
            );
            if producers == 8 {
                at_8p[m] = ns;
            }
        }
    }
    let speedup = at_8p[0] / at_8p[1].max(1e-12);
    println!(
        "inject/speedup@8p: direct {:.1} ns/op, inbox {:.1} ns/op -> {speedup:.2}x",
        at_8p[0], at_8p[1],
    );
    if speedup < MIN_SPEEDUP_AT_8P {
        eprintln!("FAIL: inbox speedup at 8 producers {speedup:.2}x < {MIN_SPEEDUP_AT_8P}x");
        std::process::exit(1);
    }
}
