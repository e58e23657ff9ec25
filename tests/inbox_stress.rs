//! Multi-producer stress tests for the threaded runtime's injection
//! inboxes.
//!
//! N OS producer threads hammer a running threaded executor through
//! cloned handles while workers dispatch and steal; in one test the
//! workers' own handlers are the producers, routing to colors other
//! cores own. The assertions are the inbox's contract:
//!
//! - **no event lost** — every injected event executes exactly once;
//! - **color exclusion** — no color is ever in flight on two cores, even
//!   though events reach cores via inbox drains racing steals;
//! - **per-color FIFO** — one producer's events of one color run in the
//!   order it produced them, whichever cores the color moves between;
//! - **clean shutdown** — stopping the runtime with events still
//!   buffered in inboxes neither hangs nor leaks the events' captures.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use mely_repro::core::cycles;
use mely_repro::core::prelude::*;
use mely_repro::loadgen::threaded::{InjectMode, InjectorConfig, InjectorPool};

const PRODUCERS: usize = 6;
const EVENTS_PER_PRODUCER: u64 = 4_000;
const COLORS_PER_PRODUCER: u16 = 5;

#[test]
fn no_event_lost_and_no_color_on_two_cores() {
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let keepalive = rt.injector().keepalive();
    let handle = rt.injector();

    let executed = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    // One entry per color a producer can use; each action bumps its
    // color's cell on entry and decrements on exit. Color exclusion
    // means the cell is zero whenever a new action of that color starts.
    let color_space = PRODUCERS * COLORS_PER_PRODUCER as usize + 2;
    let in_flight: Arc<Vec<AtomicI64>> = cells(color_space);
    // Per color, one more than the index of the last event that ran: a
    // color belongs to one producer, so its indices must rise.
    let last: Arc<Vec<AtomicU64>> = cells(color_space);
    let disorder = Arc::new(AtomicU64::new(0));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let executed = Arc::clone(&executed);
            let violations = Arc::clone(&violations);
            let in_flight = Arc::clone(&in_flight);
            let last = Arc::clone(&last);
            let disorder = Arc::clone(&disorder);
            std::thread::spawn(move || {
                for i in 0..EVENTS_PER_PRODUCER {
                    let color_idx = 2
                        + p * COLORS_PER_PRODUCER as usize
                        + (i % u64::from(COLORS_PER_PRODUCER)) as usize;
                    let executed = Arc::clone(&executed);
                    let violations = Arc::clone(&violations);
                    let in_flight = Arc::clone(&in_flight);
                    let last = Arc::clone(&last);
                    let disorder = Arc::clone(&disorder);
                    handle.inject(Event::new(Color::new(color_idx as u16), 0).with_action(
                        move |_| {
                            let cell = &in_flight[color_idx];
                            if cell.fetch_add(1, Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            if last[color_idx].swap(i + 1, Ordering::SeqCst) > i {
                                disorder.fetch_add(1, Ordering::SeqCst);
                            }
                            std::hint::spin_loop();
                            cell.fetch_sub(1, Ordering::SeqCst);
                            executed.fetch_add(1, Ordering::SeqCst);
                        },
                    ));
                }
            })
        })
        .collect();

    let total = PRODUCERS as u64 * EVENTS_PER_PRODUCER;
    let stopper = rt.injector();
    let waiter = std::thread::spawn(move || {
        for p in producers {
            p.join().unwrap();
        }
        // Everything injected; let the workers drain all of it, stop.
        stopper.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    waiter.join().unwrap();

    assert_eq!(
        executed.load(Ordering::SeqCst),
        total,
        "every injected event must execute exactly once"
    );
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "a color was in flight on two cores"
    );
    assert_eq!(
        disorder.load(Ordering::SeqCst),
        0,
        "a producer's events of one color ran out of order"
    );
    assert_eq!(report.events_processed(), total);
    // Each event is pushed exactly once: a push refused because its
    // color moved is retried, not counted.
    let t = report.total();
    assert_eq!(t.inbox_pushes, total, "all events used the inbox once");
    assert_eq!(
        t.inbox_drained, t.inbox_pushes,
        "everything pushed was drained"
    );
}

/// `n` zeroed atomic cells.
fn cells<T: Default>(n: usize) -> Arc<Vec<T>> {
    Arc::new(std::iter::repeat_with(T::default).take(n).collect())
}

#[test]
fn workers_routing_to_other_cores_keep_order_under_stealing() {
    // Eight emitter colors, all homed on core 0, and eight target
    // colors homed on cores 1 to 3. Emitter e forwards every event it
    // runs to targets e and e + 1, numbered by the emitter's own run
    // order. Idle cores steal emitters from core 0 and targets from
    // each other while handlers route into their inboxes, so routes race
    // steals and the thieves' rescue drains, and a stolen emitter may
    // land on the core that owns its target.
    const CORES: usize = 4;
    const PAIRS: u16 = 8;
    const ROUNDS: u64 = 400;
    let emitter_color = |e: u16| 100 + 4 * e;
    let target_color = |t: u16| 200 + 4 * t + 1 + t % 3;
    let mut rt = RuntimeBuilder::new()
        .cores(CORES)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let keepalive = rt.injector().keepalive();
    let handle = rt.injector();

    let executed = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let disorder = Arc::new(AtomicU64::new(0));
    // Indexed by color value.
    let in_flight: Arc<Vec<AtomicI64>> = cells(usize::from(target_color(PAIRS)));
    // One more than the last index run, per emitter and per (emitter,
    // target) pair.
    let emitted: Arc<Vec<AtomicU64>> = cells(usize::from(PAIRS));
    let routed: Arc<Vec<AtomicU64>> = cells(usize::from(PAIRS) * 2);

    // Enters a color's critical section, runs `body`, leaves it.
    let exclusive = {
        let in_flight = Arc::clone(&in_flight);
        let violations = Arc::clone(&violations);
        let executed = Arc::clone(&executed);
        move |color: u16, body: &mut dyn FnMut()| {
            let cell = &in_flight[usize::from(color)];
            if cell.fetch_add(1, Ordering::SeqCst) != 0 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
            // Emitters run longest, so core 0 falls behind and the
            // other cores steal from it.
            cycles::spin(if color < target_color(0) {
                10_000
            } else {
                2_000
            });
            body();
            cell.fetch_sub(1, Ordering::SeqCst);
            executed.fetch_add(1, Ordering::SeqCst);
        }
    };
    // Records that index `i` ran in `slots[k]`; indices must rise by one.
    let in_order = {
        let disorder = Arc::clone(&disorder);
        move |slots: &[AtomicU64], k: usize, i: u64| {
            if slots[k].swap(i + 1, Ordering::SeqCst) != i {
                disorder.fetch_add(1, Ordering::SeqCst);
            }
        }
    };

    let producer = std::thread::spawn(move || {
        for i in 0..ROUNDS {
            for e in 0..PAIRS {
                let (exclusive, in_order) = (exclusive.clone(), in_order.clone());
                let (emitted, routed) = (Arc::clone(&emitted), Arc::clone(&routed));
                let color = emitter_color(e);
                let emitter = Event::new(Color::new(color), 20_000).with_action(move |ctx| {
                    exclusive(color, &mut || {
                        in_order(&emitted, usize::from(e), i);
                        for j in 0..2u16 {
                            let target = target_color((e + j) % PAIRS);
                            let k = usize::from(e) * 2 + usize::from(j);
                            let (exclusive, in_order) = (exclusive.clone(), in_order.clone());
                            let routed = Arc::clone(&routed);
                            ctx.register(Event::new(Color::new(target), 20_000).with_action(
                                move |_| exclusive(target, &mut || in_order(&routed, k, i)),
                            ));
                        }
                    });
                });
                handle.inject(emitter);
            }
        }
        handle.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    producer.join().unwrap();

    let total = ROUNDS * u64::from(PAIRS) * 3;
    assert_eq!(
        executed.load(Ordering::SeqCst),
        total,
        "every event must execute exactly once"
    );
    assert_eq!(report.events_processed(), total);
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "a color was in flight on two cores"
    );
    assert_eq!(
        disorder.load(Ordering::SeqCst),
        0,
        "events of one (emitter, color) pair ran out of order"
    );
    let t = report.total();
    assert_eq!(t.inbox_drained, t.inbox_pushes);
}

#[test]
fn injector_pool_under_stealing_loses_nothing() {
    // Same invariant, driven through the loadgen producer pool, with
    // nonzero costs so steals actually happen during injection.
    let mut rt = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::base())
        .build(ExecKind::Threaded);
    let keepalive = rt.injector().keepalive();
    let pool_handle = rt.injector();
    let stopper = rt.injector();
    let waiter = std::thread::spawn(move || {
        let pool = InjectorPool::spawn(
            pool_handle,
            InjectorConfig {
                producers: 4,
                events_per_producer: 2_000,
                colors: 3,
                cost: 5_000,
                mode: InjectMode::Inbox,
            },
        );
        let injected = pool.join().expect("producers must not panic");
        assert_eq!(injected, 8_000);
        stopper.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    waiter.join().unwrap();
    assert_eq!(report.events_processed(), 8_000);
    let t = report.total();
    assert!(t.inbox_pushes >= 8_000);
    assert_eq!(t.inbox_drained, t.inbox_pushes);
}

#[test]
fn stopping_with_a_nonempty_inbox_shuts_down_cleanly() {
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Threaded);
    let keepalive = rt.injector().keepalive();
    let handle = rt.injector();
    let marker = Arc::new(());

    // Stop the runtime while a producer is still injecting: some events
    // will be executed, the rest must be dropped (not leaked, not hung).
    let stopper = rt.injector();
    let m = Arc::clone(&marker);
    let producer = std::thread::spawn(move || {
        for i in 0..50_000u64 {
            let m = Arc::clone(&m);
            handle.inject(
                Event::new(Color::new((i % 97 + 2) as u16), 0).with_action(move |_| {
                    let _ = &m;
                }),
            );
            if i == 1_000 {
                stopper.stop();
            }
        }
    });
    let report = rt.run();
    producer.join().unwrap();
    // The run ended by stop, not by draining everything: with 50k events
    // racing a stop at the 1000th, some must still be buffered.
    assert!(report.events_processed() < 50_000, "stop was ignored");
    drop(report);
    // The keepalive guard holds the runtime's shared state, and the
    // runtime itself (reusable since `run(&mut self)`) still owns the
    // undrained inbox backlog; release both so every undrained event's
    // captures are freed — after which only our local Arc remains.
    drop(keepalive);
    drop(rt);
    assert_eq!(
        Arc::strong_count(&marker),
        1,
        "undrained inbox events leaked their captures"
    );
}
