//! Multi-producer stress tests for the threaded runtime's injection
//! inboxes.
//!
//! N OS producer threads hammer a running [`ThreadedRuntime`] through
//! cloned handles while workers dispatch and steal. The assertions are
//! the inbox's contract:
//!
//! - **no event lost** — every injected event executes exactly once;
//! - **color exclusion** — no color is ever in flight on two cores, even
//!   though events reach cores via inbox drains racing steals;
//! - **clean shutdown** — stopping the runtime with events still
//!   buffered in inboxes neither hangs nor leaks the events' captures.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

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
    let in_flight: Arc<Vec<AtomicI64>> = Arc::new(
        std::iter::repeat_with(|| AtomicI64::new(0))
            .take(color_space)
            .collect(),
    );

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = handle.clone();
            let executed = Arc::clone(&executed);
            let violations = Arc::clone(&violations);
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || {
                for i in 0..EVENTS_PER_PRODUCER {
                    let color_idx = 2
                        + p * COLORS_PER_PRODUCER as usize
                        + (i % u64::from(COLORS_PER_PRODUCER)) as usize;
                    let executed = Arc::clone(&executed);
                    let violations = Arc::clone(&violations);
                    let in_flight = Arc::clone(&in_flight);
                    handle.inject(Event::new(Color::new(color_idx as u16), 0).with_action(
                        move |_| {
                            let cell = &in_flight[color_idx];
                            if cell.fetch_add(1, Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
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
    assert_eq!(report.events_processed(), total);
    // >= not ==: steal_from's rescue drain may re-push an event into a
    // third core's inbox (double-steal race), counting it twice.
    let t = report.total();
    assert!(t.inbox_pushes >= total, "all events used the inbox");
    assert_eq!(
        t.inbox_drained, t.inbox_pushes,
        "everything pushed was drained"
    );
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
