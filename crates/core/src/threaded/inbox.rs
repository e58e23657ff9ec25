#![forbid(unsafe_code)]
//! Injection inboxes for the threaded executor.
//!
//! The inbox is the one door into a core: an [`crate::exec::Injector`]
//! call, a timer firing, the executor's own `register` and another
//! core's worker routing a handler's event all hand that event to the
//! owning core's inbox instead of taking the core's
//! [`crate::sync::SpinLock`]. Only a worker routing an event of a color
//! its own core owns pushes straight into its own queue, under the lock
//! it already takes to pop. The paper's argument is that per-event
//! synchronization on the dispatch path dominates event-driven runtimes
//! at scale; the inbox keeps it off that path with two properties:
//!
//! - producers never take the core's dispatch lock:
//!   [`InjectionInbox::push`] appends to a `Vec` behind the inbox's own
//!   lock, held for that one append;
//! - the owning core takes its dispatch lock once per drained batch:
//!   [`InjectionInbox::drain_into`] hands over the whole backlog with
//!   one buffer swap, and the worker merges it into its queue under
//!   **one** acquisition.
//!
//! A worker checks its inbox on every loop iteration, busy or idle, so
//! the empty check takes no lock: the buffer's length is republished
//! under the lock after every push and drain, and `drain_into` returns
//! at once when it reads 0. [`InjectionInbox::len`] is the same
//! lock-free load, for the victim load estimate and the admission
//! check. One lock orders all pushes, so a producer's events come out
//! in the order it pushed them, within one drain and across drains.
//!
//! # Buffer reuse
//!
//! A drain into an empty `out` swaps buffers: the caller takes the
//! backlog and the inbox keeps `out`'s emptied buffer. A worker that
//! retains one batch buffer therefore cycles a pair of buffers, and
//! once both have grown to its usual batch neither a push nor a drain
//! allocates. [`InjectionInbox::total_node_reuses`] counts the pushes
//! that did not grow the buffer.
//!
//! # Ordering across steals
//!
//! An inbox only ever holds colors its core owns. The threaded executor
//! pushes with `push_if`, whose check — "this core still owns the
//! event's color" — runs under the inbox lock, and a producer that is
//! refused retries on the color's new owner. A thief moves a color
//! only while it holds the victim's queue lock, and before releasing it
//! drains the victim's inbox (`migrate`). So a push of a stolen color
//! either precedes that drain and is carried over behind the migrated
//! events, or follows the move, sees the new owner and lands in the
//! thief's inbox. The thief merges its own inbox then too: the stolen
//! color's handlers may have routed events to it while they ran on the
//! victim, and from now on they route to it directly. The owner drains
//! its own inbox only while holding its queue lock, so nothing drained
//! can have been stolen meanwhile. Per-color FIFO holds across steals:
//! a producer's events of one color reach the color's queue in the
//! order it produced them, whichever core owns the color at the time.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::event::Event;

/// What the inbox lock guards.
#[derive(Default)]
struct Buffered {
    events: Vec<Event>,
    /// Total events ever pushed (monotonic, for [`crate::metrics`]).
    pushes: u64,
    /// Pushes that found room in the buffer instead of growing it.
    reuses: u64,
    /// Pushes refused by their check.
    refusals: u64,
}

/// A multi-producer single-consumer event inbox: one lock around one
/// `Vec`.
///
/// Any thread may [`push`](InjectionInbox::push). The owning worker
/// drains its core's inbox while it holds its queue lock, and a thief
/// drains a victim's while it holds both queue locks. The inbox lock is
/// a leaf: nothing else is locked while it is held. Aligned like
/// [`crossbeam_utils::CachePadded`], so producer traffic on the lock
/// and the length shares no cache line with the core's other fields.
#[derive(Default)]
#[repr(align(128))]
pub struct InjectionInbox {
    buf: Mutex<Buffered>,
    /// `buf.events.len()`, stored under the lock after every push and
    /// drain, so that readers need no lock.
    len: AtomicUsize,
}

impl InjectionInbox {
    /// Creates an empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&self, event: Event) {
        // Accepting everything, the push cannot be refused.
        let _ = self.push_if(event, || true);
    }

    /// Appends `event` if `accept` holds under the inbox lock, or hands
    /// it back and counts a refusal. The threaded executor's check is
    /// "this core still owns the event's color" (see the module docs).
    pub(crate) fn push_if(&self, event: Event, accept: impl FnOnce() -> bool) -> Result<(), Event> {
        let mut buf = self.buf.lock();
        if !accept() {
            buf.refusals += 1;
            return Err(event);
        }
        if buf.events.len() < buf.events.capacity() {
            buf.reuses += 1;
        }
        buf.events.push(event);
        buf.pushes += 1;
        self.len.store(buf.events.len(), Ordering::Release);
        Ok(())
    }

    /// Moves everything buffered so far to the end of `out`, oldest
    /// first, and returns the number of events moved.
    ///
    /// Takes no lock when the inbox is empty. An empty `out` is swapped
    /// with the inbox's buffer, so a caller that retains `out` and a
    /// warm inbox never touch the allocator; a non-empty `out` gets the
    /// backlog appended.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> usize {
        if self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut buf = self.buf.lock();
        let n = buf.events.len();
        if out.is_empty() {
            std::mem::swap(&mut buf.events, out);
        } else {
            out.append(&mut buf.events);
        }
        self.len.store(0, Ordering::Release);
        n
    }

    /// Number of buffered events, read without the lock. Feeds the
    /// core's load estimate so `construct_core_set` still sees backlog
    /// that has not reached the queue yet.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed into this inbox.
    pub fn total_pushes(&self) -> u64 {
        self.buf.lock().pushes
    }

    /// Total pushes that did not grow the buffer.
    pub fn total_node_reuses(&self) -> u64 {
        self.buf.lock().reuses
    }

    /// Total pushes [`InjectionInbox::push_if`] refused.
    pub(crate) fn total_refusals(&self) -> u64 {
        self.buf.lock().refusals
    }
}

impl std::fmt::Debug for InjectionInbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionInbox")
            .field("len", &self.len())
            .field("pushes", &self.total_pushes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use std::sync::Arc;

    /// Everything buffered so far, in a fresh vector.
    fn drain(inbox: &InjectionInbox) -> Vec<Event> {
        let mut batch = Vec::new();
        inbox.drain_into(&mut batch);
        batch
    }

    /// Pushes `per` events of color `p` with costs `0..per` from each of
    /// `producers` threads.
    fn spawn_producers(
        inbox: &Arc<InjectionInbox>,
        producers: u16,
        per: u64,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..producers)
            .map(|p| {
                let inbox = Arc::clone(inbox);
                std::thread::spawn(move || {
                    for i in 0..per {
                        inbox.push(Event::new(Color::new(p), i));
                    }
                })
            })
            .collect()
    }

    #[test]
    fn drain_preserves_fifo_of_a_single_producer() {
        let inbox = InjectionInbox::new();
        for i in 0..10u16 {
            inbox.push(Event::new(Color::new(i), u64::from(i)));
        }
        assert_eq!(inbox.len(), 10);
        let batch = drain(&inbox);
        assert_eq!(batch.len(), 10);
        for (i, ev) in batch.iter().enumerate() {
            assert_eq!(ev.color(), Color::new(i as u16), "FIFO order");
        }
        assert!(inbox.is_empty());
        assert_eq!(inbox.total_pushes(), 10);
        assert!(drain(&inbox).is_empty());
    }

    #[test]
    fn a_refused_push_hands_the_event_back_and_counts() {
        let inbox = InjectionInbox::new();
        let back = inbox
            .push_if(Event::new(Color::DEFAULT, 7), || false)
            .expect_err("refused");
        assert_eq!(back.cost(), 7);
        assert!(inbox.is_empty());
        assert!(inbox.push_if(back, || true).is_ok());
        assert_eq!(inbox.len(), 1);
        assert_eq!((inbox.total_pushes(), inbox.total_refusals()), (1, 1));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let inbox = Arc::new(InjectionInbox::new());
        let producers = 4;
        let per = 5_000u64;
        let handles = spawn_producers(&inbox, producers, per);
        // Consumer drains concurrently with the producers.
        let mut seen = vec![Vec::new(); producers as usize];
        let mut total = 0u64;
        while total < per * u64::from(producers) {
            for ev in drain(&inbox) {
                seen[ev.color().value() as usize].push(ev.cost());
                total += 1;
            }
            std::hint::spin_loop();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(inbox.is_empty());
        // Every event arrived, in per-producer FIFO order.
        for per_producer in &seen {
            assert_eq!(per_producer.len(), per as usize);
            assert!(per_producer.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn buffers_are_reused_across_push_drain_rounds() {
        let inbox = InjectionInbox::new();
        let mut buf = Vec::with_capacity(64);
        let mut after_first_round = 0;
        for round in 0..5u64 {
            for i in 0..32u16 {
                inbox.push(Event::new(Color::new(i), round));
            }
            assert_eq!(inbox.drain_into(&mut buf), 32);
            assert_eq!(buf.len(), 32);
            // FIFO within the round.
            for (i, ev) in buf.iter().enumerate() {
                assert_eq!(ev.color(), Color::new(i as u16));
            }
            buf.clear();
            if round == 0 {
                after_first_round = inbox.total_node_reuses();
            }
        }
        // The cold buffer grew in the first round; after it, the two
        // swapped buffers always had room.
        assert!(after_first_round < 32, "{after_first_round}");
        assert_eq!(inbox.total_pushes(), 160);
        assert_eq!(inbox.total_node_reuses(), after_first_round + 128);
    }

    #[test]
    fn drain_into_a_nonempty_buffer_appends_in_order() {
        let inbox = InjectionInbox::new();
        let mut out = vec![Event::new(Color::DEFAULT, 100)];
        for i in 0..3 {
            inbox.push(Event::new(Color::DEFAULT, i));
        }
        assert_eq!(inbox.drain_into(&mut out), 3);
        assert!(inbox.is_empty());
        for i in 3..5 {
            inbox.push(Event::new(Color::DEFAULT, i));
        }
        assert_eq!(inbox.drain_into(&mut out), 2);
        let costs: Vec<u64> = out.iter().map(Event::cost).collect();
        assert_eq!(costs, [100, 0, 1, 2, 3, 4]);
        assert_eq!(inbox.drain_into(&mut out), 0);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn no_event_survives_into_a_later_drain() {
        // A drain hands over exactly the events pushed since the last
        // one: a stale event would surface as a duplicate or wrong cost.
        let inbox = InjectionInbox::new();
        let mut expected = 0u64;
        for round in 0..50u64 {
            let n = 1 + (round % 7);
            for _ in 0..n {
                inbox.push(Event::new(Color::DEFAULT, expected));
                expected += 1;
            }
            let batch = drain(&inbox);
            assert_eq!(batch.len() as u64, n);
            let base = expected - n;
            for (i, ev) in batch.iter().enumerate() {
                assert_eq!(ev.cost(), base + i as u64, "round {round}");
            }
        }
    }

    #[test]
    fn concurrent_producers_keep_fifo_through_a_retained_buffer() {
        // The worker's pattern: one retained buffer, emptied after each
        // drain, so every drain swaps it with the inbox's.
        let inbox = Arc::new(InjectionInbox::new());
        let producers = 4u16;
        let per = 20_000u64;
        let handles = spawn_producers(&inbox, producers, per);
        let mut seen = vec![0u64; producers as usize];
        let mut total = 0u64;
        let mut buf = Vec::new();
        while total < per * u64::from(producers) {
            inbox.drain_into(&mut buf);
            for ev in buf.drain(..) {
                let p = ev.color().value() as usize;
                assert_eq!(ev.cost(), seen[p], "per-producer FIFO");
                seen[p] += 1;
                total += 1;
            }
            std::hint::spin_loop();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(inbox.is_empty());
        assert_eq!(inbox.total_pushes(), per * u64::from(producers));
    }

    #[test]
    fn swap_and_append_drains_race_producers_without_loss_or_reordering() {
        // Each loop drains twice: into the emptied buffer (a swap) and
        // then, if producers pushed in between, onto what it holds (an
        // append). Each producer's sequence must come out whole and in
        // order across both branches.
        let inbox = Arc::new(InjectionInbox::new());
        let producers = 4u16;
        let per = 20_000u64;
        let handles = spawn_producers(&inbox, producers, per);
        let mut seen = vec![0u64; producers as usize];
        let mut total = 0u64;
        let mut buf = Vec::new();
        while total < per * u64::from(producers) {
            inbox.drain_into(&mut buf);
            std::hint::spin_loop();
            inbox.drain_into(&mut buf);
            for ev in buf.drain(..) {
                let p = ev.color().value() as usize;
                assert_eq!(ev.cost(), seen[p], "producer {p} out of order");
                seen[p] += 1;
                total += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(inbox.is_empty());
        assert!(seen.iter().all(|&n| n == per), "{seen:?}");
    }

    #[test]
    fn dropping_a_nonempty_inbox_releases_events() {
        let marker = Arc::new(());
        {
            let inbox = InjectionInbox::new();
            for _ in 0..8 {
                let m = Arc::clone(&marker);
                inbox.push(Event::new(Color::DEFAULT, 0).with_action(move |_| {
                    let _ = &m;
                }));
            }
            assert_eq!(inbox.len(), 8);
        }
        // All queued actions (and their captures) were dropped.
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}
