//! Per-core event queues, in both flavors evaluated by the paper.
//!
//! - [`legacy::LegacyQueue`] — Libasync-smp's single FIFO event queue per
//!   core (paper Section II). Stealing a color requires scanning the
//!   queue, which is what makes its workstealing expensive (about 190
//!   cycles per scanned event, Section II-C).
//! - [`mely::MelyQueue`] — Mely's architecture (Section IV-A): events
//!   grouped by color in *color-queues*, chained into a doubly-linked
//!   *core-queue*, plus a three-interval *stealing-queue* holding the
//!   colors currently worth stealing. Stealing a color detaches a whole
//!   color-queue in O(1).
//!
//! Both queues are plain data structures; executors wrap them in the
//! appropriate synchronisation ([`crate::sync::SpinLock`] under threads,
//! a lock *cost model* under simulation). Neither knows about time:
//! whether the event a pop would return may run yet is the simulator's
//! question, asked through `QueueImpl::peek`.

pub mod legacy;
pub mod mely;

pub use legacy::LegacyQueue;
pub use mely::{DetachedColorQueue, MelyQueue};

use crate::color::Color;
use crate::event::Event;

/// A per-core queue of either flavor (executors dispatch on this).
#[derive(Debug)]
pub enum QueueImpl {
    /// Libasync-smp FIFO.
    Legacy(LegacyQueue),
    /// Mely color-queues.
    Mely(MelyQueue),
}

impl QueueImpl {
    /// Total queued events.
    pub fn len(&self) -> usize {
        match self {
            QueueImpl::Legacy(q) => q.len(),
            QueueImpl::Mely(q) => q.len(),
        }
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct colors currently queued.
    pub fn distinct_colors(&self) -> usize {
        match self {
            QueueImpl::Legacy(q) => q.distinct_colors(),
            QueueImpl::Mely(q) => q.distinct_colors(),
        }
    }

    /// Whether an event of `color` is queued.
    pub(crate) fn holds(&self, color: Color) -> bool {
        match self {
            QueueImpl::Legacy(q) => q.count_of(color) != 0,
            QueueImpl::Mely(q) => q.holds(color),
        }
    }

    /// Color-queue creations served from the recycled-buffer pool
    /// (always 0 for the legacy flavor, which has no pool).
    pub fn buf_reuses(&self) -> u64 {
        match self {
            QueueImpl::Legacy(_) => 0,
            QueueImpl::Mely(q) => q.buf_reuses(),
        }
    }

    /// Events that entered through [`QueueImpl::push`] since the last
    /// call (a steal absorbs, it does not push): what a core reports as
    /// `registered`. A plain counter, paid for by the caller's lock.
    pub(crate) fn take_pushes(&mut self) -> u64 {
        match self {
            QueueImpl::Legacy(q) => std::mem::take(&mut q.pushes),
            QueueImpl::Mely(q) => std::mem::take(&mut q.pushes),
        }
    }

    /// Unlocked pre-screen of `can_be_stolen` (Figure 2): two distinct
    /// colors, or — under the time-left heuristic — a worthy color in
    /// the stealing-queue that is not the one in flight.
    pub(crate) fn can_be_stolen(&self, in_flight: Option<Color>, time_left: bool) -> bool {
        match self {
            QueueImpl::Legacy(q) => q.distinct_colors() >= 2,
            QueueImpl::Mely(q) if time_left => q.choose_worthy(in_flight).is_some(),
            QueueImpl::Mely(q) => q.can_be_stolen_base(),
        }
    }

    /// The victim half of a steal: detaches up to `budget` whole colors
    /// by the flavor's rule and returns them with the number of queue
    /// elements examined on the way — what the simulator prices the
    /// steal from after the fact (real threads pay in real time and
    /// ignore it). `walk_cap` bounds the count of one legacy
    /// extraction walk.
    pub(crate) fn steal_take(
        &mut self,
        in_flight: Option<Color>,
        time_left: bool,
        budget: usize,
        walk_cap: u64,
    ) -> (Vec<DetachedColorQueue>, u64) {
        match self {
            QueueImpl::Legacy(q) => q.steal_take(in_flight, budget, walk_cap),
            QueueImpl::Mely(q) => q.steal_take(in_flight, time_left, budget),
        }
    }

    /// The thief half (`migrate`): takes in one stolen color.
    pub(crate) fn steal_absorb(&mut self, set: DetachedColorQueue) {
        match self {
            QueueImpl::Legacy(q) => set.into_events().into_iter().for_each(|ev| q.push(ev)),
            QueueImpl::Mely(q) => {
                q.absorb(set);
            }
        }
    }

    /// Updates the worthiness threshold of the time-left heuristic (the
    /// legacy flavor has no stealing-queue and ignores it).
    pub(crate) fn set_steal_cost_estimate(&mut self, est: u64) {
        if let QueueImpl::Mely(q) = self {
            q.set_steal_cost_estimate(est);
        }
    }

    /// Pushes one event (appending to its color's position for the
    /// flavor's discipline).
    pub fn push(&mut self, ev: Event) {
        match self {
            QueueImpl::Legacy(q) => {
                q.pushes += 1;
                q.push(ev);
            }
            QueueImpl::Mely(q) => {
                q.pushes += 1;
                q.push(ev);
            }
        }
    }

    /// Pops the next event according to the flavor's scheduling
    /// discipline (`batch_threshold` only matters for Mely).
    pub fn pop(&mut self, batch_threshold: u32) -> Option<Event> {
        match self {
            QueueImpl::Legacy(q) => q.pop(),
            QueueImpl::Mely(q) => q.pop(batch_threshold),
        }
    }

    /// The event [`QueueImpl::pop`] with the same `batch_threshold`
    /// would return, left queued.
    pub(crate) fn peek(&mut self, batch_threshold: u32) -> Option<&Event> {
        match self {
            QueueImpl::Legacy(q) => q.iter().next(),
            QueueImpl::Mely(q) => q.peek(batch_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both flavors behind the one enum, and `peek` naming what `pop`
    /// returns next, also where a Mely batch of 2 rotates colors.
    #[test]
    fn queue_impl_dispatches() {
        for (mut q, order) in [
            (QueueImpl::Legacy(LegacyQueue::new()), [0, 1, 2, 3, 4, 5]),
            (QueueImpl::Mely(MelyQueue::new(true)), [0, 1, 3, 4, 2, 5]),
        ] {
            assert!(q.is_empty());
            assert!(q.peek(2).is_none());
            for (seq, color) in [1, 1, 1, 2, 2, 2].into_iter().enumerate() {
                let mut ev = Event::new(Color::new(color), 10);
                ev.seq = seq as u64;
                q.push(ev);
            }
            assert_eq!(q.len(), 6);
            assert_eq!(q.distinct_colors(), 2);
            let mut popped = Vec::new();
            while let Some(next) = q.peek(2).map(|ev| ev.seq) {
                assert_eq!(q.peek(2).map(|ev| ev.seq), Some(next), "peek is stable");
                assert_eq!(q.pop(2).map(|ev| ev.seq), Some(next));
                popped.push(next);
            }
            assert_eq!(popped, order);
            assert!(q.pop(2).is_none());
        }
    }

    /// The take/absorb pair both executors steal through: whole colors
    /// move in order, and the victim always keeps one.
    #[test]
    fn steals_move_whole_colors_and_leave_the_victim_one() {
        let pair = |legacy: bool| {
            let new = || match legacy {
                true => QueueImpl::Legacy(LegacyQueue::new()),
                false => QueueImpl::Mely(MelyQueue::new(false)),
            };
            (new(), new())
        };
        for legacy in [false, true] {
            for (budget, taken) in [(1, 1), (4, 3)] {
                let (mut victim, mut thief) = pair(legacy);
                // Colors 1–3 hold one event each, color 4 holds ten.
                for (i, color) in [1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]
                    .into_iter()
                    .enumerate()
                {
                    let mut ev = Event::new(Color::new(color), 5_000);
                    ev.seq = i as u64;
                    victim.push(ev);
                }
                let (sets, examined) = victim.steal_take(None, false, budget, u64::MAX);
                // The half rule takes the small colors only, so the big
                // one stays, whole, whatever the budget.
                assert_eq!(sets.len(), taken, "legacy={legacy} budget={budget}");
                assert!(examined > 0);
                assert_eq!(victim.distinct_colors(), 4 - taken);
                assert_eq!(victim.len(), 13 - taken);
                for set in sets {
                    assert!(set.color().value() <= 3 && set.len() == 1);
                    thief.steal_absorb(set);
                }
                assert_eq!(thief.len(), taken);
            }
        }
        // Under time-left the worthy (expensive) color goes, in order.
        let (mut victim, mut thief) = pair(false);
        for (i, color) in [1, 4, 4, 4].into_iter().enumerate() {
            let mut ev = Event::new(Color::new(color), 5_000);
            ev.seq = i as u64;
            victim.push(ev);
        }
        let (sets, _) = victim.steal_take(None, true, 1, u64::MAX);
        sets.into_iter().for_each(|set| thief.steal_absorb(set));
        let seqs: Vec<u64> = std::iter::from_fn(|| thief.pop(10))
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(victim.distinct_colors(), 1);
    }
}
