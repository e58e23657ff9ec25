//! The Libasync-smp per-core event queue (paper Section II).
//!
//! A single FIFO holds every event dispatched to the core, regardless of
//! color. The runtime also keeps "a counter of pending events for each
//! color" (paper, footnote 1), which lets `construct_event_set` stop
//! scanning once all events of the stolen color have been collected —
//! both the scan-based color choice and the scan-based extraction report
//! how many elements they examined so the simulation can charge the
//! paper's ~190 cycles per scanned event.

use std::collections::VecDeque;

use fxhash::FxHashMap;

use crate::color::Color;
use crate::event::Event;
use crate::queue::DetachedColorQueue;

/// Libasync-smp's FIFO event queue with per-color pending counters.
///
/// The counter map uses the vendored Fx hasher (like
/// [`crate::queue::MelyQueue`]'s color index): every push updates one
/// entry, and SipHash on 2-byte color keys was pure overhead on the
/// dispatch hot path.
#[derive(Debug, Default)]
pub struct LegacyQueue {
    fifo: VecDeque<Event>,
    counts: FxHashMap<Color, usize>,
    total_cost: u64,
    /// Counted by `QueueImpl::push`, read by `QueueImpl::take_pushes`.
    pub(crate) pushes: u64,
}

impl LegacyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Number of distinct colors present.
    pub fn distinct_colors(&self) -> usize {
        self.counts.len()
    }

    /// Pending events of `color`.
    pub fn count_of(&self, color: Color) -> usize {
        self.counts.get(&color).copied().unwrap_or(0)
    }

    /// Sum of the declared costs of all queued events.
    pub fn total_cost(&self) -> u64 {
        self.total_cost
    }

    /// Appends an event.
    pub fn push(&mut self, ev: Event) {
        *self.counts.entry(ev.color()).or_insert(0) += 1;
        self.total_cost += ev.cost();
        self.fifo.push_back(ev);
    }

    /// Pops the oldest event.
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.fifo.pop_front()?;
        self.note_removed(&ev);
        Some(ev)
    }

    fn note_removed(&mut self, ev: &Event) {
        let c = self
            .counts
            .get_mut(&ev.color())
            .expect("queued event must be counted");
        *c -= 1;
        if *c == 0 {
            self.counts.remove(&ev.color());
        }
        self.total_cost -= ev.cost();
    }

    /// The paper's `choose_color_to_steal` (Section II-B): scans the queue
    /// front-to-back and selects the first color that (i) is not the color
    /// currently being processed on the victim, and (ii) is associated
    /// with less than half of the queued events. Returns the chosen color
    /// and the number of events scanned (for cost accounting), or `None`
    /// when no color qualifies.
    pub fn choose_color_to_steal(&self, in_flight: Option<Color>) -> Option<(Color, usize)> {
        let len = self.fifo.len();
        for (i, ev) in self.fifo.iter().enumerate() {
            let color = ev.color();
            if Some(color) == in_flight {
                continue;
            }
            if self.count_of(color) * 2 < len {
                return Some((color, i + 1));
            }
        }
        None
    }

    /// The paper's `construct_event_set`: removes and returns every queued
    /// event of `color` (preserving their relative order) plus the number
    /// of elements scanned. Thanks to the per-color counter the scan stops
    /// as soon as the last matching event has been found.
    ///
    /// Performance note (profiled for the zero-allocation-dispatch PR):
    /// the per-event bookkeeping (counter decrement, cost subtraction)
    /// is already hoisted out of the scan — the counter is removed once
    /// and the cost summed over the extracted set only. The remaining
    /// per-element work inside the loop is the color compare the paper
    /// itself charges ~190 cycles/event for (Section II-C), so it stays;
    /// the tail of the queue past the last match is now moved wholesale
    /// (no per-element compare) instead of being re-examined.
    pub fn extract_color(&mut self, color: Color) -> (Vec<Event>, usize) {
        let want = self.count_of(color);
        if want == 0 {
            return (Vec::new(), 0);
        }
        let mut out = Vec::with_capacity(want);
        let mut kept = VecDeque::with_capacity(self.fifo.len() - want);
        let mut scanned = 0;
        while let Some(ev) = self.fifo.pop_front() {
            scanned += 1;
            if ev.color() == color {
                out.push(ev);
                if out.len() == want {
                    break;
                }
            } else {
                kept.push_back(ev);
            }
        }
        // Everything after the last matching event keeps its order and
        // needs no inspection.
        kept.append(&mut self.fifo);
        self.fifo = kept;
        self.counts.remove(&color);
        self.total_cost -= out.iter().map(|e| e.cost()).sum::<u64>();
        (out, scanned)
    }

    /// The victim half of a steal: while at least two colors are queued
    /// (`can_be_stolen`, re-checked per color so the victim always keeps
    /// work), chooses and scans out up to `budget` whole colors. Also
    /// returns the events examined: per color, those scanned to choose
    /// it plus the queue `construct_event_set` then walked (at most
    /// `walk_cap`); for a visit that finds no color, the fruitless walk.
    pub(crate) fn steal_take(
        &mut self,
        in_flight: Option<Color>,
        budget: usize,
        walk_cap: u64,
    ) -> (Vec<DetachedColorQueue>, u64) {
        let (mut sets, mut examined) = (Vec::new(), 0);
        while sets.len() < budget && self.distinct_colors() >= 2 {
            let walked = (self.len() as u64).min(walk_cap);
            let Some((color, scanned)) = self.choose_color_to_steal(in_flight) else {
                if sets.is_empty() {
                    examined = walked;
                }
                break;
            };
            examined += scanned as u64 + walked;
            let (events, _) = self.extract_color(color);
            sets.push(DetachedColorQueue::from_events(color, events));
        }
        (sets, examined)
    }

    /// Iterates the queued events front-to-back (tests and debugging).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.fifo.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(color: u16, cost: u64) -> Event {
        Event::new(Color::new(color), cost)
    }

    #[test]
    fn fifo_order_and_counts() {
        let mut q = LegacyQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(1, 30));
        assert_eq!(q.len(), 3);
        assert_eq!(q.distinct_colors(), 2);
        assert_eq!(q.count_of(Color::new(1)), 2);
        assert_eq!(q.total_cost(), 60);
        assert_eq!(q.pop().unwrap().cost(), 10);
        assert_eq!(q.count_of(Color::new(1)), 1);
        assert_eq!(q.pop().unwrap().cost(), 20);
        assert_eq!(q.distinct_colors(), 1);
        assert_eq!(q.pop().unwrap().cost(), 30);
        assert!(q.pop().is_none());
        assert_eq!(q.total_cost(), 0);
    }

    #[test]
    fn choose_color_skips_in_flight() {
        let mut q = LegacyQueue::new();
        q.push(ev(5, 1));
        q.push(ev(6, 1));
        q.push(ev(7, 1));
        let (c, scanned) = q.choose_color_to_steal(Some(Color::new(5))).unwrap();
        assert_eq!(c, Color::new(6));
        assert_eq!(scanned, 2);
    }

    #[test]
    fn choose_color_requires_less_than_half() {
        let mut q = LegacyQueue::new();
        // Color 1 holds 3 of 4 events: not stealable. Color 2 holds 1 of 4.
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        q.push(ev(2, 1));
        q.push(ev(1, 1));
        let (c, scanned) = q.choose_color_to_steal(None).unwrap();
        assert_eq!(c, Color::new(2));
        assert_eq!(scanned, 3);
        // Exactly half is also rejected: 1 of 2.
        let mut q2 = LegacyQueue::new();
        q2.push(ev(1, 1));
        q2.push(ev(2, 1));
        assert!(q2.choose_color_to_steal(None).is_none());
    }

    #[test]
    fn choose_color_none_when_all_excluded() {
        let mut q = LegacyQueue::new();
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        assert!(q.choose_color_to_steal(None).is_none());
        assert!(q.choose_color_to_steal(Some(Color::new(1))).is_none());
    }

    #[test]
    fn extract_color_preserves_order_and_stops_early() {
        let mut q = LegacyQueue::new();
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(1, 30));
        q.push(ev(3, 40));
        q.push(ev(2, 50));
        let (set, scanned) = q.extract_color(Color::new(1));
        assert_eq!(set.iter().map(|e| e.cost()).collect::<Vec<_>>(), [10, 30]);
        // Early stop: last color-1 event is at position 3 of 5.
        assert_eq!(scanned, 3);
        // Remaining events keep their order.
        assert_eq!(q.iter().map(|e| e.cost()).collect::<Vec<_>>(), [20, 40, 50]);
        assert_eq!(q.count_of(Color::new(1)), 0);
        assert_eq!(q.total_cost(), 110);
    }

    #[test]
    fn extract_missing_color_scans_nothing() {
        let mut q = LegacyQueue::new();
        q.push(ev(1, 10));
        let (set, scanned) = q.extract_color(Color::new(9));
        assert!(set.is_empty());
        assert_eq!(scanned, 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn extract_full_scan_when_color_is_last() {
        let mut q = LegacyQueue::new();
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        q.push(ev(2, 1));
        let (_, scanned) = q.extract_color(Color::new(2));
        assert_eq!(scanned, 3, "must scan the whole queue");
    }
}
