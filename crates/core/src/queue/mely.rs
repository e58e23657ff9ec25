//! The Mely per-core queue architecture (paper Section IV-A/B).
//!
//! Events of one color are grouped in a *color-queue*; a core's
//! color-queues are chained in a doubly-linked *core-queue*. The core
//! executes the first color-queue's events, at most `batch_threshold`
//! (10 in the paper) in a row before rotating to the next color-queue to
//! prevent starvation; an emptied color-queue is removed from the
//! core-queue.
//!
//! For the time-left heuristic, each core also maintains a
//! *stealing-queue*: the set of color-queues whose cumulative (weighted)
//! processing time exceeds the current steal-cost estimate — the colors
//! *worth stealing*. To keep insertions cheap, the stealing-queue is only
//! partially ordered: it is "split in three time-left intervals" with no
//! order inside an interval, exactly as in the paper.
//!
//! Stealing a color from a `MelyQueue` detaches the whole color-queue in
//! O(1) — this is the structural change that makes Mely's steals ~12.5×
//! cheaper than Libasync-smp's queue scans (Table III).
//!
//! # Memory architecture
//!
//! The steady-state dispatch path is allocation-free and hash-cheap:
//!
//! - The color index is a [`FxHashMap`] (vendored Fx hasher: one
//!   multiply per key) instead of `std`'s SipHash `RandomState` —
//!   every push pays one lookup, and colors are 2-byte application
//!   annotations, not adversarial input, so HashDoS hardening buys
//!   nothing on this path.
//! - Freed color-queues return their event buffer (a `VecDeque` with
//!   its grown capacity intact) to a bounded per-queue *buffer pool*
//!   (`BUF_POOL_MAX` entries); creating a color-queue takes a pooled
//!   buffer first. Short-lived colors — the costly path the paper
//!   notes in Section V-C1 — therefore stop hitting the allocator once
//!   the pool is warm.
//! - Steals stay O(1) and allocation-free end to end: [`MelyQueue::detach`]
//!   hands the victim's buffer to the [`DetachedColorQueue`], which
//!   carries it across the migration; [`MelyQueue::absorb`] either
//!   installs that buffer directly as the thief's new color-queue or,
//!   when the color already exists on the thief, drains it and drops
//!   the emptied buffer into the thief's pool. Buffers thus follow the
//!   events — no side-channel is needed to return them.
//! - [`MelyQueue::with_capacity`] pre-reserves the slot table, free
//!   list and index so cold-start pushes don't trigger incremental
//!   regrow/rehash; [`MelyQueue::new`] uses a default sizing.
//!
//! [`MelyQueue::buf_reuses`] counts pool hits; the threaded executor
//! surfaces it as `queue_buf_reuse` in [`crate::metrics::CoreMetrics`].
//!
//! The steal primitives ([`MelyQueue::choose_worthy`],
//! [`MelyQueue::detach`], [`MelyQueue::absorb`]) and their list/bucket
//! helpers carry `#[inline]` hints: an unrelated module addition once
//! shifted codegen layout enough to cost this path ~35 % on
//! `steal/mely_choose_and_detach_1k` (3383→4612 ns) without a single
//! line here changing. Hints pin the inlining decision instead of
//! leaving it to whole-crate layout luck.

use std::collections::VecDeque;

use fxhash::{FxBuildHasher, FxHashMap};

use crate::color::Color;
use crate::event::Event;

/// One color's pending events plus the bookkeeping the heuristics need.
#[derive(Debug)]
struct ColorQueue {
    color: Color,
    events: VecDeque<Event>,
    /// Sum of declared costs (the "stolen time" of this set).
    cum_cost: u64,
    /// Sum of weights: `cost / penalty` when penalties are enabled,
    /// plain cost otherwise (paper Section IV-B).
    cum_weighted: u64,
    prev: Option<usize>,
    next: Option<usize>,
    /// Position in the stealing-queue: `(interval, index)`.
    bucket: Option<(usize, usize)>,
}

/// A color-queue detached from a victim core by a steal, ready to be
/// absorbed by the thief.
///
/// Carries the victim's event buffer (capacity and all) across the
/// migration: [`MelyQueue::absorb`] reinstates it as the thief's
/// color-queue buffer, or empties it into an existing one and pools it.
/// Dropping a `DetachedColorQueue` without absorbing it discards the
/// stolen events *and* returns the buffer to the allocator — real
/// steals always absorb.
#[derive(Debug)]
pub struct DetachedColorQueue {
    color: Color,
    events: VecDeque<Event>,
    cum_cost: u64,
    cum_weighted: u64,
}

impl DetachedColorQueue {
    /// The stolen color.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Number of stolen events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the set is empty (cannot happen for real steals).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total declared processing cost of the stolen set.
    pub fn cum_cost(&self) -> u64 {
        self.cum_cost
    }

    /// The stolen events, oldest first, for the simulator to stamp
    /// before it absorbs them.
    pub(crate) fn events_mut(&mut self) -> impl Iterator<Item = &mut Event> {
        self.events.iter_mut()
    }

    /// Wraps a color scanned out of a [`crate::queue::LegacyQueue`], so
    /// both flavors hand a thief the same unit. The weighted sum is
    /// the plain cost: legacy queues have no stealing-queue to bucket
    /// it in.
    pub(crate) fn from_events(color: Color, events: Vec<Event>) -> Self {
        let cum_cost = events.iter().map(|e| e.cost()).sum();
        DetachedColorQueue {
            color,
            events: events.into(),
            cum_cost,
            cum_weighted: cum_cost,
        }
    }

    /// The stolen events, oldest first.
    pub(crate) fn into_events(self) -> VecDeque<Event> {
        self.events
    }
}

/// Number of time-left intervals in the stealing-queue.
const INTERVALS: usize = 3;

/// Color-queue capacity [`MelyQueue::new`] pre-reserves (slots, free
/// list and index); enough for every workload in the evaluation to
/// start without a regrow.
const DEFAULT_COLOR_CAPACITY: usize = 32;

/// Maximum number of empty event buffers retained for reuse. Bounds
/// the memory a burst of distinct colors can pin: beyond this, freed
/// buffers go back to the allocator.
const BUF_POOL_MAX: usize = 64;

/// Event capacity of each pre-warmed pool buffer: a small power-of-two
/// starter. A color whose first burst exceeds it pays a one-time
/// regrow, after which the buffer's larger capacity persists through
/// the pool — so steady state is allocation-free regardless of burst
/// size (up to the pool bound).
const INITIAL_BUF_EVENTS: usize = 8;

/// Stealing-queue interval for cumulative weight `cum_weighted` under
/// steal-cost estimate `est`; `None` when not worth stealing. A free
/// function so the push/pop hot paths can evaluate it while the
/// color-queue is mutably borrowed.
#[inline(always)]
fn bucket_for(est: u64, cum_weighted: u64) -> Option<usize> {
    let est = est.max(1);
    if cum_weighted <= est {
        None
    } else if cum_weighted < 4 * est {
        Some(0)
    } else if cum_weighted < 16 * est {
        Some(1)
    } else {
        Some(2)
    }
}

/// The Mely per-core queue: core-queue of color-queues plus the
/// stealing-queue of worthy colors.
#[derive(Debug)]
pub struct MelyQueue {
    slots: Vec<Option<ColorQueue>>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
    index: FxHashMap<Color, usize>,
    buckets: [Vec<usize>; INTERVALS],
    /// Empty event buffers recycled from drained/absorbed color-queues,
    /// capacity intact; bounded by [`BUF_POOL_MAX`].
    buf_pool: Vec<VecDeque<Event>>,
    /// Color-queue creations served from the buffer pool.
    buf_reuses: u64,
    /// Counted by `QueueImpl::push`, read by `QueueImpl::take_pushes`.
    pub(crate) pushes: u64,
    steal_cost_estimate: u64,
    use_penalty: bool,
    total_events: usize,
    total_cost: u64,
    /// Batch state: (slot, its color, events consumed in this batch).
    cur: Option<(usize, Color, u32)>,
}

impl MelyQueue {
    /// Creates an empty queue with the default pre-reserved capacity of
    /// `DEFAULT_COLOR_CAPACITY` color-queues. `use_penalty` selects
    /// whether cumulative weighted times divide by the events'
    /// workstealing penalties (the penalty-aware heuristic) or use raw
    /// costs.
    pub fn new(use_penalty: bool) -> Self {
        Self::with_capacity(use_penalty, DEFAULT_COLOR_CAPACITY)
    }

    /// Creates an empty queue pre-reserving room for `colors` distinct
    /// colors in the slot table, the free list, the index and the
    /// stealing-queue buckets, and pre-warming the buffer pool with as
    /// many (small) event buffers — so cold-start pushes never trigger
    /// an incremental regrow/rehash and the dispatch path is
    /// allocation-free from the very first event. `colors == 0` skips
    /// every reservation and starts with an empty pool, so a test can
    /// watch the pool and its reuse counter fill from zero.
    pub fn with_capacity(use_penalty: bool, colors: usize) -> Self {
        let pool = colors.min(BUF_POOL_MAX);
        MelyQueue {
            slots: Vec::with_capacity(colors),
            free: Vec::with_capacity(colors),
            head: None,
            tail: None,
            index: FxHashMap::with_capacity_and_hasher(colors, FxBuildHasher::default()),
            buckets: std::array::from_fn(|_| Vec::with_capacity(colors)),
            buf_pool: (0..pool)
                .map(|_| VecDeque::with_capacity(INITIAL_BUF_EVENTS))
                .collect(),
            buf_reuses: 0,
            pushes: 0,
            steal_cost_estimate: 0,
            use_penalty,
            total_events: 0,
            total_cost: 0,
            cur: None,
        }
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.total_events
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.total_events == 0
    }

    /// Number of live color-queues.
    pub fn distinct_colors(&self) -> usize {
        self.index.len()
    }

    /// Whether `color` has a live color-queue.
    pub(crate) fn holds(&self, color: Color) -> bool {
        self.index.contains_key(&color)
    }

    /// Sum of the declared costs of all queued events.
    pub fn total_cost(&self) -> u64 {
        self.total_cost
    }

    /// Current steal-cost estimate used for worthiness.
    pub fn steal_cost_estimate(&self) -> u64 {
        self.steal_cost_estimate
    }

    /// Color-queue creations that reused a pooled event buffer instead
    /// of allocating (the threaded executor's `queue_buf_reuse` metric).
    pub fn buf_reuses(&self) -> u64 {
        self.buf_reuses
    }

    /// Empty buffers currently pooled.
    #[cfg(test)]
    fn buf_pool_len(&self) -> usize {
        self.buf_pool.len()
    }

    /// Takes an event buffer from the pool, or allocates a fresh one.
    fn take_buf(&mut self) -> VecDeque<Event> {
        match self.buf_pool.pop() {
            Some(buf) => {
                self.buf_reuses += 1;
                buf
            }
            None => VecDeque::new(),
        }
    }

    /// Returns an emptied event buffer to the pool (capacity intact),
    /// unless the pool is full.
    fn put_buf(&mut self, buf: VecDeque<Event>) {
        debug_assert!(buf.is_empty(), "pooled buffers must be empty");
        if self.buf_pool.len() < BUF_POOL_MAX {
            self.buf_pool.push(buf);
        }
    }

    /// Updates the steal-cost estimate (from the runtime's monitoring).
    /// Re-classifies every color-queue when the estimate moved by more
    /// than 25% (stale interval assignments are tolerated in between;
    /// worthiness is re-validated at choice time).
    pub fn set_steal_cost_estimate(&mut self, est: u64) {
        let old = self.steal_cost_estimate;
        self.steal_cost_estimate = est;
        let big_change = old == 0 || est == 0 || est * 4 > old * 5 || old * 4 > est * 5;
        if big_change {
            // Sorted for determinism: HashMap iteration order must not
            // influence bucket contents (the simulator relies on it).
            let mut live: Vec<usize> = self.index.values().copied().collect();
            live.sort_unstable();
            for slot in live {
                self.rebucket(slot);
            }
        }
    }

    fn weight_of(&self, ev: &Event) -> u64 {
        if self.use_penalty {
            ev.weighted_cost()
        } else {
            ev.cost()
        }
    }

    /// Which stealing-queue interval a cumulative weight belongs to;
    /// `None` when the color is not worth stealing (paper Section III-B:
    /// worthy iff processing time exceeds the steal cost).
    fn desired_bucket(&self, cum_weighted: u64) -> Option<usize> {
        bucket_for(self.steal_cost_estimate, cum_weighted)
    }

    #[inline(always)]
    fn bucket_remove(&mut self, slot: usize) {
        let Some((b, i)) = self.slots[slot].as_ref().and_then(|c| c.bucket) else {
            return;
        };
        self.buckets[b].swap_remove(i);
        if let Some(&moved) = self.buckets[b].get(i) {
            self.slots[moved]
                .as_mut()
                .expect("bucketed slot is live")
                .bucket = Some((b, i));
        }
        self.slots[slot].as_mut().expect("slot is live").bucket = None;
    }

    #[inline(always)]
    fn rebucket(&mut self, slot: usize) {
        let cq = self.slots[slot].as_ref().expect("slot is live");
        let desired = self.desired_bucket(cq.cum_weighted);
        let current = cq.bucket.map(|(b, _)| b);
        if desired == current {
            return;
        }
        self.bucket_remove(slot);
        if let Some(b) = desired {
            self.buckets[b].push(slot);
            let i = self.buckets[b].len() - 1;
            self.slots[slot].as_mut().expect("slot is live").bucket = Some((b, i));
        }
    }

    #[inline(always)]
    fn alloc_slot(&mut self, cq: ColorQueue) -> usize {
        if let Some(slot) = self.free.pop() {
            self.slots[slot] = Some(cq);
            slot
        } else {
            self.slots.push(Some(cq));
            self.slots.len() - 1
        }
    }

    #[inline(always)]
    fn link_tail(&mut self, slot: usize) {
        let old_tail = self.tail;
        {
            let cq = self.slots[slot].as_mut().expect("slot is live");
            cq.prev = old_tail;
            cq.next = None;
        }
        if let Some(t) = old_tail {
            self.slots[t].as_mut().expect("tail is live").next = Some(slot);
        } else {
            self.head = Some(slot);
        }
        self.tail = Some(slot);
    }

    #[inline(always)]
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let cq = self.slots[slot].as_ref().expect("slot is live");
            (cq.prev, cq.next)
        };
        match prev {
            Some(p) => self.slots[p].as_mut().expect("prev is live").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slots[n].as_mut().expect("next is live").prev = prev,
            None => self.tail = prev,
        }
        let cq = self.slots[slot].as_mut().expect("slot is live");
        cq.prev = None;
        cq.next = None;
    }

    /// Pushes an event into its color-queue, creating (and appending to
    /// the core-queue) the color-queue if needed. Returns `true` when a
    /// new color-queue was created — the costlier path the paper notes
    /// for short-lived colors (Section V-C1).
    pub fn push(&mut self, ev: Event) -> bool {
        let w = self.weight_of(&ev);
        let cost = ev.cost();
        let color = ev.color();
        self.total_events += 1;
        self.total_cost += cost;
        if let Some(&slot) = self.index.get(&color) {
            let est = self.steal_cost_estimate;
            let cq = self.slots[slot].as_mut().expect("indexed slot is live");
            cq.events.push_back(ev);
            cq.cum_cost += cost;
            cq.cum_weighted += w;
            // Hot path: check the interval while the slot is already
            // borrowed; `rebucket` (which re-borrows) only runs when
            // the color actually moves.
            if bucket_for(est, cq.cum_weighted) != cq.bucket.map(|(b, _)| b) {
                self.rebucket(slot);
            }
            false
        } else {
            let mut events = self.take_buf();
            events.push_back(ev);
            let slot = self.alloc_slot(ColorQueue {
                color,
                events,
                cum_cost: cost,
                cum_weighted: w,
                prev: None,
                next: None,
                bucket: None,
            });
            self.link_tail(slot);
            self.index.insert(color, slot);
            self.rebucket(slot);
            true
        }
    }

    /// Ensures `cur` designates a live color-queue, honouring the batch
    /// threshold; returns the slot to pop from.
    fn normalize_cur(&mut self, batch_threshold: u32) -> Option<usize> {
        let threshold = batch_threshold.max(1);
        // Validate the current pointer (the slot may have been stolen or
        // recycled for another color).
        let valid = match self.cur {
            Some((slot, color, _)) => self
                .slots
                .get(slot)
                .and_then(|o| o.as_ref())
                .is_some_and(|cq| cq.color == color),
            None => false,
        };
        if !valid {
            self.cur = self.head.map(|s| {
                let c = self.slots[s].as_ref().expect("head is live").color;
                (s, c, 0)
            });
        }
        let (slot, _, consumed) = self.cur?;
        if consumed >= threshold {
            // Rotate to the next color-queue (wrapping to the head).
            let next = self.slots[slot]
                .as_ref()
                .expect("cur is live")
                .next
                .or(self.head)
                .expect("queue is non-empty");
            let c = self.slots[next].as_ref().expect("next is live").color;
            self.cur = Some((next, c, 0));
            return Some(next);
        }
        Some(slot)
    }

    /// Pops the next event: the head of the current color-queue, rotating
    /// after `batch_threshold` events of the same color (10 in all the
    /// paper's experiments).
    pub fn pop(&mut self, batch_threshold: u32) -> Option<Event> {
        if self.total_events == 0 {
            self.cur = None;
            return None;
        }
        let slot = self.normalize_cur(batch_threshold)?;
        let use_penalty = self.use_penalty;
        let est = self.steal_cost_estimate;
        let (ev, now_empty, next, need_rebucket) = {
            let cq = self.slots[slot].as_mut().expect("cur slot is live");
            let ev = cq
                .events
                .pop_front()
                .expect("live color-queue is non-empty");
            let w = if use_penalty {
                ev.weighted_cost()
            } else {
                ev.cost()
            };
            cq.cum_cost -= ev.cost();
            cq.cum_weighted -= w;
            let need = bucket_for(est, cq.cum_weighted) != cq.bucket.map(|(b, _)| b);
            (ev, cq.events.is_empty(), cq.next, need)
        };
        self.total_events -= 1;
        self.total_cost -= ev.cost();
        if now_empty {
            self.remove_slot(slot);
            self.cur = next.or(self.head).map(|s| {
                let c = self.slots[s].as_ref().expect("slot is live").color;
                (s, c, 0)
            });
        } else {
            if need_rebucket {
                self.rebucket(slot);
            }
            if let Some((s, c, n)) = self.cur {
                debug_assert_eq!(s, slot);
                self.cur = Some((s, c, n + 1));
            }
        }
        Some(ev)
    }

    fn remove_slot(&mut self, slot: usize) {
        self.bucket_remove(slot);
        self.unlink(slot);
        let cq = self.slots[slot].take().expect("slot is live");
        self.index.remove(&cq.color);
        self.free.push(slot);
        // The drained color's buffer keeps its capacity for the next
        // short-lived color instead of going back to the allocator.
        self.put_buf(cq.events);
    }

    /// The event `pop` would return, left queued; the batch rotation
    /// that choosing it implies is taken now, as `pop` would take it.
    pub(super) fn peek(&mut self, batch_threshold: u32) -> Option<&Event> {
        if self.total_events == 0 {
            return None;
        }
        let slot = self.normalize_cur(batch_threshold)?;
        self.slots[slot]
            .as_ref()
            .expect("cur slot is live")
            .events
            .front()
    }

    /// Base-algorithm color choice on the Mely structure: walks the
    /// core-queue and returns the first color-queue whose color is not
    /// `in_flight` and which holds less than half of the queued events
    /// (the Figure 2 rule). Returns `(slot, color-queues scanned)`.
    pub fn choose_scan(&self, in_flight: Option<Color>) -> Option<(usize, usize)> {
        let mut cursor = self.head;
        let mut scanned = 0;
        while let Some(slot) = cursor {
            let cq = self.slots[slot].as_ref().expect("linked slot is live");
            scanned += 1;
            if Some(cq.color) != in_flight && cq.events.len() * 2 < self.total_events {
                return Some((slot, scanned));
            }
            cursor = cq.next;
        }
        None
    }

    /// Time-left color choice: picks a worthy color-queue from the
    /// highest-interval of the stealing-queue, skipping `in_flight` and
    /// re-validating worthiness against the current estimate. O(1) in the
    /// common case.
    #[inline]
    pub fn choose_worthy(&self, in_flight: Option<Color>) -> Option<usize> {
        let est = self.steal_cost_estimate.max(1);
        for b in (0..INTERVALS).rev() {
            for &slot in self.buckets[b].iter().rev() {
                let cq = self.slots[slot].as_ref().expect("bucketed slot is live");
                if Some(cq.color) == in_flight {
                    continue;
                }
                if cq.cum_weighted > est {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Whether any color could be stolen right now under the given
    /// policy-specific chooser (`can_be_stolen` of Figure 2).
    pub fn can_be_stolen_base(&self) -> bool {
        self.distinct_colors() >= 2
    }

    /// The color stored in `slot` (test/debug helper).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a live color-queue.
    pub fn slot_color(&self, slot: usize) -> Color {
        self.slots[slot].as_ref().expect("slot is live").color
    }

    /// Detaches a whole color-queue in O(1) — Mely's steal primitive.
    /// The color's event buffer leaves with the returned set (the thief's
    /// [`MelyQueue::absorb`] reuses or pools it), so a steal allocates
    /// nothing on either side.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a live color-queue.
    #[inline]
    pub fn detach(&mut self, slot: usize) -> DetachedColorQueue {
        self.bucket_remove(slot);
        self.unlink(slot);
        let cq = self.slots[slot].take().expect("slot is live");
        self.index.remove(&cq.color);
        self.free.push(slot);
        self.total_events -= cq.events.len();
        self.total_cost -= cq.cum_cost;
        DetachedColorQueue {
            color: cq.color,
            events: cq.events,
            cum_cost: cq.cum_cost,
            cum_weighted: cq.cum_weighted,
        }
    }

    /// The victim half of a steal: detaches up to `budget` color-queues,
    /// chosen through the stealing-queue under `time_left` and by the
    /// base half-rule scan otherwise — where `can_be_stolen` is
    /// re-checked per color, so the victim keeps at least one. Also
    /// returns the color-queues inspected: per color taken, or by the
    /// one futile choice when none was.
    pub(crate) fn steal_take(
        &mut self,
        in_flight: Option<Color>,
        time_left: bool,
        budget: usize,
    ) -> (Vec<DetachedColorQueue>, u64) {
        let (mut sets, mut inspected) = (Vec::new(), 0);
        while sets.len() < budget {
            let (slot, scanned) = if time_left {
                // O(1) lookup in the stealing-queue.
                (self.choose_worthy(in_flight), 1)
            } else if !self.can_be_stolen_base() {
                (None, 0)
            } else {
                match self.choose_scan(in_flight) {
                    Some((slot, scanned)) => (Some(slot), scanned),
                    None => (None, self.distinct_colors()),
                }
            };
            if slot.is_some() || sets.is_empty() {
                inspected += scanned as u64;
            }
            match slot {
                Some(slot) => sets.push(self.detach(slot)),
                None => break,
            }
        }
        (sets, inspected)
    }

    /// Absorbs a stolen color-queue (the `migrate` of Figure 2). If a
    /// color-queue for that color already exists (an event was registered
    /// here while the steal was in flight), the stolen — older — events
    /// are prepended to preserve per-color FIFO order. Returns the number
    /// of absorbed events.
    ///
    /// Allocation-free: the detached set's buffer either becomes the new
    /// color-queue's buffer directly or, when the color already exists,
    /// is emptied into it and dropped into this queue's buffer pool.
    #[inline]
    pub fn absorb(&mut self, mut d: DetachedColorQueue) -> usize {
        let n = d.events.len();
        self.total_events += n;
        self.total_cost += d.cum_cost;
        if let Some(&slot) = self.index.get(&d.color) {
            let cq = self.slots[slot].as_mut().expect("indexed slot is live");
            while let Some(ev) = d.events.pop_back() {
                cq.events.push_front(ev);
            }
            cq.cum_cost += d.cum_cost;
            cq.cum_weighted += d.cum_weighted;
            self.rebucket(slot);
            self.put_buf(d.events);
        } else {
            let slot = self.alloc_slot(ColorQueue {
                color: d.color,
                events: d.events,
                cum_cost: d.cum_cost,
                cum_weighted: d.cum_weighted,
                prev: None,
                next: None,
                bucket: None,
            });
            self.link_tail(slot);
            self.index.insert(d.color, slot);
            self.rebucket(slot);
        }
        n
    }

    /// Iterates `(color, pending)` pairs in core-queue order (tests).
    pub fn colors_in_order(&self) -> Vec<(Color, usize)> {
        let mut out = Vec::new();
        let mut cursor = self.head;
        while let Some(slot) = cursor {
            let cq = self.slots[slot].as_ref().expect("linked slot is live");
            out.push((cq.color, cq.events.len()));
            cursor = cq.next;
        }
        out
    }

    /// Checks every internal invariant; used by unit and property tests.
    ///
    /// # Panics
    ///
    /// Panics (with a description) when an invariant is violated.
    pub fn assert_invariants(&self) {
        // Walk the list, checking links and collecting slots.
        let mut seen = Vec::new();
        let mut cursor = self.head;
        let mut prev: Option<usize> = None;
        while let Some(slot) = cursor {
            let cq = self.slots[slot].as_ref().expect("linked slot must be live");
            assert_eq!(cq.prev, prev, "prev link broken at slot {slot}");
            assert!(!cq.events.is_empty(), "empty color-queue left in list");
            assert_eq!(
                self.index.get(&cq.color),
                Some(&slot),
                "index out of sync for {}",
                cq.color
            );
            let cost: u64 = cq.events.iter().map(|e| e.cost()).sum();
            assert_eq!(cq.cum_cost, cost, "cum_cost drift for {}", cq.color);
            let w: u64 = cq.events.iter().map(|e| self.weight_of(e)).sum();
            assert_eq!(cq.cum_weighted, w, "cum_weighted drift for {}", cq.color);
            if let Some((b, i)) = cq.bucket {
                assert_eq!(self.buckets[b][i], slot, "bucket index broken");
            }
            seen.push(slot);
            prev = Some(slot);
            cursor = cq.next;
        }
        assert_eq!(self.tail, prev, "tail pointer broken");
        assert_eq!(seen.len(), self.index.len(), "index size mismatch");
        let events: usize = seen
            .iter()
            .map(|&s| self.slots[s].as_ref().unwrap().events.len())
            .sum();
        assert_eq!(events, self.total_events, "total_events drift");
        let cost: u64 = seen
            .iter()
            .map(|&s| self.slots[s].as_ref().unwrap().cum_cost)
            .sum();
        assert_eq!(cost, self.total_cost, "total_cost drift");
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, &slot) in bucket.iter().enumerate() {
                let cq = self.slots[slot]
                    .as_ref()
                    .expect("bucketed slot must be live");
                assert_eq!(cq.bucket, Some((b, i)), "bucket back-pointer broken");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(color: u16, cost: u64) -> Event {
        Event::new(Color::new(color), cost)
    }

    #[test]
    fn push_groups_by_color_in_arrival_order() {
        let mut q = MelyQueue::new(true);
        assert!(q.push(ev(1, 10)));
        assert!(q.push(ev(2, 20)));
        assert!(!q.push(ev(1, 30)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.distinct_colors(), 2);
        assert_eq!(
            q.colors_in_order(),
            vec![(Color::new(1), 2), (Color::new(2), 1)]
        );
        q.assert_invariants();
    }

    #[test]
    fn pop_exhausts_color_then_moves_on() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 10));
        q.push(ev(1, 11));
        q.push(ev(2, 20));
        // Threshold high enough to drain color 1 first.
        assert_eq!(q.pop(10).unwrap().cost(), 10);
        assert_eq!(q.pop(10).unwrap().cost(), 11);
        assert_eq!(q.pop(10).unwrap().cost(), 20);
        assert!(q.pop(10).is_none());
        q.assert_invariants();
        assert_eq!(q.distinct_colors(), 0);
    }

    #[test]
    fn batch_threshold_rotates_colors() {
        let mut q = MelyQueue::new(true);
        for i in 0..5 {
            q.push(ev(1, 100 + i));
        }
        for i in 0..2 {
            q.push(ev(2, 200 + i));
        }
        // Threshold 2: two of color 1, then rotate to color 2, etc.
        let colors: Vec<u16> = (0..7).map(|_| q.pop(2).unwrap().color().value()).collect();
        assert_eq!(colors, [1, 1, 2, 2, 1, 1, 1]);
        q.assert_invariants();
    }

    #[test]
    fn threshold_zero_still_makes_progress() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 1));
        q.push(ev(1, 2));
        assert!(q.pop(0).is_some());
        assert!(q.pop(0).is_some());
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn detach_is_o1_and_removes_color() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 10));
        q.push(ev(2, 20));
        q.push(ev(2, 21));
        q.push(ev(3, 30));
        let slot = q.choose_scan(None).map(|(s, _)| s).unwrap();
        let d = q.detach(slot);
        assert_eq!(d.color(), Color::new(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d.cum_cost(), 10);
        assert_eq!(q.len(), 3);
        assert_eq!(q.distinct_colors(), 2);
        q.assert_invariants();
    }

    #[test]
    fn absorb_new_color_appends_to_tail() {
        let mut b = MelyQueue::new(true);
        b.push(ev(2, 5));
        let mut a = MelyQueue::new(true);
        a.push(ev(1, 10));
        a.push(ev(9, 1));
        a.push(ev(9, 1));
        let (slot, _) = a.choose_scan(None).unwrap();
        assert_eq!(a.slot_color(slot), Color::new(1));
        let d = a.detach(slot);
        let n = b.absorb(d);
        assert_eq!(n, 1);
        assert_eq!(
            b.colors_in_order(),
            vec![(Color::new(2), 1), (Color::new(1), 1)]
        );
        b.assert_invariants();
    }

    #[test]
    fn absorb_existing_color_prepends_stolen_events() {
        // Simulates the threaded race: thief already received a newer
        // event of the color while the steal was in flight.
        let mut victim = MelyQueue::new(true);
        victim.push(ev(7, 1).named("older-a"));
        victim.push(ev(7, 2).named("older-b"));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        let (slot, _) = victim.choose_scan(Some(Color::new(8))).unwrap();
        assert_eq!(victim.slot_color(slot), Color::new(7));
        let d = victim.detach(slot);

        let mut thief = MelyQueue::new(true);
        thief.push(ev(7, 3).named("newer"));
        thief.absorb(d);
        let names: Vec<&str> = (0..3).map(|_| thief.pop(10).unwrap().name()).collect();
        assert_eq!(names, ["older-a", "older-b", "newer"]);
        thief.assert_invariants();
    }

    #[test]
    fn choose_scan_applies_half_rule_and_in_flight() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        q.push(ev(2, 1));
        // Color 1 holds 3 of 4: rejected; color 2 qualifies.
        let (slot, scanned) = q.choose_scan(None).unwrap();
        assert_eq!(q.slot_color(slot), Color::new(2));
        assert_eq!(scanned, 2);
        // With color 2 in flight nothing qualifies.
        assert!(q.choose_scan(Some(Color::new(2))).is_none());
    }

    #[test]
    fn worthiness_tracks_estimate() {
        let mut q = MelyQueue::new(true);
        q.set_steal_cost_estimate(1_000);
        q.push(ev(1, 500)); // not worthy: 500 <= 1000
        assert!(q.choose_worthy(None).is_none());
        q.push(ev(1, 600)); // cum 1100 > 1000: worthy
        let slot = q.choose_worthy(None).unwrap();
        assert_eq!(q.slot_color(slot), Color::new(1));
        // In-flight color is excluded.
        assert!(q.choose_worthy(Some(Color::new(1))).is_none());
        q.assert_invariants();
    }

    #[test]
    fn worthy_choice_prefers_highest_interval() {
        let mut q = MelyQueue::new(true);
        q.set_steal_cost_estimate(100);
        q.push(ev(1, 150)); // interval 0 (>est, <4est)
        q.push(ev(2, 450)); // interval 1 (>=4est, <16est)
        q.push(ev(3, 5_000)); // interval 2 (>=16est)
        let slot = q.choose_worthy(None).unwrap();
        assert_eq!(q.slot_color(slot), Color::new(3));
        q.assert_invariants();
    }

    #[test]
    fn penalty_divides_weight_when_enabled() {
        let mut q = MelyQueue::new(true);
        q.set_steal_cost_estimate(100);
        // 10_000 cycles but penalty 1000 => weight 10: not worthy.
        q.push(ev(1, 10_000).with_penalty(1_000));
        assert!(q.choose_worthy(None).is_none());

        let mut q2 = MelyQueue::new(false); // penalties disabled
        q2.set_steal_cost_estimate(100);
        q2.push(ev(1, 10_000).with_penalty(1_000));
        assert!(q2.choose_worthy(None).is_some());
    }

    #[test]
    fn estimate_update_rebuckets() {
        let mut q = MelyQueue::new(true);
        q.set_steal_cost_estimate(1);
        q.push(ev(1, 50)); // worthy under est=1
        assert!(q.choose_worthy(None).is_some());
        q.set_steal_cost_estimate(1_000); // big change: rebucket
        assert!(q.choose_worthy(None).is_none());
        q.assert_invariants();
    }

    #[test]
    fn stolen_current_batch_color_is_handled() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 1));
        q.push(ev(1, 2));
        q.push(ev(2, 3));
        assert_eq!(q.pop(10).unwrap().color(), Color::new(1));
        // Steal the color we were batch-processing (allowed between
        // events: it is not in flight at this instant). The half rule
        // rejects both remaining singleton colors, so detach directly.
        assert!(q.choose_scan(None).is_none());
        let slot = *q.index.get(&Color::new(1)).unwrap();
        let d = q.detach(slot);
        assert_eq!(d.len(), 1);
        // pop falls over to the remaining color without panicking.
        assert_eq!(q.pop(10).unwrap().color(), Color::new(2));
        assert!(q.pop(10).is_none());
        q.assert_invariants();
    }

    #[test]
    fn can_be_stolen_base_needs_two_colors() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 1));
        q.push(ev(1, 1));
        assert!(!q.can_be_stolen_base());
        q.push(ev(2, 1));
        assert!(q.can_be_stolen_base());
    }

    #[test]
    fn drained_buffers_are_pooled_and_reused() {
        // Cold queue (no pre-warmed pool) so the counters start at zero.
        let mut q = MelyQueue::with_capacity(true, 0);
        // Grow a color's buffer well past the default, then drain it.
        for i in 0..32 {
            q.push(ev(1, i));
        }
        while q.pop(100).is_some() {}
        assert_eq!(q.buf_pool_len(), 1);
        assert_eq!(q.buf_reuses(), 0);
        // A brand-new color takes the pooled buffer (capacity intact).
        q.push(ev(2, 5));
        assert_eq!(q.buf_pool_len(), 0);
        assert_eq!(q.buf_reuses(), 1);
        assert_eq!(q.pop(10).unwrap().cost(), 5);
        q.assert_invariants();
    }

    #[test]
    fn absorb_into_existing_color_pools_the_stolen_buffer() {
        let mut victim = MelyQueue::with_capacity(true, 0);
        victim.push(ev(7, 1));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        let (slot, _) = victim.choose_scan(None).unwrap();
        let d = victim.detach(slot);
        assert_eq!(d.color(), Color::new(7));

        let mut thief = MelyQueue::with_capacity(true, 0);
        thief.push(ev(7, 2));
        assert_eq!(thief.buf_pool_len(), 0);
        thief.absorb(d);
        // The stolen set's emptied buffer landed in the thief's pool.
        assert_eq!(thief.buf_pool_len(), 1);
        thief.assert_invariants();
    }

    #[test]
    fn absorb_new_color_reuses_the_stolen_buffer_directly() {
        let mut victim = MelyQueue::with_capacity(true, 0);
        victim.push(ev(7, 1));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        victim.push(ev(8, 1));
        let (slot, _) = victim.choose_scan(None).unwrap();
        let d = victim.detach(slot);

        let mut thief = MelyQueue::with_capacity(true, 0);
        thief.absorb(d);
        // No pooling needed: the buffer became the new color-queue.
        assert_eq!(thief.buf_pool_len(), 0);
        assert_eq!(thief.buf_reuses(), 0);
        assert_eq!(thief.pop(10).unwrap().color(), Color::new(7));
        thief.assert_invariants();
    }

    #[test]
    fn pool_is_capacity_bounded() {
        let mut q = MelyQueue::new(true);
        // Create and drain far more distinct colors than the pool holds.
        for round in 0..4u16 {
            for i in 0..100u16 {
                q.push(ev(1_000 + round * 100 + i, 1));
            }
            while q.pop(10).is_some() {}
        }
        assert!(q.buf_pool_len() <= 64, "pool must stay bounded");
        q.assert_invariants();
    }

    #[test]
    fn with_capacity_pre_reserves() {
        let mut q = MelyQueue::with_capacity(true, 16);
        for i in 0..16u16 {
            q.push(ev(i + 1, 1));
        }
        assert_eq!(q.distinct_colors(), 16);
        q.assert_invariants();
        while q.pop(10).is_some() {}
        assert!(q.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_confuse_batch_pointer() {
        let mut q = MelyQueue::new(true);
        q.push(ev(1, 1));
        assert!(q.pop(10).is_some()); // drains color 1, frees slot 0
        q.push(ev(2, 1)); // reuses slot 0 for another color
        assert_eq!(q.pop(10).unwrap().color(), Color::new(2));
        q.assert_invariants();
    }
}
