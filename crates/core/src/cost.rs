//! Cost model constants and online cost estimation.
//!
//! The simulation executor charges virtual cycles for every runtime
//! operation using [`CostParams`]. Defaults are calibrated from the
//! measurements reported in the paper: scanning one event of a Libasync
//! queue costs about 190 cycles (Section II-C), memory latencies follow
//! Table II, and Mely's O(1) color-queue steal is an order of magnitude
//! cheaper than a queue scan (Section V-B, Table III).
//!
//! [`Ewma`] provides the exponentially-weighted moving averages used for
//! the runtime's built-in monitoring: the per-core steal-cost estimate of
//! the time-left heuristic (Section IV-B) and the optional *measured*
//! handler costs (the paper's future-work extension of dynamically set
//! time-left annotations, Section VII).

/// Cycle costs of the runtime's internal operations, used by the
/// simulation executor. All values are in CPU cycles.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostParams {
    /// Scanning one event in a Libasync-style FIFO (follow a link, check
    /// the color). Paper Section II-C: "about 190 cycles".
    pub scan_per_event: u64,
    /// Upper bound on the number of events one steal's traversal is
    /// charged for. The paper's measurements bound the cost of a steal
    /// on deep queues (197 Kcycles on the web server's ~1000-event
    /// queues, Section II-C) because the per-color pending counters
    /// terminate the walk; this cap reproduces that bound.
    pub scan_cap_events: u64,
    /// Acquiring and releasing an uncontended spinlock.
    pub lock_acquire: u64,
    /// A queue push or pop (bookkeeping only, excluding lock).
    pub queue_op: u64,
    /// Moving one event between queues during a Libasync migrate.
    pub migrate_per_event: u64,
    /// Detaching a whole color-queue from a Mely core-queue (O(1) unlink,
    /// color-map update).
    pub colorqueue_unlink: u64,
    /// Inserting a color-queue into a core-queue + stealing-queue.
    pub colorqueue_link: u64,
    /// Fixed per-attempt overhead of the stealing loop
    /// (`construct_core_set`, iteration bookkeeping).
    pub steal_setup: u64,
    /// Per-event dispatch overhead (fetch, call handler).
    pub dispatch: u64,
    /// Registering one event (allocate, route through the color map).
    pub registration: u64,
    /// Pause between steal attempts when an idle core found nothing to
    /// steal.
    pub idle_recheck: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            scan_per_event: 190,
            scan_cap_events: 1_000,
            lock_acquire: 250,
            queue_op: 40,
            migrate_per_event: 30,
            colorqueue_unlink: 700,
            colorqueue_link: 500,
            steal_setup: 200,
            dispatch: 25,
            registration: 35,
            idle_recheck: 400,
        }
    }
}

impl CostParams {
    /// Cost parameters with every runtime operation free. Useful in unit
    /// tests that check scheduling decisions rather than timing.
    pub fn free() -> Self {
        CostParams {
            scan_per_event: 0,
            scan_cap_events: u64::MAX,
            lock_acquire: 0,
            queue_op: 0,
            migrate_per_event: 0,
            colorqueue_unlink: 0,
            colorqueue_link: 0,
            steal_setup: 0,
            dispatch: 0,
            registration: 0,
            idle_recheck: 1, // must stay nonzero so idle cores make progress
        }
    }
}

/// The steal cost (cycles) the time-left heuristic assumes until the
/// first monitored steal replaces it.
pub(crate) const INITIAL_STEAL_ESTIMATE: u64 = 2_000;

/// An exponentially-weighted moving average over `u64` samples with a
/// fixed 1/8 smoothing factor (integer arithmetic, no drift).
///
/// # Examples
///
/// ```
/// use mely_core::cost::Ewma;
///
/// let mut e = Ewma::new(1_000);
/// assert_eq!(e.get(), 1_000);
/// for _ in 0..100 {
///     e.record(2_000);
/// }
/// assert!(e.get() > 1_900); // converges toward the samples
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ewma {
    value: u64,
    seeded: bool,
}

impl Ewma {
    /// Creates an estimator with an initial value (used until the first
    /// sample arrives).
    pub const fn new(initial: u64) -> Self {
        Ewma {
            value: initial,
            seeded: false,
        }
    }

    /// Current estimate.
    pub const fn get(&self) -> u64 {
        self.value
    }

    /// Feeds one sample. The first sample replaces the initial value
    /// outright; later samples are smoothed with factor 1/8.
    pub fn record(&mut self, sample: u64) {
        if self.seeded {
            // value += (sample - value) / 8, in unsigned arithmetic.
            self.value = self.value - self.value / 8 + sample / 8;
        } else {
            self.value = sample;
            self.seeded = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = CostParams::default();
        // Section II-C: ~190 cycles to scan one event of a legacy queue.
        assert_eq!(c.scan_per_event, 190);
        // Table III: a full Mely steal is ~2.3 Kcycles; the fixed parts
        // here (setup + two locks + unlink + link) must land near that.
        let mely_steal =
            c.steal_setup + 2 * c.lock_acquire + c.colorqueue_unlink + c.colorqueue_link;
        assert!((1_500..3_500).contains(&mely_steal), "got {mely_steal}");
    }

    #[test]
    fn ewma_first_sample_replaces_seed() {
        let mut e = Ewma::new(10_000);
        e.record(100);
        assert_eq!(e.get(), 100);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0);
        for _ in 0..200 {
            e.record(800);
        }
        let v = e.get();
        assert!((700..=800).contains(&v), "got {v}");
    }

    #[test]
    fn ewma_tracks_shifts_both_ways() {
        let mut e = Ewma::new(0);
        for _ in 0..100 {
            e.record(1000);
        }
        let high = e.get();
        for _ in 0..100 {
            e.record(100);
        }
        assert!(e.get() < high / 2);
    }
}
