//! Deterministic schedule fuzzing: seeded perturbation of the sim
//! executor's scheduling decisions.
//!
//! The simulator's value as a correctness harness is limited by the fact
//! that, unperturbed, it explores exactly *one* interleaving per
//! workload: the earliest-clock core always steps next, victims are
//! always visited in the policy's canonical order, and the injection
//! inboxes are drained in core order at every iteration boundary. An ordering
//! bug that needs a different interleaving to fire stays invisible until
//! it bites the (nondeterministic) threaded runtime.
//!
//! [`RuntimeBuilder::schedule_seed`](crate::runtime::RuntimeBuilder::schedule_seed)
//! turns the one fixed schedule into a *family* of schedules indexed by
//! a single `u64` seed. Every perturbation decision is drawn from one
//! [`ScheduleRng`] (a deterministic PRNG seeded with it), so
//! `seed == seed` replays the exact same schedule bit for bit — any
//! invariant violation found by a seed sweep is reported as a
//! `(seed, fingerprint)` pair and reproduced exactly by re-running with
//! that seed (see [`crate::metrics::RunFingerprint`]). The threaded
//! executor ignores the seed: its interleavings come from real OS
//! scheduling, which is exactly the nondeterminism the seed emulates
//! reproducibly.
//!
//! A seed perturbs five decision points, all drawing from that one
//! stream:
//!
//! - **core pick** — which actionable core steps next (instead of
//!   always the earliest virtual clock), perturbing *when* a core gets
//!   to check for steals relative to its peers;
//! - **steal deferral** — an idle core sometimes skips a steal check
//!   and idles one recheck period instead, shifting steal timing;
//! - **victim order** — the steal attempt visits the candidate victim
//!   set in a shuffled order;
//! - **batch cut points** — the per-color dispatch batch is cut after
//!   a random `1..=batch_threshold` events instead of always the full
//!   threshold, rotating colors at perturbed points. (A steal itself
//!   always migrates a whole color-queue — cutting *that* batch would
//!   put one color on two cores and violate the exclusion invariant
//!   the fuzzer exists to check.)
//! - **inbox absorption** — the run loop sometimes defers draining the
//!   cores' injection inboxes to a later iteration, and drains the
//!   cores in a shuffled order. One inbox's events keep their order:
//!   reordering them would break the per-color FIFO a producer is
//!   promised.
//!
//! None of these change what the runtime *guarantees* — per-color
//! mutual exclusion, per-color FIFO, no lost events — they only change
//! the order in which legal scheduling choices are made. A seed sweep
//! asserting the invariants over many perturbed schedules is therefore
//! a real correctness harness for scheduler refactors: see
//! `tests/fuzz_schedules.rs` and `examples/fuzz.rs` in the repository
//! root.
//!
//! # Examples
//!
//! ```
//! use mely_core::prelude::*;
//!
//! let run = |seed: u64| {
//!     let mut rt = RuntimeBuilder::new()
//!         .cores(4)
//!         .workstealing(WsPolicy::base())
//!         .schedule_seed(seed)
//!         .build(ExecKind::Sim);
//!     for i in 0..64u16 {
//!         rt.register_pinned(Event::new(Color::new(i + 1), 10_000), 0);
//!     }
//!     rt.run()
//! };
//! let (a, b) = (run(7), run(7));
//! // Same seed: the schedule replays bit-identically.
//! assert_eq!(a.fingerprint(), b.fingerprint());
//! assert_eq!(a.events_processed(), 64);
//! ```

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The single deterministic PRNG all schedule-perturbation decisions are
/// drawn from (SplitMix64 via the vendored `rand` shim).
///
/// Centralizing every draw in one stream is what makes replay exact:
/// the k-th scheduling decision of a run consumes the k-th draw, so two
/// runs with the same seed and workload make identical decisions at
/// every point. Anything that consults the RNG conditionally must gate
/// on *deterministic* state only (a cross-thread racy read deciding
/// whether to draw would desynchronize the stream between runs).
///
/// # Examples
///
/// ```
/// use mely_core::fuzz::ScheduleRng;
///
/// let mut a = ScheduleRng::new(42);
/// let mut b = ScheduleRng::new(42);
/// let mut xs = [0u8, 1, 2, 3, 4];
/// let mut ys = xs;
/// a.shuffle(&mut xs);
/// b.shuffle(&mut ys);
/// assert_eq!(xs, ys, "same seed, same shuffle");
/// assert_eq!(a.draws(), b.draws());
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleRng {
    rng: StdRng,
    draws: u64,
}

impl ScheduleRng {
    /// A fresh decision stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ScheduleRng {
            rng: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// Number of decisions drawn so far (diagnostics: two runs that
    /// replay identically consume identical draw counts).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }

    /// Uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from an empty set");
        // Multiply-shift bounded draw: a hair biased for enormous `n`,
        // irrelevant for scheduling sets (cores, victims, batch sizes)
        // — and branch-free, which keeps the draw count stable.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn chance(&mut self, num: u32, den: u32) -> bool {
        assert!(den > 0, "chance with zero denominator");
        self.pick(den as usize) < num as usize
    }

    /// Fisher–Yates shuffle driven by this stream.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.pick(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Seeded fault injection: deterministic chaos for the fault-isolation
/// layer (see [`crate::fault`]).
///
/// A plan is the fault-injection analogue of the schedule seed: one
/// `u64` seed drives a dedicated [`ScheduleRng`] stream (separate
/// from the schedule-perturbation stream, so enabling faults never
/// shifts scheduling draws), and every injection decision is a draw
/// from it. Rates are integers per million so draws stay in the exact
/// [`ScheduleRng::chance`] arithmetic — no float nondeterminism.
///
/// Three injection points:
///
/// - **handler panics** (`panic_per_million`) — a dispatched handler is
///   forced to panic (via a marker payload through the *real*
///   `catch_unwind` containment path), recorded as
///   [`FaultKind::InjectedPanic`](crate::fault::FaultKind::InjectedPanic)
///   and quarantining its color like any handler panic;
/// - **event drops** (`drop_per_million`) — a dispatched event is
///   discarded before its handler runs, modeling message loss
///   ([`FaultKind::InjectedDrop`](crate::fault::FaultKind::InjectedDrop);
///   no quarantine);
/// - **timer spikes** (`timer_spike_per_million`) — a handler-requested
///   delay is stretched by `timer_spike_cycles`, modeling a late timer.
///
/// On the sim executor the whole fault schedule replays bit-identically
/// for a given seed and its sites are covered by the run's
/// [`RunFingerprint`](crate::metrics::RunFingerprint). The threaded
/// executor honors the same plan probabilistically — per-worker streams
/// derived from the one seed — since OS scheduling decides which worker
/// dispatches which event.
///
/// # Examples
///
/// ```
/// use mely_core::prelude::*;
///
/// let run = |seed: u64| {
///     let mut rt = RuntimeBuilder::new()
///         .cores(2)
///         .schedule_seed(seed)
///         .fault_plan(FaultPlan::new(seed).with_panics(200_000))
///         .build(ExecKind::Sim);
///     for i in 0..64u16 {
///         rt.register(Event::new(Color::new(i + 1), 1_000).with_action(|_| {}));
///     }
///     rt.run()
/// };
/// let (a, b) = (run(3), run(3));
/// // Same seed: same fault sites, same fingerprint.
/// assert_eq!(a.total().faults, b.total().faults);
/// assert!(a.total().faults > 0, "20% panic rate over 64 events");
/// assert_eq!(a.fingerprint(), b.fingerprint());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed of the dedicated fault-decision stream.
    pub seed: u64,
    /// Injected handler panics, per million dispatches.
    pub panic_per_million: u32,
    /// Injected event drops, per million dispatches.
    pub drop_per_million: u32,
    /// Timer-delay spikes, per million delayed registrations.
    pub timer_spike_per_million: u32,
    /// Cycles added to a spiked timer delay.
    pub timer_spike_cycles: u64,
}

impl FaultPlan {
    /// A plan with every rate zero (injects nothing until rates are
    /// set).
    pub const fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_per_million: 0,
            drop_per_million: 0,
            timer_spike_per_million: 0,
            timer_spike_cycles: 1_000_000,
        }
    }

    /// Sets the injected-panic rate (per million dispatches).
    pub const fn with_panics(mut self, per_million: u32) -> Self {
        self.panic_per_million = per_million;
        self
    }

    /// Sets the injected-drop rate (per million dispatches).
    pub const fn with_drops(mut self, per_million: u32) -> Self {
        self.drop_per_million = per_million;
        self
    }

    /// Sets the timer-spike rate (per million delayed registrations)
    /// and the spike magnitude in cycles.
    pub const fn with_timer_spikes(mut self, per_million: u32, cycles: u64) -> Self {
        self.timer_spike_per_million = per_million;
        self.timer_spike_cycles = cycles;
        self
    }

    /// Converts a probability in `[0, 1]` (e.g. a parsed
    /// `MELY_FAULT_RATE`) to a per-million rate.
    pub fn rate_per_million(rate: f64) -> u32 {
        (rate.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
    }

    /// Whether the plan injects nothing (all rates zero) — such plans
    /// are dropped at build time so the hot paths stay draw-free.
    pub fn is_noop(&self) -> bool {
        self.panic_per_million == 0
            && self.drop_per_million == 0
            && self.timer_spike_per_million == 0
    }

    /// The fault-decision stream for the sim executor's single run
    /// loop.
    pub fn rng(&self) -> ScheduleRng {
        ScheduleRng::new(self.seed)
    }

    /// A per-worker fault-decision stream for the threaded executor:
    /// derived from the one seed, distinct per core.
    pub fn worker_rng(&self, core: usize) -> ScheduleRng {
        ScheduleRng::new(self.seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ScheduleRng::new(7);
        let mut b = ScheduleRng::new(7);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.draws(), 1_000);
    }

    #[test]
    fn pick_is_in_range_and_covers() {
        let mut rng = ScheduleRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let i = rng.pick(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform pick must cover 0..7");
        assert_eq!(rng.pick(1), 0, "singleton set has one choice");
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = ScheduleRng::new(11);
        let hits = (0..10_000).filter(|_| rng.chance(1, 4)).count();
        assert!(
            (2_000..3_000).contains(&hits),
            "1/4 chance hit {hits}/10000 times"
        );
        let mut rng = ScheduleRng::new(12);
        assert!((0..100).all(|_| rng.chance(1, 1)), "1/1 always fires");
        let mut rng = ScheduleRng::new(13);
        assert!((0..100).all(|_| !rng.chance(0, 4)), "0/4 never fires");
    }

    #[test]
    fn fault_plan_builders_and_noop() {
        let p = FaultPlan::new(5);
        assert!(p.is_noop(), "fresh plans inject nothing");
        let p = p.with_panics(100).with_drops(50).with_timer_spikes(10, 777);
        assert!(!p.is_noop());
        assert_eq!((p.panic_per_million, p.drop_per_million), (100, 50));
        assert_eq!(p.timer_spike_cycles, 777);
        assert_eq!(FaultPlan::rate_per_million(0.02), 20_000);
        assert_eq!(FaultPlan::rate_per_million(-1.0), 0);
        assert_eq!(FaultPlan::rate_per_million(7.0), 1_000_000);
    }

    #[test]
    fn fault_plan_streams_are_deterministic_and_per_worker_distinct() {
        let p = FaultPlan::new(21);
        assert_eq!(p.rng().next_u64(), ScheduleRng::new(21).next_u64());
        let (a, b) = (p.worker_rng(0).next_u64(), p.worker_rng(1).next_u64());
        assert_ne!(a, b, "workers draw from distinct streams");
        assert_eq!(p.worker_rng(0).next_u64(), a, "and each replays");
    }

    #[test]
    fn shuffle_permutes_without_loss() {
        let mut rng = ScheduleRng::new(5);
        let mut xs: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
        // With 32 elements, the identity permutation is astronomically
        // unlikely; a seed that produced it would be a broken shuffle.
        assert_ne!(xs, (0..32).collect::<Vec<_>>());
        // Empty and singleton slices are fine and draw nothing.
        let before = rng.draws();
        rng.shuffle(&mut [0u8; 0]);
        rng.shuffle(&mut [1u8]);
        assert_eq!(rng.draws(), before);
    }
}
