//! Per-core metrics and run reports.
//!
//! These counters are the runtime's "built-in monitoring facilities"
//! (paper Section IV-B) and carry exactly the quantities the paper's
//! evaluation reports: throughput (KEvents/s, Tables III–VI), time spent
//! locking (Table III), average steal cost and average stolen processing
//! time (Tables I, III, IV), and L2 cache misses per event (Tables V,
//! VI).

use std::fmt;
use std::hash::Hasher;

use fxhash::FxHasher;

use crate::color::Color;
use crate::fault::Fault;
use crate::steal::WsPolicy;

/// One step of the running Fx digest: folds `word` into `state` through
/// a fresh [`FxHasher`] so the digest stays order-sensitive (Fx's
/// rotate-xor-multiply is not commutative) while remaining a plain
/// `u64` that lives inside the `Copy` [`CoreMetrics`].
fn fx_fold(state: u64, word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(state);
    h.write_u64(word);
    h.finish()
}

/// Number of log2 latency buckets: bucket `b` holds samples whose bit
/// length is `b` (0, then `[2^(b-1), 2^b)`), so bucket 64 holds
/// everything from `2^63` up to `u64::MAX` — recording saturates there
/// instead of overflowing.
const LATENCY_BUCKETS: usize = 65;

/// A log2-bucketed histogram of per-request latencies in cycles.
///
/// Recording is one `leading_zeros` and one increment — cheap enough
/// for the dispatch path on both executors. Percentiles are read from
/// the bucket boundaries, so a reported quantile is an *upper bound*
/// with at most 2× resolution error — the right trade for a scheduler
/// metric whose interesting signal is orders of magnitude (queueing
/// collapse, steal storms), not single cycles.
///
/// # Examples
///
/// ```
/// use mely_core::metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for v in [100u64, 110, 120, 5_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.50) <= h.percentile(0.99));
/// assert!(h.percentile(0.99) >= 5_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket holding `sample`: its bit length.
    fn bucket_of(sample: u64) -> usize {
        (u64::BITS - sample.leading_zeros()) as usize
    }

    /// Records one latency sample in cycles.
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_of(sample)] += 1;
        self.count = self.count.saturating_add(1);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// The upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `0.0..=1.0`); 0 for an empty histogram. Because
    /// the answer is a shared bucket boundary, quantiles are monotone:
    /// `percentile(0.50) <= percentile(0.99)` always holds.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_bound(b);
            }
        }
        u64::MAX
    }

    /// Largest value a sample in bucket `b` can have.
    fn bucket_upper_bound(b: usize) -> u64 {
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

/// Counters accumulated by one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMetrics {
    /// Events executed on this core.
    pub events_processed: u64,
    /// Cycles spent executing handlers (dispatch + handler body).
    pub busy_cycles: u64,
    /// Cycles spent waiting for spinlocks (own or remote).
    pub lock_wait_cycles: u64,
    /// Number of lock acquisitions.
    pub lock_ops: u64,
    /// Cycles spent idle (no events, no successful steal).
    pub idle_cycles: u64,
    /// Steal attempts initiated by this core (successful or not).
    pub steal_attempts: u64,
    /// Successful steals performed by this core.
    pub steals: u64,
    /// Cycles spent inside successful steal operations, from decision to
    /// migration complete (the paper's "stealing time").
    pub steal_cycles: u64,
    /// Cycles spent in steal attempts that found nothing.
    pub failed_steal_cycles: u64,
    /// Events migrated into this core by its steals.
    pub stolen_events: u64,
    /// Successful steals from an SMT sibling of this core
    /// ([`crate::steal::StealTier::Smt`]). The four per-tier counters
    /// partition `steals`; they are diagnostics and deliberately not
    /// part of [`RunReport::fingerprint`].
    pub steals_smt: u64,
    /// Successful steals from a core sharing a cache with this core
    /// ([`crate::steal::StealTier::Llc`]).
    pub steals_llc: u64,
    /// Successful steals from a same-socket core sharing no cache
    /// ([`crate::steal::StealTier::Socket`]).
    pub steals_socket: u64,
    /// Successful steals that crossed a socket
    /// ([`crate::steal::StealTier::Remote`]).
    pub steals_remote: u64,
    /// Declared processing cost of the event sets this core stole (the
    /// paper's "stolen time").
    pub stolen_cost_cycles: u64,
    /// Events that entered this core's queue: registered, routed or
    /// fired by a timer (a steal moves events, it does not count them).
    pub registered: u64,
    /// L2 cache misses attributed to this core (simulation only).
    pub l2_misses: u64,
    /// Cycles added by simulated memory accesses.
    pub mem_stall_cycles: u64,
    /// Events pushed into this core's injection inbox: everything
    /// bound for the core but its own worker's own-color routes
    /// (threaded executor only).
    pub inbox_pushes: u64,
    /// Events this core drained out of its inbox.
    pub inbox_drained: u64,
    /// Non-empty inbox drains (each merges its batch under one lock
    /// acquisition).
    pub inbox_drain_batches: u64,
    /// Pushes this core's inbox refused because a steal had moved the
    /// event's color away; each was retried on the color's new owner.
    pub inbox_rerouted: u64,
    /// Inbox pushes that did not grow the inbox's buffer (threaded
    /// executor only).
    pub inbox_node_reuse: u64,
    /// Color-queue creations that reused a pooled event buffer instead
    /// of allocating (Mely flavor only).
    pub queue_buf_reuse: u64,
    /// Requests completed on this core ([`crate::ctx::Ctx::complete_request`],
    /// reached through the stage layer's `StageCtx::complete`).
    pub completed_requests: u64,
    /// Rejected admission attempts (`try_inject` errors, plus one per
    /// event the infallible `inject` refused). Counted on producer
    /// threads; attributed to core 0.
    pub admission_rejects: u64,
    /// Events the infallible injection paths dropped: refused by a
    /// queue limit, a quarantined color or a stopped simulator.
    /// Attributed to core 0.
    pub shed_requests: u64,
    /// The subset of `shed_requests` rejected by the per-color limit
    /// ([`crate::admission::OverloadReason::ColorHot`]).
    pub shed_by_color: u64,
    /// [`crate::exec::Executor::register_pinned`] calls whose pin was
    /// refused because something still held the color on its owner,
    /// which kept it. Attributed to core 0.
    pub refused_pins: u64,
    /// Contained faults recorded on this core: handler panics (organic
    /// or [`crate::fuzz::FaultPlan`]-injected), injected drops, and —
    /// attributed at join time — worker deaths. See [`crate::fault`].
    pub faults: u64,
    /// Requests that failed because the event carrying them faulted or
    /// was discarded by a quarantine drain. Together with
    /// `completed_requests` and `shed_requests` this closes the offered
    /// accounting: `offered = completed + failed + shed`.
    pub failed_requests: u64,
    /// Events discarded because their color was quarantined — queue
    /// drains on this core, plus (attributed to core 0) admission-side
    /// quarantine sheds.
    pub shed_by_fault: u64,
    /// Colors newly quarantined by faults on this core.
    pub quarantined_colors: u64,
    /// Per-request latency samples completed on this core.
    pub latency: LatencyHistogram,
    /// Order-sensitive Fx digest of the `(color, seq)` completion
    /// sequence this core executed — the raw material of
    /// [`RunReport::fingerprint`]. Updated by
    /// [`CoreMetrics::note_completion`] on every event execution.
    pub completion_digest: u64,
    /// Order-sensitive Fx digest of the fault sites this core hit
    /// (`(color, kind, seq)` per fault) — folded into
    /// [`RunReport::fingerprint`] so a chaos replay must reproduce not
    /// just the schedule but the exact fault schedule.
    pub fault_digest: u64,
}

impl CoreMetrics {
    /// Folds one event completion into this core's order-sensitive
    /// digest. Called by both executors at the moment an event's
    /// handler finishes; `seq` is the runtime's registration sequence
    /// number, so the digest captures *which* event ran, not just its
    /// color.
    pub fn note_completion(&mut self, color: Color, seq: u64) {
        self.completion_digest = fx_fold(
            fx_fold(self.completion_digest, u64::from(color.value())),
            seq,
        );
    }

    /// Attributes one successful steal to its
    /// [`crate::steal::StealTier`] counter. Called by both executors
    /// right after they count the steal itself, so the four tier
    /// counters always sum to `steals`.
    pub(crate) fn note_steal_tier(&mut self, tier: crate::steal::StealTier) {
        match tier {
            crate::steal::StealTier::Smt => self.steals_smt += 1,
            crate::steal::StealTier::Llc => self.steals_llc += 1,
            crate::steal::StealTier::Socket => self.steals_socket += 1,
            crate::steal::StealTier::Remote => self.steals_remote += 1,
        }
    }

    /// Counts one contained fault and folds its site into this core's
    /// fault digest. `kind_code` is the [`crate::fault::FaultKind`]'s
    /// stable small code; `seq` identifies the faulting event (0 for
    /// faults with no event, e.g. worker deaths).
    pub(crate) fn note_fault(&mut self, color: Option<Color>, kind_code: u64, seq: u64) {
        self.faults += 1;
        let color_word = color.map_or(u64::MAX, |c| u64::from(c.value()));
        self.fault_digest = fx_fold(
            fx_fold(fx_fold(self.fault_digest, color_word), kind_code),
            seq,
        );
    }
}

impl CoreMetrics {
    /// Adds another core's counters into this one.
    pub fn merge(&mut self, o: &CoreMetrics) {
        self.events_processed += o.events_processed;
        self.busy_cycles += o.busy_cycles;
        self.lock_wait_cycles += o.lock_wait_cycles;
        self.lock_ops += o.lock_ops;
        self.idle_cycles += o.idle_cycles;
        self.steal_attempts += o.steal_attempts;
        self.steals += o.steals;
        self.steal_cycles += o.steal_cycles;
        self.failed_steal_cycles += o.failed_steal_cycles;
        self.stolen_events += o.stolen_events;
        self.steals_smt += o.steals_smt;
        self.steals_llc += o.steals_llc;
        self.steals_socket += o.steals_socket;
        self.steals_remote += o.steals_remote;
        self.stolen_cost_cycles += o.stolen_cost_cycles;
        self.registered += o.registered;
        self.l2_misses += o.l2_misses;
        self.mem_stall_cycles += o.mem_stall_cycles;
        self.inbox_pushes += o.inbox_pushes;
        self.inbox_drained += o.inbox_drained;
        self.inbox_drain_batches += o.inbox_drain_batches;
        self.inbox_rerouted += o.inbox_rerouted;
        self.inbox_node_reuse += o.inbox_node_reuse;
        self.queue_buf_reuse += o.queue_buf_reuse;
        self.completed_requests += o.completed_requests;
        self.admission_rejects += o.admission_rejects;
        self.shed_requests += o.shed_requests;
        self.shed_by_color += o.shed_by_color;
        self.refused_pins += o.refused_pins;
        self.faults += o.faults;
        self.failed_requests += o.failed_requests;
        self.shed_by_fault += o.shed_by_fault;
        self.quarantined_colors += o.quarantined_colors;
        self.latency.merge(&o.latency);
        // Merging cores has no meaningful inter-core order, so the
        // digests combine commutatively; the order-sensitive run
        // identity is [`RunReport::fingerprint`], which folds the
        // per-core digests in core-index order instead.
        self.completion_digest = self.completion_digest.wrapping_add(o.completion_digest);
        self.fault_digest = self.fault_digest.wrapping_add(o.fault_digest);
    }
}

/// A compact, order-sensitive identity for "the same run".
///
/// The fingerprint folds together, with an Fx hash:
///
/// - each core's **completion digest** (the order-sensitive hash of the
///   `(color, seq)` event-completion sequence that core executed), in
///   core-index order, alongside that core's event count and **fault
///   digest** (the order-sensitive hash of its fault sites);
/// - the run's **structural counts**: events processed, events
///   registered, successful steals, completed requests, and the fault
///   totals (faults, failed requests, quarantine sheds).
///
/// Two runs with the same fingerprint executed the same events in the
/// same per-core order — which is what "replays bit-identically" means
/// for a scheduler. Deliberately **excluded**: anything a replay cannot
/// reproduce exactly or that carries no ordering information — wall
/// clock, cycle accounting (busy/idle/lock-wait), cache misses, and
/// latency percentiles. On the simulator those happen to be
/// deterministic too, but keeping them out lets a fingerprint survive
/// cost-model refinements that do not change scheduling order, and
/// gives the threaded executor's fingerprints the same meaning.
///
/// Produced by [`RunReport::fingerprint`]; `Display` renders the short
/// hex digest used in fuzz-failure reports (`seed 0x2a → a3f09b…`).
///
/// # Examples
///
/// ```
/// use mely_core::prelude::*;
///
/// let run = || {
///     let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
///     rt.register(Event::new(Color::new(1), 500));
///     rt.run().fingerprint()
/// };
/// let (a, b) = (run(), run());
/// assert_eq!(a, b, "identical runs have identical fingerprints");
/// assert_eq!(format!("{a}"), format!("{:016x}", a.as_u64()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunFingerprint(u64);

impl RunFingerprint {
    /// The raw 64-bit digest.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RunFingerprint {
    /// The short hex digest (16 lowercase hex digits).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for RunFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RunFingerprint({:016x})", self.0)
    }
}

/// Summary of a runtime execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    per_core: Vec<CoreMetrics>,
    wall_cycles: u64,
    freq_hz: u64,
    policy: WsPolicy,
    fault_log: Vec<Fault>,
}

impl RunReport {
    pub(crate) fn new(
        per_core: Vec<CoreMetrics>,
        wall_cycles: u64,
        freq_hz: u64,
        policy: WsPolicy,
    ) -> Self {
        RunReport {
            per_core,
            wall_cycles,
            freq_hz,
            policy,
            fault_log: Vec::new(),
        }
    }

    /// Attaches the run's recorded [`Fault`]s (capped; the counters are
    /// exact).
    pub(crate) fn with_fault_log(mut self, log: Vec<Fault>) -> Self {
        self.fault_log = log;
        self
    }

    /// Per-core counters.
    pub fn per_core(&self) -> &[CoreMetrics] {
        &self.per_core
    }

    /// Aggregated counters over all cores.
    pub fn total(&self) -> CoreMetrics {
        let mut t = CoreMetrics::default();
        for c in &self.per_core {
            t.merge(c);
        }
        t
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Elapsed time in cycles (virtual under simulation, measured under
    /// the threaded executor).
    pub fn wall_cycles(&self) -> u64 {
        self.wall_cycles
    }

    /// Elapsed time in seconds at the machine's nominal frequency.
    pub fn wall_secs(&self) -> f64 {
        self.wall_cycles as f64 / self.freq_hz as f64
    }

    /// The workstealing policy the run used.
    pub fn policy(&self) -> WsPolicy {
        self.policy
    }

    /// Total events executed.
    pub fn events_processed(&self) -> u64 {
        self.total().events_processed
    }

    /// Throughput in thousands of events per second (the unit of Tables
    /// III–VI). Returns 0.0 for an empty run.
    pub fn kevents_per_sec(&self) -> f64 {
        let s = self.wall_secs();
        if s <= 0.0 {
            return 0.0;
        }
        self.events_processed() as f64 / s / 1e3
    }

    /// Fraction of total core time spent waiting on locks (the paper's
    /// "Locking time", Table III).
    pub fn lock_time_fraction(&self) -> f64 {
        let denom = self.wall_cycles as f64 * self.per_core.len() as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        self.total().lock_wait_cycles as f64 / denom
    }

    /// Average cycles per successful steal (the paper's "stealing time" /
    /// "WS cost"). `None` when no steal succeeded.
    pub fn avg_steal_cycles(&self) -> Option<f64> {
        let t = self.total();
        (t.steals > 0).then(|| t.steal_cycles as f64 / t.steals as f64)
    }

    /// Average declared processing time of a stolen event set (the
    /// paper's "stolen time"). `None` when no steal succeeded.
    pub fn avg_stolen_cost(&self) -> Option<f64> {
        let t = self.total();
        (t.steals > 0).then(|| t.stolen_cost_cycles as f64 / t.steals as f64)
    }

    /// Successful steals per [`crate::steal::StealTier`], nearest tier
    /// first: `[smt, llc, socket, remote]`. The four entries partition
    /// [`CoreMetrics::steals`] (every successful steal lands in exactly
    /// one tier), so the sum equals `total().steals`.
    pub fn steals_by_tier(&self) -> [u64; 4] {
        let t = self.total();
        [t.steals_smt, t.steals_llc, t.steals_socket, t.steals_remote]
    }

    /// Mean events merged per non-empty inbox drain — each drain is one
    /// lock acquisition, so this is the producer-side lock amortization
    /// factor. `None` when nothing was drained.
    pub fn avg_inbox_drain_batch(&self) -> Option<f64> {
        let t = self.total();
        (t.inbox_drain_batches > 0).then(|| t.inbox_drained as f64 / t.inbox_drain_batches as f64)
    }

    /// Requests completed through the per-request latency pipeline
    /// (the stage layer's `StageCtx::complete`, or a raw handler calling
    /// [`crate::ctx::Ctx::complete_request`]). 0 for workloads that never
    /// open requests.
    pub fn completed_requests(&self) -> u64 {
        self.total().completed_requests
    }

    /// Median end-to-end request latency in cycles (upper bound of the
    /// log2 bucket holding the median sample); 0 when no request
    /// completed. Always `<=` [`RunReport::latency_p99`].
    pub fn latency_p50(&self) -> u64 {
        self.latency_histogram().percentile(0.50)
    }

    /// 99th-percentile end-to-end request latency in cycles; 0 when no
    /// request completed.
    pub fn latency_p99(&self) -> u64 {
        self.latency_histogram().percentile(0.99)
    }

    /// The merged per-request latency histogram over all cores.
    pub fn latency_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for c in &self.per_core {
            h.merge(&c.latency);
        }
        h
    }

    /// Offered load: completed requests (the goodput), plus the requests
    /// shed at admission, plus the requests failed by faults.
    /// `completed_requests() / offered_requests()` is the fraction of
    /// offered load that survived overload control *and* fault
    /// containment.
    pub fn offered_requests(&self) -> u64 {
        let t = self.total();
        t.completed_requests + t.shed_requests + t.failed_requests
    }

    /// The recorded [`Fault`]s of this run, in per-core recording order
    /// (capped at an internal limit; [`CoreMetrics::faults`] stays exact
    /// past it). Empty when the run was fault-free.
    pub fn fault_log(&self) -> &[Fault] {
        &self.fault_log
    }

    /// The stable identity of "the same run": an order-sensitive Fx
    /// hash of the per-core event-completion digests plus the run's
    /// structural counts. See [`RunFingerprint`] for exactly what is
    /// covered (and what is deliberately excluded). Equal fingerprints
    /// mean the schedule replayed bit-identically; the schedule-fuzzing
    /// harness reports violations as `(seed, fingerprint)` pairs.
    pub fn fingerprint(&self) -> RunFingerprint {
        let mut h = FxHasher::default();
        h.write_u64(self.per_core.len() as u64);
        for c in &self.per_core {
            h.write_u64(c.completion_digest);
            h.write_u64(c.events_processed);
            h.write_u64(c.fault_digest);
        }
        let t = self.total();
        h.write_u64(t.events_processed);
        h.write_u64(t.registered);
        h.write_u64(t.steals);
        h.write_u64(t.completed_requests);
        h.write_u64(t.faults);
        h.write_u64(t.failed_requests);
        h.write_u64(t.shed_by_fault);
        RunFingerprint(h.finish())
    }

    /// L2 misses per processed event (Tables V and VI). Returns 0.0 when
    /// nothing was processed.
    pub fn l2_misses_per_event(&self) -> f64 {
        let t = self.total();
        if t.events_processed == 0 {
            return 0.0;
        }
        t.l2_misses as f64 / t.events_processed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(events: u64, lock: u64) -> CoreMetrics {
        CoreMetrics {
            events_processed: events,
            lock_wait_cycles: lock,
            ..CoreMetrics::default()
        }
    }

    #[test]
    fn totals_merge_cores() {
        let r = RunReport::new(
            vec![m(10, 100), m(20, 300)],
            1_000,
            1_000_000_000,
            WsPolicy::off(),
        );
        assert_eq!(r.events_processed(), 30);
        assert_eq!(r.total().lock_wait_cycles, 400);
        assert_eq!(r.cores(), 2);
    }

    #[test]
    fn throughput_units() {
        // 1000 events in 1e9 cycles at 1 GHz = 1 second => 1 KEvents/s.
        let r = RunReport::new(
            vec![m(1_000, 0)],
            1_000_000_000,
            1_000_000_000,
            WsPolicy::off(),
        );
        assert!((r.kevents_per_sec() - 1.0).abs() < 1e-9);
        assert!((r.wall_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lock_fraction_is_over_total_core_time() {
        // 2 cores, wall 1000 cycles => 2000 core-cycles; 400 locked = 20%.
        let r = RunReport::new(
            vec![m(1, 100), m(1, 300)],
            1_000,
            1_000_000_000,
            WsPolicy::off(),
        );
        assert!((r.lock_time_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn steal_averages_none_without_steals() {
        let r = RunReport::new(vec![m(1, 0)], 100, 1_000, WsPolicy::base());
        assert!(r.avg_steal_cycles().is_none());
        assert!(r.avg_stolen_cost().is_none());
        assert_eq!(r.l2_misses_per_event(), 0.0);
    }

    #[test]
    fn steal_averages() {
        let c = CoreMetrics {
            events_processed: 4,
            steals: 2,
            steal_cycles: 300,
            stolen_cost_cycles: 5_000,
            l2_misses: 8,
            ..Default::default()
        };
        let r = RunReport::new(vec![c], 100, 1_000, WsPolicy::improved());
        assert_eq!(r.avg_steal_cycles().unwrap(), 150.0);
        assert_eq!(r.avg_stolen_cost().unwrap(), 2_500.0);
        assert_eq!(r.l2_misses_per_event(), 2.0);
    }

    #[test]
    fn inbox_counters_merge_and_average() {
        let a = CoreMetrics {
            inbox_pushes: 10,
            inbox_drained: 9,
            inbox_drain_batches: 3,
            inbox_rerouted: 1,
            inbox_node_reuse: 7,
            queue_buf_reuse: 4,
            ..Default::default()
        };
        let b = CoreMetrics {
            inbox_pushes: 2,
            inbox_drained: 3,
            inbox_drain_batches: 1,
            inbox_node_reuse: 1,
            queue_buf_reuse: 2,
            ..Default::default()
        };
        let r = RunReport::new(vec![a, b], 100, 1_000, WsPolicy::off());
        let t = r.total();
        assert_eq!(
            (t.inbox_pushes, t.inbox_drained, t.inbox_rerouted),
            (12, 12, 1)
        );
        assert_eq!((t.inbox_node_reuse, t.queue_buf_reuse), (8, 6));
        assert_eq!(r.avg_inbox_drain_batch().unwrap(), 3.0);
        let quiet = RunReport::new(vec![m(1, 0)], 100, 1_000, WsPolicy::off());
        assert!(quiet.avg_inbox_drain_batch().is_none());
    }

    #[test]
    fn overload_counters_merge_and_derive_goodput() {
        let a = CoreMetrics {
            completed_requests: 10,
            shed_requests: 3,
            shed_by_color: 2,
            admission_rejects: 5,
            ..Default::default()
        };
        let b = CoreMetrics {
            completed_requests: 5,
            ..Default::default()
        };
        let r = RunReport::new(vec![a, b], 100, 1_000, WsPolicy::off());
        let t = r.total();
        assert_eq!(r.completed_requests(), 15);
        assert_eq!((t.shed_requests, t.shed_by_color), (3, 2));
        assert_eq!(t.admission_rejects, 5);
        assert_eq!(r.offered_requests(), 15 + 3);
    }

    #[test]
    fn fault_counters_merge_and_close_the_offered_identity() {
        use crate::color::Color;
        let mut a = CoreMetrics {
            completed_requests: 10,
            shed_requests: 3,
            failed_requests: 2,
            shed_by_fault: 4,
            quarantined_colors: 1,
            ..Default::default()
        };
        a.note_fault(Some(Color::new(9)), 1, 42);
        a.note_fault(None, 4, 0);
        let b = CoreMetrics {
            completed_requests: 5,
            failed_requests: 1,
            ..Default::default()
        };
        let r = RunReport::new(vec![a, b], 100, 1_000, WsPolicy::off());
        let t = r.total();
        assert_eq!((t.faults, t.failed_requests), (2, 3));
        assert_eq!((t.shed_by_fault, t.quarantined_colors), (4, 1));
        assert_eq!(r.offered_requests(), 15 + 3 + 3);
        assert!(r.fault_log().is_empty(), "no log attached");
    }

    #[test]
    fn fault_digest_is_order_sensitive_and_covered_by_the_fingerprint() {
        use crate::color::Color;
        let mut a = CoreMetrics::default();
        a.note_fault(Some(Color::new(1)), 1, 10);
        a.note_fault(Some(Color::new(2)), 2, 11);
        let mut b = CoreMetrics::default();
        b.note_fault(Some(Color::new(2)), 2, 11);
        b.note_fault(Some(Color::new(1)), 1, 10);
        assert_ne!(a.fault_digest, b.fault_digest, "order must matter");
        let ra = RunReport::new(vec![a], 100, 1_000, WsPolicy::off());
        let rb = RunReport::new(vec![b], 100, 1_000, WsPolicy::off());
        assert_ne!(
            ra.fingerprint(),
            rb.fingerprint(),
            "a different fault schedule is a different run"
        );
    }

    #[test]
    fn empty_run_has_zero_throughput() {
        let r = RunReport::new(vec![], 0, 1_000, WsPolicy::off());
        assert_eq!(r.kevents_per_sec(), 0.0);
        assert_eq!(r.lock_time_fraction(), 0.0);
        assert_eq!(r.completed_requests(), 0);
        assert_eq!(r.latency_p50(), 0);
        assert_eq!(r.latency_p99(), 0);
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        assert_eq!(h.count(), 1);
        // 1000 has bit length 10: bucket upper bound 2^10 - 1.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 1_023, "q={q}");
        }
        // A zero-latency sample lands in the zero bucket.
        let mut z = LatencyHistogram::new();
        z.record(0);
        assert_eq!(z.percentile(0.5), 0);
        assert_eq!(z.count(), 1);
    }

    #[test]
    fn saturating_samples_land_in_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), u64::MAX, "top bucket saturates");
        // The exact power of two below sits in the bucket beneath.
        let mut p = LatencyHistogram::new();
        p.record((1u64 << 63) - 1);
        assert_eq!(p.percentile(1.0), (1u64 << 63) - 1);
    }

    #[test]
    fn percentiles_are_monotone_and_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 3, 7, 100, 5_000, 5_001, 1_000_000] {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(p99 >= 1_000_000, "p99 must cover the max sample's bucket");
        assert!(p50 >= 7, "p50 must cover the median sample");
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
    }

    #[test]
    fn histogram_merge_adds_counts_and_report_merges_cores() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(1.0) >= 1_000_000);

        let mut la = LatencyHistogram::new();
        la.record(100);
        let mut lb = LatencyHistogram::new();
        lb.record(200);
        let ca = CoreMetrics {
            completed_requests: 1,
            latency: la,
            ..Default::default()
        };
        let cb = CoreMetrics {
            completed_requests: 1,
            latency: lb,
            ..Default::default()
        };
        let r = RunReport::new(vec![ca, cb], 100, 1_000, WsPolicy::off());
        assert_eq!(r.completed_requests(), 2);
        assert_eq!(r.latency_histogram().count(), 2);
        assert!(r.latency_p50() <= r.latency_p99());
        assert!(r.latency_p99() >= 200);
    }

    #[test]
    fn completion_digest_is_order_sensitive() {
        use crate::color::Color;
        let mut a = CoreMetrics::default();
        a.note_completion(Color::new(1), 0);
        a.note_completion(Color::new(2), 1);
        let mut b = CoreMetrics::default();
        b.note_completion(Color::new(2), 1);
        b.note_completion(Color::new(1), 0);
        assert_ne!(
            a.completion_digest, b.completion_digest,
            "swapped completion order must change the digest"
        );
        let mut c = CoreMetrics::default();
        c.note_completion(Color::new(1), 0);
        c.note_completion(Color::new(2), 1);
        assert_eq!(a.completion_digest, c.completion_digest);
    }

    #[test]
    fn fingerprint_distinguishes_core_placement_not_wall_clock() {
        use crate::color::Color;
        let mut on_zero = CoreMetrics {
            events_processed: 1,
            ..Default::default()
        };
        on_zero.note_completion(Color::new(5), 0);
        let idle = CoreMetrics::default();

        // Same completions on core 0 vs core 1: different runs.
        let a = RunReport::new(vec![on_zero, idle], 100, 1_000, WsPolicy::off());
        let b = RunReport::new(vec![idle, on_zero], 100, 1_000, WsPolicy::off());
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Different wall clock, same schedule: same run identity.
        let c = RunReport::new(vec![on_zero, idle], 9_999, 1_000, WsPolicy::off());
        assert_eq!(a.fingerprint(), c.fingerprint());

        // Display is the 16-digit hex digest.
        let fp = a.fingerprint();
        let s = fp.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|ch| ch.is_ascii_hexdigit()));
        assert_eq!(u64::from_str_radix(&s, 16).unwrap(), fp.as_u64());
    }
}
