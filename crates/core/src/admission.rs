//! Admission control: bounded queues, backpressure, and shed-by-color.
//!
//! Every queue in the runtime is unbounded by default — the
//! injection inboxes, the per-core color-queues, and the simulator's
//! run-loop mailbox all grow without limit, so a producer that outruns
//! the cores can blow memory while tail latency collapses. This module
//! adds the overload-engineering layer: configurable occupancy limits
//! ([`QueueLimits`]), a fallible admission API
//! ([`crate::exec::Injector::try_inject`] returning `Err(`[`Overload`]`)`
//! with the limit that was hit), and load shedding on the *infallible*
//! path ([`crate::exec::Injector::inject`]): one attempt, and an event
//! a limit refuses is dropped and counted. A producer never waits for
//! admission.
//!
//! # Where limits are enforced
//!
//! Admission is checked exactly at the external-producer boundary — the
//! inbox push on the threaded executor and the mailbox enqueue
//! on the simulator — and **never mid-pipeline**. Events registered by a
//! running handler ([`crate::ctx::Ctx::register`], the stage layer's
//! forwarding) always enter their queue, so an in-flight request chain
//! completes once its seeding event was admitted. Because the stage
//! layer submits exactly one seeding event per request through the
//! injector, a shed always drops a *whole request at its boundary* —
//! never a half-processed one. That is shed-by-color: under heavy-tailed
//! key popularity the per-color limit rejects new requests for the hot
//! color while other colors keep flowing.
//!
//! # The three limits
//!
//! | limit | occupancy it bounds | reject reason |
//! |---|---|---|
//! | `per_core_events` | events resident on the owning core (queue + undrained inbox) | [`OverloadReason::PerCoreFull`] |
//! | `per_color_events` | injector-admitted events of the color not yet executed | [`OverloadReason::ColorHot`] |
//! | `inbox_backlog` | events pushed to the owning core's inbox (threaded) or the run-loop mailbox (sim) and not yet drained | [`OverloadReason::InboxBacklog`] |
//!
//! On the threaded executor the inbox is also where a worker's route to
//! a color another core owns waits for that core (and where
//! `Executor::register` puts its events), so `per_core_events` and
//! `inbox_backlog` count such routes in transit too; the routes
//! themselves are never refused, only later injector calls see the
//! occupancy they add.
//!
//! Checks are evaluated in the order `per_core_events`, `inbox_backlog`,
//! `per_color_events`; the first limit hit names the
//! [`OverloadReason`]. On the simulator the per-core occupancy is the
//! queue length the run loop last published (exact between iterations;
//! an approximation while the loop is mid-step) and the owning core is
//! the color's home core (exact unless workstealing moved the color).
//!
//! # Accounting
//!
//! Every rejected admission attempt increments
//! `CoreMetrics::admission_rejects`. An event the infallible path
//! *drops* additionally counts in `CoreMetrics::shed_requests` (and
//! `shed_by_color` when the reason was [`OverloadReason::ColorHot`]).
//! Goodput is [`crate::metrics::RunReport::completed_requests`];
//! [`crate::metrics::RunReport::offered_requests`] adds the sheds back,
//! so `completed / offered` is the fraction of offered load that survived
//! admission and completed.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::color::COLOR_SPACE;
use crate::event::Event;
use crate::fault::FaultCtl;
use crate::metrics::CoreMetrics;

/// Occupancy limits enforced at the injection admission boundary.
///
/// The default is unbounded everywhere — a runtime built without
/// explicit limits behaves exactly as before this module existed. Set
/// limits through [`crate::runtime::RuntimeBuilder::queue_limits`]:
///
/// ```
/// use mely_core::prelude::*;
///
/// let rt = RuntimeBuilder::new()
///     .cores(2)
///     .queue_limits(QueueLimits::default().per_color_events(64).inbox_backlog(4_096))
///     .build(ExecKind::Threaded);
/// let injector = rt.injector();
/// assert!(injector.try_inject(Event::new(Color::new(1), 0)).is_ok());
/// # drop(rt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct QueueLimits {
    /// Max events resident on one core (its queue plus its undrained
    /// inbox backlog, cross-core routes in transit included on
    /// threads); `None` = unbounded.
    pub per_core_events: Option<u32>,
    /// Max injector-admitted, not-yet-executed events per color; `None`
    /// = unbounded. Mid-pipeline registrations are never counted against
    /// this limit (they cannot be rejected), only events entering
    /// through an injector.
    pub per_color_events: Option<u32>,
    /// Max events buffered in the admission inbox — the owning core's
    /// injection inbox (threaded; cross-core routes in transit
    /// included) or the run-loop mailbox (sim); `None` = unbounded.
    pub inbox_backlog: Option<u32>,
}

impl QueueLimits {
    /// No limits anywhere (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Sets the per-core resident-event limit.
    #[must_use]
    pub fn per_core_events(mut self, n: u32) -> Self {
        self.per_core_events = Some(n);
        self
    }

    /// Sets the per-color in-flight limit.
    #[must_use]
    pub fn per_color_events(mut self, n: u32) -> Self {
        self.per_color_events = Some(n);
        self
    }

    /// Sets the admission-inbox backlog limit.
    #[must_use]
    pub fn inbox_backlog(mut self, n: u32) -> Self {
        self.inbox_backlog = Some(n);
        self
    }

    /// Whether no limit is set (admission checks compile down to one
    /// branch on the hot path).
    pub fn is_unbounded(&self) -> bool {
        self.per_core_events.is_none()
            && self.per_color_events.is_none()
            && self.inbox_backlog.is_none()
    }
}

impl fmt::Display for QueueLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unbounded() {
            return f.write_str("unbounded");
        }
        let part = |v: Option<u32>| match v {
            Some(n) => n.to_string(),
            None => "unbounded".to_string(),
        };
        write!(
            f,
            "per_core={}, per_color={}, inbox={}",
            part(self.per_core_events),
            part(self.per_color_events),
            part(self.inbox_backlog)
        )
    }
}

/// Which limit rejected an admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverloadReason {
    /// The owning core's resident-event limit
    /// ([`QueueLimits::per_core_events`]) is reached.
    PerCoreFull,
    /// The color's in-flight limit ([`QueueLimits::per_color_events`])
    /// is reached — the signature signal of a heavy-tailed workload's
    /// hot key.
    ColorHot,
    /// The admission inbox ([`QueueLimits::inbox_backlog`]) is full —
    /// or, on the simulator, the run loop has been stopped and will
    /// never drain its mailbox again.
    InboxBacklog,
    /// The event's color is quarantined after a contained handler fault
    /// (see [`crate::fault`]): a faulted color accepts no new work for
    /// the rest of the runtime's life, so retrying is futile. Returned
    /// regardless of configured [`QueueLimits`] — even
    /// an unbounded runtime rejects quarantined colors.
    Quarantined,
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OverloadReason::PerCoreFull => "per-core queue full",
            OverloadReason::ColorHot => "color hot",
            OverloadReason::InboxBacklog => "inbox backlog",
            OverloadReason::Quarantined => "color quarantined",
        })
    }
}

/// A rejected admission attempt ([`crate::exec::Injector::try_inject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Overload {
    /// The first limit the attempt hit (checks run in the order
    /// per-core, inbox, per-color).
    pub reason: OverloadReason,
}

impl fmt::Display for Overload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "overload: {}", self.reason)
    }
}

impl std::error::Error for Overload {}

/// Shared admission state of one runtime: the configured limits, the
/// per-color in-flight occupancy (allocated only when a
/// per-color limit is set), and the producer-side reject/shed counters
/// attributed into the [`crate::metrics::RunReport`] after a run.
pub(crate) struct AdmissionCtl {
    pub(crate) limits: QueueLimits,
    /// Injector-admitted, not-yet-executed events per color. `None`
    /// unless `limits.per_color_events` is set, so unbounded runtimes
    /// pay neither the 256 KiB allocation nor the counter maintenance.
    per_color: Option<Box<[AtomicU32]>>,
    rejects: AtomicU64,
    shed_requests: AtomicU64,
    shed_by_color: AtomicU64,
    /// Events dropped at the admission boundary because their color was
    /// quarantined (see [`crate::fault`]); drain-side quarantine
    /// discards are counted per core instead.
    shed_by_fault: AtomicU64,
}

impl AdmissionCtl {
    pub(crate) fn new(limits: QueueLimits) -> Self {
        let per_color = limits.per_color_events.map(|_| {
            let mut v = Vec::with_capacity(COLOR_SPACE);
            v.resize_with(COLOR_SPACE, || AtomicU32::new(0));
            v.into_boxed_slice()
        });
        AdmissionCtl {
            limits,
            per_color,
            rejects: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            shed_by_color: AtomicU64::new(0),
            shed_by_fault: AtomicU64::new(0),
        }
    }

    /// Fast-path predicate: no limit configured, admission always
    /// succeeds.
    #[inline]
    pub(crate) fn is_unbounded(&self) -> bool {
        self.per_color.is_none()
            && self.limits.per_core_events.is_none()
            && self.limits.inbox_backlog.is_none()
    }

    /// Claims one in-flight slot for `slot`'s color if the per-color cap
    /// allows it. Exact under concurrent producers: the increment is the
    /// reservation, rolled back when it overshoots, so occupancy never
    /// exceeds `cap` and repeated rejected attempts do not creep it up.
    fn try_claim_color(&self, slot: usize, cap: u32) -> bool {
        let Some(pc) = &self.per_color else {
            return true;
        };
        let prev = pc[slot].fetch_add(1, Ordering::AcqRel);
        if prev >= cap {
            pc[slot].fetch_sub(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Releases a slot claimed by [`AdmissionCtl::try_claim_color`] —
    /// called when the admitted event executes.
    pub(crate) fn release_color(&self, slot: usize) {
        if let Some(pc) = &self.per_color {
            pc[slot].fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Current in-flight occupancy of a color (0 when no per-color limit
    /// is configured).
    #[cfg(test)]
    pub(crate) fn color_occupancy(&self, slot: usize) -> u32 {
        self.per_color
            .as_ref()
            .map_or(0, |pc| pc[slot].load(Ordering::Acquire))
    }

    /// The fallible admission decision for one event, the same on both
    /// executors: the quarantine gate, then the configured
    /// [`QueueLimits`] against the `(per-core, inbox)` occupancy the
    /// executor reads for the event's owning core — per-core, then
    /// inbox, then per-color, the color claim last so a failure never
    /// needs a rollback of an earlier check. On success the event holds
    /// a per-color in-flight slot (when that limit is set), released
    /// when it is dispatched.
    pub(crate) fn admit(
        &self,
        faults: &FaultCtl,
        ev: &mut Event,
        occupancy: impl FnOnce() -> (u64, u64),
    ) -> Result<(), Overload> {
        // The quarantine gate precedes the unbounded fast path: a
        // poisoned color rejects even on a runtime with no queue limits
        // configured. `Overload::reason` tells the producer this is not
        // backpressure: there is no occupancy to drain.
        let reject = |reason| Err(Overload { reason });
        if faults.is_quarantined(ev.color()) {
            return reject(OverloadReason::Quarantined);
        }
        if self.is_unbounded() {
            return Ok(());
        }
        let (core_occ, inbox_occ) = occupancy();
        if let Some(cap) = self.limits.per_core_events {
            if core_occ >= u64::from(cap) {
                return reject(OverloadReason::PerCoreFull);
            }
        }
        if let Some(cap) = self.limits.inbox_backlog {
            if inbox_occ >= u64::from(cap) {
                return reject(OverloadReason::InboxBacklog);
            }
        }
        if let Some(cap) = self.limits.per_color_events {
            if !self.try_claim_color(ev.color().value() as usize, cap) {
                return reject(OverloadReason::ColorHot);
            }
            ev.color_counted = true;
        }
        Ok(())
    }

    /// Writes the reject/shed totals into core 0's slot of a report:
    /// they are counted runtime-global (producers are not cores) and
    /// cumulative across runs. Quarantine sheds join (`+=`) the core's
    /// own pop-time discards.
    pub(crate) fn attribute_to(&self, core0: &mut CoreMetrics) {
        core0.admission_rejects = self.rejects.load(Ordering::Relaxed);
        core0.shed_requests = self.shed_requests.load(Ordering::Relaxed);
        core0.shed_by_color = self.shed_by_color.load(Ordering::Relaxed);
        core0.shed_by_fault += self.shed_by_fault.load(Ordering::Relaxed);
    }

    /// Counts one rejected admission attempt.
    pub(crate) fn note_reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one event dropped by the shed path.
    pub(crate) fn note_shed(&self, reason: OverloadReason) {
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
        if reason == OverloadReason::ColorHot {
            self.shed_by_color.fetch_add(1, Ordering::Relaxed);
        }
        if reason == OverloadReason::Quarantined {
            self.shed_by_fault.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for AdmissionCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionCtl")
            .field("limits", &self.limits)
            .field("rejects", &self.rejects.load(Ordering::Relaxed))
            .field("shed_requests", &self.shed_requests.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::exec::{ExecKind, Executor};
    use crate::runtime::RuntimeBuilder;

    #[test]
    fn defaults_are_unbounded() {
        let l = QueueLimits::default();
        assert!(l.is_unbounded());
        assert_eq!(l, QueueLimits::unbounded());
        assert_eq!(l.to_string(), "unbounded");
    }

    #[test]
    fn display_names_each_limit() {
        let l = QueueLimits::default().per_color_events(64).inbox_backlog(9);
        assert!(!l.is_unbounded());
        assert_eq!(l.to_string(), "per_core=unbounded, per_color=64, inbox=9");
        assert_eq!(OverloadReason::ColorHot.to_string(), "color hot");
        let ov = Overload {
            reason: OverloadReason::PerCoreFull,
        };
        assert_eq!(ov.to_string(), "overload: per-core queue full");
    }

    #[test]
    fn config_types_hash_and_copy() {
        // The derive conventions the builder API relies on.
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(QueueLimits::default());
        set.insert(QueueLimits::default().per_core_events(1));
        assert_eq!(set.len(), 2);
        let l = QueueLimits::default().per_color_events(3);
        let m = l; // Copy
        assert_eq!(l, m);
    }

    #[test]
    fn claim_rolls_back_on_overshoot() {
        let ctl = AdmissionCtl::new(QueueLimits::default().per_color_events(2));
        assert!(ctl.try_claim_color(7, 2));
        assert!(ctl.try_claim_color(7, 2));
        // Saturating: rejected attempts leave the occupancy untouched.
        for _ in 0..10 {
            assert!(!ctl.try_claim_color(7, 2));
            assert_eq!(ctl.color_occupancy(7), 2);
        }
        ctl.release_color(7);
        assert!(ctl.try_claim_color(7, 2));
    }

    /// Reason selection at the per-color boundary on the threaded
    /// executor: one-below admits, full rejects with `ColorHot`, and the
    /// rejection saturates (repeats do not corrupt the occupancy).
    #[test]
    fn threaded_color_boundary_full_one_below_saturating() {
        let mut rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().per_color_events(2))
            .build(ExecKind::Threaded);
        let inj = rt.injector();
        // One below the cap: admitted.
        assert!(inj.try_inject(Event::new(Color::new(3), 0)).is_ok());
        assert!(inj.try_inject(Event::new(Color::new(3), 0)).is_ok());
        // Full: rejected with the color reason; other colors still flow.
        for _ in 0..5 {
            let err = inj
                .try_inject(Event::new(Color::new(3), 0))
                .expect_err("cap reached");
            assert_eq!(err.reason, OverloadReason::ColorHot);
        }
        assert!(inj.try_inject(Event::new(Color::new(4), 0)).is_ok());
        // Draining the admitted events releases the occupancy.
        assert_eq!(rt.run().events_processed(), 3);
        let inj = rt.injector();
        assert!(inj.try_inject(Event::new(Color::new(3), 0)).is_ok());
    }

    #[test]
    fn threaded_per_core_boundary_reports_per_core_full() {
        let rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().per_core_events(3))
            .build(ExecKind::Threaded);
        let inj = rt.injector();
        for i in 0..3u16 {
            assert!(inj.try_inject(Event::new(Color::new(i + 1), 0)).is_ok());
        }
        let err = inj
            .try_inject(Event::new(Color::new(9), 0))
            .expect_err("core full");
        assert_eq!(err.reason, OverloadReason::PerCoreFull);
    }

    #[test]
    fn threaded_inbox_boundary_reports_backlog() {
        let rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().inbox_backlog(2))
            .build(ExecKind::Threaded);
        let inj = rt.injector();
        assert!(inj.try_inject(Event::new(Color::new(1), 0)).is_ok());
        assert!(inj.try_inject(Event::new(Color::new(2), 0)).is_ok());
        let err = inj
            .try_inject(Event::new(Color::new(3), 0))
            .expect_err("inbox full");
        assert_eq!(err.reason, OverloadReason::InboxBacklog);
    }

    #[test]
    fn sim_color_and_backlog_boundaries() {
        let mut rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().per_color_events(1))
            .build(ExecKind::Sim);
        let inj = rt.injector();
        assert!(inj.try_inject(Event::new(Color::new(5), 10)).is_ok());
        let err = inj
            .try_inject(Event::new(Color::new(5), 10))
            .expect_err("color cap");
        assert_eq!(err.reason, OverloadReason::ColorHot);
        assert!(inj.try_inject(Event::new(Color::new(6), 10)).is_ok());
        assert_eq!(rt.run().events_processed(), 2);
        // Execution released the color slot.
        assert!(rt
            .injector()
            .try_inject(Event::new(Color::new(5), 10))
            .is_ok());

        let rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().inbox_backlog(2))
            .build(ExecKind::Sim);
        let inj = rt.injector();
        assert!(inj.try_inject(Event::new(Color::new(1), 0)).is_ok());
        assert!(inj.try_inject(Event::new(Color::new(2), 0)).is_ok());
        let err = inj
            .try_inject(Event::new(Color::new(3), 0))
            .expect_err("mailbox full");
        assert_eq!(err.reason, OverloadReason::InboxBacklog);
    }

    /// The SimMailbox footgun fix: enqueueing into a stopped simulator
    /// no longer buffers forever — it rejects and counts.
    #[test]
    fn stopped_sim_rejects_instead_of_buffering() {
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        let inj = rt.injector();
        inj.stop();
        let err = inj
            .try_inject(Event::new(Color::new(1), 0))
            .expect_err("stopped");
        assert_eq!(err.reason, OverloadReason::InboxBacklog);
        // The infallible path drops and counts it.
        inj.inject(Event::new(Color::new(2), 0));
        assert_eq!(inj.outstanding(), 0, "nothing buffered while stopped");
        let r = rt.run(); // consumes the stop, executes nothing
        assert_eq!(r.events_processed(), 0);
        assert!(r.total().admission_rejects >= 2);
        // After the stop is consumed, admission works again.
        let inj = rt.injector();
        assert!(inj.try_inject(Event::new(Color::new(3), 0)).is_ok());
        assert_eq!(rt.run().events_processed(), 1);
    }

    /// `inject` makes one attempt: with no worker running to drain the
    /// color, the refused second event returns at once as one reject
    /// plus one shed.
    #[test]
    fn inject_into_a_full_color_returns_at_once_on_both_executors() {
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let mut rt = RuntimeBuilder::new()
                .cores(1)
                .queue_limits(QueueLimits::default().per_color_events(1))
                .build(kind);
            let inj = rt.injector();
            inj.inject(Event::new(Color::new(5), 0));
            inj.inject(Event::new(Color::new(5), 0));
            let r = rt.run();
            assert_eq!(r.events_processed(), 1, "{kind}");
            assert_eq!(r.total().admission_rejects, 1, "{kind}");
            assert_eq!(r.total().shed_requests, 1, "{kind}");
            assert_eq!(r.total().shed_by_color, 1, "{kind}");
        }
    }

    #[test]
    fn shed_policy_drops_and_counts_by_color() {
        let mut rt = RuntimeBuilder::new()
            .cores(1)
            .queue_limits(QueueLimits::default().per_color_events(2))
            .build(ExecKind::Threaded);
        let inj = rt.injector();
        for _ in 0..10 {
            inj.inject(Event::new(Color::new(7), 0));
        }
        let r = rt.run();
        assert_eq!(r.events_processed(), 2, "cap admits two");
        assert_eq!(r.total().shed_requests, 8);
        assert_eq!(r.total().shed_by_color, 8);
        assert_eq!(r.total().admission_rejects, 8);
        assert_eq!(r.offered_requests(), r.completed_requests() + 8);
    }
}
