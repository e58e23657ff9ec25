//! Fault isolation: typed faults and color quarantine, both executors'
//! one response to a panicking handler.
//!
//! The paper's per-color mutual exclusion gives the runtime a natural
//! blast-radius unit: everything a faulty handler can have corrupted is
//! scoped to its color — the handler state keyed by it, the events
//! queued behind it, the request it was carrying. The dispatch kernel
//! both executors share therefore wraps the handler in
//! `catch_unwind(AssertUnwindSafe(..))` and, instead of letting the
//! panic unwind the worker (which previously aborted the whole run),
//! records a typed [`Fault`] and quarantines the color: its queued
//! events are discarded and counted as `shed_by_fault`, the in-flight
//! request is recorded as failed, and subsequent admission for the color
//! returns
//! [`OverloadReason::Quarantined`](crate::admission::OverloadReason::Quarantined)
//! so producers observe degradation instead of silence.
//!
//! A handler's buffered effects ([`crate::ctx::Ctx`] registrations,
//! charges, touches, completions) are applied only *after* it returns,
//! so a panicking execution's effects are discarded wholesale — a fault
//! never emits half a fan-out.
//!
//! Faults surface in the run's [`RunReport`](crate::metrics::RunReport):
//! the per-core counters (`faults`, `failed_requests`, `shed_by_fault`,
//! `quarantined_colors`), a deterministic per-core fault digest folded
//! into [`RunReport::fingerprint`](crate::metrics::RunReport::fingerprint),
//! and the capped per-run [`RunReport::fault_log`](crate::metrics::RunReport::fault_log).
//! Seeded fault *injection* — deterministic chaos on the sim executor —
//! lives in [`crate::fuzz::FaultPlan`].

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::color::{Color, COLOR_SPACE};
use crate::fuzz::FaultPlan;
use crate::handler::HandlerId;

/// What went wrong at a fault site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The handler's action panicked; carries the panic message (or a
    /// placeholder for non-string payloads).
    HandlerPanic(String),
    /// A seeded [`FaultPlan`] forced this dispatch to panic (the panic
    /// still travels through the real containment path).
    InjectedPanic,
    /// A seeded [`FaultPlan`] dropped this event before dispatch,
    /// modeling message loss. Drops do not quarantine the color.
    InjectedDrop,
    /// A worker thread died from a panic *outside* contained handler
    /// code (e.g. a queue invariant violation), detected at join time.
    WorkerDied {
        /// The core whose worker terminated.
        core: usize,
    },
}

impl FaultKind {
    /// Stable small code for digest folding (the message text of a
    /// [`FaultKind::HandlerPanic`] is deliberately not folded — payload
    /// formatting must not perturb fingerprints).
    pub(crate) fn code(&self) -> u64 {
        match self {
            FaultKind::HandlerPanic(_) => 1,
            FaultKind::InjectedPanic => 2,
            FaultKind::InjectedDrop => 3,
            FaultKind::WorkerDied { .. } => 4,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::HandlerPanic(msg) => write!(f, "handler panic: {msg}"),
            FaultKind::InjectedPanic => write!(f, "injected panic"),
            FaultKind::InjectedDrop => write!(f, "injected drop"),
            FaultKind::WorkerDied { core } => write!(f, "worker on core {core} died"),
        }
    }
}

/// One recorded fault: where it happened and what it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The color in whose context the fault occurred (`None` for worker
    /// deaths, which are not scoped to a color).
    pub color: Option<Color>,
    /// The handler dispatched at the fault site, if the event named one.
    pub handler: Option<HandlerId>,
    /// What happened.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.color {
            Some(c) => write!(f, "[color {}] {}", c.value(), self.kind),
            None => write!(f, "[no color] {}", self.kind),
        }
    }
}

/// Lock-free membership bitmap over the 16-bit color space, plus a
/// count that makes the empty-set check (the hot-path gate on every
/// admission and dispatch) one relaxed load.
pub(crate) struct QuarantineSet {
    words: Box<[AtomicU64]>,
    count: AtomicUsize,
}

impl QuarantineSet {
    fn new() -> Self {
        let mut words = Vec::with_capacity(COLOR_SPACE / 64);
        words.resize_with(COLOR_SPACE / 64, || AtomicU64::new(0));
        QuarantineSet {
            words: words.into_boxed_slice(),
            count: AtomicUsize::new(0),
        }
    }

    /// Whether any color is quarantined — the near-free gate the hot
    /// paths check before paying for a bitmap probe.
    pub(crate) fn any(&self) -> bool {
        self.count.load(Ordering::Acquire) != 0
    }

    /// Marks `color` quarantined. Returns `true` if it was not already.
    pub(crate) fn quarantine(&self, color: Color) -> bool {
        let slot = color.value() as usize;
        let bit = 1u64 << (slot % 64);
        let prev = self.words[slot / 64].fetch_or(bit, Ordering::AcqRel);
        let newly = prev & bit == 0;
        if newly {
            self.count.fetch_add(1, Ordering::AcqRel);
        }
        newly
    }

    /// Whether `color` is quarantined.
    pub(crate) fn contains(&self, color: Color) -> bool {
        if !self.any() {
            return false;
        }
        let slot = color.value() as usize;
        self.words[slot / 64].load(Ordering::Acquire) & (1u64 << (slot % 64)) != 0
    }

    /// Number of quarantined colors.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }
}

/// Cap on the per-run [`Fault`] log: counters are exact, the log keeps
/// the first faults for diagnosis without unbounded growth under a
/// fault storm.
pub(crate) const MAX_FAULT_LOG: usize = 1024;

/// Shared supervision state of one runtime: the optional seeded
/// injection plan, the quarantine set, and the capped fault log.
/// Lives in the runtime's `Resolved`, which the run loop or workers and
/// the producer door all reach.
pub(crate) struct FaultCtl {
    pub(crate) plan: Option<FaultPlan>,
    pub(crate) quarantined: QuarantineSet,
    log: Mutex<Vec<Fault>>,
}

impl FaultCtl {
    pub(crate) fn new(plan: Option<FaultPlan>) -> Self {
        FaultCtl {
            plan: plan.filter(|p| !p.is_noop()),
            quarantined: QuarantineSet::new(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Appends to the capped fault log (counters stay exact even past
    /// the cap).
    pub(crate) fn record(&self, fault: Fault) {
        let mut log = self.log.lock();
        if log.len() < MAX_FAULT_LOG {
            log.push(fault);
        }
    }

    /// Clones the log for a report. Reports are snapshots (the sim's
    /// `report()` can be called repeatedly), so the log is not drained;
    /// like the quarantine set, it accumulates for the runtime's life,
    /// capped at [`MAX_FAULT_LOG`].
    pub(crate) fn log_snapshot(&self) -> Vec<Fault> {
        self.log.lock().clone()
    }

    pub(crate) fn is_quarantined(&self, color: Color) -> bool {
        self.quarantined.contains(color)
    }
}

/// Marker payload [`FaultPlan`]-injected panics unwind with, so the
/// containment site classifies them as [`FaultKind::InjectedPanic`]
/// rather than an organic handler bug.
pub(crate) struct InjectedPanicMarker;

/// Classifies a caught panic payload.
pub(crate) fn kind_of_panic(payload: &(dyn std::any::Any + Send)) -> FaultKind {
    if payload.is::<InjectedPanicMarker>() {
        return FaultKind::InjectedPanic;
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    FaultKind::HandlerPanic(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_set_tracks_membership_and_count() {
        let set = QuarantineSet::new();
        assert!(!set.any());
        assert!(!set.contains(Color::new(7)));
        assert!(set.quarantine(Color::new(7)), "newly quarantined");
        assert!(!set.quarantine(Color::new(7)), "already quarantined");
        assert!(set.quarantine(Color::new(65_535)));
        assert!(set.any());
        assert_eq!(set.len(), 2);
        assert!(set.contains(Color::new(7)));
        assert!(set.contains(Color::new(65_535)));
        assert!(!set.contains(Color::new(8)));
    }

    #[test]
    fn panic_payloads_classify() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(
            kind_of_panic(s.as_ref()),
            FaultKind::HandlerPanic("boom".to_string())
        );
        let s: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(
            kind_of_panic(s.as_ref()),
            FaultKind::HandlerPanic("owned".to_string())
        );
        let s: Box<dyn std::any::Any + Send> = Box::new(InjectedPanicMarker);
        assert_eq!(kind_of_panic(s.as_ref()), FaultKind::InjectedPanic);
        let s: Box<dyn std::any::Any + Send> = Box::new(17u64);
        assert!(
            matches!(kind_of_panic(s.as_ref()), FaultKind::HandlerPanic(m) if m.contains("non-string"))
        );
    }

    #[test]
    fn fault_log_caps() {
        let ctl = FaultCtl::new(None);
        for i in 0..(MAX_FAULT_LOG + 10) {
            ctl.record(Fault {
                color: Some(Color::new((i % 100) as u16)),
                handler: None,
                kind: FaultKind::InjectedDrop,
            });
        }
        assert_eq!(ctl.log_snapshot().len(), MAX_FAULT_LOG);
        assert_eq!(
            ctl.log_snapshot().len(),
            MAX_FAULT_LOG,
            "snapshots do not drain"
        );
    }

    #[test]
    fn display_is_informative() {
        let f = Fault {
            color: Some(Color::new(9)),
            handler: None,
            kind: FaultKind::HandlerPanic("oops".into()),
        };
        let s = format!("{f}");
        assert!(s.contains("color 9") && s.contains("oops"), "{s}");
        let w = Fault {
            color: None,
            handler: None,
            kind: FaultKind::WorkerDied { core: 3 },
        };
        assert!(format!("{w}").contains("core 3"));
    }

    #[test]
    fn kind_codes_are_distinct() {
        let kinds = [
            FaultKind::HandlerPanic(String::new()),
            FaultKind::InjectedPanic,
            FaultKind::InjectedDrop,
            FaultKind::WorkerDied { core: 0 },
        ];
        let mut codes: Vec<u64> = kinds.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
    }
}
