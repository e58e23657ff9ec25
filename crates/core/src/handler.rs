//! Event-handler registry: names, cost annotations and workstealing
//! penalties.
//!
//! The time-left heuristic needs "the average processing time of the
//! various handlers", which the paper obtains "by first profiling the
//! application and then annotating the code of handlers" (Section III-B).
//! The penalty-aware heuristic likewise attaches a *workstealing penalty*
//! annotation per handler (Section III-C). [`HandlerSpec`] carries both.
//!
//! As the paper's future-work extension (Section VII), a handler may opt
//! into *measured* costs instead: the runtime then feeds observed
//! execution times into an EWMA and uses that as the estimate.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::Event;

/// Identifier of a registered handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HandlerId(u32);

impl HandlerId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "handler#{}", self.0)
    }
}

/// How the runtime estimates a handler's processing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostSource {
    /// Use the programmer-provided [`HandlerSpec::avg_cost`] annotation
    /// (the paper's approach).
    #[default]
    Annotated,
    /// Use an online EWMA of observed execution times (the paper's
    /// future-work extension: "dynamically set time-left annotations ...
    /// based on automated monitoring", Section VII).
    Measured,
}

/// Static description of an event handler.
///
/// # Examples
///
/// ```
/// use mely_core::handler::HandlerSpec;
///
/// // A cheap parsing handler whose events carry a large, long-lived data
/// // set: give it a high stealing penalty so it is rarely migrated.
/// let spec = HandlerSpec::new("parse_request")
///     .cost(2_000)
///     .penalty(1_000);
/// assert_eq!(spec.ws_penalty, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HandlerSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Annotated average processing time in cycles.
    pub avg_cost: u64,
    /// Workstealing penalty (≥ 1). An event contributes
    /// `cost / ws_penalty` to its color-queue's cumulative time, so large
    /// penalties make events unattractive to thieves (Section III-C).
    pub ws_penalty: u32,
    /// Whether estimates come from the annotation or from measurement.
    pub cost_source: CostSource,
}

impl HandlerSpec {
    /// Creates a spec with cost 0, penalty 1 and annotated costs.
    pub fn new(name: impl Into<String>) -> Self {
        HandlerSpec {
            name: name.into(),
            avg_cost: 0,
            ws_penalty: 1,
            cost_source: CostSource::Annotated,
        }
    }

    /// Sets the annotated average cost in cycles.
    pub fn cost(mut self, cycles: u64) -> Self {
        self.avg_cost = cycles;
        self
    }

    /// Sets the workstealing penalty. Values below 1 are clamped to 1.
    pub fn penalty(mut self, penalty: u32) -> Self {
        self.ws_penalty = penalty.max(1);
        self
    }

    /// Switches this handler to measured (EWMA) cost estimation.
    pub fn measured(mut self) -> Self {
        self.cost_source = CostSource::Measured;
        self
    }
}

/// Registry of all handlers of an application.
///
/// Registration happens before the runtime starts; cost *measurements* are
/// recorded concurrently from worker threads, hence the atomic EWMA state.
#[derive(Debug, Default)]
pub struct HandlerRegistry {
    specs: Vec<HandlerSpec>,
    /// Packed EWMA state per handler: value in the low 63 bits, seeded
    /// flag in the top bit. Updated lock-free from workers.
    measured: Vec<AtomicU64>,
}

const SEEDED_BIT: u64 = 1 << 63;

impl HandlerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler and returns its id.
    pub fn register(&mut self, spec: HandlerSpec) -> HandlerId {
        let id = HandlerId(self.specs.len() as u32);
        self.specs.push(spec);
        self.measured.push(AtomicU64::new(0));
        id
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no handler has been registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this registry.
    pub fn spec(&self, id: HandlerId) -> &HandlerSpec {
        &self.specs[id.index()]
    }

    /// The current cost estimate for `id` in cycles: the annotation, or
    /// the measured EWMA once at least one sample exists (for
    /// [`CostSource::Measured`] handlers).
    pub fn estimate(&self, id: HandlerId) -> u64 {
        let spec = &self.specs[id.index()];
        match spec.cost_source {
            CostSource::Annotated => spec.avg_cost,
            CostSource::Measured => {
                let packed = self.measured[id.index()].load(Ordering::Relaxed);
                if packed & SEEDED_BIT != 0 {
                    packed & !SEEDED_BIT
                } else {
                    spec.avg_cost
                }
            }
        }
    }

    /// The workstealing penalty of `id`.
    pub fn penalty(&self, id: HandlerId) -> u32 {
        self.specs[id.index()].ws_penalty
    }

    /// Gives a freshly registered event what it left to its handler: the
    /// cost estimate (declared cost 0) and the stealing penalty (declared
    /// penalty 1).
    pub(crate) fn fill_defaults(&self, ev: &mut Event) {
        if let Some(h) = ev.handler {
            if ev.cost == 0 {
                ev.cost = self.estimate(h);
            }
            if ev.penalty == 1 {
                ev.penalty = self.penalty(h);
            }
        }
    }

    /// Records one observed execution time for `id`. Only affects
    /// estimates of [`CostSource::Measured`] handlers, but is always
    /// cheap to call.
    pub fn record(&self, id: HandlerId, cycles: u64) {
        let cell = &self.measured[id.index()];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            // Same arithmetic as `Ewma::record`, on the packed state.
            let next_val = if cur & SEEDED_BIT != 0 {
                let v = cur & !SEEDED_BIT;
                v - v / 8 + cycles / 8
            } else {
                cycles
            };
            let packed = (next_val & !SEEDED_BIT) | SEEDED_BIT;
            match cell.compare_exchange_weak(cur, packed, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }

    /// Iterates over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (HandlerId, &HandlerSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (HandlerId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = HandlerRegistry::new();
        let a = r.register(HandlerSpec::new("a").cost(100));
        let b = r.register(HandlerSpec::new("b").cost(5_000).penalty(1_000));
        assert_eq!(r.len(), 2);
        assert_eq!(r.spec(a).name, "a");
        assert_eq!(r.estimate(a), 100);
        assert_eq!(r.estimate(b), 5_000);
        assert_eq!(r.penalty(b), 1_000);
        assert_eq!(r.penalty(a), 1);
    }

    #[test]
    fn penalty_clamped_to_one() {
        let s = HandlerSpec::new("x").penalty(0);
        assert_eq!(s.ws_penalty, 1);
    }

    #[test]
    fn annotated_handlers_ignore_measurements() {
        let mut r = HandlerRegistry::new();
        let a = r.register(HandlerSpec::new("a").cost(100));
        r.record(a, 9_999);
        assert_eq!(r.estimate(a), 100);
    }

    #[test]
    fn measured_handlers_track_samples() {
        let mut r = HandlerRegistry::new();
        let a = r.register(HandlerSpec::new("a").cost(100).measured());
        // Before any sample: fall back to the annotation.
        assert_eq!(r.estimate(a), 100);
        r.record(a, 1_000);
        assert_eq!(r.estimate(a), 1_000);
        for _ in 0..100 {
            r.record(a, 3_000);
        }
        assert!(r.estimate(a) > 2_500, "got {}", r.estimate(a));
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let mut r = HandlerRegistry::new();
        r.register(HandlerSpec::new("a"));
        r.register(HandlerSpec::new("b"));
        let names: Vec<_> = r.iter().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
