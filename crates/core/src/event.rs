//! Events: the unit of work of the runtime.
//!
//! An event is "a data structure containing a pointer to a handler
//! function, and a continuation" (paper Section II-A). Here the
//! continuation is a boxed `FnOnce` closure (the [`Action`]); the
//! scheduling-relevant metadata — color, processing-cost estimate,
//! workstealing penalty — lives alongside it so the
//! queues and the workstealing heuristics can reason about the event
//! without running it.

use std::fmt;

use crate::color::Color;
use crate::ctx::Ctx;
use crate::handler::HandlerId;

/// The continuation executed when an event is dispatched.
pub type Action = Box<dyn FnOnce(&mut Ctx<'_>) + Send + 'static>;

/// A colored event.
///
/// # Examples
///
/// ```
/// use mely_core::prelude::*;
///
/// // A pure-cost event (microbenchmark style): 100 cycles, its own color.
/// let short = Event::new(Color::new(7), 100).named("short");
/// assert_eq!(short.cost(), 100);
///
/// // An event with behaviour: registers a follow-up when executed.
/// let chained = Event::new(Color::new(8), 1_000).with_action(|ctx| {
///     ctx.register(Event::new(Color::new(8), 500).named("child"));
/// });
/// assert_eq!(chained.color(), Color::new(8));
/// ```
pub struct Event {
    pub(crate) color: Color,
    pub(crate) handler: Option<HandlerId>,
    pub(crate) cost: u64,
    pub(crate) penalty: u32,
    pub(crate) action: Option<Action>,
    pub(crate) name: &'static str,
    /// Registration sequence number, assigned by the runtime. Used for
    /// per-color FIFO assertions and as the simulated address of the
    /// event's continuation.
    pub(crate) seq: u64,
    /// Simulation only: the virtual time from which the event may run.
    /// The simulator's run loop idles a core up to it; the kernel, the
    /// queues and the threaded executor never read it.
    pub(crate) visible_at: u64,
    /// Whether admission control claimed a per-color in-flight slot for
    /// this event; the executor releases the slot when it executes.
    pub(crate) color_counted: bool,
    /// Whether this event carries a live request of the typed stage
    /// layer (stage chains are linear, so exactly one queued/in-flight
    /// event holds each open request). Losing such an event — fault,
    /// quarantine drain, injected drop — fails exactly one request,
    /// which is how `failed_requests` stays exact.
    pub(crate) carries_request: bool,
}

impl Event {
    /// Creates an event with an explicit processing-cost estimate in
    /// cycles (the simulator's input and the steal heuristics' hint;
    /// real threads never wait it out) and the default penalty of 1.
    pub fn new(color: Color, cost: u64) -> Self {
        Event {
            color,
            handler: None,
            cost,
            penalty: 1,
            action: None,
            name: "",
            seq: 0,
            visible_at: 0,
            color_counted: false,
            carries_request: false,
        }
    }

    /// Creates an event bound to a registered handler; at registration the
    /// runtime fills the cost estimate and penalty from the handler's spec
    /// (unless explicitly overridden here).
    pub fn for_handler(color: Color, handler: HandlerId) -> Self {
        let mut e = Event::new(color, 0);
        e.handler = Some(handler);
        e
    }

    /// Attaches a debug name (shown by `Debug`).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Overrides the workstealing penalty (values below 1 clamp to 1).
    pub fn with_penalty(mut self, penalty: u32) -> Self {
        self.penalty = penalty.max(1);
        self
    }

    /// Overrides the processing-cost estimate in cycles.
    pub fn with_cost(mut self, cycles: u64) -> Self {
        self.cost = cycles;
        self
    }

    /// Attaches the continuation to run when the event is dispatched.
    pub fn with_action(mut self, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) -> Self {
        self.action = Some(Box::new(f));
        self
    }

    /// The event's color.
    pub fn color(&self) -> Color {
        self.color
    }

    /// The handler this event is bound to, if any.
    pub fn handler(&self) -> Option<HandlerId> {
        self.handler
    }

    /// Estimated processing cost in cycles.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Workstealing penalty (≥ 1).
    pub fn penalty(&self) -> u32 {
        self.penalty
    }

    /// Debug name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Registration sequence number (0 before registration).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The event's contribution to its color-queue's cumulative *weighted*
    /// processing time: `cost / penalty` (at least 1 when the cost is
    /// nonzero), per Section IV-B of the paper.
    pub fn weighted_cost(&self) -> u64 {
        // The default penalty of 1 is by far the common case and the
        // queues evaluate this on every push and pop; skip the u64
        // division for it (identical result: cost/1 is cost, and the
        // max(1) clamp only matters for penalties above the cost).
        if self.penalty <= 1 {
            return self.cost;
        }
        if self.cost == 0 {
            0
        } else {
            (self.cost / self.penalty as u64).max(1)
        }
    }

    pub(crate) fn take_action(&mut self) -> Option<Action> {
        self.action.take()
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("name", &self.name)
            .field("color", &self.color)
            .field("cost", &self.cost)
            .field("penalty", &self.penalty)
            .field("handler", &self.handler)
            .field("seq", &self.seq)
            .field("has_action", &self.action.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let e = Event::new(Color::new(3), 500).named("x").with_penalty(10);
        assert_eq!(e.color(), Color::new(3));
        assert_eq!(e.cost(), 500);
        assert_eq!(e.penalty(), 10);
        assert_eq!(e.name(), "x");
        assert!(e.handler().is_none());
        assert!(e.action.is_none());
    }

    #[test]
    fn weighted_cost_divides_by_penalty() {
        assert_eq!(Event::new(Color::DEFAULT, 1_000).weighted_cost(), 1_000);
        assert_eq!(
            Event::new(Color::DEFAULT, 1_000)
                .with_penalty(10)
                .weighted_cost(),
            100
        );
        // Clamped to at least 1 for nonzero costs.
        assert_eq!(
            Event::new(Color::DEFAULT, 5)
                .with_penalty(1_000)
                .weighted_cost(),
            1
        );
        assert_eq!(Event::new(Color::DEFAULT, 0).weighted_cost(), 0);
    }

    #[test]
    fn penalty_clamps_to_one() {
        assert_eq!(Event::new(Color::DEFAULT, 1).with_penalty(0).penalty(), 1);
    }

    #[test]
    fn debug_is_informative() {
        let e = Event::new(Color::new(1), 2).named("dbg");
        let s = format!("{e:?}");
        assert!(s.contains("dbg"));
        assert!(s.contains("color"));
    }
}
