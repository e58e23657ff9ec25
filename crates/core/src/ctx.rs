//! The execution context handed to event handlers.
//!
//! A handler receives a `&mut Ctx` and uses it to register follow-up
//! events (immediately or after a virtual delay), to account CPU work
//! ([`Ctx::charge`]) and memory accesses ([`Ctx::touch`] /
//! [`Ctx::touch_range`]), and to stop the runtime. Effects are buffered
//! and applied by the executor after the handler returns, mirroring how
//! the paper's runtime dispatches events produced during handler
//! execution.

use crate::dataset::DataSetRef;
use crate::event::Event;

/// A memory touch requested by a handler (region + byte range).
#[derive(Debug, Clone)]
pub(crate) struct Touch {
    pub ds: DataSetRef,
    pub offset: u64,
    pub len: u64,
}

/// Buffered effects of one handler execution.
#[derive(Default)]
pub(crate) struct CtxEffects {
    pub registrations: Vec<Event>,
    pub delayed: Vec<(u64, Event)>, // (delay_cycles, event)
    pub charged: u64,
    pub touches: Vec<Touch>,
    pub stop: bool,
    /// Latency samples of requests completed by this handler execution
    /// ([`Ctx::complete_request`]); each feeds the per-request latency
    /// histogram of the executing core. Inline first slot: a handler
    /// completing one request (the overwhelmingly common case) must not
    /// pay a heap allocation on the dispatch path.
    pub completed_first: Option<u64>,
    pub completed_rest: Vec<u64>,
    /// Requests this handler execution declared failed
    /// ([`Ctx::fail_request`]): carried to completion as errors, not
    /// shed — they feed `failed_requests`, never the latency histogram.
    pub failed: u64,
}

impl CtxEffects {
    /// Iterates the recorded completion latencies.
    pub(crate) fn completions(&self) -> impl Iterator<Item = u64> + '_ {
        self.completed_first
            .into_iter()
            .chain(self.completed_rest.iter().copied())
    }
}

/// Execution context passed to event handlers.
pub struct Ctx<'a> {
    core: usize,
    now: u64,
    effects: &'a mut CtxEffects,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(core: usize, now: u64, effects: &'a mut CtxEffects) -> Self {
        Ctx { core, now, effects }
    }

    /// The core executing this handler.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Current time in cycles: virtual time under the simulation
    /// executor, the calibrated cycle counter under the threaded one.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Registers a follow-up event. It is routed to the core currently
    /// owning its color (initially `color.home_core(n)`, possibly moved by
    /// steals) once this handler returns.
    pub fn register(&mut self, event: Event) {
        self.effects.registrations.push(event);
    }

    /// Registers an event that becomes runnable only `delay` cycles from
    /// now — used to model timers and external latencies (e.g. network
    /// round-trips) in simulation, and implemented with the cycle clock in
    /// the threaded executor.
    pub fn register_after(&mut self, delay: u64, event: Event) {
        self.effects.delayed.push((delay, event));
    }

    /// Accounts `cycles` of CPU work to this handler execution, *in
    /// addition to* the event's declared cost. The simulation executor
    /// advances the core's virtual clock; the threaded executor accounts
    /// it and never waits it out (like [`Ctx::touch`]).
    pub fn charge(&mut self, cycles: u64) {
        self.effects.charged += cycles;
    }

    /// Touches an entire data set (line-granular sweep through the cache
    /// simulator under simulation; accounted but not materialised under
    /// the threaded executor).
    pub fn touch(&mut self, ds: &DataSetRef) {
        self.touch_range(ds, 0, ds.len());
    }

    /// Touches `len` bytes of `ds` starting at `offset`. Ranges reaching
    /// past the end of the region are clipped.
    pub fn touch_range(&mut self, ds: &DataSetRef, offset: u64, len: u64) {
        let offset = offset.min(ds.len());
        let len = len.min(ds.len() - offset);
        if len == 0 {
            return;
        }
        self.effects.touches.push(Touch {
            ds: ds.clone(),
            offset,
            len,
        });
    }

    /// Asks the runtime to stop once this handler returns: remaining
    /// queued events are not executed. Used by workloads with a fixed
    /// duration.
    pub fn stop_runtime(&mut self) {
        self.effects.stop = true;
    }

    /// Records the completion of one end-to-end request with the given
    /// latency in cycles: the sample lands in the executing core's
    /// per-request latency histogram and its `completed_requests`
    /// counter, surfaced as
    /// [`RunReport::latency_p50`](crate::metrics::RunReport::latency_p50) /
    /// [`RunReport::latency_p99`](crate::metrics::RunReport::latency_p99) /
    /// [`RunReport::completed_requests`](crate::metrics::RunReport::completed_requests).
    ///
    /// This is the low-level hook; the typed stage layer calls it from
    /// `StageCtx::complete` with the time elapsed since the request's
    /// start stamp (the spawning handler's clock for spawned requests,
    /// the first dispatch for seeded/submitted ones — see
    /// `mely_core::stage`'s request-latency semantics). Raw-event
    /// applications measuring their own request boundaries can call it
    /// directly.
    pub fn complete_request(&mut self, latency_cycles: u64) {
        if self.effects.completed_first.is_none() {
            self.effects.completed_first = Some(latency_cycles);
        } else {
            self.effects.completed_rest.push(latency_cycles);
        }
    }

    /// Records the failure of one end-to-end request: the executing
    /// core's `failed_requests` counter grows, surfaced as
    /// [`CoreMetrics::failed_requests`](crate::metrics::CoreMetrics::failed_requests)
    /// and part of
    /// [`RunReport::offered_requests`](crate::metrics::RunReport::offered_requests).
    /// A failed request records no latency sample — the pair of this
    /// hook is [`Ctx::complete_request`], and each carried request
    /// should end in exactly one of the two. The canonical caller is a
    /// server whose client died mid-request (peer reset, EOF with a
    /// partial request buffered): the request was genuinely carried and
    /// genuinely failed, matching the fault model's accounting for
    /// requests lost to quarantined colors.
    pub fn fail_request(&mut self) {
        self.effects.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::dataset::DataSet;
    use std::sync::Arc;

    #[test]
    fn effects_are_buffered() {
        let mut fx = CtxEffects::default();
        let ds: DataSetRef = Arc::new(DataSet::new(0, 0, 128));
        {
            let mut ctx = Ctx::new(2, 42, &mut fx);
            assert_eq!(ctx.core(), 2);
            assert_eq!(ctx.now(), 42);
            ctx.register(Event::new(Color::new(1), 10));
            ctx.register_after(1_000, Event::new(Color::new(2), 20));
            ctx.charge(300);
            ctx.charge(200);
            ctx.touch(&ds);
            ctx.touch_range(&ds, 64, 32);
            ctx.complete_request(777);
            ctx.fail_request();
            ctx.stop_runtime();
        }
        assert_eq!(fx.registrations.len(), 1);
        assert_eq!(fx.delayed.len(), 1);
        assert_eq!(fx.delayed[0].0, 1_000);
        assert_eq!(fx.charged, 500);
        assert_eq!(fx.touches.len(), 2);
        assert_eq!(fx.touches[0].len, 128);
        assert_eq!(fx.touches[1].offset, 64);
        assert_eq!(fx.completions().collect::<Vec<_>>(), vec![777]);
        assert_eq!(fx.failed, 1);
        assert!(fx.stop);
    }

    #[test]
    fn touch_range_clips_to_region() {
        let mut fx = CtxEffects::default();
        let ds: DataSetRef = Arc::new(DataSet::new(0, 0, 100));
        {
            let mut ctx = Ctx::new(0, 0, &mut fx);
            ctx.touch_range(&ds, 90, 50); // clipped to 10
            ctx.touch_range(&ds, 200, 10); // fully out of range: dropped
            ctx.touch_range(&ds, 0, 0); // empty: dropped
        }
        assert_eq!(fx.touches.len(), 1);
        assert_eq!(fx.touches[0].offset, 90);
        assert_eq!(fx.touches[0].len, 10);
    }
}
