//! # mely-core — the Mely runtime and the Libasync-smp baseline
//!
//! This crate reproduces the system of *"Efficient Workstealing for
//! Multicore Event-Driven Systems"* (Gaud, Genevès, Lachaize, Lepers,
//! Mottet, Muller, Quéma — ICDCS 2010): an event-driven, event-coloring
//! runtime for multicore machines, in two flavors:
//!
//! - [`Flavor::Libasync`] — the Libasync-smp baseline (Section II): one
//!   FIFO event queue and one thread per core, colors dispatched by
//!   hashing, and the naïve workstealing algorithm of Figure 2.
//! - [`Flavor::Mely`] — the Mely runtime (Section IV): events grouped in
//!   per-color *color-queues* chained into a per-core *core-queue*, a
//!   three-bucket *stealing-queue* of worthy colors, O(1) color steals, and
//!   the three workstealing heuristics of Section III (locality-aware,
//!   time-left, penalty-aware), individually toggleable via [`WsPolicy`].
//!
//! Two executors run the same scheduler code, chosen by [`ExecKind`]:
//!
//! - [`ExecKind::Sim`] — a deterministic discrete-event simulation of an
//!   N-core machine (virtual cycle clocks, a spinlock contention model, the
//!   paper's measured cost constants, and an optional cache simulator).
//!   Every experiment of the paper's evaluation is reproduced on this
//!   executor.
//! - [`ExecKind::Threaded`] — a real executor with one OS thread
//!   per core and spinlock-protected queues, demonstrating that the
//!   library is an actual runtime and providing the substrate for
//!   integration tests (and for real speedups on a multicore host).
//!
//! One kernel, two drivers: a core's turn — pop and dispatch its next
//! event (admission release, quarantine gate, fault draws, contained
//! handler run, quarantine, completion metrics, buffered effects), or
//! else one steal attempt whose catch runs at once — is written once in
//! the private `kernel` module, generic over a per-core environment
//! (the clock and how cost is paid, how a queue is reached, where timers
//! and routed events go). The drivers keep what is theirs: the
//! simulator's core pick, virtual clock and timers; the threaded
//! workers' timers, inbox drains and real waiting. The door into the
//! cores, with the injection inboxes, is one for both.
//!
//! Both executors sit behind one executor-agnostic API ([`exec`]):
//! applications are written once against the [`exec::Executor`] and
//! [`exec::Service`] traits, and [`runtime::RuntimeBuilder::build`]
//! resolves the configuration once and hands back either executor as
//! the one public executor type, [`Runtime`]. The executors themselves
//! are private; of [`threaded`] only the injection inbox is public.
//!
//! # Quickstart
//!
//! ```
//! use mely_core::prelude::*;
//!
//! let mut rt = RuntimeBuilder::new()
//!     .cores(8)
//!     .flavor(Flavor::Mely)
//!     .workstealing(WsPolicy::improved())
//!     .build(ExecKind::Sim); // or ExecKind::Threaded: same API
//!
//! // 100 independent events of 1000 cycles each, all initially placed on
//! // core 0 (an unbalanced load that workstealing spreads out).
//! for i in 0..100u16 {
//!     rt.register_pinned(Event::new(Color::new(i + 1), 10_000), 0);
//! }
//! let report = rt.run();
//! assert_eq!(report.events_processed(), 100);
//! assert!(report.total().steals > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod admission;
pub mod color;
pub mod cost;
pub mod ctx;
pub mod cycles;
pub mod dataset;
pub mod event;
pub mod exec;
pub mod fault;
pub mod fuzz;
pub mod handler;
mod kernel;
pub mod metrics;
pub mod queue;
pub mod runtime;
mod sim;
pub mod stage;
pub mod steal;
pub mod sync;
pub mod threaded;

/// Convenient re-exports of the types needed by typical users.
pub mod prelude {
    pub use crate::admission::{Overload, OverloadReason, QueueLimits};
    pub use crate::color::{Color, ColorRange, ColorSpace};
    pub use crate::cost::CostParams;
    pub use crate::ctx::Ctx;
    pub use crate::dataset::DataSetRef;
    pub use crate::event::Event;
    pub use crate::exec::{ExecKind, Executor, Injector, KeepAlive, Runtime, Service};
    pub use crate::fault::{Fault, FaultKind};
    pub use crate::fuzz::{FaultPlan, ScheduleRng};
    pub use crate::handler::{HandlerId, HandlerSpec};
    pub use crate::metrics::{CoreMetrics, LatencyHistogram, RunFingerprint, RunReport};
    pub use crate::runtime::{Flavor, RuntimeBuilder};
    pub use crate::stage::{
        Collected, Pipeline, PipelineBuilder, Stage, StageCtx, StageSender, StageSpec,
    };
    pub use crate::steal::{StealDomains, StealPolicy, StealTier, WsPolicy};
    pub use mely_topology::MachineModel;
}

pub use color::Color;
pub use event::Event;
pub use exec::{ExecKind, Executor, Injector, Runtime, Service};
pub use runtime::{Flavor, RuntimeBuilder};
pub use steal::WsPolicy;
