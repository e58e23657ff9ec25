//! The typed stage-graph application API.
//!
//! The paper's programming model is "events = handler pointer +
//! continuation" with colors for mutual exclusion. The raw [`Event`]
//! API exposes that model directly — and remains public as the
//! low-level layer — but applications written against it hand-allocate
//! `u16` colors, wire `HandlerId`s manually, and smuggle payloads
//! through boxed `FnOnce` captures at every chain step. This module is
//! the typed layer on top:
//!
//! - a [`Stage`] is a node of the application's processing graph with
//!   an associated message type ([`Stage::In`]); its [`StageSpec`]
//!   carries the handler annotation (name, cost, penalty,
//!   [`CostSource`](crate::handler::CostSource)) *and* the stage's
//!   coloring discipline (serial, inherited, keyed, or shared with
//!   another stage);
//! - a [`PipelineBuilder`] assembles stages into an installable
//!   [`Pipeline`] (a [`Service`]), registering every handler spec
//!   automatically and taking serial colors from the pipeline's
//!   [`ColorSpace`] — no hand-picked `u16`s;
//! - inside a handler, [`StageCtx::to`] emits a typed message to the
//!   next stage (the event's cost and penalty come from that stage's
//!   spec; the color follows the target's coloring), and
//!   [`StageCtx::complete`] finishes a request — stamping its
//!   end-to-end latency into the per-request histogram surfaced as
//!   [`RunReport::latency_p50`](crate::metrics::RunReport::latency_p50) /
//!   [`RunReport::latency_p99`](crate::metrics::RunReport::latency_p99) /
//!   [`RunReport::completed_requests`](crate::metrics::RunReport::completed_requests).
//!
//! A pipeline never names a concrete executor, so the same stage graph
//! runs unmodified on the simulator and on threads, like every other
//! [`Service`].
//!
//! # Request latency semantics
//!
//! Every request carries one start stamp:
//!
//! - [`StageCtx::spawn`] stamps the **spawning handler's clock**, so
//!   the request's latency includes the queueing delay before its
//!   first stage executes (a poll loop spawning per-readiness requests
//!   makes downstream queueing collapse visible);
//! - seeds ([`PipelineBuilder::seed`]) and external submissions
//!   ([`StageSender::submit`]) are stamped when their first handler
//!   begins executing — there is no executor clock to read outside a
//!   handler, so cross-thread submission latency starts at first
//!   dispatch.
//!
//! [`StageCtx::to`] forwards the running request to the next stage;
//! [`StageCtx::complete`] closes it, recording `now - start` (virtual
//! cycles under simulation — deterministic — and calibrated
//! cycle-counter cycles under threads). A request that is never
//! completed (e.g. a poll loop's self-message) records nothing.
//!
//! # Examples
//!
//! ```
//! use mely_core::prelude::*;
//!
//! struct Double(u64);
//! struct Emit;
//! struct Sum;
//!
//! impl Stage for Emit {
//!     type In = u64;
//!     fn spec(&self) -> StageSpec<u64> {
//!         StageSpec::new("Emit").cost(500).keyed(|&v| v)
//!     }
//!     fn handle(&self, ctx: &mut StageCtx<'_, '_>, v: u64) {
//!         ctx.to::<Sum>(Double(v * 2));
//!     }
//! }
//!
//! impl Stage for Sum {
//!     type In = Double;
//!     fn spec(&self) -> StageSpec<Double> {
//!         StageSpec::new("Sum").cost(200)
//!     }
//!     fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Double) {
//!         ctx.complete(msg.0);
//!     }
//! }
//!
//! for kind in [ExecKind::Sim, ExecKind::Threaded] {
//!     let mut builder = PipelineBuilder::new("doubler").stage(Emit).stage(Sum);
//!     let outputs = builder.collect::<u64>();
//!     let mut rt = RuntimeBuilder::new().cores(2).build(kind);
//!     rt.install(builder.seed::<Emit>(3).seed::<Emit>(4).build());
//!     let report = rt.run();
//!     assert_eq!(report.events_processed(), 4);
//!     assert_eq!(report.completed_requests(), 2);
//!     assert!(report.latency_p50() <= report.latency_p99());
//!     let mut got = outputs.take();
//!     got.sort_unstable();
//!     assert_eq!(got, vec![6, 8]);
//! }
//! ```

use std::any::{Any, TypeId};
use std::fmt;
use std::sync::Arc;

use fxhash::FxHashMap;
use parking_lot::Mutex;

use crate::color::{Color, ColorSpace, KeyedPlane};
use crate::ctx::Ctx;
use crate::event::Event;
use crate::exec::{Executor, Injector, Service};
use crate::handler::{HandlerId, HandlerSpec};

/// A typed node of the application's stage graph.
///
/// The stage *instance* holds the stage's state (shared state goes in
/// `Arc`s, exactly as with raw event closures); [`Stage::handle`] is
/// invoked with a `&self` borrow, so per-request mutation uses interior
/// mutability — the color discipline, not the borrow checker, is what
/// serializes same-color executions.
pub trait Stage: Send + Sync + Sized + 'static {
    /// The message type this stage consumes.
    type In: Send + 'static;

    /// The stage's description: handler annotation (name, cost,
    /// penalty, cost source) plus coloring discipline. Registered
    /// automatically by [`PipelineBuilder::stage`]; takes `&self` so
    /// costs can derive from the instance's configuration (e.g. a
    /// chunk-size-dependent crypto cost).
    fn spec(&self) -> StageSpec<Self::In>;

    /// Processes one message. Emit follow-ups with [`StageCtx::to`] /
    /// [`StageCtx::spawn`], finish the request with
    /// [`StageCtx::complete`].
    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Self::In);
}

/// How a stage's events are colored.
#[derive(Clone, Copy)]
enum Coloring<M> {
    /// One color for the whole stage, taken from the pipeline's
    /// [`ColorSpace`]: every message to this stage serializes.
    Serial,
    /// Same color as the emitting event.
    Inherit,
    /// Hashed per message into the pipeline's [`ColorSpace`] class of
    /// the keyed plane ([`ColorSpace::keyed`]; disjoint from the
    /// serial plane): messages with equal keys serialize,
    /// different keys parallelize (up to hash collisions, which also
    /// only serialize).
    Keyed(fn(&M) -> u64),
    /// The serial color of another stage (e.g. the paper's
    /// `RegisterFdInEpoll` colored like `Epoll`).
    SameAs(TypeId, &'static str),
}

/// Static description of a [`Stage`]: the handler annotation the
/// runtime schedules by, plus the coloring discipline.
///
/// # Examples
///
/// ```
/// use mely_core::stage::StageSpec;
///
/// struct Msg {
///     conn: u64,
/// }
/// // A per-connection handler: 22 Kcycles, mild steal penalty, colored
/// // by connection id.
/// let spec: StageSpec<Msg> = StageSpec::new("ReadRequest")
///     .cost(22_000)
///     .penalty(4)
///     .keyed(|m| m.conn);
/// assert_eq!(spec.handler().avg_cost, 22_000);
/// ```
pub struct StageSpec<M> {
    handler: HandlerSpec,
    coloring: Coloring<M>,
}

impl<M> StageSpec<M> {
    /// A serial stage named `name` with cost 0, penalty 1 and annotated
    /// costs — serial is the default because it is always safe; opt
    /// into parallelism with [`StageSpec::keyed`] or
    /// [`StageSpec::inherit_color`].
    pub fn new(name: impl Into<String>) -> Self {
        StageSpec {
            handler: HandlerSpec::new(name),
            coloring: Coloring::Serial,
        }
    }

    /// Sets the annotated average cost in cycles: simulator input, steal hint.
    pub fn cost(mut self, cycles: u64) -> Self {
        self.handler = self.handler.cost(cycles);
        self
    }

    /// Sets the workstealing penalty (values below 1 clamp to 1).
    pub fn penalty(mut self, penalty: u32) -> Self {
        self.handler = self.handler.penalty(penalty);
        self
    }

    /// Switches the handler to measured (EWMA) cost estimation.
    pub fn measured(mut self) -> Self {
        self.handler = self.handler.measured();
        self
    }

    /// Events to this stage keep the color of the emitting event.
    pub fn inherit_color(mut self) -> Self {
        self.coloring = Coloring::Inherit;
        self
    }

    /// Events to this stage are colored by hashing `key(&msg)` into
    /// the pipeline's [`ColorSpace`] class of
    /// [`ColorRange::STAGE_KEYED`](crate::color::ColorRange::STAGE_KEYED)
    /// ([`ColorSpace::keyed`]) — the keyed plane, disjoint from the
    /// serial plane: equal keys serialize, distinct keys parallelize,
    /// and a keyed color can never land on another stage's serial
    /// color.
    pub fn keyed(mut self, key: fn(&M) -> u64) -> Self {
        self.coloring = Coloring::Keyed(key);
        self
    }

    /// Events to this stage use stage `S`'s serial color (`S` must be a
    /// serial stage registered earlier in the same pipeline) — the
    /// paper's "colored like Epoll in order to manage concurrency"
    /// idiom.
    pub fn share_color_with<S: Stage>(mut self) -> Self {
        self.coloring = Coloring::SameAs(TypeId::of::<S>(), std::any::type_name::<S>());
        self
    }

    /// The handler annotation this spec registers.
    pub fn handler(&self) -> &HandlerSpec {
        &self.handler
    }
}

impl<M> fmt::Debug for StageSpec<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageSpec")
            .field("handler", &self.handler)
            .field(
                "coloring",
                &match self.coloring {
                    Coloring::Serial => "serial",
                    Coloring::Inherit => "inherit",
                    Coloring::Keyed(_) => "keyed",
                    Coloring::SameAs(_, name) => name,
                },
            )
            .finish()
    }
}

/// The per-request token threaded through a stage chain: the cycle
/// stamp of the request's first dispatch (`UNSET` until then).
#[derive(Clone, Copy)]
struct ReqToken {
    t0: u64,
}

impl ReqToken {
    const UNSET: u64 = u64::MAX;

    fn fresh() -> Self {
        ReqToken { t0: Self::UNSET }
    }

    fn stamped(self, now: u64) -> Self {
        if self.t0 == Self::UNSET {
            ReqToken { t0: now }
        } else {
            self
        }
    }
}

/// The typed per-stage data behind an [`Entry`]: the stage instance and
/// its coloring, recovered by a `TypeId`-checked downcast at emit time.
struct Meta<S: Stage> {
    stage: S,
    coloring: Coloring<S::In>,
}

/// One stage's routing entry.
struct Entry {
    handler: HandlerId,
    /// Resolved serial color (`Serial` and `SameAs` stages).
    color: Option<Color>,
    /// `Arc<Meta<S>>`, keyed by `TypeId::of::<S>()`.
    meta: Arc<dyn Any + Send + Sync>,
    type_name: &'static str,
}

/// The installed pipeline's dispatch table, shared by every in-flight
/// event closure.
///
/// Entries are a linear-scanned `Vec`: pipelines have a handful of
/// stages, and comparing a few `TypeId`s beats hashing one on the
/// per-event emit path (the benchmark's `core.stage.typed_over_raw`
/// holds this path at ≤10 % over raw closure chains).
struct Router {
    /// Stage `TypeId`s, scanned densely (16-byte stride) ...
    ids: Vec<TypeId>,
    /// ... indexing into the parallel entry table.
    entries: Vec<Entry>,
    /// `TypeId::of::<O>() -> Arc<Mutex<Vec<O>>>` completion sinks.
    sinks: FxHashMap<TypeId, Arc<dyn Any + Send + Sync>>,
    /// Where `Keyed` stages' messages hash to: the builder's
    /// [`ColorSpace`] class of the keyed plane.
    keyed: KeyedPlane,
}

impl Router {
    #[inline]
    fn entry<N: Stage>(&self) -> &Entry {
        let t = TypeId::of::<N>();
        self.ids
            .iter()
            .position(|id| *id == t)
            .map(|i| &self.entries[i])
            .unwrap_or_else(|| {
                panic!(
                    "stage `{}` is not registered in this pipeline",
                    std::any::type_name::<N>()
                )
            })
    }

    /// The typed per-stage data of `N`'s entry. Borrow-based: the emit
    /// and execute paths never clone the meta `Arc` (refcount traffic
    /// is measurable at per-event rates).
    #[inline]
    fn meta<'r, N: Stage>(&self, entry: &'r Entry) -> &'r Meta<N> {
        debug_assert!(
            (*entry.meta).is::<Meta<N>>(),
            "entry/meta type pairing broken for `{}`",
            entry.type_name
        );
        // SAFETY: entries are created exclusively by
        // `PipelineBuilder::stage`, which stores `Arc<Meta<S>>` under
        // `TypeId::of::<S>()`; every caller obtained `entry` by looking
        // up `TypeId::of::<N>()`, so the stored value is `Meta<N>`.
        // The checked `downcast_ref` would re-derive the same fact
        // through a virtual `type_id` call on every emitted event.
        unsafe { &*(Arc::as_ptr(&entry.meta) as *const Meta<N>) }
    }
}

/// Builds the typed event delivering `msg` to stage `N`.
///
/// `explicit` overrides the color outright; otherwise the target
/// stage's coloring decides, with `inherited` feeding `Inherit` stages.
#[inline]
fn emit<N: Stage>(
    router: &'static Router,
    inherited: Option<Color>,
    req: ReqToken,
    msg: N::In,
) -> Event {
    let entry = router.entry::<N>();
    let meta = router.meta::<N>(entry);
    let color = match meta.coloring {
        Coloring::Serial | Coloring::SameAs(..) => {
            entry.color.expect("serial color resolved at build")
        }
        Coloring::Inherit => inherited.unwrap_or_else(|| {
            panic!(
                "stage `{}` inherits its color: it takes messages only from \
                 another stage's handler, never a seed or a submission",
                entry.type_name
            )
        }),
        Coloring::Keyed(key) => router.keyed.color(key(&msg)),
    };
    let handler = entry.handler;
    let mut ev = Event::for_handler(color, handler).with_action(move |ctx| {
        // `meta` and `router` are `Copy` `&'static` references into the
        // interned routing table: constructing this closure moves no
        // `Arc`, touches no refcount, and execution needs no second
        // lookup — the typed hop is one static call away from the raw
        // boxed closure it replaces (gated by `core.stage.typed_over_raw`).
        let req = req.stamped(ctx.now());
        let mut sctx = StageCtx {
            ctx,
            router,
            req,
            color,
        };
        meta.stage.handle(&mut sctx, msg);
    });
    // Stage chains are linear per branch: this event is the one place
    // the (possibly not-yet-stamped) request lives until the next hop
    // or `complete`. Losing it — handler fault, quarantine drain,
    // injected drop — fails exactly one request.
    ev.carries_request = true;
    ev
}

/// The execution context handed to [`Stage::handle`]: the raw [`Ctx`]
/// plus typed routing and the request token.
pub struct StageCtx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    router: &'static Router,
    req: ReqToken,
    color: Color,
}

impl<'a, 'b> StageCtx<'a, 'b> {
    /// The core executing this handler.
    pub fn core(&self) -> usize {
        self.ctx.core()
    }

    /// Current time in cycles (virtual under simulation, cycle counter
    /// under threads).
    pub fn now(&self) -> u64 {
        self.ctx.now()
    }

    /// The color this stage execution is serialized under.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Cycles elapsed since this request's first stage was dispatched.
    pub fn elapsed(&self) -> u64 {
        self.now().saturating_sub(self.req.t0.min(self.now()))
    }

    /// Accounts extra CPU work to this handler execution (see
    /// [`Ctx::charge`]).
    pub fn charge(&mut self, cycles: u64) {
        self.ctx.charge(cycles);
    }

    /// Emits `msg` to stage `N`, forwarding the current request: the
    /// event's cost and penalty come from `N`'s spec, its color from
    /// `N`'s coloring (an `Inherit` target keeps this event's color).
    #[inline]
    pub fn to<N: Stage>(&mut self, msg: N::In) {
        let ev = emit::<N>(self.router, Some(self.color), self.req, msg);
        self.ctx.register(ev);
    }

    /// Emits `msg` to stage `N` after `delay` cycles, forwarding the
    /// current request — the typed form of [`Ctx::register_after`]
    /// (poll-loop re-arms, timeouts).
    #[inline]
    pub fn to_after<N: Stage>(&mut self, delay: u64, msg: N::In) {
        let ev = emit::<N>(self.router, Some(self.color), self.req, msg);
        self.ctx.register_after(delay, ev);
    }

    /// Emits `msg` to stage `N` as the first stage of a *new* request,
    /// stamped with **this handler's clock**: the new request's latency
    /// covers everything from the spawning handler onward — including
    /// the queueing delay before `N` executes, which is exactly the
    /// signal a latency histogram exists to expose. The idiom for
    /// demultiplexing stages (a poll loop spawning one request per
    /// readiness event).
    #[inline]
    pub fn spawn<N: Stage>(&mut self, msg: N::In) {
        let req = ReqToken { t0: self.ctx.now() };
        let ev = emit::<N>(self.router, Some(self.color), req, msg);
        self.ctx.register(ev);
    }

    /// Finishes the current request: records its end-to-end latency
    /// (the request's start stamp to now — see the module-level
    /// *Request latency semantics*) into the executing core's
    /// histogram and `completed_requests` counter, and delivers `out`
    /// to the pipeline's collector for `O` ([`PipelineBuilder::collect`])
    /// if one was registered — otherwise `out` is dropped.
    ///
    /// A seeded/submitted request completed inside its very first
    /// handler spans no dispatch-to-dispatch time and records a
    /// (near-)zero latency; real pipelines complete in a later stage,
    /// where the sample covers every hop's queueing and execution
    /// (and spawned requests count from their spawner's clock).
    #[inline]
    pub fn complete<O: Send + 'static>(&mut self, out: O) {
        self.ctx.complete_request(self.elapsed());
        // Sink-less pipelines (servers whose results leave through the
        // network, benchmarks) skip the hash lookup entirely.
        if self.router.sinks.is_empty() {
            return;
        }
        if let Some(sink) = self.router.sinks.get(&TypeId::of::<O>()) {
            let sink = sink
                .downcast_ref::<Mutex<Vec<O>>>()
                .expect("sink is keyed by the output's TypeId");
            sink.lock().push(out);
        }
    }

    /// Fails the current request: the executing core's
    /// `failed_requests` counter grows (surfaced as
    /// [`CoreMetrics::failed_requests`](crate::metrics::CoreMetrics::failed_requests))
    /// and no latency is recorded — the error twin of
    /// [`StageCtx::complete`], for requests the pipeline carried but
    /// could not answer (the client reset mid-request, the backend
    /// refused). Each carried request should end in exactly one of
    /// `complete` / `fail`; a request that simply stops being forwarded
    /// counts as neither.
    #[inline]
    pub fn fail(&mut self) {
        self.ctx.fail_request();
    }

    /// Asks the runtime to stop once this handler returns (see
    /// [`Ctx::stop_runtime`]).
    pub fn stop_runtime(&mut self) {
        self.ctx.stop_runtime();
    }
}

impl fmt::Debug for StageCtx<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageCtx")
            .field("core", &self.core())
            .field("now", &self.now())
            .field("color", &self.color)
            .finish()
    }
}

/// A typed handle to the outputs completed with a given type `O`
/// ([`StageCtx::complete`]); obtained from [`PipelineBuilder::collect`].
pub struct Collected<O> {
    inner: Arc<Mutex<Vec<O>>>,
}

impl<O> Clone for Collected<O> {
    fn clone(&self) -> Self {
        Collected {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<O> Collected<O> {
    /// Takes every output collected so far (in completion order, which
    /// is deterministic under simulation).
    pub fn take(&self) -> Vec<O> {
        std::mem::take(&mut *self.inner.lock())
    }

    /// Number of outputs collected and not yet taken.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no output is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<O> fmt::Debug for Collected<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collected")
            .field("len", &self.len())
            .finish()
    }
}

/// One registered stage, its serial color already resolved.
struct StageRecord {
    type_id: TypeId,
    type_name: &'static str,
    handler: HandlerSpec,
    /// Resolved serial color (`Serial` and `SameAs` stages).
    color: Option<Color>,
    /// `Arc<Meta<S>>`, the typed coloring included.
    meta: Arc<dyn Any + Send + Sync>,
}

type SeedFn = Box<dyn FnOnce(&'static Router) -> Event + Send>;

/// One queued seed: the event maker plus an optional core pin.
struct Seed {
    make: SeedFn,
    pin_core: Option<usize>,
}

/// Assembles [`Stage`]s into an installable [`Pipeline`].
///
/// Builder methods consume and return `self` so graphs read as one
/// expression; [`PipelineBuilder::collect`] borrows instead (it returns
/// the collector handle).
pub struct PipelineBuilder {
    name: String,
    space: ColorSpace,
    stages: Vec<StageRecord>,
    sinks: FxHashMap<TypeId, Arc<dyn Any + Send + Sync>>,
    seeds: Vec<Seed>,
}

impl PipelineBuilder {
    /// An empty pipeline named `name`, taking serial colors from
    /// [`ColorSpace::for_stages`].
    pub fn new(name: impl Into<String>) -> Self {
        PipelineBuilder {
            name: name.into(),
            space: ColorSpace::for_stages(),
            stages: Vec::new(),
            sinks: FxHashMap::default(),
            seeds: Vec::new(),
        }
    }

    /// Replaces the color space — for pipelines that share an executor
    /// with other copies of themselves ([`ColorSpace::congruent`]).
    ///
    /// # Panics
    ///
    /// Panics if a stage is already registered (its serial color came
    /// from the space being replaced).
    pub fn with_colors(mut self, space: ColorSpace) -> Self {
        assert!(
            self.stages.is_empty(),
            "with_colors must precede the first stage"
        );
        self.space = space;
        self
    }

    /// Registers `stage` under its [`Stage::spec`] and resolves its
    /// serial color: a new one from the pipeline's [`ColorSpace`], or
    /// the color of the stage it shares with. The handler spec is
    /// registered with the executor at install.
    ///
    /// # Panics
    ///
    /// Panics if a stage of the same type is already registered, or if
    /// a [`StageSpec::share_color_with`] target is not a serial stage
    /// registered earlier, or if the color space is exhausted.
    pub fn stage<S: Stage>(mut self, stage: S) -> Self {
        let spec = stage.spec();
        let type_id = TypeId::of::<S>();
        let type_name = std::any::type_name::<S>();
        assert!(
            !self.stages.iter().any(|s| s.type_id == type_id),
            "stage `{type_name}` registered twice"
        );
        let color = match spec.coloring {
            Coloring::Serial => Some(self.space.alloc()),
            Coloring::Inherit | Coloring::Keyed(_) => None,
            Coloring::SameAs(target, target_name) => Some(
                self.stages
                    .iter()
                    .find(|s| s.type_id == target)
                    .and_then(|s| s.color)
                    .unwrap_or_else(|| {
                        panic!(
                            "stage `{type_name}` shares its color with `{target_name}`, which \
                             is not a serial stage registered before it"
                        )
                    }),
            ),
        };
        self.stages.push(StageRecord {
            type_id,
            type_name,
            handler: spec.handler,
            color,
            meta: Arc::new(Meta {
                stage,
                coloring: spec.coloring,
            }),
        });
        self
    }

    /// Registers a completion sink for outputs of type `O` and returns
    /// its handle: every [`StageCtx::complete`] with an `O` lands
    /// there.
    pub fn collect<O: Send + 'static>(&mut self) -> Collected<O> {
        let inner: Arc<Mutex<Vec<O>>> = Arc::new(Mutex::new(Vec::new()));
        self.sinks.insert(
            TypeId::of::<O>(),
            Arc::clone(&inner) as Arc<dyn Any + Send + Sync>,
        );
        Collected { inner }
    }

    /// Queues an initial message for stage `S`, registered (and its
    /// request opened) when the pipeline is installed.
    ///
    /// # Panics
    ///
    /// Panics **at install** if `S` inherits its color (seeds have no
    /// emitter to inherit from).
    pub fn seed<S: Stage>(mut self, msg: S::In) -> Self {
        self.seeds.push(Seed {
            make: Box::new(move |router| emit::<S>(router, None, ReqToken::fresh(), msg)),
            pin_core: None,
        });
        self
    }

    /// Queues an initial message for stage `S` and pins its color to
    /// `core`, overriding the hash dispatch — the typed form of
    /// [`Executor::register_pinned`], used by workloads that start
    /// deliberately imbalanced so workstealing has something to fix.
    ///
    /// # Panics
    ///
    /// Panics **at install** if `core` is out of range for the
    /// executor, or if `S` inherits its color.
    pub fn seed_pinned<S: Stage>(mut self, core: usize, msg: S::In) -> Self {
        self.seeds.push(Seed {
            make: Box::new(move |router| emit::<S>(router, None, ReqToken::fresh(), msg)),
            pin_core: Some(core),
        });
        self
    }

    /// Returns the installable [`Pipeline`].
    pub fn build(self) -> Pipeline {
        Pipeline {
            keyed: self.space.keyed_plane(),
            name: self.name,
            stages: self.stages,
            sinks: self.sinks,
            seeds: self.seeds,
            router: None,
        }
    }
}

impl fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("name", &self.name)
            .field("stages", &self.stages.len())
            .field("seeds", &self.seeds.len())
            .finish()
    }
}

/// An installable stage graph ([`PipelineBuilder::build`]): a
/// [`Service`] that registers every stage's handler spec and seeds its
/// initial requests on whichever executor it is installed on.
pub struct Pipeline {
    name: String,
    stages: Vec<StageRecord>,
    keyed: KeyedPlane,
    sinks: FxHashMap<TypeId, Arc<dyn Any + Send + Sync>>,
    seeds: Vec<Seed>,
    router: Option<&'static Router>,
}

impl Pipeline {
    /// A cloneable, `Send` submission handle over `injector` — the
    /// typed analogue of injecting raw events from outside the
    /// executor. Each submission opens a new request.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has not been installed yet.
    pub fn sender(&self, injector: Injector) -> StageSender {
        StageSender {
            router: self.router.expect("pipeline not installed"),
            injector,
        }
    }
}

impl Service for Pipeline {
    fn name(&self) -> &str {
        &self.name
    }

    /// # Panics
    ///
    /// Panics if the pipeline is installed twice (handler ids and seeds
    /// are per-installation).
    fn install(&mut self, exec: &mut dyn Executor) {
        assert!(
            self.router.is_none(),
            "pipeline `{}` is already installed",
            self.name
        );
        let mut ids = Vec::with_capacity(self.stages.len());
        let mut entries = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            let handler = exec.register_handler(s.handler.clone());
            ids.push(s.type_id);
            entries.push(Entry {
                handler,
                color: s.color,
                meta: Arc::clone(&s.meta),
                type_name: s.type_name,
            });
        }
        // The routing table is interned for the process lifetime: every
        // emitted event's closure carries a `Copy` `&'static` reference
        // instead of an `Arc`, keeping refcount traffic off the
        // per-event dispatch path (the `typed_over_raw` gate). A pipeline
        // is installed once and its stages live as long as events can
        // reference them, so the leak is one routing table per
        // installed pipeline — static configuration, not per-request
        // state.
        let router: &'static Router = Box::leak(Box::new(Router {
            ids,
            entries,
            sinks: self.sinks.clone(),
            keyed: self.keyed,
        }));
        for seed in self.seeds.drain(..) {
            let ev = (seed.make)(router);
            match seed.pin_core {
                Some(core) => exec.register_pinned(ev, core),
                None => exec.register(ev),
            }
        }
        self.router = Some(router);
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("stages", &self.stages.len())
            .field("installed", &self.router.is_some())
            .finish()
    }
}

/// A cloneable, `Send` handle submitting typed messages into an
/// installed [`Pipeline`] from outside the executor (load generators,
/// poll threads). Rides the same injection path as raw events: the
/// owning core's injection inbox, on both executors.
#[derive(Clone)]
pub struct StageSender {
    router: &'static Router,
    injector: Injector,
}

impl StageSender {
    /// Submits `msg` to stage `S`, opening a new request (latency
    /// measured from its first dispatch).
    ///
    /// # Panics
    ///
    /// Panics if `S` is not registered, or inherits its color.
    pub fn submit<S: Stage>(&self, msg: S::In) {
        self.injector
            .inject(emit::<S>(self.router, None, ReqToken::fresh(), msg));
    }

    /// The underlying injector (stop/keepalive/outstanding controls).
    pub fn injector(&self) -> &Injector {
        &self.injector
    }
}

impl fmt::Debug for StageSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageSender")
            .field("injector", &self.injector)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorRange;
    use crate::exec::ExecKind;
    use crate::fault::FaultKind;
    use crate::runtime::RuntimeBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct First {
        hops: u32,
    }
    struct Middle;
    struct Last {
        seen: Arc<AtomicU64>,
    }

    #[derive(Clone, Copy)]
    struct Token(u64);

    impl Stage for First {
        type In = Token;
        fn spec(&self) -> StageSpec<Token> {
            StageSpec::new("first").cost(1_000).keyed(|t| t.0)
        }
        fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Token) {
            for _ in 0..self.hops {
                ctx.to::<Middle>(msg);
            }
        }
    }

    impl Stage for Middle {
        type In = Token;
        fn spec(&self) -> StageSpec<Token> {
            StageSpec::new("middle").cost(500).inherit_color()
        }
        fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Token) {
            ctx.to::<Last>(msg);
        }
    }

    impl Stage for Last {
        type In = Token;
        fn spec(&self) -> StageSpec<Token> {
            StageSpec::new("last").cost(200)
        }
        fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Token) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            ctx.complete(msg.0);
        }
    }

    fn three_stage(hops: u32, seeds: u64) -> (PipelineBuilder, Arc<AtomicU64>) {
        let seen = Arc::new(AtomicU64::new(0));
        let mut b = PipelineBuilder::new("test")
            .stage(First { hops })
            .stage(Middle)
            .stage(Last {
                seen: Arc::clone(&seen),
            });
        for s in 0..seeds {
            b = b.seed::<First>(Token(s));
        }
        (b, seen)
    }

    #[test]
    fn chain_runs_identically_on_both_executors() {
        let mut counts = Vec::new();
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let (mut b, seen) = three_stage(2, 5);
            let outs = b.collect::<u64>();
            let mut rt = RuntimeBuilder::new().cores(2).build(kind);
            rt.install(b.build());
            let report = rt.run();
            // 5 seeds, each fanning into 2 middle+last pairs.
            assert_eq!(report.events_processed(), 5 + 5 * 2 * 2);
            assert_eq!(seen.load(Ordering::Relaxed), 10);
            assert_eq!(report.completed_requests(), 10);
            assert!(report.latency_p50() > 0, "stages have nonzero cost");
            assert!(report.latency_p50() <= report.latency_p99());
            let mut got = outs.take();
            got.sort_unstable();
            assert_eq!(got.len(), 10);
            counts.push(report.events_processed());
        }
        assert_eq!(counts[0], counts[1]);
    }

    /// Seeds keys 3, 3 and 4 into a keyed stage feeding an inheriting
    /// probe, on a pipeline built over `space`; returns the probe's
    /// `(key, color)` observations.
    fn keyed_then_inherited(space: ColorSpace) -> Vec<(u64, Color)> {
        struct Probe {
            colors: Arc<Mutex<Vec<(u64, Color)>>>,
        }
        impl Stage for Probe {
            type In = Token;
            fn spec(&self) -> StageSpec<Token> {
                StageSpec::new("probe").inherit_color()
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Token) {
                self.colors.lock().push((msg.0, ctx.color()));
            }
        }
        struct Root;
        impl Stage for Root {
            type In = Token;
            fn spec(&self) -> StageSpec<Token> {
                StageSpec::new("root").keyed(|t| t.0)
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: Token) {
                ctx.to::<Probe>(msg);
            }
        }
        let colors: Arc<Mutex<Vec<(u64, Color)>>> = Arc::new(Mutex::new(Vec::new()));
        let b = PipelineBuilder::new("colors")
            .with_colors(space)
            .stage(Root)
            .stage(Probe {
                colors: Arc::clone(&colors),
            })
            .seed::<Root>(Token(3))
            .seed::<Root>(Token(3))
            .seed::<Root>(Token(4));
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        rt.install(b.build());
        rt.run();
        let got = colors.lock().clone();
        assert_eq!(got.len(), 3);
        got
    }

    #[test]
    fn keyed_and_inherited_colors_follow_the_emitter() {
        let got = keyed_then_inherited(ColorSpace::for_stages());
        let of = |k: u64| {
            got.iter()
                .filter(|(key, _)| *key == k)
                .map(|(_, c)| *c)
                .collect::<Vec<_>>()
        };
        assert_eq!(of(3)[0], of(3)[1], "same key, same inherited color");
        assert_ne!(of(3)[0], of(4)[0], "distinct keys, distinct colors");
        assert_eq!(of(3)[0], ColorRange::STAGE_KEYED.keyed(3));
        // Keyed colors live in the keyed plane, never on a serial
        // allocation.
        assert!(ColorRange::STAGE_KEYED.contains(of(3)[0]));
        assert!(!ColorRange::STAGE_SERIAL.contains(of(4)[0]));
    }

    #[test]
    fn keyed_colors_stay_in_the_pipelines_residue_class() {
        let space = ColorSpace::congruent(5, 6);
        for (key, color) in keyed_then_inherited(space.clone()) {
            assert_eq!(color, space.keyed(key), "the router hashes like the space");
            assert_eq!(color.value() % 6, 5, "key {key} left the class");
            assert!(ColorRange::STAGE_KEYED.contains(color));
        }
    }

    #[test]
    fn shared_colors_resolve_to_the_target_stage() {
        struct Loop;
        struct Helper {
            colors: Arc<Mutex<Vec<Color>>>,
        }
        impl Stage for Loop {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("loop")
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                ctx.to::<Helper>(());
            }
        }
        impl Stage for Helper {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("helper").share_color_with::<Loop>()
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                self.colors.lock().push(ctx.color());
            }
        }
        let colors: Arc<Mutex<Vec<Color>>> = Arc::new(Mutex::new(Vec::new()));
        let b = PipelineBuilder::new("shared")
            .stage(Loop)
            .stage(Helper {
                colors: Arc::clone(&colors),
            })
            .seed::<Loop>(());
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        rt.install(b.build());
        rt.run();
        let got = colors.lock().clone();
        // Loop (the only serial stage) gets the serial plane's first
        // color — 1 — and Helper shares it.
        assert_eq!(got, vec![Color::new(1)]);
    }

    #[test]
    fn congruent_spaces_keep_co_installed_pipelines_disjoint() {
        // Two pipelines on ONE executor, on distinct residue classes:
        // their serial stages can never silently share a color.
        struct Probe {
            colors: Arc<Mutex<Vec<Color>>>,
        }
        impl Stage for Probe {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("probe")
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                self.colors.lock().push(ctx.color());
            }
        }
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        let mut seen = Vec::new();
        for residue in 0..2 {
            let colors: Arc<Mutex<Vec<Color>>> = Arc::new(Mutex::new(Vec::new()));
            rt.install(
                PipelineBuilder::new("copy")
                    .with_colors(ColorSpace::congruent(residue, 2))
                    .stage(Probe {
                        colors: Arc::clone(&colors),
                    })
                    .seed::<Probe>(())
                    .build(),
            );
            seen.push(colors);
        }
        rt.run();
        let (a, b) = (seen[0].lock()[0], seen[1].lock()[0]);
        assert_eq!((a, b), (Color::new(2), Color::new(1)));
    }

    #[test]
    fn spawn_opens_a_new_request_per_message() {
        struct Mux;
        struct Work;
        impl Stage for Mux {
            type In = u32;
            fn spec(&self) -> StageSpec<u32> {
                StageSpec::new("mux").cost(50_000)
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, n: u32) {
                for _ in 0..n {
                    ctx.spawn::<Work>(());
                }
            }
        }
        impl Stage for Work {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("work").cost(1_000).inherit_color()
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                // Spawned requests are stamped with the SPAWNER's
                // clock: the mux's 50 Kcycles of execution (i.e. this
                // request's queueing delay) must show in its latency.
                assert!(ctx.elapsed() >= 50_000, "elapsed {}", ctx.elapsed());
                ctx.complete(());
            }
        }
        let b = PipelineBuilder::new("mux")
            .stage(Mux)
            .stage(Work)
            .seed::<Mux>(4);
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        rt.install(b.build());
        let report = rt.run();
        assert_eq!(report.completed_requests(), 4);
        assert_eq!(report.events_processed(), 5);
    }

    #[test]
    fn sender_submits_typed_messages_from_outside() {
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let (mut b, seen) = three_stage(1, 0);
            let outs = b.collect::<u64>();
            let mut rt = RuntimeBuilder::new().cores(2).build(kind);
            let pipeline = rt.install(b.build());
            let sender = pipeline.sender(rt.injector());
            let keepalive = sender.injector().keepalive();
            let producer = std::thread::spawn(move || {
                for i in 0..20u64 {
                    sender.submit::<First>(Token(i));
                }
                sender.injector().stop_when_idle();
                drop(keepalive);
            });
            let report = rt.run();
            producer.join().unwrap();
            assert_eq!(seen.load(Ordering::Relaxed), 20, "{kind}");
            assert_eq!(report.completed_requests(), 20, "{kind}");
            assert_eq!(outs.len(), 20, "{kind}");
        }
    }

    #[test]
    fn emitting_to_an_unregistered_stage_is_a_contained_fault() {
        struct Orphan;
        impl Stage for Orphan {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("orphan")
            }
            fn handle(&self, _ctx: &mut StageCtx<'_, '_>, _msg: ()) {}
        }
        struct Bad;
        impl Stage for Bad {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("bad")
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                ctx.to::<Orphan>(());
            }
        }
        let b = PipelineBuilder::new("bad").stage(Bad).seed::<Bad>(());
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        rt.install(b.build());
        let report = rt.run();
        let [fault] = report.fault_log() else {
            panic!("one fault expected: {:?}", report.fault_log());
        };
        let FaultKind::HandlerPanic(msg) = &fault.kind else {
            panic!("a handler panic expected: {fault}");
        };
        assert!(
            msg.contains("Orphan") && msg.contains("is not registered in this pipeline"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_stage_registration_panics() {
        let _ = PipelineBuilder::new("dup").stage(Middle).stage(Middle);
    }

    #[test]
    #[should_panic(expected = "inherits its color")]
    fn seeding_an_inherit_stage_without_color_panics() {
        let b = PipelineBuilder::new("inherit-seed")
            .stage(Middle)
            .stage(Last {
                seen: Arc::new(AtomicU64::new(0)),
            })
            .seed::<Middle>(Token(1));
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        rt.install(b.build());
    }

    #[test]
    fn sharing_a_color_with_an_unregistered_stage_panics_at_registration() {
        struct Bad;
        impl Stage for Bad {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("bad").share_color_with::<Middle>()
            }
            fn handle(&self, _ctx: &mut StageCtx<'_, '_>, _msg: ()) {}
        }
        let payload = std::panic::catch_unwind(|| PipelineBuilder::new("bad-share").stage(Bad))
            .expect_err("stage() must reject the share");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("Bad` shares its color with `"), "{msg}");
        assert!(
            msg.contains("tests::Middle`, which is not a serial stage"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "with_colors must precede the first stage")]
    fn replacing_the_color_space_after_a_stage_panics() {
        let _ = PipelineBuilder::new("late")
            .stage(Middle)
            .with_colors(ColorSpace::congruent(1, 2));
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let (b, _) = three_stage(1, 1);
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        let mut p = b.build();
        p.install(&mut rt);
        p.install(&mut rt);
    }

    #[test]
    fn specs_register_real_handler_annotations() {
        // The cost/penalty of the stage spec must reach the runtime's
        // handler registry (they drive the workstealing heuristics).
        struct Heavy;
        impl Stage for Heavy {
            type In = ();
            fn spec(&self) -> StageSpec<()> {
                StageSpec::new("heavy").cost(123_456).penalty(77)
            }
            fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: ()) {
                ctx.complete(());
            }
        }
        let b = PipelineBuilder::new("heavy").stage(Heavy).seed::<Heavy>(());
        let mut rt = RuntimeBuilder::new().cores(1).build(ExecKind::Sim);
        rt.install(b.build());
        let report = rt.run();
        assert_eq!(report.events_processed(), 1);
        // The declared cost drove the virtual clock.
        assert!(report.wall_cycles() >= 123_456);
        assert_eq!(report.completed_requests(), 1);
        // A request completed inside its very first handler spans no
        // dispatch-to-dispatch time: its latency is (near) zero.
        assert_eq!(report.latency_p50(), report.latency_p99());
    }
}
