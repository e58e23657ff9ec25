//! Runtime construction: flavor selection and the builder.

use std::fmt;

use mely_topology::{CacheLevel, MachineModel};

use crate::admission::{AdmissionCtl, QueueLimits};
use crate::cost::{CostParams, INITIAL_STEAL_ESTIMATE};
use crate::dataset::DataSetAlloc;
use crate::exec::{Engine, ExecKind, Runtime};
use crate::fault::FaultCtl;
use crate::fuzz::FaultPlan;
use crate::queue::{LegacyQueue, MelyQueue, QueueImpl};
use crate::sim::SimRuntime;
use crate::steal::{StealDomains, StealPolicy, WsPolicy};
use crate::threaded::Shared;

/// Which runtime architecture to use (paper Sections II and IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Flavor {
    /// Libasync-smp: one FIFO event queue per core.
    Libasync,
    /// Mely: per-color color-queues chained in a core-queue, with a
    /// stealing-queue of worthy colors.
    #[default]
    Mely,
}

impl fmt::Display for Flavor {
    /// The paper-style label: `Libasync-smp` or `Mely`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flavor::Libasync => "Libasync-smp",
            Flavor::Mely => "Mely",
        })
    }
}

/// Builder for both executors.
///
/// # Examples
///
/// ```
/// use mely_core::prelude::*;
///
/// let rt = RuntimeBuilder::new()
///     .cores(8)
///     .flavor(Flavor::Libasync)
///     .workstealing(WsPolicy::base())
///     .build(ExecKind::Sim);
/// assert_eq!(rt.cores(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeBuilder {
    cores: Option<usize>,
    flavor: Flavor,
    ws: WsPolicy,
    machine: Option<MachineModel>,
    costs: CostParams,
    batch_threshold: u32,
    track_cache: bool,
    queue_limits: QueueLimits,
    schedule_seed: Option<u64>,
    fault_plan: Option<FaultPlan>,
    steal_policy: Option<StealPolicy>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeBuilder {
    /// A builder with the paper's defaults: the Mely flavor, workstealing
    /// off, batch threshold 10, the Xeon E5410 machine model.
    pub fn new() -> Self {
        RuntimeBuilder {
            cores: None,
            flavor: Flavor::Mely,
            ws: WsPolicy::off(),
            machine: None,
            costs: CostParams::default(),
            batch_threshold: 10,
            track_cache: false,
            queue_limits: QueueLimits::default(),
            schedule_seed: None,
            fault_plan: None,
            steal_policy: None,
        }
    }

    /// Number of cores (default: the machine model's core count).
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = Some(n);
        self
    }

    /// Queue architecture (default [`Flavor::Mely`]).
    pub fn flavor(mut self, flavor: Flavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Workstealing policy (default off).
    pub fn workstealing(mut self, ws: WsPolicy) -> Self {
        self.ws = ws;
        self
    }

    /// Machine model (default: Xeon E5410 when it has enough cores,
    /// otherwise a generic paired-L2 machine of the requested size).
    pub fn machine(mut self, machine: MachineModel) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Overrides the runtime cost constants (simulation only).
    pub fn costs(mut self, costs: CostParams) -> Self {
        self.costs = costs;
        self
    }

    /// Max events of one color processed in a row before rotating
    /// (default 10, as in all the paper's experiments).
    pub fn batch_threshold(mut self, n: u32) -> Self {
        self.batch_threshold = n.max(1);
        self
    }

    /// Enables the cache simulator (simulation only; needed for the
    /// L2-misses-per-event metrics of Tables V and VI).
    pub fn track_cache(mut self, on: bool) -> Self {
        self.track_cache = on;
        self
    }

    /// Occupancy limits enforced at the injection admission boundary
    /// (default [`QueueLimits::unbounded`], which leaves every existing
    /// workload byte-identical). See [`crate::admission`].
    pub fn queue_limits(mut self, limits: QueueLimits) -> Self {
        self.queue_limits = limits;
        self
    }

    /// Enables seeded schedule perturbation on the sim executor: every
    /// perturbation point draws from one stream seeded by `seed` (see
    /// [`crate::fuzz`]). Equal seeds replay bit-identical schedules;
    /// unset (the default) keeps the canonical deterministic schedule
    /// byte-identical. The threaded executor ignores this.
    ///
    /// # Examples
    ///
    /// ```
    /// use mely_core::prelude::*;
    ///
    /// let fp = |seed| {
    ///     let mut rt = RuntimeBuilder::new()
    ///         .cores(4)
    ///         .workstealing(WsPolicy::base())
    ///         .schedule_seed(seed)
    ///         .build(ExecKind::Sim);
    ///     for i in 0..32u16 {
    ///         rt.register_pinned(Event::new(Color::new(i + 1), 5_000), 0);
    ///     }
    ///     rt.run().fingerprint()
    /// };
    /// assert_eq!(fp(1), fp(1), "same seed, same schedule");
    /// ```
    pub fn schedule_seed(mut self, seed: u64) -> Self {
        self.schedule_seed = Some(seed);
        self
    }

    /// Installs a seeded fault-injection plan ([`crate::fuzz::FaultPlan`]):
    /// injected handler panics, event drops, and timer-delay spikes.
    /// Deterministic (bit-identical replay per seed) on the sim
    /// executor; honored probabilistically, from per-worker streams of
    /// the same seed, on the threaded one. A plan with all rates zero
    /// is ignored.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the victim-selection / steal-budget policy. When unset, the
    /// builder picks [`StealPolicy::for_machine`] for the resolved
    /// machine: [`StealPolicy::Flat`] on single-tier machines,
    /// [`StealPolicy::Hierarchical`] on machines that declare SMT or
    /// multiple sockets (e.g. via [`MachineModel::from_spec`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use mely_core::prelude::*;
    ///
    /// let rt = RuntimeBuilder::new()
    ///     .cores(4)
    ///     .workstealing(WsPolicy::improved())
    ///     .steal_policy(StealPolicy::Hierarchical)
    ///     .build(ExecKind::Sim);
    /// ```
    pub fn steal_policy(mut self, policy: StealPolicy) -> Self {
        self.steal_policy = Some(policy);
        self
    }

    /// Builds the requested executor behind the unified
    /// [`Runtime`] type — the one construction path of the
    /// executor-agnostic API ([`crate::exec`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use mely_core::prelude::*;
    ///
    /// for kind in [ExecKind::Sim, ExecKind::Threaded] {
    ///     let mut rt = RuntimeBuilder::new().cores(2).build(kind);
    ///     rt.register(Event::new(Color::new(1), 1_000));
    ///     assert_eq!(rt.run().events_processed(), 1);
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the requested core count is zero or exceeds the machine
    /// model's cores.
    pub fn build(self, kind: ExecKind) -> Runtime {
        let cfg = self.resolve();
        let engine = match kind {
            ExecKind::Sim => Engine::Sim(Box::new(SimRuntime::new(cfg))),
            ExecKind::Threaded => Engine::Threaded(Shared::new(cfg)),
        };
        Runtime {
            engine,
            datasets: DataSetAlloc::new(),
        }
    }

    /// Everything [`Self::build`] decides before it picks an executor.
    pub(crate) fn resolve(self) -> Resolved {
        let machine = self.machine.unwrap_or_else(|| {
            let wanted = self.cores.unwrap_or(8);
            if wanted > 8 {
                generic_machine(wanted)
            } else if self.track_cache {
                MachineModel::xeon_e5410_scaled()
            } else {
                MachineModel::xeon_e5410()
            }
        });
        let cores = self.cores.unwrap_or_else(|| machine.num_cores());
        assert!(
            (1..=machine.num_cores()).contains(&cores),
            "machine model {} runs 1..={} cores (asked for {cores})",
            machine.name(),
            machine.num_cores(),
        );
        Resolved {
            cores,
            flavor: self.flavor,
            ws: self.ws,
            steal_policy: self
                .steal_policy
                .unwrap_or_else(|| StealPolicy::for_machine(&machine)),
            domains: StealDomains::new(&machine, cores),
            machine,
            batch_threshold: self.batch_threshold,
            costs: self.costs,
            track_cache: self.track_cache,
            schedule_seed: self.schedule_seed,
            admission: AdmissionCtl::new(self.queue_limits),
            faults: FaultCtl::new(self.fault_plan),
        }
    }
}

/// One runtime as [`RuntimeBuilder::build`] resolved it: everything that
/// does not depend on which executor runs it, decided exactly once. Both
/// executors, their shared doors and the kernel's per-core state borrow
/// this one struct.
pub(crate) struct Resolved {
    /// Running cores (validated against `machine`).
    pub cores: usize,
    pub machine: MachineModel,
    pub flavor: Flavor,
    pub ws: WsPolicy,
    /// Victim selection and steal budgets (see [`StealPolicy`]).
    pub steal_policy: StealPolicy,
    /// Steal tiers of the running cores (see [`crate::steal::domains`]).
    pub domains: StealDomains,
    pub batch_threshold: u32,
    /// Virtual price of each runtime operation; the threaded executor
    /// pays real time instead.
    pub costs: CostParams,
    /// Whether the simulator runs the cache simulator.
    pub track_cache: bool,
    /// Seeded schedule perturbation, simulator only: the threaded
    /// executor's interleavings come from real OS scheduling, which is
    /// the nondeterminism this mode emulates. The fault plan in `faults`,
    /// by contrast, is honored on threads too — probabilistic there
    /// rather than replayable.
    pub schedule_seed: Option<u64>,
    /// Queue limits, per-color occupancy and the
    /// producer-side reject/shed counters (see [`crate::admission`]).
    pub admission: AdmissionCtl,
    /// Fault-injection plan, quarantine membership and the fault
    /// log (see [`crate::fault`]): consulted at dispatch and at admission.
    pub faults: FaultCtl,
}

impl Resolved {
    /// An empty per-core queue of the configured flavor, holding the
    /// steal-cost estimate every runtime starts from.
    pub(crate) fn new_queue(&self) -> QueueImpl {
        let mut q = match self.flavor {
            Flavor::Libasync => QueueImpl::Legacy(LegacyQueue::new()),
            Flavor::Mely => QueueImpl::Mely(MelyQueue::new(self.ws.penalty)),
        };
        q.set_steal_cost_estimate(INITIAL_STEAL_ESTIMATE);
        q
    }
}

/// A generic machine for core counts the Xeon model cannot cover: private
/// 32 KB L1s, 6 MB L2s shared by pairs, Table II latencies.
fn generic_machine(cores: usize) -> MachineModel {
    MachineModel::new(
        format!("generic ({cores} cores, paired L2)"),
        cores,
        vec![
            CacheLevel {
                level: 1,
                size_bytes: 32 * 1024,
                line_bytes: 64,
                associativity: 8,
                latency_cycles: 4,
                cores_per_instance: 1,
            },
            CacheLevel {
                level: 2,
                size_bytes: 6 * 1024 * 1024,
                line_bytes: 64,
                associativity: 24,
                latency_cycles: 15,
                cores_per_instance: 2,
            },
        ],
        110,
        2_330_000_000,
    )
    .expect("generic model is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = RuntimeBuilder::new().resolve();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.batch_threshold, 10);
        assert_eq!(cfg.flavor, Flavor::Mely);
        assert!(!cfg.ws.enabled);
    }

    #[test]
    fn build_returns_the_requested_executor() {
        for kind in [ExecKind::Sim, ExecKind::Threaded] {
            let rt = RuntimeBuilder::new().cores(2).build(kind);
            assert_eq!(rt.kind(), kind);
            assert_eq!(rt.injector().kind(), kind);
            assert_eq!(rt.cores(), 2);
        }
    }

    /// The 0.2 deprecation cycle is complete: the `build_sim` /
    /// `build_threaded` shims, the `register`/`register_direct`/
    /// `register_after` alias trio and the `label()` Display aliases are
    /// gone, and so is the threaded-only injection handle. This test
    /// pins their *replacements*.
    #[test]
    fn removed_aliases_have_working_replacements() {
        // `build_sim()` → `build(ExecKind::Sim)`; same for the threaded
        // executor.
        let mut rt = RuntimeBuilder::new().cores(2).build(ExecKind::Threaded);

        // `label()` → the Display impls.
        assert_eq!(Flavor::Mely.to_string(), "Mely");
        assert!(!crate::steal::WsPolicy::improved().to_string().is_empty());

        // `register`/`register_after` on a threaded handle →
        // `inject` on `rt.injector()`, with the delay in the injected
        // event's action (`ctx.register_after`); `register_direct` has no
        // replacement: every foreign event enters through the owning
        // core's inbox.
        use crate::color::Color;
        use crate::event::Event;
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            handle.inject(Event::new(Color::new(7), 0));
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 3);

        // Same on a runtime with bounded queues (generous caps, so
        // nothing can shed): every event is still delivered.
        use crate::admission::QueueLimits;
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .queue_limits(
                QueueLimits::default()
                    .per_color_events(64)
                    .inbox_backlog(1_024),
            )
            .build(ExecKind::Threaded);
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            handle.inject(Event::new(Color::new(7), 0));
        });
        injector.join().unwrap();
        let r = rt.run();
        assert_eq!(r.events_processed(), 1);
        assert_eq!(r.total().shed_requests, 0);
    }

    #[test]
    fn large_core_counts_get_a_generic_machine() {
        let cfg = RuntimeBuilder::new().cores(16).resolve();
        assert_eq!(cfg.machine.num_cores(), 16);
    }

    #[test]
    fn track_cache_defaults_to_scaled_model() {
        let cfg = RuntimeBuilder::new().cores(8).track_cache(true).resolve();
        assert!(cfg.machine.name().contains("scaled"));
    }

    #[test]
    #[should_panic(expected = "runs 1..=8 cores (asked for 12)")]
    fn too_many_cores_for_explicit_machine_panics() {
        let _ = RuntimeBuilder::new()
            .cores(12)
            .machine(MachineModel::xeon_e5410())
            .resolve();
    }

    #[test]
    fn flavor_displays_the_paper_labels() {
        assert_eq!(Flavor::Libasync.to_string(), "Libasync-smp");
        assert_eq!(Flavor::Mely.to_string(), "Mely");
        assert_eq!(Flavor::default(), Flavor::Mely);
    }

    #[test]
    fn batch_threshold_clamps_to_one() {
        let cfg = RuntimeBuilder::new().batch_threshold(0).resolve();
        assert_eq!(cfg.batch_threshold, 1);
    }
}
