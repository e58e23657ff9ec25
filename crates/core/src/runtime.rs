//! Runtime construction: flavor selection and the builder.

use std::fmt;
use std::sync::Arc;

use mely_topology::{CacheLevel, MachineModel};

use crate::admission::{AdmissionCtl, AdmissionPolicy, QueueLimits};
use crate::cost::CostParams;
use crate::exec::{ExecKind, Runtime};
use crate::fault::{FaultCtl, FaultPolicy};
use crate::fuzz::{FaultPlan, SchedulePerturbation};
use crate::sim::{SimConfig, SimRuntime};
use crate::steal::{default_steal_policy, StealPolicy, WsPolicy};
use crate::threaded::ThreadedRuntime;

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
///     .build(ExecKind::Sim)
///     .into_sim();
/// assert_eq!(rt.config().cores, 8);
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
    max_cycles: Option<u64>,
    initial_steal_estimate: u64,
    queue_limits: QueueLimits,
    admission: AdmissionPolicy,
    perturb: Option<SchedulePerturbation>,
    fault_policy: FaultPolicy,
    fault_plan: Option<FaultPlan>,
    steal_policy: Option<Arc<dyn StealPolicy>>,
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
            max_cycles: None,
            initial_steal_estimate: 2_000,
            queue_limits: QueueLimits::default(),
            admission: AdmissionPolicy::default(),
            perturb: None,
            fault_policy: FaultPolicy::default(),
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

    /// Hard virtual-time limit for [`SimRuntime::run`].
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Initial steal-cost estimate (cycles) used by the time-left
    /// heuristic before the first monitored steal (default 2000).
    pub fn initial_steal_estimate(mut self, cycles: u64) -> Self {
        self.initial_steal_estimate = cycles;
        self
    }

    /// Occupancy limits enforced at the injection admission boundary
    /// (default [`QueueLimits::unbounded`], which leaves every existing
    /// workload byte-identical). See [`crate::admission`].
    pub fn queue_limits(mut self, limits: QueueLimits) -> Self {
        self.queue_limits = limits;
        self
    }

    /// What the infallible injection path does when a queue limit is hit
    /// (default [`AdmissionPolicy::Block`]); the fallible
    /// [`crate::exec::Injector::try_inject`] path ignores this and
    /// returns the rejection to the caller.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Enables seeded schedule perturbation on the sim executor with
    /// every perturbation on — the one-call entry point for fuzzing and
    /// replay (see [`crate::fuzz`]). Equal seeds replay bit-identical
    /// schedules; unset (the default) keeps the canonical deterministic
    /// schedule byte-identical. The threaded executor ignores this.
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
    pub fn schedule_seed(self, seed: u64) -> Self {
        self.schedule_perturbation(SchedulePerturbation::from_seed(seed))
    }

    /// Installs a [`SchedulePerturbation`] with individually chosen
    /// toggles (the fine-grained form of [`Self::schedule_seed`]).
    pub fn schedule_perturbation(mut self, perturb: SchedulePerturbation) -> Self {
        self.perturb = Some(perturb);
        self
    }

    /// Response to a contained handler panic (default
    /// [`FaultPolicy::QuarantineColor`]) — see [`crate::fault`]. Both
    /// executors honor it.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
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

    /// Installs a victim-selection / steal-budget policy
    /// ([`crate::steal::StealPolicy`]). When unset, the builder picks
    /// [`crate::steal::default_steal_policy`] for the resolved machine:
    /// `FlatPolicy` (today's behavior, bit for bit) on single-tier
    /// machines, `HierarchicalPolicy` on machines that declare SMT or
    /// multiple sockets (e.g. via [`MachineModel::from_spec`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mely_core::prelude::*;
    ///
    /// let rt = RuntimeBuilder::new()
    ///     .cores(4)
    ///     .workstealing(WsPolicy::improved())
    ///     .steal_policy(Arc::new(HierarchicalPolicy))
    ///     .build(ExecKind::Sim);
    /// ```
    pub fn steal_policy(mut self, policy: Arc<dyn StealPolicy>) -> Self {
        self.steal_policy = Some(policy);
        self
    }

    fn resolve(&self) -> (usize, MachineModel) {
        let machine = match &self.machine {
            Some(m) => m.clone(),
            None => {
                let wanted = self.cores.unwrap_or(8);
                if wanted <= 8 {
                    if self.track_cache {
                        MachineModel::xeon_e5410_scaled()
                    } else {
                        MachineModel::xeon_e5410()
                    }
                } else {
                    generic_machine(wanted)
                }
            }
        };
        let cores = self.cores.unwrap_or_else(|| machine.num_cores());
        (cores, machine)
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
        match kind {
            ExecKind::Sim => Runtime::Sim(Box::new(self.make_sim())),
            ExecKind::Threaded => Runtime::Threaded(self.make_threaded()),
        }
    }

    pub(crate) fn make_sim(self) -> SimRuntime {
        let (cores, machine) = self.resolve();
        let steal_policy = self
            .steal_policy
            .unwrap_or_else(|| default_steal_policy(&machine));
        SimRuntime::new(SimConfig {
            cores,
            flavor: self.flavor,
            ws: self.ws,
            machine,
            steal_policy,
            costs: self.costs,
            batch_threshold: self.batch_threshold,
            track_cache: self.track_cache,
            max_cycles: self.max_cycles,
            initial_steal_estimate: self.initial_steal_estimate,
            queue_limits: self.queue_limits,
            admission: self.admission,
            perturb: self.perturb,
            fault_policy: self.fault_policy,
            fault_plan: self.fault_plan,
        })
    }

    pub(crate) fn make_threaded(self) -> ThreadedRuntime {
        // `self.perturb` is deliberately dropped here: the threaded
        // executor's interleavings come from real OS scheduling, which
        // is the nondeterminism the sim's perturbation mode emulates.
        // The fault plan, by contrast, is kept: injection is meaningful
        // chaos on real threads too, just probabilistic rather than
        // replayable.
        let (cores, machine) = self.resolve();
        let steal_policy = self
            .steal_policy
            .unwrap_or_else(|| default_steal_policy(&machine));
        ThreadedRuntime::new(
            cores,
            self.flavor,
            self.ws,
            machine,
            steal_policy,
            self.batch_threshold,
            self.initial_steal_estimate,
            AdmissionCtl::new(self.queue_limits, self.admission),
            FaultCtl::new(self.fault_policy, self.fault_plan),
        )
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

    #[test]
    fn defaults_follow_the_paper() {
        let rt = RuntimeBuilder::new().make_sim();
        assert_eq!(rt.config().cores, 8);
        assert_eq!(rt.config().batch_threshold, 10);
        assert_eq!(rt.config().flavor, Flavor::Mely);
        assert!(!rt.config().ws.enabled);
    }

    #[test]
    fn build_returns_the_requested_executor() {
        use crate::exec::Executor;
        let rt = RuntimeBuilder::new().cores(2).build(ExecKind::Sim);
        assert_eq!(rt.kind(), ExecKind::Sim);
        assert!(rt.as_sim().is_some());
        let rt = RuntimeBuilder::new().cores(2).build(ExecKind::Threaded);
        assert_eq!(rt.kind(), ExecKind::Threaded);
        assert!(rt.as_threaded().is_some());
    }

    /// The 0.2 deprecation cycle is complete: the `build_sim` /
    /// `build_threaded` shims, the `register`/`register_direct`/
    /// `register_after` alias trio and the `label()` Display aliases are
    /// gone, and so is the threaded-only injection handle. This test
    /// pins their *replacements*.
    #[test]
    fn removed_aliases_have_working_replacements() {
        // `build_sim()` → `build(ExecKind::Sim)` (+ `into_sim` when the
        // concrete runtime is needed); same for the threaded executor.
        let rt = RuntimeBuilder::new()
            .cores(2)
            .build(ExecKind::Sim)
            .into_sim();
        assert_eq!(rt.config().cores, 2);
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .build(ExecKind::Threaded)
            .into_threaded();
        assert_eq!(rt.cores(), 2);

        // `label()` → the Display impls.
        assert_eq!(Flavor::Mely.to_string(), "Mely");
        assert!(!crate::steal::WsPolicy::improved().to_string().is_empty());

        // `register`/`register_direct`/`register_after` on a threaded
        // handle → `inject`/`inject_locked`/`inject_after` on
        // `rt.injector()`.
        use crate::color::Color;
        use crate::event::Event;
        use crate::exec::Executor;
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            handle.inject(Event::new(Color::new(7), 0));
            handle.inject_locked(Event::new(Color::new(8), 0));
            handle.inject_after(1_000, Event::new(Color::new(9), 0));
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 5);

        // Same trio on a runtime with bounded queues (generous caps, so
        // nothing can shed): every event is still delivered.
        use crate::admission::{AdmissionPolicy, QueueLimits};
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .queue_limits(
                QueueLimits::default()
                    .per_color_events(64)
                    .inbox_backlog(1_024),
            )
            .admission(AdmissionPolicy::Shed)
            .build(ExecKind::Threaded)
            .into_threaded();
        let handle = rt.injector();
        let injector = std::thread::spawn(move || {
            handle.inject(Event::new(Color::new(7), 0));
            handle.inject_locked(Event::new(Color::new(8), 0));
            handle.inject_after(1_000, Event::new(Color::new(9), 0));
        });
        injector.join().unwrap();
        let r = rt.run();
        assert_eq!(r.events_processed(), 3);
        assert_eq!(r.total().shed_requests, 0);
    }

    #[test]
    fn large_core_counts_get_a_generic_machine() {
        let rt = RuntimeBuilder::new().cores(16).make_sim();
        assert_eq!(rt.config().machine.num_cores(), 16);
    }

    #[test]
    fn track_cache_defaults_to_scaled_model() {
        let rt = RuntimeBuilder::new().cores(8).track_cache(true).make_sim();
        assert!(rt.config().machine.name().contains("scaled"));
    }

    #[test]
    #[should_panic(expected = "only")]
    fn too_many_cores_for_explicit_machine_panics() {
        let _ = RuntimeBuilder::new()
            .cores(12)
            .machine(MachineModel::xeon_e5410())
            .make_sim();
    }

    #[test]
    fn flavor_displays_the_paper_labels() {
        assert_eq!(Flavor::Libasync.to_string(), "Libasync-smp");
        assert_eq!(Flavor::Mely.to_string(), "Mely");
        assert_eq!(Flavor::default(), Flavor::Mely);
    }

    #[test]
    fn batch_threshold_clamps_to_one() {
        let rt = RuntimeBuilder::new().batch_threshold(0).make_sim();
        assert_eq!(rt.config().batch_threshold, 1);
    }
}
