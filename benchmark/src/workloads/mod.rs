//! The six workloads. Names are final: later issues cite them.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mely_core::prelude::*;

use crate::host::Sizing;
use crate::metrics::Sheet;
use crate::spans::Spans;

pub mod sfs_threaded;
pub mod sim;
pub mod stage_chain;
pub mod tcp;
pub mod twin;

/// `(name, why it is here)` — the `workloads` of `BENCHMARK.json`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tcp_keepalive",
        "SWS behind the TCP gateway on N persistent pipelined connections: the whole read/write path of net::tcp, SimNet, inbox, queue and the nine stages; crypto and stealing idle",
    ),
    (
        "tcp_churn",
        "same server, but every connection carries 4 requests and is reopened: accept, connect, close and color create/retire beside read/write",
    ),
    (
        "sfs_threaded",
        "the file server's coarse handlers with real encrypt, MAC and verify: crypto and steals do the work, network edge and HTTP are bypassed",
    ),
    (
        "stage_chain",
        "four zero-cost typed hops per op: inject, inbox, queue and typed routing are all there is; handlers, net and crypto are bypassed",
    ),
    (
        "sim_sws",
        "1000 simulated clients on 8 simulated cores: many short-lived colors and short handlers, where naive stealing hurts; threads and sockets bypassed",
    ),
    (
        "sim_unbalanced",
        "the paper's fork/join microbenchmark where stealing must pay: the same steal and queue code as sim_sws used the opposite way",
    ),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Traced run: harness spans on, the extra phases and the isolated
    /// replays that feed the per-layer metrics.
    pub trace: bool,
    pub sizing: Sizing,
    pub tsc_hz: f64,
    /// Taken first thing in `main`: spans and `setup_s` count from it.
    pub process_start: Instant,
}

impl RunCfg {
    pub fn share(&self, numerator: u32, denominator: u32) -> Duration {
        Duration::from_secs_f64(self.seconds * numerator as f64 / denominator as f64)
    }

    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles * 1e6 / self.tsc_hz
    }
}

#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One row of the attribution table (README, "Attribution").
#[derive(Debug, Clone)]
pub struct AttribRow {
    pub layer: &'static str,
    pub calls_per_op: f64,
    pub ns_per_call: f64,
}

/// Everything a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    /// `RunFingerprint` of a simulator run.
    pub fingerprint: Option<String>,
    pub spans: Spans,
    /// Worker cores the workload actually used (the `W` of the output).
    pub workers: usize,
    /// Isolated layer costs against the end-to-end ns per op.
    pub attribution: Option<(f64, Vec<AttribRow>)>,
    pub noisy: bool,
}

impl Outcome {
    pub fn new(cfg: &RunCfg, workers: usize) -> Outcome {
        Outcome {
            sheet: Sheet::default(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            fingerprint: None,
            spans: Spans::new(cfg.trace, cfg.process_start),
            workers,
            attribution: None,
            noisy: false,
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn check_eq(&mut self, name: &'static str, got: u64, want: u64) {
        self.check(name, got == want, format!("{got} vs {want}"));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The three process-wide end-to-end metrics every workload
    /// reports. `cpu_us_per_op` and `ops` cover the measured part only.
    pub fn set_process_metrics(
        &mut self,
        cpu_us_per_op: f64,
        ops: u64,
        setups: &[Duration],
        peak_rss_mb: f64,
    ) {
        let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        self.sheet.set("cpu_us_per_op", cpu_us_per_op, ops);
        self.sheet.set("peak_rss_mb", peak_rss_mb, 1);
        self.sheet.set(
            "setup_s",
            crate::stats::median(&setup_s),
            setup_s.len() as u64,
        );
    }
}

/// Process CPU time per op, in µs.
pub fn cpu_us_per_op(cpu: Duration, ops: u64) -> f64 {
    cpu.as_secs_f64() * 1e6 / ops.max(1) as f64
}

/// The runtime every workload runs on: Mely with the improved
/// workstealing, as `examples/serve.rs` builds it.
pub fn runtime(kind: ExecKind, cores: usize) -> Runtime {
    RuntimeBuilder::new()
        .cores(cores)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(kind)
}

/// A threaded runtime running on a thread of its own, kept alive for an
/// external producer (the `keepalive` / `stop_when_idle` idiom).
pub struct Background {
    stopper: Injector,
    keepalive: KeepAlive,
    runner: JoinHandle<RunReport>,
}

impl Background {
    pub fn start(mut rt: Runtime) -> Background {
        let keepalive = rt.injector().keepalive();
        let stopper = rt.injector();
        let runner = std::thread::Builder::new()
            .name("mely-runtime".into())
            .spawn(move || rt.run())
            .expect("spawn the runtime thread");
        Background {
            stopper,
            keepalive,
            runner,
        }
    }

    /// Waits until everything injected has run, stops the workers and
    /// returns the run's report.
    pub fn stop(self) -> RunReport {
        self.stopper.stop_when_idle();
        drop(self.keepalive);
        self.runner.join().expect("the runtime thread panicked")
    }
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 20;

pub fn run(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    Some(match name {
        "tcp_keepalive" => tcp::keepalive(cfg),
        "tcp_churn" => tcp::churn(cfg),
        "sfs_threaded" => sfs_threaded::run(cfg),
        "stage_chain" => stage_chain::run(cfg),
        "sim_sws" => sim::sws(cfg),
        "sim_unbalanced" => sim::unbalanced(cfg),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's only source of generated inputs, so the
/// same `--seed` gives the same inputs on every toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Throughput is the median rate over slices this long: on a shared
/// host a stall slows a few slices, not the median.
pub const SLICE: Duration = Duration::from_millis(250);

/// Ops completed per [`SLICE`] since a phase began.
#[derive(Debug, Default)]
pub struct Slices(Vec<u64>);

impl Slices {
    pub fn add(&mut self, since_start: Duration, ops: u64) {
        let i = (since_start.as_nanos() / SLICE.as_nanos()) as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += ops;
    }

    /// Rates of the slices that lie wholly inside `elapsed`.
    pub fn rates(&self, elapsed: Duration) -> Vec<f64> {
        let full = (elapsed.as_nanos() / SLICE.as_nanos()) as usize;
        self.0
            .iter()
            .take(full)
            .map(|&c| c as f64 / SLICE.as_secs_f64())
            .collect()
    }

    /// Median slice rate; the plain mean when the phase was shorter
    /// than one slice.
    pub fn throughput(&self, elapsed: Duration, ops: u64) -> f64 {
        let rates = self.rates(elapsed);
        if rates.is_empty() {
            ops as f64 / elapsed.as_secs_f64().max(1e-9)
        } else {
            crate::stats::median(&rates)
        }
    }

    /// `trace.overhead_frac` of a phase whose spans were toggled by
    /// [`quarter_is_traced`]: 1 - median traced rate / median untraced.
    pub fn trace_overhead(&self, elapsed: Duration, length: Duration) -> f64 {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (i, r) in self.rates(elapsed).into_iter().enumerate() {
            if quarter_is_traced(SLICE * i as u32 + SLICE / 2, length) {
                on.push(r);
            } else {
                off.push(r);
            }
        }
        if on.is_empty() || off.is_empty() {
            return 0.0;
        }
        1.0 - crate::stats::median(&on) / crate::stats::median(&off)
    }
}

/// A traced run switches its harness spans on in the second and fourth
/// quarter of a measured phase, so one phase yields a traced and an
/// untraced rate under the same host conditions.
pub fn quarter_is_traced(at: Duration, length: Duration) -> bool {
    (at.as_nanos() * 4 / length.as_nanos().max(1)) % 2 == 1
}
