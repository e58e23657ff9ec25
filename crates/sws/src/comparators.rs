//! The two comparator servers of Figure 7.
//!
//! The paper compares SWS against "the worker (multithread) version of
//! Apache and a multiprocess configuration of the event-based µserver".
//! Neither runs on the Mely runtime:
//!
//! - [`install_ncopy`] models µserver's N-copy configuration: N fully
//!   independent [`SwsService`] instances, one pinned per core, each
//!   with its own listener port and its own `Epoll`/`Accept` stages.
//!   Pinning uses the color hash: copy `c` draws every color from
//!   [`ColorSpace::congruent`]`(c, cores)`, so with workstealing
//!   disabled all of a copy's events stay on its core — exactly the
//!   N-copy deployment.
//! - [`ThreadedServer`] models an Apache-worker-style server: a pool of
//!   kernel threads serving one connection each, time-sliced over the
//!   cores by a quantum scheduler, paying context-switch and
//!   thread-stack cache penalties that the event-driven servers avoid.
//!   It is a compact closed-loop discrete-event simulation, independent
//!   of the Mely runtime.

use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::color::ColorSpace;
use mely_core::exec::{Executor, Service};
use mely_net::driver::Driver;
use mely_net::SimNet;

use crate::{SwsConfig, SwsService};

/// Installs `copies` independent SWS instances, copy `c` listening on
/// `base_cfg.port + c` with all colors pinned (by hash) to core `c`.
/// Run with workstealing **off** to model the N-copy deployment; the
/// load's `ports` should list every copy's port.
///
/// # Panics
///
/// Panics if `copies` is zero or exceeds the runtime's core count.
pub fn install_ncopy<D: Driver + 'static>(
    rt: &mut dyn Executor,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    base_cfg: &SwsConfig,
    copies: usize,
) -> Vec<SwsService<D>> {
    let cores = rt.cores();
    assert!(copies > 0, "need at least one copy");
    assert!(copies <= cores, "one copy per core at most");
    (0..copies)
        .map(|c| {
            let mut cfg = base_cfg.clone();
            cfg.port = base_cfg.port + c as u16;
            // Every color of the copy ≡ c (mod cores): hash dispatch
            // pins the whole copy to core c, and distinct residues keep
            // the copies' colors disjoint.
            let mut copy = SwsService::new(Arc::clone(&net), Arc::clone(&driver), cfg)
                .with_colors(ColorSpace::congruent(c, cores));
            copy.install(rt);
            copy
        })
        .collect()
}

/// Configuration of the Apache-worker comparator model.
#[derive(Debug, Clone)]
pub struct ThreadedServerConfig {
    /// Worker threads in the pool (Apache worker MPM default scale).
    pub workers: usize,
    /// Physical cores.
    pub cores: usize,
    /// CPU cycles of useful work per request (kept comparable to the
    /// SWS handler total so the comparison isolates the concurrency
    /// model).
    pub service_cycles: u64,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Direct cost of a context switch.
    pub ctx_switch: u64,
    /// Multiplicative cache/TLB penalty applied to service time when
    /// more runnable threads than cores exist (stack and working-set
    /// eviction), expressed in percent.
    pub overcommit_penalty_pct: u64,
    /// Network round-trip (closed-loop client think path).
    pub rtt: u64,
}

impl Default for ThreadedServerConfig {
    fn default() -> Self {
        ThreadedServerConfig {
            workers: 64,
            cores: 8,
            service_cycles: 105_000,
            quantum: 250_000,
            ctx_switch: 6_000,
            overcommit_penalty_pct: 35,
            rtt: 40_000,
        }
    }
}

/// Result of a [`ThreadedServer`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadedServerResult {
    /// Completed responses.
    pub responses: u64,
    /// Virtual duration of the run in cycles.
    pub duration: u64,
    /// Mean response latency in cycles.
    pub mean_latency: f64,
}

impl ThreadedServerResult {
    /// Throughput in thousands of requests per second at `freq_hz`.
    pub fn kreq_per_sec(&self, freq_hz: u64) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        let secs = self.duration as f64 / freq_hz as f64;
        self.responses as f64 / secs / 1e3
    }
}

/// Closed-loop quantum simulation of a thread-per-connection server.
#[derive(Debug)]
pub struct ThreadedServer {
    cfg: ThreadedServerConfig,
}

impl ThreadedServer {
    /// Creates the model.
    pub fn new(cfg: ThreadedServerConfig) -> Self {
        ThreadedServer { cfg }
    }

    /// Runs `clients` closed-loop clients for `duration` cycles and
    /// returns the completed work.
    ///
    /// The simulation advances in scheduler quanta: each quantum, up to
    /// `cores` runnable threads execute; when more threads are runnable
    /// than cores, every running thread pays the overcommit penalty and
    /// each quantum boundary pays a context switch. Requests beyond the
    /// worker-pool size queue for a free worker.
    pub fn run(&self, clients: usize, duration: u64) -> ThreadedServerResult {
        let c = &self.cfg;
        // Remaining service cycles per in-flight request, indexed by
        // worker; `None` = idle worker.
        let mut workers: Vec<Option<u64>> = vec![None; c.workers];
        // Requests waiting for a worker, by arrival time.
        let mut backlog: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        // Clients currently "thinking" (network round trip), with their
        // ready times — aggregated as a sorted queue of arrival counts.
        let mut arrivals: std::collections::BinaryHeap<std::cmp::Reverse<u64>> =
            (0..clients).map(|_| std::cmp::Reverse(0u64)).collect();
        let mut now: u64 = 0;
        let mut responses: u64 = 0;
        let mut latency_sum: u64 = 0;
        let mut busy_since: Vec<u64> = vec![0; c.workers];

        while now < duration {
            // Admit arrivals due by now.
            while let Some(&std::cmp::Reverse(t)) = arrivals.peek() {
                if t > now {
                    break;
                }
                arrivals.pop();
                backlog.push_back(t);
            }
            // Fill idle workers from the backlog; latency counts from
            // the request's arrival, queueing included.
            for (w, slot) in workers.iter_mut().enumerate() {
                if slot.is_none() {
                    let Some(arrived) = backlog.pop_front() else {
                        break;
                    };
                    *slot = Some(c.service_cycles);
                    busy_since[w] = arrived;
                }
            }
            let runnable: usize = workers.iter().flatten().count();
            if runnable == 0 {
                // Idle until the next arrival.
                match arrivals.peek() {
                    Some(&std::cmp::Reverse(t)) => now = t.max(now + 1),
                    None => break,
                }
                continue;
            }
            // One quantum of processor sharing: `cores` cores' worth of
            // cycles spread over the runnable threads, each thread
            // limited to one core's worth. Overcommit slows everyone
            // down (cache/TLB churn) and charges context switches.
            let overcommitted = runnable > c.cores;
            let per_thread_cap = if overcommitted {
                let slowdown = 100 + c.overcommit_penalty_pct;
                (c.quantum * 100 / slowdown)
                    .saturating_sub(c.ctx_switch)
                    .max(1)
            } else {
                c.quantum
            };
            let mut capacity = c.cores as u64 * per_thread_cap;
            let mut allowance: Vec<u64> = workers
                .iter()
                .map(|w| if w.is_some() { per_thread_cap } else { 0 })
                .collect();
            loop {
                let active = workers
                    .iter()
                    .zip(&allowance)
                    .filter(|(w, &a)| w.is_some() && a > 0)
                    .count() as u64;
                if active == 0 || capacity == 0 {
                    break;
                }
                let share = (capacity / active).max(1);
                let mut used = 0u64;
                for (w, slot) in workers.iter_mut().enumerate() {
                    let Some(rem) = slot else { continue };
                    if allowance[w] == 0 {
                        continue;
                    }
                    let grant = share
                        .min(allowance[w])
                        .min(*rem)
                        .min(capacity.saturating_sub(used));
                    if grant == 0 {
                        continue;
                    }
                    allowance[w] -= grant;
                    used += grant;
                    if grant == *rem {
                        // Request complete: the client thinks for one
                        // RTT and then sends its next request.
                        let finish = now + (per_thread_cap - allowance[w]);
                        *slot = None;
                        responses += 1;
                        latency_sum += finish.saturating_sub(busy_since[w]);
                        arrivals.push(std::cmp::Reverse(finish + c.rtt));
                    } else {
                        *rem -= grant;
                    }
                }
                capacity = capacity.saturating_sub(used);
                if used == 0 {
                    break;
                }
            }
            now += c.quantum;
        }
        ThreadedServerResult {
            responses,
            duration: now.max(1),
            mean_latency: if responses == 0 {
                0.0
            } else {
                latency_sum as f64 / responses as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HttpProtocol;
    use mely_core::prelude::*;
    use mely_loadgen::{ClosedLoopLoad, LoadConfig};
    use mely_net::NetConfig;

    #[test]
    fn ncopy_copies_are_isolated_one_per_core() {
        const N: usize = 8;
        let mut rt = RuntimeBuilder::new()
            .cores(N)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = SwsConfig::default();
        let load = ClosedLoopLoad::new(
            HttpProtocol::new(cfg.files),
            LoadConfig {
                clients: 32,
                ports: (0..N as u16).map(|c| cfg.port + c).collect(),
                requests_per_conn: 5,
                duration: 30_000_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let copies = install_ncopy(&mut rt, net, driver, &cfg, N);
        let report = rt.run();
        assert_eq!(report.total().steals, 0);
        for (c, (copy, core)) in copies.iter().zip(report.per_core()).enumerate() {
            let served = copy.stats().responses;
            assert!(served > 0, "copy {c} served nothing");
            // Every response completes its request on the core that
            // wrote it: copy c's per-connection colors all ran on core c.
            assert_eq!(core.completed_requests, served, "copy {c}");
            // Nothing a core's handlers emit is executed elsewhere:
            // its serial (Epoll, Accept) colors are its own too.
            assert_eq!(core.registered, core.events_processed, "core {c}");
        }

        // The colors behind that: copy c draws from `congruent(c, N)` —
        // two serial allocations (Epoll's and Accept's) and one keyed
        // color per descriptor, all ≡ c, the serial ones never shared.
        let mut serial = Vec::new();
        for c in 0..N {
            let mut space = ColorSpace::congruent(c, N);
            let drawn = [space.alloc(), space.alloc()];
            let keyed = (0..4_096).map(|fd| space.keyed(fd));
            for color in drawn.into_iter().chain(keyed) {
                assert_eq!(color.home_core(N), c, "{color} of copy {c}");
            }
            serial.extend(drawn);
        }
        serial.sort();
        serial.dedup();
        assert_eq!(serial.len(), 2 * N, "serial colors are pairwise distinct");
    }

    #[test]
    fn threaded_model_saturates_with_clients() {
        let model = ThreadedServer::new(ThreadedServerConfig::default());
        let low = model.run(8, 200_000_000);
        let high = model.run(512, 200_000_000);
        assert!(high.responses > low.responses, "more load, more served");
        let peak = model.run(2_048, 200_000_000);
        // Saturation: doubling clients again gains little.
        assert!(
            (peak.responses as f64) < high.responses as f64 * 1.8,
            "overcommit must cap throughput"
        );
        assert!(peak.kreq_per_sec(2_330_000_000) > 0.0);
        assert!(peak.mean_latency > high.mean_latency);
    }

    #[test]
    fn threaded_model_is_idle_safe() {
        let model = ThreadedServer::new(ThreadedServerConfig {
            workers: 2,
            ..ThreadedServerConfig::default()
        });
        let r = model.run(1, 10_000_000);
        assert!(r.responses > 0);
    }
}
