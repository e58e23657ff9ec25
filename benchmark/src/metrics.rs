//! The benchmark's metric tables — the single source `BENCHMARK.json`
//! is generated from (`mely-benchmark manifest`) — and the sheet a
//! workload fills in.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// README ("End-to-end metrics") says what each measures per workload.
/// `fail_frac` is carried by the result line's `attempted` / `failed`
/// fields, because a listed metric may never read 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("virtual_throughput", "kops/s", Higher, 0.01),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer = one module of the repository. A workload that bypasses a
/// layer reports 0 for its ledger and span metrics.
pub const PER_LAYER: &[MetricDef] = &[
    layer("fail_frac", "frac", Lower),
    layer("net.tcp.edge_wait_us_p50", "us", Lower),
    layer("net.tcp.connect_first_resp_us_p50", "us", Lower),
    layer("net.tcp.accepted", "count", Higher),
    layer("net.tcp.closed", "count", Higher),
    layer("net.tcp.resets", "count", Lower),
    layer("net.tcp.accept_sheds", "count", Lower),
    layer("net.tcp.rx_bytes_per_op", "B/op", Lower),
    layer("net.tcp.tx_bytes_per_op", "B/op", Lower),
    layer("net.driver.advance_calls_per_op", "1/op", Lower),
    layer("net.driver.advance_ns_mean", "ns", Lower),
    layer("net.simnet.roundtrip_ns", "ns", Lower),
    layer("net.simnet.bytes_per_op", "B/op", Lower),
    layer("core.threaded.events_per_op", "1/op", Lower),
    layer("core.threaded.busy_cycles_per_op", "cycles", Lower),
    layer("core.threaded.lock_wait_frac", "frac", Lower),
    layer("core.threaded.lock_ops_per_event", "1/event", Lower),
    layer("core.inbox.pushes_per_op", "1/op", Lower),
    layer("core.inbox.avg_drain_batch", "events", Higher),
    layer("core.inbox.rerouted_frac", "frac", Lower),
    layer("core.inbox.node_reuse_frac", "frac", Higher),
    layer("core.inbox.push_drain_ns", "ns", Lower),
    layer("core.queue.mely_push_pop_ns", "ns", Lower),
    layer("core.queue.legacy_push_pop_ns", "ns", Lower),
    layer("core.queue.buf_reuse_per_kevent", "1/kevent", Higher),
    layer("core.steal.attempts_per_kevent", "1/kevent", Lower),
    layer("core.steal.success_frac", "frac", Higher),
    layer("core.steal.cycles_per_steal", "cycles", Lower),
    layer("core.steal.failed_cycles_frac", "frac", Lower),
    layer("core.steal.stolen_cost_per_steal", "cycles", Higher),
    layer("core.steal.events_per_steal", "events", Higher),
    layer("core.steal.remote_frac", "frac", Lower),
    layer("core.steal.choose_detach_ns", "ns", Lower),
    layer("core.stage.ns_per_hop", "ns", Lower),
    layer("core.stage.typed_over_raw", "ratio", Lower),
    layer("core.sim.host_ns_per_event", "ns", Lower),
    layer("core.sim.virtual_cycles_per_event", "cycles", Lower),
    layer("core.sim.lock_time_frac", "frac", Lower),
    layer("core.sim.l2_misses_per_event", "1/event", Lower),
    layer("core.sim.virtual_speedup_vs_nows", "ratio", Higher),
    layer("core.sim.virtual_speedup_vs_legacy_ws", "ratio", Higher),
    layer("core.admission.rejects", "count", Lower),
    layer("core.admission.sheds", "count", Lower),
    layer("core.fault.faults", "count", Lower),
    layer("core.fault.failed_requests", "count", Lower),
    layer("http.parse_ns", "ns", Lower),
    layer("http.cache_lookup_ns", "ns", Lower),
    layer("crypto.encrypt_ns_per_kb", "ns/KB", Lower),
    layer("crypto.mac_ns_per_kb", "ns/KB", Lower),
    layer("sws.events_per_response", "1/op", Lower),
    layer("sws.server_latency_p50_us", "us", Lower),
    layer("sws.server_latency_p99_us", "us", Lower),
    layer("sws.bad_request", "count", Lower),
    layer("sws.aborted", "count", Lower),
    layer("sfs.verified_frac", "frac", Higher),
    layer("sfs.corrupt", "count", Lower),
    layer("sfs.annotated_cost_share", "frac", Lower),
    layer("cachesim.sweep_ns_per_kb", "ns/KB", Lower),
    layer("client.send_late_us_p99", "us", Lower),
    layer("client.send_late_us_max", "us", Lower),
    layer("client.latency_p50_us_at_12k", "us", Lower),
    layer("client.latency_p99_us_at_12k", "us", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.latency_p999_us", "us", Lower),
    layer("client.churn_latency_p99_us", "us", Lower),
    layer("client.max_rate_ok", "1/s", Higher),
    layer("attrib.layer_sum_ns_per_op", "ns", Lower),
    layer("attrib.unexplained_frac", "frac", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// Values of one run, keyed by metric name, each with its sample count.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the tables"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, u64)> {
        self.values.get(name).copied()
    }

    /// Rows of `table` in table order; a metric the workload did not
    /// set reads 0 with no samples.
    pub fn rows<'a>(
        &'a self,
        table: &'a [MetricDef],
    ) -> impl Iterator<Item = (&'a MetricDef, f64, u64)> + 'a {
        table.iter().map(|m| {
            let (v, n) = self.get(m.name).unwrap_or((0.0, 0));
            (m, v, n)
        })
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest(run_seconds: u64, workloads: &[(&str, &str)]) -> Json {
    let defs = |table: &[MetricDef], bounded: bool| {
        Json::Arr(
            table
                .iter()
                .map(|m| {
                    let mut f = vec![
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.as_str())),
                    ];
                    if bounded {
                        f.push(("bound", Json::from(m.bound)));
                    }
                    Json::obj(f)
                })
                .collect(),
        )
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::from(run_seconds)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", defs(END_TO_END, true)),
        ("per_layer", defs(PER_LAYER, false)),
    ])
}
