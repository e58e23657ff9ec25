//! Per-layer metrics read from the public ledger of a finished run
//! ([`RunReport`] / `CoreMetrics`), and the attribution table built
//! from them.

use mely_core::metrics::RunReport;

use crate::metrics::Sheet;
use crate::workloads::{AttribRow, Outcome};

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What both executors account the same way: queue, steal, admission
/// and fault counters.
pub fn scheduler(s: &mut Sheet, report: &RunReport) {
    let t = report.total();
    let events = t.events_processed;
    s.set(
        "core.queue.buf_reuse_per_kevent",
        ratio(t.queue_buf_reuse * 1_000, events),
        events,
    );
    s.set(
        "core.steal.attempts_per_kevent",
        ratio(t.steal_attempts * 1_000, events),
        t.steal_attempts,
    );
    s.set(
        "core.steal.success_frac",
        ratio(t.steals, t.steal_attempts),
        t.steal_attempts,
    );
    s.set(
        "core.steal.cycles_per_steal",
        ratio(t.steal_cycles, t.steals),
        t.steals,
    );
    s.set(
        "core.steal.failed_cycles_frac",
        ratio(
            t.failed_steal_cycles,
            t.failed_steal_cycles + t.steal_cycles,
        ),
        t.steal_attempts,
    );
    s.set(
        "core.steal.stolen_cost_per_steal",
        ratio(t.stolen_cost_cycles, t.steals),
        t.steals,
    );
    s.set(
        "core.steal.events_per_steal",
        ratio(t.stolen_events, t.steals),
        t.steals,
    );
    s.set(
        "core.steal.remote_frac",
        ratio(t.steals_remote, t.steals),
        t.steals,
    );
    s.set("core.admission.rejects", t.admission_rejects as f64, 1);
    s.set("core.admission.sheds", t.shed_requests as f64, 1);
    s.set("core.fault.faults", t.faults as f64, 1);
    s.set("core.fault.failed_requests", t.failed_requests as f64, 1);
}

/// The threaded executor's ledger, per op of the workload.
pub fn threaded(s: &mut Sheet, report: &RunReport, ops: f64) {
    scheduler(s, report);
    let t = report.total();
    let n = t.events_processed;
    s.set("core.threaded.events_per_op", n as f64 / ops, n);
    s.set(
        "core.threaded.busy_cycles_per_op",
        t.busy_cycles as f64 / ops,
        n,
    );
    s.set(
        "core.threaded.lock_wait_frac",
        report.lock_time_fraction(),
        t.lock_ops,
    );
    s.set(
        "core.threaded.lock_ops_per_event",
        ratio(t.lock_ops, n),
        t.lock_ops,
    );
    s.set(
        "core.inbox.pushes_per_op",
        t.inbox_pushes as f64 / ops,
        t.inbox_pushes,
    );
    s.set(
        "core.inbox.avg_drain_batch",
        report.avg_inbox_drain_batch().unwrap_or(0.0),
        t.inbox_drain_batches,
    );
    s.set(
        "core.inbox.rerouted_frac",
        ratio(t.inbox_rerouted, t.inbox_pushes),
        t.inbox_pushes,
    );
    s.set(
        "core.inbox.node_reuse_frac",
        ratio(t.inbox_node_reuse, t.inbox_pushes),
        t.inbox_pushes,
    );
}

/// Sets the `attrib.*` metrics and stores the table: each layer's
/// isolated cost per call times its calls per op, against the
/// end-to-end time per op. What the isolated costs do not explain is
/// its own row, never spread over the others.
pub fn attribution(out: &mut Outcome, e2e_ns_per_op: f64, rows: Vec<AttribRow>) {
    let sum: f64 = rows.iter().map(|r| r.calls_per_op * r.ns_per_call).sum();
    out.sheet
        .set("attrib.layer_sum_ns_per_op", sum, rows.len() as u64);
    out.sheet.set(
        "attrib.unexplained_frac",
        1.0 - sum / e2e_ns_per_op.max(1e-9),
        rows.len() as u64,
    );
    out.attribution = Some((e2e_ns_per_op, rows));
}
