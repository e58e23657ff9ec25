//! What a run prints and writes: the table for people, the full
//! document for `all` / `compare`, and the one-line result the driver
//! of `BENCHMARK.json` reads.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Outcome, RunCfg};

fn table(cfg: &RunCfg) -> &'static [MetricDef] {
    if cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn fail_frac(o: &Outcome) -> f64 {
    o.failed as f64 / o.attempted.max(1) as f64
}

/// Exactly the keys the contract names; the metrics are every
/// end-to-end metric of an untraced run, every per-layer one of a
/// traced run.
pub fn result_line(cfg: &RunCfg, o: &Outcome) -> Json {
    let metrics = o.sheet.rows(table(cfg)).map(|(m, value, _)| {
        (
            m.name,
            Json::obj([("value", Json::from(value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::from(o.correct())),
        ("attempted", Json::from(o.attempted.max(1))),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

pub fn document(
    name: &str,
    cfg: &RunCfg,
    o: &Outcome,
    load_before: f64,
    trace_file: Option<&Path>,
) -> Json {
    let metrics = o.sheet.rows(table(cfg)).map(|(m, value, samples)| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::from(samples)),
            ]),
        )
    });
    let checks = o.checks.iter().map(|c| {
        Json::obj([
            ("name", Json::str(c.name)),
            ("ok", Json::from(c.ok)),
            ("detail", Json::str(c.detail.clone())),
        ])
    });
    let spans = o.spans.totals().into_iter().map(|(span, t)| {
        (
            span,
            Json::obj([
                ("count", Json::from(t.count)),
                ("total_ns", Json::from(t.total_ns)),
                ("self_ns", Json::from(t.self_ns)),
            ]),
        )
    });
    let mut fields = vec![
        ("workload", Json::str(name)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("trace", Json::from(cfg.trace)),
        ("sizing", cfg.sizing.json(o.workers)),
        ("loadavg_1min_before", Json::from(load_before)),
        ("noisy", Json::from(o.noisy)),
        ("correct", Json::from(o.correct())),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("fail_frac", Json::from(fail_frac(o))),
        ("checks", Json::Arr(checks.collect())),
        ("notes", Json::Arr(o.notes.iter().map(Json::str).collect())),
        ("metrics", Json::obj(metrics)),
    ];
    if let Some(fp) = &o.fingerprint {
        fields.push(("fingerprint", Json::str(fp.clone())));
    }
    if let Some((e2e_ns, rows)) = &o.attribution {
        let rows = rows.iter().map(|r| {
            Json::obj([
                ("layer", Json::str(r.layer)),
                ("calls_per_op", Json::from(r.calls_per_op)),
                ("ns_per_call", Json::from(r.ns_per_call)),
                ("share", Json::from(r.calls_per_op * r.ns_per_call / e2e_ns)),
            ])
        });
        fields.push((
            "attribution",
            Json::obj([
                ("end_to_end_ns_per_op", Json::from(*e2e_ns)),
                ("layers", Json::Arr(rows.collect())),
            ]),
        ));
    }
    if cfg.trace {
        fields.push(("spans", Json::obj(spans)));
        if let Some(path) = trace_file {
            fields.push(("trace_file", Json::str(path.display().to_string())));
        }
    }
    Json::obj(fields)
}

pub fn print_human(name: &str, cfg: &RunCfg, o: &Outcome) {
    println!(
        "\n== {name}  seed {}  {} s  {}  nproc {}  N {}  W {}{}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        cfg.sizing.nproc,
        cfg.sizing.n,
        o.workers,
        if o.noisy { "  [noisy]" } else { "" },
    );
    for note in &o.notes {
        println!("   {note}");
    }
    for (m, value, samples) in o.sheet.rows(table(cfg)) {
        println!(
            "   {:<40} {:>16.4} {:<9} n={samples}",
            m.name, value, m.unit
        );
    }
    println!(
        "   {:<40} {:>16.6} {:<9} n={}",
        "fail_frac (failed / attempted)",
        fail_frac(o),
        "frac",
        o.attempted
    );
    if let Some(fp) = &o.fingerprint {
        println!("   fingerprint {fp}");
    }
    for c in &o.checks {
        println!(
            "   [{}] {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    if let Some((e2e_ns, rows)) = &o.attribution {
        print_attribution(*e2e_ns, rows);
    }
    if cfg.trace {
        println!(
            "   spans: {:<24} {:>9} {:>14} {:>14}",
            "name", "count", "total us", "self us"
        );
        for (span, t) in o.spans.totals() {
            println!(
                "          {span:<24} {:>9} {:>14.1} {:>14.1}",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            );
        }
    }
}

/// Layers by share of the end-to-end time per op, largest first; what
/// the isolated costs leave unexplained is a row of its own.
fn print_attribution(e2e_ns: f64, rows: &[crate::workloads::AttribRow]) {
    let mut rows: Vec<(&str, f64, f64, f64)> = rows
        .iter()
        .map(|r| {
            (
                r.layer,
                r.calls_per_op,
                r.ns_per_call,
                r.calls_per_op * r.ns_per_call,
            )
        })
        .collect();
    let explained: f64 = rows.iter().map(|r| r.3).sum();
    rows.push((
        "unexplained remainder",
        1.0,
        e2e_ns - explained,
        e2e_ns - explained,
    ));
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    println!(
        "   attribution of {e2e_ns:.0} ns per op; top layer: {}",
        rows[0].0
    );
    println!(
        "     {:<40} {:>12} {:>12} {:>8}",
        "layer", "calls/op", "ns/call", "share"
    );
    for (layer, calls, ns, total) in rows {
        println!(
            "     {layer:<40} {calls:>12.3} {ns:>12.1} {:>7.1}%",
            total / e2e_ns * 100.0
        );
    }
}
