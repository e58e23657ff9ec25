//! `mely-benchmark compare A B`: per end-to-end metric and workload,
//! set A's median against set B's, with the ratio, its base, the bound
//! and a verdict. A and B are documents written by `all`, or comma
//! separated lists of them (runs of one commit each).
//!
//! Verdicts follow the guide's rule: a median worse by more than the
//! bound is `worse`; but where the run-to-run spread of either set is
//! wider than the bound the pair is `unresolved` — unless every run of
//! one side lies beyond every run of the other, which spread cannot
//! explain.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{median, quartiles};

/// `setup_s` may also grow by this much in absolute terms: set-up is a
/// few milliseconds, where a quarter is inside the scheduler's jitter.
const SETUP_SLACK_S: f64 = 0.050;

fn load_set(arg: &str) -> Result<Vec<Json>, String> {
    arg.split(',')
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
        })
        .collect()
}

/// The untraced run's record of `workload` in each document of a set.
fn runs<'a>(set: &'a [Json], workload: &str) -> Vec<&'a Json> {
    set.iter()
        .filter_map(|d| d.get("workloads")?.get(workload)?.get("end_to_end"))
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(1e-12);
    match m.better {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs().max(1e-12)
}

fn verdict(m: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse_by = worsening(m, ma, mb);
    let within = worse_by <= m.bound || (m.name == "setup_s" && mb - ma <= SETUP_SLACK_S);
    let noisy = a.len().min(b.len()) >= 2 && spread(a).max(spread(b)) > m.bound;
    // Every run of B on one side of every run of A?
    let all_worse = b
        .iter()
        .all(|&y| a.iter().all(|&x| worsening(m, x, y) > 0.0));
    let all_better = b
        .iter()
        .all(|&y| a.iter().all(|&x| worsening(m, x, y) < 0.0));
    match (within, noisy) {
        (true, false) => "ok",
        (true, true) if all_better => "ok",
        (false, false) => "worse",
        (false, true) if all_worse => "worse",
        _ => "unresolved",
    }
}

pub fn main(args: &[&str]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two documents (or comma-separated sets): A B".into());
    };
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "A = {} run(s) [{a}]\nB = {} run(s) [{b}]\nratio = median B / median A (base: A)\n",
        set_a.len(),
        set_b.len()
    );
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "bound"
    );
    let mut any_worse = false;
    for (workload, _) in crate::workloads::WORKLOADS {
        let (ra, rb) = (runs(&set_a, workload), runs(&set_b, workload));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<16} missing from one side");
            any_worse = true;
            continue;
        }
        for m in END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            any_worse |= v == "worse";
            println!(
                "{workload:<16} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>6.0}%  {v}",
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                m.bound * 100.0
            );
        }
        // Any increase of the failure share is a regression.
        let fail = |rs: &[&Json]| {
            rs.iter()
                .filter_map(|r| r.get("fail_frac")?.as_f64())
                .fold(0.0, f64::max)
        };
        let (fa, fb) = (fail(&ra), fail(&rb));
        let v = if fb > fa { "worse" } else { "ok" };
        any_worse |= fb > fa;
        println!(
            "{workload:<16} {:<20} {fa:>14.6} {fb:>14.6} {:>8} {:>7}  {v}",
            "fail_frac", "-", "any"
        );
        // A simulated result either repeats bit for bit or it changed.
        let prints = |rs: &[&Json]| -> Vec<String> {
            let mut p: Vec<String> = rs
                .iter()
                .filter_map(|r| r.get("fingerprint")?.as_str().map(str::to_string))
                .collect();
            p.sort();
            p.dedup();
            p
        };
        let (pa, pb) = (prints(&ra), prints(&rb));
        if !pa.is_empty() {
            let same_seed = ra
                .iter()
                .chain(&rb)
                .all(|r| r.get("seed") == ra[0].get("seed"));
            let state = if pa == pb && pa.len() == 1 {
                "bit-equal across all runs"
            } else if !same_seed {
                "not comparable (different seeds)"
            } else {
                "DIFFERS: the simulated result changed"
            };
            println!("{workload:<16} {:<20} {state}", "fingerprint");
        }
    }
    println!(
        "\n{}",
        if any_worse {
            "at least one pair is worse"
        } else {
            "no pair is worse"
        }
    );
    Ok(!any_worse)
}
