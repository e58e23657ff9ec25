//! `mely-benchmark`: the benchmark of this repository (see
//! `BENCHMARK.json` and `benchmark/README.md`).
//!
//! ```text
//! mely-benchmark run --workload W --seed N --seconds S --trace 0|1 [--out F]
//! mely-benchmark all [--seed N] [--smoke] [--out F]
//! mely-benchmark compare A.json[,A2.json..] B.json[,B2.json..]
//! mely-benchmark manifest
//! ```
//!
//! `run` is one workload in this process and is what `BENCHMARK.json`'s
//! command invokes; `all` runs every workload in a child process of its
//! own, untraced and then traced, and writes one document.

mod compare;
mod host;
mod json;
mod ledger;
mod metrics;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use workloads::{RunCfg, WORKLOADS};

/// Length of a measured run; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 16;
const OUT_DIR: &str = "benchmark/out";

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    mely_core::cycles::init();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match command.as_str() {
        "run" => run(&args, process_start),
        "all" => all(&args),
        "compare" => compare::main(&args.positional()),
        "manifest" => {
            print!("{}", metrics::manifest(RUN_SECONDS, WORKLOADS).pretty());
            Ok(true)
        }
        _ => Err(format!(
            "usage: mely-benchmark run|all|compare|manifest (got '{command}'); see benchmark/README.md"
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mely-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. `Ok(false)` when its outputs were
/// wrong (the result line is still printed, with `"correct": false`).
fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    if !(0.2..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 0.2..=60, got {seconds}"));
    }
    let cfg = RunCfg {
        seed: args.parsed("--seed", 1)?,
        seconds,
        trace,
        sizing: host::Sizing::detect(),
        tsc_hz: host::measure_tsc_hz(),
        process_start,
    };
    let load_before = host::loadavg();
    let mut outcome = workloads::run(name, &cfg).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload '{name}'; one of {}", names.join(", "))
    })?;
    // Not a failure: the numbers stand, but a reader should know the
    // host was busy or the generator ran late.
    outcome.noisy |= load_before > cfg.sizing.n as f64;

    let trace_file = trace.then(|| PathBuf::from(format!("{OUT_DIR}/trace_{name}.json")));
    if let Some(path) = &trace_file {
        outcome
            .spans
            .write_chrome(path, name)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let doc = report::document(name, &cfg, &outcome, load_before, trace_file.as_deref());
    report::print_human(name, &cfg, &outcome);
    if let Some(path) = args.value("--out") {
        write_file(path, &doc.pretty())?;
    }
    println!("{}", report::result_line(&cfg, &outcome).compact());
    Ok(outcome.correct())
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Every workload, each in a child process of its own (so peak memory
/// is per workload): untraced at full length for the end-to-end
/// metrics, then traced at a third of it for the per-layer metrics.
fn all(args: &Args) -> Result<bool, String> {
    let smoke = args.flag("--smoke");
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds = if smoke { 1.0 } else { RUN_SECONDS as f64 };
    let out = args.value("--out").unwrap_or("benchmark/out/BENCH.json");
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let environment = host::environment(seed, host::measure_tsc_hz());

    let mut ok = true;
    let mut per_workload = Vec::new();
    for (name, _) in WORKLOADS {
        let mut pair = Vec::new();
        for (key, trace, length) in [
            ("end_to_end", "0", seconds),
            (
                "per_layer",
                "1",
                if smoke { seconds } else { seconds / 3.0 },
            ),
        ] {
            let doc_path = format!("{OUT_DIR}/{name}.trace{trace}.json");
            let output = std::process::Command::new(&exe)
                .args(["run", "--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &length.to_string(), "--trace", trace])
                .args(["--out", &doc_path])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("starting the {name} run: {e}"))?;
            // Everything but the machine-readable result line.
            let stdout = String::from_utf8_lossy(&output.stdout);
            let human: Vec<&str> = stdout.trim_end().lines().collect();
            println!("{}", human[..human.len().saturating_sub(1)].join("\n"));
            ok &= output.status.success();
            let doc = std::fs::read_to_string(&doc_path)
                .map_err(|e| format!("{name} left no document at {doc_path}: {e}"))
                .and_then(|t| Json::parse(&t))?;
            pair.push((key, doc));
        }
        per_workload.push((*name, Json::obj(pair)));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("mely-benchmark")),
        ("claim", Json::Null),
        ("smoke", Json::from(smoke)),
        ("run_seconds", Json::from(seconds)),
        ("environment", environment),
        ("workloads", Json::obj(per_workload)),
    ]);
    write_file(out, &doc.pretty())?;
    println!(
        "\nwrote {out}; {}",
        if ok {
            "every workload verified"
        } else {
            "FAILURES above"
        }
    );
    Ok(ok)
}
