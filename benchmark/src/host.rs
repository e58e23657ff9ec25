//! What the benchmark reads from the host: the sizing rule's inputs,
//! process CPU time and peak memory, and the environment block that
//! goes into every result document.

use std::time::{Duration, Instant};

use mely_core::cycles;

use crate::json::Json;

/// The sizing rule (README, "Sizing"): `N = min(nproc, 4)` client
/// connections; `W = max(1, N - 1)` worker cores beside one client or
/// producer thread, `W = N` when the service drives itself.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub nproc: usize,
    pub n: usize,
}

impl Sizing {
    pub fn detect() -> Sizing {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Sizing {
            nproc,
            n: nproc.min(4),
        }
    }

    pub fn workers_beside_client(&self) -> usize {
        (self.n - 1).max(1)
    }

    pub fn json(&self, workers: usize) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc as u64)),
            ("N", Json::from(self.n as u64)),
            ("W", Json::from(workers as u64)),
        ])
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of this process (all threads), from
/// `/proc/self/stat` fields 14 and 15 in `USER_HZ` ticks (100 per
/// second on every Linux ABI).
pub fn cpu_time() -> Duration {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut f = rest.split_whitespace().skip(11);
    let ticks: u64 = [f.next(), f.next()]
        .into_iter()
        .map(|t| t.and_then(|t| t.parse::<u64>().ok()).unwrap_or(0))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Cycle-counter ticks per second, measured against the monotonic
/// clock (the ledgers count cycles; `NOMINAL_FREQ_HZ` is the paper's
/// 2.33 GHz, not this machine's rate).
pub fn measure_tsc_hz() -> f64 {
    let (t0, c0) = (Instant::now(), cycles::now());
    std::thread::sleep(Duration::from_millis(20));
    let (dt, dc) = (t0.elapsed(), cycles::now().wrapping_sub(c0));
    dc as f64 / dt.as_secs_f64()
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block of a result document.
pub fn environment(seed: u64, tsc_hz: f64) -> Json {
    let sizing = Sizing::detect();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        });
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(seed)),
        ("nproc", Json::from(sizing.nproc as u64)),
        ("N", Json::from(sizing.n as u64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("cpu_model", Json::str(cpu_model)),
        ("tsc_hz_measured", Json::from(tsc_hz)),
        ("tsc_hz_nominal", Json::from(cycles::NOMINAL_FREQ_HZ)),
        ("loadavg_1min", Json::from(loadavg())),
    ])
}
