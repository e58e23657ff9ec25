//! End-to-end runs of the two system services under closed-loop load —
//! the building blocks of Figures 3, 4, 7, 8 and Table I.

use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::metrics::RunReport;
use mely_core::prelude::*;
use mely_loadgen::{ClosedLoopLoad, LoadConfig, LoadStats};
use mely_net::{NetConfig, SimNet};
use sfs::{SfsConfig, SfsProtocol, SfsService, SfsStats};
use sws::comparators::{install_ncopy, ThreadedServer, ThreadedServerConfig};
use sws::{HttpProtocol, SwsConfig, SwsService, SwsStats};

use crate::PaperConfig;

/// Result of one SWS run.
#[derive(Debug)]
pub struct SwsRun {
    /// Configuration label (paper style).
    pub label: String,
    /// Client-observed stats.
    pub load: LoadStats,
    /// Server counters.
    pub server: SwsStats,
    /// Runtime report.
    pub report: RunReport,
    /// Injection duration in seconds (for throughput).
    pub secs: f64,
}

impl SwsRun {
    /// Client-observed throughput in KRequests/s (the Figure 4/7 axis).
    pub fn kreq_per_sec(&self) -> f64 {
        self.load.kreq_per_sec(self.secs)
    }
}

/// Runs SWS under `config` with `clients` closed-loop clients for
/// `duration` virtual cycles (1 KB files, 150 requests per connection,
/// as in the paper).
pub fn sws_run(config: PaperConfig, clients: usize, duration: u64) -> SwsRun {
    let (flavor, ws) = config.setup();
    let mut rt = RuntimeBuilder::new()
        .cores(8)
        .flavor(flavor)
        .workstealing(ws)
        .build(ExecKind::Sim);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
    let cfg = SwsConfig::default();
    let load = ClosedLoopLoad::new(
        HttpProtocol::new(cfg.files),
        LoadConfig {
            clients,
            ports: vec![cfg.port],
            requests_per_conn: 150,
            duration,
            ..LoadConfig::default()
        },
    );
    let driver = Arc::new(Mutex::new(load));
    let server = rt.install(SwsService::new(net, Arc::clone(&driver), cfg));
    let report = rt.run();
    let secs = duration as f64 / 2_330_000_000.0;
    let load = driver.lock().stats();
    SwsRun {
        label: config.to_string(),
        load,
        server: server.stats(),
        report,
        secs,
    }
}

/// Runs the µserver-style N-copy comparator: 8 independent event-driven
/// copies, one per core, no stealing.
pub fn sws_ncopy_run(clients: usize, duration: u64) -> SwsRun {
    let copies = 8;
    let mut rt = RuntimeBuilder::new()
        .cores(copies)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Sim);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
    let cfg = SwsConfig::default();
    let load = ClosedLoopLoad::new(
        HttpProtocol::new(cfg.files),
        LoadConfig {
            clients,
            ports: (0..copies as u16).map(|c| cfg.port + c).collect(),
            requests_per_conn: 150,
            duration,
            ..LoadConfig::default()
        },
    );
    let driver = Arc::new(Mutex::new(load));
    let servers = install_ncopy(&mut rt, net, Arc::clone(&driver), &cfg, copies);
    let report = rt.run();
    let mut server = SwsStats::default();
    for s in &servers {
        server += s.stats();
    }
    let secs = duration as f64 / 2_330_000_000.0;
    let load = driver.lock().stats();
    SwsRun {
        label: "Userver (N-copy)".to_string(),
        load,
        server,
        report,
        secs,
    }
}

/// Runs the Apache-worker comparator model and returns KRequests/s.
pub fn sws_threaded_run(clients: usize, duration: u64) -> f64 {
    let model = ThreadedServer::new(ThreadedServerConfig::default());
    let r = model.run(clients, duration);
    r.kreq_per_sec(2_330_000_000)
}

/// Result of one SFS run.
#[derive(Debug)]
pub struct SfsRun {
    /// Configuration label.
    pub label: String,
    /// Client-observed stats.
    pub load: LoadStats,
    /// Server counters.
    pub server: SfsStats,
    /// Responses whose MAC and plaintext verified client-side.
    pub verified: u64,
    /// Responses that failed verification (must be zero).
    pub corrupt: u64,
    /// Runtime report.
    pub report: RunReport,
    /// Injection duration in seconds.
    pub secs: f64,
}

impl SfsRun {
    /// Aggregate client read throughput in MB/s (the Figure 3/8 axis).
    pub fn mb_per_sec(&self) -> f64 {
        self.server.bytes as f64 / self.secs / 1e6
    }
}

/// Runs SFS under `config` with `clients` persistent sessions for
/// `duration` virtual cycles (paper: 16 clients reading a large file).
pub fn sfs_run(config: PaperConfig, clients: usize, duration: u64) -> SfsRun {
    let (flavor, ws) = config.setup();
    let mut rt = RuntimeBuilder::new()
        .cores(8)
        .flavor(flavor)
        .workstealing(ws)
        .build(ExecKind::Sim);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
    let cfg = SfsConfig::default();
    let load = ClosedLoopLoad::new(
        SfsProtocol::new(clients, cfg.file_len, cfg.chunk),
        LoadConfig {
            clients,
            ports: vec![cfg.port],
            requests_per_conn: u64::MAX,
            duration,
            ..LoadConfig::default()
        },
    );
    let driver = Arc::new(Mutex::new(load));
    let server = rt.install(SfsService::new(net, Arc::clone(&driver), cfg));
    let report = rt.run();
    let secs = duration as f64 / 2_330_000_000.0;
    let d = driver.lock();
    let (load, verified, corrupt) = (d.stats(), d.protocol().verified(), d.protocol().corrupt());
    drop(d);
    SfsRun {
        label: config.to_string(),
        load,
        server: server.stats(),
        verified,
        corrupt,
        report,
        secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 25_000_000;

    #[test]
    fn sws_scenarios_produce_throughput() {
        let r = sws_run(PaperConfig::Mely, 32, QUICK);
        assert!(r.kreq_per_sec() > 0.0);
        assert!(r.server.responses > 0);
        assert_eq!(r.label, "Mely");
    }

    #[test]
    fn ncopy_scenario_runs_all_copies() {
        let r = sws_ncopy_run(32, 50_000_000);
        assert!(r.kreq_per_sec() > 0.0);
        assert_eq!(r.report.total().steals, 0);
        // Pinned: this schedule is Figure 7's Userver column. Colors
        // may be renamed freely (only the fingerprint hashes them), but
        // a change that moves these moved which core ran what.
        assert_eq!(
            (
                r.report.events_processed(),
                r.server.responses,
                r.report.wall_cycles()
            ),
            (25_619, 5_160, 50_307_869)
        );
    }

    #[test]
    fn threaded_model_produces_throughput() {
        assert!(sws_threaded_run(64, QUICK) > 0.0);
    }

    #[test]
    fn sfs_scenario_verifies_crypto() {
        let r = sfs_run(PaperConfig::Mely, 4, QUICK);
        assert!(r.mb_per_sec() > 0.0);
        assert_eq!(r.corrupt, 0);
        assert_eq!(r.verified, r.load.responses);
    }
}
