//! `virtual_throughput` of the four real-time workloads: the
//! simulator's figure for the same stage graph under the same load
//! shape, on the paper's 8 simulated cores.
//!
//! Every workload must report every end-to-end metric, and a real-time
//! run has no simulated time of its own. Its deterministic counterpart
//! does: it repeats bit for bit, so the metric keeps its 1 % bound on
//! every workload, and a change that must leave simulated results alone
//! (ROADMAP item 3) is held to that on the SWS, SFS and stage graphs
//! too. Runs after the measured window; costs a fraction of a second.

use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::prelude::*;
use mely_loadgen::{ClosedLoopLoad, LoadConfig};
use mely_net::{NetConfig, SimNet};
use sfs::FileServerService;
use sws::{HttpProtocol, SwsConfig, SwsService};

use super::stage_chain::{pipeline, Completions, Hop1, Token};
use super::{runtime, sfs_threaded, Rng};

/// 0.1 simulated seconds at the paper's 2.33 GHz.
const SWS_TWIN_CYCLES: u64 = 233_000_000;

fn sim_runtime() -> Runtime {
    runtime(ExecKind::Sim, 8)
}

/// SWS with its default (paper) costs installed on the simulator under
/// `clients` closed-loop simulated clients that reconnect every
/// `requests_per_conn` requests — what `scenarios::sws_run` constructs
/// before it runs, with the two numbers it fixes left open.
pub fn sws_sim(
    clients: usize,
    requests_per_conn: u64,
    duration: u64,
) -> (Runtime, Arc<Mutex<ClosedLoopLoad<HttpProtocol>>>) {
    let mut rt = sim_runtime();
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
    let cfg = SwsConfig::default();
    let load = ClosedLoopLoad::new(
        HttpProtocol::new(cfg.files),
        LoadConfig {
            clients,
            ports: vec![cfg.port],
            requests_per_conn,
            duration,
            ..LoadConfig::default()
        },
    );
    let driver = Arc::new(Mutex::new(load));
    rt.install(SwsService::new(net, Arc::clone(&driver), cfg));
    (rt, driver)
}

/// KRequests per simulated second of [`sws_sim`] over 0.1 simulated s.
pub fn sws(clients: usize, requests_per_conn: u64) -> f64 {
    let (mut rt, driver) = sws_sim(clients, requests_per_conn, SWS_TWIN_CYCLES);
    rt.run();
    let stats = driver.lock().stats();
    stats.kreq_per_sec(SWS_TWIN_CYCLES as f64 / 2_330_000_000.0)
}

/// The file server's sessions with 64 reads each; K reads per
/// simulated second.
pub fn sfs() -> f64 {
    let mut rt = sim_runtime();
    let svc = rt.install(FileServerService::new(sfs_threaded::config(64)));
    let report = rt.run();
    svc.stats().reads as f64 / report.wall_secs() / 1e3
}

/// 20 000 four-hop chains; K chains per simulated second. The keys come
/// from a fixed seed, not the run's: this figure is a reference that
/// must repeat exactly from run to run.
pub fn stage_chain() -> f64 {
    const CHAINS: u64 = 20_000;
    let mut rt = sim_runtime();
    let installed = rt.install(pipeline(Arc::new(Completions::default())));
    let sender = installed.sender(rt.injector());
    let mut rng = Rng::new(1);
    for _ in 0..CHAINS {
        sender.submit::<Hop1>(Token {
            key: rng.next(),
            sent: None,
        });
    }
    let report = rt.run();
    report.completed_requests() as f64 / report.wall_secs() / 1e3
}
