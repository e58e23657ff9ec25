//! Cross-crate integration tests: the full stack (runtime + network +
//! protocol + application + load generator) exercised end to end.

use std::sync::Arc;

use parking_lot::Mutex as PlMutex;

use mely_repro::bench::scenarios::{sfs_run, sws_ncopy_run, sws_run};
use mely_repro::bench::workloads::{
    cache_efficient, penalty, unbalanced, CacheEfficientCfg, PenaltyCfg, UnbalancedCfg,
};
use mely_repro::bench::PaperConfig;
use mely_repro::core::prelude::*;
use mely_repro::loadgen::{ClosedLoopLoad, LoadConfig};
use mely_repro::net::{NetConfig, SimNet};
use mely_repro::sws::{SwsConfig, SwsService};

const QUICK: u64 = 20_000_000;

#[test]
fn web_server_serves_under_every_runtime_configuration() {
    for cfg in [
        PaperConfig::Libasync,
        PaperConfig::LibasyncWs,
        PaperConfig::Mely,
        PaperConfig::MelyBaseWs,
        PaperConfig::MelyImprovedWs,
    ] {
        let r = sws_run(cfg, 24, QUICK);
        assert!(
            r.load.responses > 10,
            "{}: only {} responses",
            r.label,
            r.load.responses
        );
        assert_eq!(r.server.responses, r.server.ok, "{}: non-200s", r.label);
    }
}

#[test]
fn file_server_crypto_verifies_under_every_configuration() {
    for cfg in [
        PaperConfig::Libasync,
        PaperConfig::LibasyncWs,
        PaperConfig::MelyImprovedWs,
    ] {
        let r = sfs_run(cfg, 8, QUICK);
        assert!(r.load.responses > 0, "{}", r.label);
        assert_eq!(r.corrupt, 0, "{}: corrupted responses", r.label);
        assert_eq!(r.verified, r.load.responses, "{}", r.label);
    }
}

#[test]
fn ncopy_deployment_isolates_copies() {
    let r = sws_ncopy_run(32, QUICK);
    assert!(r.load.responses > 10);
    assert_eq!(r.report.total().steals, 0, "N-copy must not steal");
}

#[test]
fn figure4_shape_ws_hurts_the_web_server_under_load() {
    let plain = sws_run(PaperConfig::Libasync, 1_000, 40_000_000);
    let ws = sws_run(PaperConfig::LibasyncWs, 1_000, 40_000_000);
    assert!(
        ws.kreq_per_sec() < plain.kreq_per_sec() * 0.9,
        "legacy WS must hurt SWS at load: {:.1} vs {:.1} KReq/s",
        ws.kreq_per_sec(),
        plain.kreq_per_sec()
    );
}

#[test]
fn table_one_inversion_sfs_vs_web_server() {
    // SFS: steal cost << stolen work. Web server: steal cost >> stolen.
    let sfs = sfs_run(PaperConfig::LibasyncWs, 16, 40_000_000);
    let sws = sws_run(PaperConfig::LibasyncWs, 800, 40_000_000);
    if let (Some(c), Some(w)) = (sfs.report.avg_steal_cycles(), sfs.report.avg_stolen_cost()) {
        assert!(c < w, "SFS steals must be cheap: {c:.0} vs {w:.0}");
    }
    let (c, w) = (
        sws.report.avg_steal_cycles().expect("sws steals happen"),
        sws.report.avg_stolen_cost().expect("sws steals happen"),
    );
    assert!(
        c > w,
        "web-server steals must cost more than they gain: {c:.0} vs {w:.0}"
    );
}

#[test]
fn microbenchmarks_reproduce_their_headline_shapes() {
    let cfg = UnbalancedCfg {
        events_per_round: 2_000,
        duration: 8_000_000,
        ..UnbalancedCfg::default()
    };
    let plain = unbalanced(PaperConfig::Libasync, &cfg);
    let collapsed = unbalanced(PaperConfig::LibasyncWs, &cfg);
    let time = unbalanced(PaperConfig::MelyTimeWs, &cfg);
    assert!(collapsed.kevents_per_sec() < plain.kevents_per_sec() * 0.2);
    assert!(time.kevents_per_sec() > plain.kevents_per_sec());

    let pcfg = PenaltyCfg::default();
    let base = penalty(PaperConfig::MelyBaseWs, &pcfg);
    let pen = penalty(PaperConfig::MelyPenaltyWs, &pcfg);
    assert!(pen.l2_misses_per_event() < base.l2_misses_per_event());

    let ccfg = CacheEfficientCfg {
        n_a: 24,
        rounds: 1,
        ..CacheEfficientCfg::default()
    };
    let cbase = cache_efficient(PaperConfig::MelyBaseWs, &ccfg);
    let cloc = cache_efficient(PaperConfig::MelyLocalityWs, &ccfg);
    assert!(cloc.l2_misses_per_event() < cbase.l2_misses_per_event());
    assert!(cloc.kevents_per_sec() > cbase.kevents_per_sec());
}

#[test]
fn server_survives_a_client_that_disconnects_mid_request() {
    // A client that connects, sends half a request, and hangs up.
    struct Rude;
    impl mely_repro::loadgen::ClientProtocol for Rude {
        fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
            b"GET /f0.bin HTT".to_vec() // truncated on purpose
        }
        fn response_len(&self, _buf: &[u8]) -> Option<usize> {
            None // never satisfied; the deadline closes the connection
        }
    }
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::off())
        .build(ExecKind::Sim);
    let net = Arc::new(PlMutex::new(SimNet::new(NetConfig::default())));
    let load = ClosedLoopLoad::new(
        Rude,
        LoadConfig {
            clients: 3,
            ports: vec![80],
            requests_per_conn: 1,
            duration: 2_000_000,
            poll_interval: 100_000,
            ..LoadConfig::default()
        },
    );
    let driver = Arc::new(PlMutex::new(load));
    let sws = rt.install(SwsService::new(net, driver, SwsConfig::default()));
    let report = rt.run();
    // No responses, but the server accepted, saw the hangups, closed and
    // the simulation drained without livelock.
    let stats = sws.stats();
    assert!(stats.accepted >= 3);
    assert_eq!(stats.ok, 0);
    assert!(report.events_processed() > 0);
    // Each abandoned request is accounted for, once, on both ledgers.
    assert!(stats.aborted >= 3);
    assert_eq!(report.total().failed_requests, stats.aborted);
    assert_eq!(report.completed_requests(), 0);
}

#[test]
fn sim_and_threaded_execute_the_same_workload() {
    // Same logical workload on both executors: everything runs, colors
    // stay mutually exclusive, totals agree.
    let build = || {
        (0..120u16)
            .map(|i| Event::new(Color::new(i % 12 + 1), 5_000))
            .collect::<Vec<_>>()
    };
    let mut sim = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Sim);
    for ev in build() {
        sim.register(ev);
    }
    let sim_report = sim.run();

    let mut threaded = RuntimeBuilder::new()
        .cores(4)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    for ev in build() {
        threaded.register(ev);
    }
    let threaded_report = threaded.run();

    assert_eq!(sim_report.events_processed(), 120);
    assert_eq!(threaded_report.events_processed(), 120);
}

#[test]
fn topology_cachesim_and_runtime_agree_on_the_machine() {
    use mely_repro::cachesim::Hierarchy;
    use mely_repro::topology::MachineModel;
    let m = MachineModel::xeon_e5410();
    let mut h = Hierarchy::new(&m);
    // A miss on one core's L2 group is a hit for its partner only.
    h.access(0, 0x4000);
    assert_eq!(
        h.access(1, 0x4000).hit,
        mely_repro::cachesim::HitLevel::Cache(2)
    );
    assert_eq!(
        h.access(2, 0x4000).hit,
        mely_repro::cachesim::HitLevel::Memory
    );
    // And the runtime accepts the same model.
    let rt = RuntimeBuilder::new().machine(m).build(ExecKind::Sim);
    assert_eq!(rt.cores(), 8);
}
