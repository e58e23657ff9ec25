//! SWS over real loopback sockets: the end-to-end serving demo.
//!
//! The same nine-stage SWS graph that `examples/web_server.rs` runs
//! against simulated clients here serves actual TCP connections: a
//! [`TcpGateway`] poller thread bridges kernel readiness into the
//! shared [`SimNet`], the threaded runtime runs the stages, and a
//! multi-threaded open-loop [`TcpLoadgen`] plays the part of `httperf`.
//! The run asserts that what the server believes it completed equals
//! what the clients verified on the wire.
//!
//! Run with `cargo run --release --example serve`. Knobs:
//!
//! - `MELY_SERVE_CONNS` — concurrent client connections (default 1000)
//! - `MELY_SERVE_REQS` — requests per connection (default 16)
//! - `MELY_SERVE_CORES` — runtime cores (default 4)
//! - `MELY_SERVE_SUMMARY` — also append the summary block to this file
//!   (what the CI artifact step uploads)

use std::sync::Arc;

use parking_lot::Mutex;

use mely_repro::core::cycles;
use mely_repro::core::prelude::*;
use mely_repro::loadgen::tcp::{TcpLoadgen, TcpLoadgenConfig};
use mely_repro::net::tcp::{raise_nofile_limit, TcpGateway, TcpGatewayConfig};
use mely_repro::net::{NetConfig, SimNet};
use mely_repro::summary::{cycles_to_us, RunSummary};
use mely_repro::sws::{SwsConfig, SwsService};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let conns = env_u64("MELY_SERVE_CONNS", 1_000) as usize;
    let reqs = env_u64("MELY_SERVE_REQS", 16);
    // Worker threads that exceed the machine's real parallelism only
    // thrash: the poller, the runtime, and the load workers all share
    // the CPUs. Default to what the machine has, capped at 4.
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cores = env_u64("MELY_SERVE_CORES", available.min(4) as u64) as usize;
    // Each connection needs a server-side and a client-side fd, plus
    // headroom for the runtime itself.
    let limit = raise_nofile_limit(conns as u64 * 2 + 512);
    let conns = conns.min((limit.saturating_sub(512) / 2) as usize).max(1);

    println!("SWS over loopback TCP: {conns} connections x {reqs} keep-alive requests\n");

    let mut rt = RuntimeBuilder::new()
        .cores(cores)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    // Zero propagation delay: the kernel's loopback already provides
    // the transport; the SimNet is just the rendezvous buffer.
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
    // The simulator's default poll cadence (tens of µs) is tuned for
    // virtual time; against a real poller thread it would spend the
    // whole CPU scanning the conn table. Fall back to ~1 ms polls and
    // let the gateway's waker provide promptness in between.
    let sws_cfg = SwsConfig {
        max_clients: conns + 64,
        poll_interval: 2_330_000, // ~1 ms
        min_poll: 233_000,        // ~100 µs
        ..SwsConfig::default()
    };
    let gateway = TcpGateway::bind(
        "127.0.0.1:0",
        Arc::clone(&net),
        TcpGatewayConfig {
            sim_port: sws_cfg.port,
            max_conns: conns + 64,
            poll_timeout_ms: 1,
        },
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let files = sws_cfg.files;
    let driver = Arc::new(Mutex::new(gateway.driver()));
    let server = rt.install(SwsService::new(Arc::clone(&net), driver, sws_cfg));
    let waker = server.waker(rt.injector());
    gateway.set_waker(move || waker.wake());

    let keepalive = rt.injector().keepalive();
    let stopper = rt.injector();
    let started = cycles::now();
    let load = TcpLoadgen::start(
        addr,
        TcpLoadgenConfig {
            workers: cores.max(2),
            conns,
            requests_per_conn: reqs,
            window: 4,
            files,
            deadline: std::time::Duration::from_secs(120),
        },
    );
    let orchestrator = std::thread::spawn(move || {
        let client = load.join().expect("no load worker panicked");
        let gw = gateway.shutdown();
        stopper.stop_when_idle();
        drop(keepalive);
        (client, gw)
    });
    let report = rt.run();
    let (client, gw) = orchestrator.join().expect("orchestrator");
    let elapsed_cycles = cycles::now().saturating_sub(started);

    let row = RunSummary {
        label: "mely threaded + tcp".into(),
        conns: conns as u64,
        responses: report.completed_requests(),
        rps: client.rps(),
        p50_us: cycles_to_us(report.latency_p50()),
        p99_us: cycles_to_us(report.latency_p99()),
        sheds: report.total().shed_requests + gw.accept_sheds,
        faults: report.total().failed_requests + gw.resets,
        steals_by_tier: report.steals_by_tier(),
    };
    let block = format!("{}\n{}\n", RunSummary::header(), row);
    print!("{block}");
    println!(
        "\nclient verified: {} responses ({} ok, {} errors, {} failed conns)",
        client.responses, client.ok, client.errors, client.failed_conns
    );
    let sws = server.stats();
    {
        let n = net.lock();
        println!(
            "simnet: {} live conns, {} (server-read of {} gateway-forwarded bytes)",
            n.live_conns(),
            n.stats().bytes_received,
            gw.rx_bytes
        );
    }
    println!(
        "server: {} responses ({} ok, {} 404, {} 400), {} accepted, {} closed, {} aborted",
        sws.responses,
        sws.ok,
        sws.not_found,
        sws.bad_request,
        sws.accepted,
        sws.closed,
        sws.aborted
    );
    println!(
        "gateway: {} accepted, {} closed, {} resets, {:.1} MB rx, {:.1} MB tx, ~{:.0} ms wall",
        gw.accepted,
        gw.closed,
        gw.resets,
        gw.rx_bytes as f64 / 1e6,
        gw.tx_bytes as f64 / 1e6,
        cycles_to_us(elapsed_cycles) / 1e3,
    );

    if let Ok(path) = std::env::var("MELY_SERVE_SUMMARY") {
        std::fs::write(&path, &block).expect("write summary artifact");
        println!("summary written to {path}");
    }

    // The end-to-end contract: every response the server accounted as
    // completed arrived at a real client, framed and verified.
    assert_eq!(
        report.completed_requests(),
        client.responses,
        "server-completed vs client-verified mismatch (client: {client:?}, gateway: {gw:?})"
    );
    assert_eq!(client.errors, 0, "all responses must be 200s");
}
