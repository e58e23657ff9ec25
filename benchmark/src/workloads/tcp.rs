//! `tcp_keepalive` and `tcp_churn`: SWS on the threaded executor behind
//! the loopback [`TcpGateway`], driven by one client thread (this one)
//! over N real connections.
//!
//! The server is `examples/serve.rs`'s configuration with the declared
//! `SwsCosts` set to zero: on real sockets the kernel and the handlers
//! do the real work, and the declared costs are a simulator input that
//! the threaded executor would otherwise busy-wait out.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mely_core::cycles;
use mely_core::prelude::*;
use mely_http::ResponseCache;
use mely_net::driver::Driver;
use mely_net::tcp::conn::{drain_reads, ReadOutcome, WriteBuf, WriteOutcome};
use mely_net::tcp::epoll::{Epoll, Interest};
use mely_net::tcp::{TcpDriver, TcpGateway, TcpGatewayConfig, TcpStats};
use mely_net::{NetConfig, NetStats, SimNet};
use sws::{SwsConfig, SwsCosts, SwsService, SwsStats};

use super::{
    cpu_us_per_op, quarter_is_traced, runtime, twin, AttribRow, Background, Outcome, Rng, RunCfg,
    Slices, SETUP_REPEATS,
};
use crate::replay::{self, Captured};
use crate::spans::{Spans, SAMPLE_EVERY};
use crate::stats::{hist_quantile, LatHist};

const FILES: usize = 150;
const FILE_SIZE: usize = 1024;
/// Pipelined requests a connection keeps in flight under the closed
/// loop, and the requests a churn connection carries.
const WINDOW: usize = 4;
const RATE_LOW: u64 = 3_000;
const RATE_HIGH: u64 = 12_000;
/// A request still unanswered this long after the load stopped failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(3);
/// A rate "holds" when p99 stays under this and no backlog builds.
const P99_LIMIT_US: f64 = 5_000.0;

/// What the `TimedDriver` saw: poll passes and the cycles they took.
#[derive(Debug, Default)]
struct DriverStats {
    calls: AtomicU64,
    cycles: AtomicU64,
    sampled: Mutex<Vec<(Instant, Instant)>>,
}

/// Harness-side span around `Driver::advance`, the one call the SWS
/// poll loop makes into `net::driver`. Untimed it forwards directly.
struct TimedDriver {
    inner: TcpDriver,
    stats: Arc<DriverStats>,
    timed: bool,
}

impl Driver for TimedDriver {
    fn advance(&mut self, net: &mut SimNet, now: u64) -> bool {
        if !self.timed {
            return self.inner.advance(net, now);
        }
        let n = self.stats.calls.fetch_add(1, Ordering::Relaxed);
        let sampled = n.is_multiple_of(SAMPLE_EVERY);
        let start = sampled.then(Instant::now);
        let c0 = cycles::now();
        let done = self.inner.advance(net, now);
        self.stats
            .cycles
            .fetch_add(cycles::now().wrapping_sub(c0), Ordering::Relaxed);
        if let Some(start) = start {
            self.stats.sampled.lock().push((start, Instant::now()));
        }
        done
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        self.inner.next_due(now)
    }
}

/// A running SWS + gateway.
struct Server {
    addr: SocketAddr,
    gateway: TcpGateway,
    service: SwsService<TimedDriver>,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<DriverStats>,
    background: Background,
}

/// The public ledgers of a stopped server.
struct Ledgers {
    report: RunReport,
    tcp: TcpStats,
    sws: SwsStats,
    net: NetStats,
    driver_calls: u64,
    driver_cycles: u64,
}

impl Server {
    fn start(workers: usize, conns: usize, timed: bool, spans: &mut Spans) -> Server {
        let mut rt = spans.scope("setup.build_runtime", || {
            runtime(ExecKind::Threaded, workers)
        });
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
        let sws_cfg = SwsConfig {
            files: FILES,
            file_size: FILE_SIZE,
            max_clients: conns + 64,
            costs: SwsCosts {
                epoll: 0,
                epoll_per_event: 0,
                accept: 0,
                register_fd: 0,
                read_request: 0,
                parse_request: 0,
                get_from_cache: 0,
                write_response: 0,
                write_per_byte_milli: 0,
                close: 0,
                dec_accepted: 0,
            },
            poll_interval: 2_330_000,
            min_poll: 233_000,
            ..SwsConfig::default()
        };
        let gateway = spans.scope("setup.bind", || {
            TcpGateway::bind(
                "127.0.0.1:0",
                Arc::clone(&net),
                TcpGatewayConfig {
                    sim_port: sws_cfg.port,
                    max_conns: conns + 64,
                    poll_timeout_ms: 1,
                },
            )
            .expect("bind the loopback gateway")
        });
        let driver = Arc::new(DriverStats::default());
        let service = spans.scope("setup.install", || {
            let timed_driver = TimedDriver {
                inner: gateway.driver(),
                stats: Arc::clone(&driver),
                timed,
            };
            rt.install(SwsService::new(
                Arc::clone(&net),
                Arc::new(Mutex::new(timed_driver)),
                sws_cfg,
            ))
        });
        let waker = service.waker(rt.injector());
        gateway.set_waker(move || waker.wake());
        Server {
            addr: gateway.local_addr(),
            gateway,
            service,
            net,
            driver,
            background: Background::start(rt),
        }
    }

    /// Shuts down in `examples/serve.rs`'s order and reads the ledgers.
    fn stop(self, spans: &mut Spans) -> Ledgers {
        let tcp = spans.scope("shutdown.gateway", || self.gateway.shutdown());
        let report = spans.scope("shutdown.drain", || self.background.stop());
        for &(start, end) in self.driver.sampled.lock().iter() {
            spans.record_on(2, "net.driver.advance", 0, None, start, end);
        }
        Ledgers {
            report,
            tcp,
            sws: self.service.stats(),
            net: self.net.lock().stats(),
            driver_calls: self.driver.calls.load(Ordering::Relaxed),
            driver_cycles: self.driver.cycles.load(Ordering::Relaxed),
        }
    }
}

/// The request for file `i` of the server's cache, as the client
/// writes it.
pub fn request_bytes(file: u64) -> Vec<u8> {
    format!("GET /f{file}.bin HTTP/1.1\r\nHost: sws\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// A request on the wire, oldest first per connection.
struct Pending {
    file: usize,
    /// Where its latency counts from: the due time under the open loop,
    /// the send (or, first on a churn connection, the connect) under
    /// the closed loops.
    start: Instant,
    /// Sampled for spans: the request id and when its write returned.
    traced: Option<(u64, Instant, Instant)>,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wb: WriteBuf,
    inflight: VecDeque<Pending>,
    /// When the bytes of a still incomplete response began to arrive.
    partial_since: Option<Instant>,
    /// Requests sent on this connection (churn closes at `WINDOW`).
    sent: usize,
    /// When the connect that opened it began.
    born: Instant,
}

/// What one phase of load measured.
#[derive(Debug, Default)]
struct Phase {
    /// Latency of every verified op, counted from its `Pending::start`.
    lat: LatHist,
    /// How late the open loop sent each request.
    late: LatHist,
    /// Verified responses per slice since the phase began.
    slices: Slices,
    verified: u64,
    failed: u64,
    /// Connect → first verified response, per churn connection.
    connect_first: LatHist,
    /// Requests in flight when the open loop's schedule ended.
    outstanding_at_end: usize,
    cpu: Duration,
    elapsed: Duration,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.slices.throughput(self.elapsed, self.verified)
    }

    fn lat_us(&self, q: f64) -> f64 {
        self.lat.quantile_us(q)
    }
}

/// The load generator: this thread, `conns` sockets, one epoll set.
struct Client {
    addr: SocketAddr,
    ep: Epoll,
    conns: Vec<Option<Conn>>,
    /// Request bytes and the exact response bytes expected, per file.
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    rng: Rng,
    next_req_id: u64,
    connects: u64,
    verified_total: u64,
    failed_total: u64,
    /// Request bytes as sent, for the isolated replays.
    captured: Vec<Vec<u8>>,
    phase: Phase,
    phase_start: Instant,
}

impl Client {
    fn new(addr: SocketAddr, conns: usize, seed: u64) -> Client {
        // The harness builds its own copy of what the server must send:
        // every response is compared with it byte for byte.
        let mut cache = ResponseCache::new();
        cache.populate_uniform(FILES, FILE_SIZE);
        Client {
            addr,
            ep: Epoll::new().expect("create the client's epoll set"),
            conns: (0..conns).map(|_| None).collect(),
            requests: (0..FILES as u64).map(request_bytes).collect(),
            expected: (0..FILES)
                .map(|i| {
                    let response = cache.lookup(&format!("/f{i}.bin"));
                    response.expect("populated").to_vec()
                })
                .collect(),
            rng: Rng::new(seed),
            next_req_id: 1,
            connects: 0,
            verified_total: 0,
            failed_total: 0,
            captured: Vec::new(),
            phase: Phase::default(),
            phase_start: Instant::now(),
        }
    }

    fn connect(&mut self, slot: usize) -> bool {
        let born = Instant::now();
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return false;
        };
        let ok = stream.set_nodelay(true).is_ok()
            && stream.set_nonblocking(true).is_ok()
            && self
                .ep
                .add(stream.as_raw_fd(), Interest::READ, slot as u64)
                .is_ok();
        if !ok {
            return false;
        }
        self.connects += 1;
        self.conns[slot] = Some(Conn {
            stream,
            rbuf: Vec::new(),
            wb: WriteBuf::default(),
            inflight: VecDeque::new(),
            partial_since: None,
            sent: 0,
            born,
        });
        true
    }

    fn connect_all(&mut self) {
        for slot in 0..self.conns.len() {
            assert!(self.connect(slot), "connect to the gateway");
        }
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().flatten().map(|c| c.inflight.len()).sum()
    }

    fn begin_phase(&mut self) -> (Instant, Duration) {
        self.phase = Phase::default();
        self.phase_start = Instant::now();
        (self.phase_start, crate::host::cpu_time())
    }

    fn end_phase(&mut self, cpu0: Duration, elapsed: Duration) -> Phase {
        self.phase.cpu = crate::host::cpu_time().saturating_sub(cpu0);
        self.phase.elapsed = elapsed;
        std::mem::take(&mut self.phase)
    }

    /// Queues the next request of the seeded path order on `slot` and
    /// pushes it out. `start` is where its latency counts from.
    fn send(&mut self, slot: usize, start: Instant, spans: &Spans) {
        let file = self.rng.below(FILES as u64) as usize;
        let id = self.next_req_id;
        self.next_req_id += 1;
        if self.captured.len() < 256 {
            self.captured.push(self.requests[file].clone());
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            // The connection died earlier: the request cannot be sent.
            self.phase.failed += 1;
            self.failed_total += 1;
            return;
        };
        let write_start = Instant::now();
        conn.wb.queue(&self.requests[file]);
        // A request is ~60 bytes and at most a few are in flight, so
        // the socket buffer never fills; a blocked tail is retried.
        while conn.wb.flush(conn.stream.as_raw_fd()) == WriteOutcome::Blocked {
            std::thread::yield_now();
        }
        let traced = (spans.on && id.is_multiple_of(SAMPLE_EVERY))
            .then(|| (id, write_start, Instant::now()));
        conn.sent += 1;
        conn.inflight.push_back(Pending {
            file,
            start,
            traced,
        });
    }

    /// Reads what `slot` has, frames and verifies every complete
    /// response, and returns how many were verified. `Err` when the
    /// connection died with requests in flight (they count as failed).
    fn receive(&mut self, slot: usize, spans: &mut Spans) -> Result<usize, ()> {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Err(());
        };
        let had = conn.rbuf.len();
        let outcome = drain_reads(conn.stream.as_raw_fd(), &mut conn.rbuf);
        let now = Instant::now();
        let mut first_byte = match conn.partial_since.take() {
            Some(t) if had > 0 => t,
            _ => now,
        };
        let mut done = 0;
        while let Some(len) = frame_len(&conn.rbuf) {
            let Some(p) = conn.inflight.pop_front() else {
                // A response nobody asked for.
                self.phase.failed += 1;
                self.failed_total += 1;
                conn.rbuf.drain(..len);
                continue;
            };
            let ok = conn.rbuf[..len] == self.expected[p.file][..];
            conn.rbuf.drain(..len);
            let verified_at = Instant::now();
            if ok {
                done += 1;
                self.phase.verified += 1;
                self.verified_total += 1;
                self.phase
                    .lat
                    .record(verified_at.duration_since(p.start).as_nanos() as u64);
                self.phase
                    .slices
                    .add(verified_at.duration_since(self.phase_start), 1);
            } else {
                self.phase.failed += 1;
                self.failed_total += 1;
            }
            if let Some((id, write_start, write_end)) = p.traced {
                let root = spans.record("request", id, None, p.start.min(write_start), verified_at);
                spans.record("client.write", id, root, write_start, write_end);
                spans.record(
                    "edge_and_server",
                    id,
                    root,
                    write_end,
                    first_byte.max(write_end),
                );
                spans.record(
                    "client.read_verify",
                    id,
                    root,
                    first_byte.max(write_end),
                    verified_at,
                );
            }
            first_byte = now;
        }
        if !conn.rbuf.is_empty() {
            conn.partial_since = Some(first_byte);
        }
        if outcome != ReadOutcome::WouldBlock && !conn.inflight.is_empty() {
            let lost = conn.inflight.len() as u64;
            self.phase.failed += lost;
            self.failed_total += lost;
            self.conns[slot] = None;
            return Err(());
        }
        Ok(done)
    }

    /// Waits until nothing is in flight; what is still unanswered after
    /// `DRAIN_DEADLINE` failed.
    fn drain(&mut self, spans: &mut Spans) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut ready = Vec::new();
        while self.outstanding() > 0 && Instant::now() < deadline {
            ready.clear();
            let _ = self.ep.wait(&mut ready, 1);
            for r in ready.iter() {
                let _ = self.receive(r.token as usize, spans);
            }
        }
        let lost = self.outstanding() as u64;
        self.phase.failed += lost;
        self.failed_total += lost;
        for c in self.conns.iter_mut().flatten() {
            c.inflight.clear();
        }
    }

    /// Closed loop on persistent connections: every connection keeps
    /// `WINDOW` requests in flight and sends the next when one returns.
    /// With `toggle`, harness spans switch on and off every quarter of
    /// the phase, so one phase yields a traced and an untraced rate.
    fn closed_loop(&mut self, length: Duration, toggle: bool, spans: &mut Spans) -> Phase {
        let (t0, cpu0) = self.begin_phase();
        let traced_run = spans.on;
        let mut ready = Vec::new();
        for slot in 0..self.conns.len() {
            for _ in 0..WINDOW {
                self.send(slot, Instant::now(), spans);
            }
        }
        loop {
            let now = Instant::now();
            if now.duration_since(t0) >= length {
                break;
            }
            if toggle {
                spans.on = traced_run && quarter_is_traced(now.duration_since(t0), length);
            }
            ready.clear();
            let _ = self.ep.wait(&mut ready, 1);
            for r in ready.iter() {
                let slot = r.token as usize;
                if let Ok(n) = self.receive(slot, spans) {
                    for _ in 0..n {
                        self.send(slot, Instant::now(), spans);
                    }
                }
            }
        }
        let elapsed = t0.elapsed();
        spans.on = traced_run;
        self.drain(spans);
        self.end_phase(cpu0, elapsed)
    }

    /// Open loop: request `k` is due at `k / rate` whatever the server
    /// does, goes to connection `k mod N`, and its latency counts from
    /// the due time — so a stall also charges the requests queued
    /// behind it. The generator spins (with `yield`) between due times:
    /// sleeping would add the timer's slack to every latency.
    fn open_loop(&mut self, rate: u64, length: Duration, spans: &mut Spans) -> Phase {
        let (t0, cpu0) = self.begin_phase();
        let total = (rate as f64 * length.as_secs_f64()) as u64;
        let due = |k: u64| t0 + Duration::from_nanos(k * 1_000_000_000 / rate);
        let mut ready = Vec::new();
        let mut k = 0;
        let mut schedule_ended = false;
        let give_up = t0 + length + DRAIN_DEADLINE;
        loop {
            let now = Instant::now();
            while k < total && due(k) <= now {
                let slot = (k % self.conns.len() as u64) as usize;
                let at = Instant::now();
                self.phase
                    .late
                    .record(at.duration_since(due(k)).as_nanos() as u64);
                self.send(slot, due(k), spans);
                k += 1;
            }
            if k == total {
                if !schedule_ended {
                    schedule_ended = true;
                    self.phase.outstanding_at_end = self.outstanding();
                }
                if self.outstanding() == 0 || now > give_up {
                    break;
                }
            }
            ready.clear();
            let _ = self.ep.wait(&mut ready, 0);
            if ready.is_empty() {
                std::thread::yield_now();
            }
            for r in ready.iter() {
                let _ = self.receive(r.token as usize, spans);
            }
        }
        let elapsed = t0.elapsed().min(length);
        self.drain(spans);
        self.end_phase(cpu0, elapsed)
    }

    /// Opens a churn connection on `slot` and sends its `WINDOW`
    /// pipelined requests; the first one's latency includes the connect.
    fn open_churn_conn(&mut self, slot: usize, spans: &mut Spans) {
        if !self.connect(slot) {
            self.phase.failed += WINDOW as u64;
            self.failed_total += WINDOW as u64;
            return;
        }
        let born = self.conns[slot].as_ref().expect("just connected").born;
        spans.record("client.connect", 0, None, born, Instant::now());
        self.send(slot, born, spans);
        for _ in 1..WINDOW {
            self.send(slot, Instant::now(), spans);
        }
    }

    /// Closed loop with churn: each slot connects, sends `WINDOW`
    /// pipelined requests, verifies them, closes, and connects again.
    fn churn_loop(&mut self, length: Duration, toggle: bool, spans: &mut Spans) -> Phase {
        let (t0, cpu0) = self.begin_phase();
        let traced_run = spans.on;
        let mut ready = Vec::new();
        for slot in 0..self.conns.len() {
            self.conns[slot] = None;
            self.open_churn_conn(slot, spans);
        }
        let mut live = self.conns.iter().flatten().count();
        while live > 0 {
            let since = t0.elapsed();
            let stopping = since >= length;
            if since >= length + DRAIN_DEADLINE {
                break;
            }
            if toggle {
                spans.on = traced_run && quarter_is_traced(since, length);
            }
            ready.clear();
            let _ = self.ep.wait(&mut ready, 1);
            for r in ready.iter() {
                let slot = r.token as usize;
                let Some(conn) = self.conns[slot].as_ref() else {
                    continue;
                };
                let (born, first_pending) = (conn.born, conn.inflight.len() == WINDOW);
                let res = self.receive(slot, spans);
                if first_pending && matches!(res, Ok(n) if n > 0) {
                    self.phase
                        .connect_first
                        .record(born.elapsed().as_nanos() as u64);
                }
                let finished = self.conns[slot]
                    .as_ref()
                    .is_none_or(|c| c.sent == WINDOW && c.inflight.is_empty());
                if finished {
                    // Everything asked for was read: dropping the
                    // stream closes it with an orderly FIN.
                    self.conns[slot] = None;
                    live -= 1;
                    if !stopping {
                        self.open_churn_conn(slot, spans);
                        live += usize::from(self.conns[slot].is_some());
                    }
                }
            }
        }
        let elapsed = t0.elapsed().min(length);
        spans.on = traced_run;
        let lost = self.outstanding() as u64;
        self.phase.failed += lost;
        self.failed_total += lost;
        for c in self.conns.iter_mut() {
            *c = None;
        }
        self.end_phase(cpu0, elapsed)
    }
}

/// Length of the first complete HTTP response in `buf`: the head up to
/// the blank line plus `Content-Length` body bytes.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let body = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map_or(Some(0), |(_, v)| v.trim().parse::<usize>().ok())?;
    (buf.len() >= head_end + body).then_some(head_end + body)
}

/// Brings a server and its client up to the first verified response:
/// runtime build, service install (cache population), bind, N connects,
/// one request. Returns how long that took — set-up as a user pays it —
/// and the connect → first response time of the first connection.
fn bring_up(
    cfg: &RunCfg,
    workers: usize,
    timed: bool,
    spans: &mut Spans,
) -> (Server, Client, Duration, Duration) {
    let t = Instant::now();
    let server = Server::start(workers, cfg.sizing.n, timed, spans);
    let mut client = Client::new(server.addr, cfg.sizing.n, cfg.seed);
    spans.scope("setup.connect", || client.connect_all());
    let born = client.conns[0].as_ref().expect("connected").born;
    client.send(0, born, spans);
    client.drain(spans);
    let first_response = born.elapsed();
    (server, client, t.elapsed(), first_response)
}

/// `SETUP_REPEATS` more set-ups on throw-away servers; `setup_s` is the
/// median of them and the measured server's own. They run after the
/// measured part, so what the allocator keeps of them is not in
/// `peak_rss_mb`.
fn timed_setups(cfg: &RunCfg, workers: usize) -> Vec<Duration> {
    let mut quiet = Spans::new(false, cfg.process_start);
    (0..SETUP_REPEATS)
        .map(|_| {
            let (server, client, took, _) = bring_up(cfg, workers, false, &mut quiet);
            drop(client);
            server.stop(&mut quiet);
            took
        })
        .collect()
}

/// Checks and ledger metrics both TCP workloads share.
fn account(out: &mut Outcome, cfg: &RunCfg, client: &Client, ledgers: &Ledgers) {
    let t = ledgers.report.total();
    let ops = client.verified_total.max(1) as f64;
    out.check_eq(
        "server completed == client verified",
        ledgers.report.completed_requests(),
        client.verified_total,
    );
    out.check_eq(
        "gateway accepted == client connects",
        ledgers.tcp.accepted,
        client.connects,
    );
    out.check_eq("gateway resets", ledgers.tcp.resets, 0);
    out.check_eq("gateway accept sheds", ledgers.tcp.accept_sheds, 0);
    out.check_eq(
        "sws 200 responses == client verified",
        ledgers.sws.ok,
        client.verified_total,
    );

    let s = &mut out.sheet;
    let n = client.verified_total;
    s.set(
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );
    s.set("net.tcp.accepted", ledgers.tcp.accepted as f64, 1);
    s.set("net.tcp.closed", ledgers.tcp.closed as f64, 1);
    s.set("net.tcp.resets", ledgers.tcp.resets as f64, 1);
    s.set("net.tcp.accept_sheds", ledgers.tcp.accept_sheds as f64, 1);
    s.set(
        "net.tcp.rx_bytes_per_op",
        ledgers.tcp.rx_bytes as f64 / ops,
        n,
    );
    s.set(
        "net.tcp.tx_bytes_per_op",
        ledgers.tcp.tx_bytes as f64 / ops,
        n,
    );
    s.set(
        "net.driver.advance_calls_per_op",
        ledgers.driver_calls as f64 / ops,
        ledgers.driver_calls,
    );
    s.set(
        "net.driver.advance_ns_mean",
        ledgers.driver_cycles as f64 * 1e9 / cfg.tsc_hz / ledgers.driver_calls.max(1) as f64,
        ledgers.driver_calls,
    );
    s.set(
        "net.simnet.bytes_per_op",
        (ledgers.net.bytes_received + ledgers.net.bytes_sent) as f64 / ops,
        n,
    );
    crate::ledger::threaded(s, &ledgers.report, ops);
    s.set(
        "sws.events_per_response",
        t.events_processed as f64 / ledgers.sws.responses.max(1) as f64,
        ledgers.sws.responses,
    );
    let hist = ledgers.report.latency_histogram();
    for (name, q) in [
        ("sws.server_latency_p50_us", 0.50),
        ("sws.server_latency_p99_us", 0.99),
    ] {
        s.set(
            name,
            cfg.cycles_to_us(hist_quantile(&hist, q)),
            hist.count(),
        );
    }
    s.set("sws.bad_request", ledgers.sws.bad_request as f64, 1);
    s.set("sws.aborted", ledgers.sws.aborted as f64, 1);
}

/// The attribution table: what one op's closed-loop latency is made of.
/// The edge wait is measured (client latency minus the time the stage
/// graph held the request, from the runtime's ledger); the other rows
/// are isolated layer costs times how often an op calls the layer.
fn attribute(out: &mut Outcome, closed_loop_p50_us: f64) {
    let v = |name: &str| out.sheet.get(name).map_or(0.0, |(v, _)| v);
    let server_p50_us = v("sws.server_latency_p50_us");
    let rows = vec![
        AttribRow {
            layer: "net::tcp (edge wait outside the stage graph)",
            calls_per_op: 1.0,
            ns_per_call: (closed_loop_p50_us - server_p50_us).max(0.0) * 1e3,
        },
        AttribRow {
            layer: "net (SimNet round trip)",
            calls_per_op: 1.0,
            ns_per_call: v("net.simnet.roundtrip_ns"),
        },
        AttribRow {
            layer: "net::driver (advance)",
            calls_per_op: v("net.driver.advance_calls_per_op"),
            ns_per_call: v("net.driver.advance_ns_mean"),
        },
        AttribRow {
            layer: "core::threaded::inbox (push+drain)",
            calls_per_op: v("core.inbox.pushes_per_op"),
            ns_per_call: v("core.inbox.push_drain_ns"),
        },
        AttribRow {
            layer: "core::queue (push+pop)",
            calls_per_op: v("core.threaded.events_per_op"),
            ns_per_call: v("core.queue.mely_push_pop_ns"),
        },
        AttribRow {
            layer: "http (parse)",
            calls_per_op: 1.0,
            ns_per_call: v("http.parse_ns"),
        },
        AttribRow {
            layer: "http (cache lookup)",
            calls_per_op: 1.0,
            ns_per_call: v("http.cache_lookup_ns"),
        },
    ];
    crate::ledger::attribution(out, closed_loop_p50_us * 1e3, rows);
}

pub fn keepalive(cfg: &RunCfg) -> Outcome {
    let workers = cfg.sizing.workers_beside_client();
    let mut out = Outcome::new(cfg, workers);
    let spans = &mut out.spans;
    let (server, mut client, setup, first_response) = bring_up(cfg, workers, cfg.trace, spans);

    let run_start = Instant::now();
    let _warm = client.closed_loop(cfg.share(1, 16), false, spans);
    let (closed, low, high) = if cfg.trace {
        let closed = client.closed_loop(cfg.share(5, 16), true, spans);
        let low = client.open_loop(RATE_LOW, cfg.share(5, 16), spans);
        let high = client.open_loop(RATE_HIGH, cfg.share(5, 16), spans);
        (closed, low, Some(high))
    } else {
        let closed = client.closed_loop(cfg.share(5, 16), false, spans);
        let low = client.open_loop(RATE_LOW, cfg.share(10, 16), spans);
        (closed, low, None)
    };
    spans.record("run", 0, None, run_start, Instant::now());
    let rss_after_run = crate::host::peak_rss_mb();

    let captured = Captured {
        requests: std::mem::take(&mut client.captured),
        ..Captured::default()
    };
    for c in client.conns.iter_mut() {
        *c = None;
    }
    let ledgers = server.stop(spans);
    let mut setups = timed_setups(cfg, workers);
    setups.push(setup);

    out.attempted = client.verified_total + client.failed_total;
    out.failed = client.failed_total;
    out.notes.push(format!(
        "closed loop: {} conns x window {WINDOW}; open loop: {RATE_LOW} req/s{}",
        cfg.sizing.n,
        if cfg.trace {
            format!(" then {RATE_HIGH} req/s")
        } else {
            String::new()
        }
    ));

    let s = &mut out.sheet;
    s.set("throughput_ops_s", closed.throughput(), closed.verified);
    s.set("latency_p50_us", low.lat_us(0.50), low.lat.count());
    s.set(
        "virtual_throughput",
        twin::sws(cfg.sizing.n * WINDOW, u64::MAX),
        1,
    );
    out.set_process_metrics(
        cpu_us_per_op(closed.cpu, closed.verified),
        closed.verified,
        &setups,
        rss_after_run,
    );

    account(&mut out, cfg, &client, &ledgers);
    let s = &mut out.sheet;
    let server_p50 = s.get("sws.server_latency_p50_us").map_or(0.0, |(v, _)| v);
    s.set(
        "net.tcp.edge_wait_us_p50",
        low.lat_us(0.50) - server_p50,
        low.lat.count(),
    );
    s.set(
        "net.tcp.connect_first_resp_us_p50",
        first_response.as_secs_f64() * 1e6,
        1,
    );
    let late_p99 = low.late.quantile_us(0.99);
    s.set("client.send_late_us_p99", late_p99, low.late.count());
    s.set(
        "client.send_late_us_max",
        low.late.quantile_us(1.0),
        low.late.count(),
    );
    s.set("client.latency_p99_us", low.lat_us(0.99), low.lat.count());
    s.set("client.latency_p999_us", low.lat_us(0.999), low.lat.count());
    // A generator that ran a millisecond late measured itself.
    out.noisy |= late_p99 > 1_000.0;

    if cfg.trace {
        let holds = |p: &Phase| {
            p.failed == 0
                && p.lat_us(0.99) <= P99_LIMIT_US
                && p.outstanding_at_end <= 4 * WINDOW * cfg.sizing.n
        };
        let mut max_rate_ok = if holds(&low) { RATE_LOW } else { 0 };
        if let Some(high) = &high {
            let n = high.lat.count();
            s.set("client.latency_p50_us_at_12k", high.lat_us(0.50), n);
            s.set("client.latency_p99_us_at_12k", high.lat_us(0.99), n);
            if max_rate_ok > 0 && holds(high) {
                max_rate_ok = RATE_HIGH;
            }
        }
        s.set("client.max_rate_ok", max_rate_ok as f64, 1);
        s.set(
            "trace.overhead_frac",
            closed
                .slices
                .trace_overhead(closed.elapsed, cfg.share(5, 16)),
            closed.verified,
        );
        replay::run_all(&mut out.sheet, &captured, cfg);
        attribute(&mut out, closed.lat_us(0.50));
    }
    out
}

pub fn churn(cfg: &RunCfg) -> Outcome {
    let workers = cfg.sizing.workers_beside_client();
    let mut out = Outcome::new(cfg, workers);
    let spans = &mut out.spans;
    // The churn loop replaces the set-up connections with its own.
    let (server, mut client, setup, _) = bring_up(cfg, workers, cfg.trace, spans);

    let run_start = Instant::now();
    let _warm = client.churn_loop(cfg.share(1, 8), false, spans);
    let measured = client.churn_loop(cfg.share(7, 8), cfg.trace, spans);
    spans.record("run", 0, None, run_start, Instant::now());
    let rss_after_run = crate::host::peak_rss_mb();

    let captured = Captured {
        requests: std::mem::take(&mut client.captured),
        ..Captured::default()
    };
    let ledgers = server.stop(spans);
    let mut setups = timed_setups(cfg, workers);
    setups.push(setup);

    out.attempted = client.verified_total + client.failed_total;
    out.failed = client.failed_total;
    out.notes.push(format!(
        "closed loop: {} connection slots, {WINDOW} pipelined requests per connection, then close and reconnect",
        cfg.sizing.n
    ));

    let n = measured.lat.count();
    let s = &mut out.sheet;
    s.set("throughput_ops_s", measured.throughput(), measured.verified);
    s.set("latency_p50_us", measured.lat_us(0.50), n);
    s.set(
        "virtual_throughput",
        twin::sws(cfg.sizing.n, WINDOW as u64),
        1,
    );
    out.set_process_metrics(
        cpu_us_per_op(measured.cpu, measured.verified),
        measured.verified,
        &setups,
        rss_after_run,
    );

    account(&mut out, cfg, &client, &ledgers);
    out.check_eq(
        "gateway closed == client connects",
        ledgers.tcp.closed,
        client.connects,
    );
    let s = &mut out.sheet;
    s.set(
        "net.tcp.connect_first_resp_us_p50",
        measured.connect_first.quantile_us(0.50),
        measured.connect_first.count(),
    );
    s.set("client.latency_p99_us", measured.lat_us(0.99), n);
    s.set("client.churn_latency_p99_us", measured.lat_us(0.99), n);
    if cfg.trace {
        s.set(
            "trace.overhead_frac",
            measured
                .slices
                .trace_overhead(measured.elapsed, cfg.share(7, 8)),
            measured.verified,
        );
        replay::run_all(&mut out.sheet, &captured, cfg);
        attribute(&mut out, measured.lat_us(0.50));
    }
    out
}
