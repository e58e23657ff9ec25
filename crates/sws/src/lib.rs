//! SWS — the paper's event-driven static web server (Section V-C1).
//!
//! SWS "handles static content, supports a subset of HTTP/1.1, builds
//! responses during start-up, and handles error cases", structured in the
//! nine event handlers of Figure 6:
//!
//! ```text
//! Epoll ──► Accept ──► RegisterFdInEpoll (colored like Epoll)
//!   │          ▲
//!   └► ReadRequest ─► ParseRequest ─► GetFromCache ─► WriteResponse ─► Close
//!                                                          │            │
//!                                                          ▼            ▼
//!                                               (keep-alive loop)  DecAccepted
//! ```
//!
//! Coloring follows the paper exactly: `Epoll` and `RegisterFdInEpoll`
//! share one color, `Accept` and `DecClientAccepted` share another, and
//! the per-request handlers (`ReadRequest`, `ParseRequest`,
//! `GetFromCache`, `WriteResponse`, `Close`) are colored by the
//! connection's descriptor so distinct clients are served concurrently.
//!
//! [`SwsService`] is the server, written once as a typed stage pipeline
//! (`mely_core::stage`): colors come from the pipeline's
//! [`ColorSpace`], every response closes a request of
//! the per-request latency pipeline, and
//! `rt.install(SwsService::new(..))` runs it on either executor. It
//! serves load produced by any [`mely_net::driver::Driver`] (normally
//! `mely_loadgen::ClosedLoopLoad` with [`HttpProtocol`]).
//!
//! Figure 7's N-copy line ([`comparators::install_ncopy`]) is the same
//! service installed once per core, copy `c` built
//! `.with_colors(ColorSpace::congruent(c, cores))`
//! ([`SwsService::with_colors`], [`ColorSpace::congruent`]): every
//! color the copy allocates or hashes is ≡ `c` (mod cores), so the
//! color hash keeps the whole copy on core `c`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fxhash::FxHashMap;
use parking_lot::Mutex;

use mely_core::color::ColorSpace;
use mely_core::exec::{Executor, Injector, Service};
use mely_core::stage::{Pipeline, PipelineBuilder, Stage, StageCtx, StageSpec};
use mely_http::{Request, RequestParser, Response, ResponseCache};
use mely_loadgen::ClientProtocol;
use mely_net::driver::Driver;
use mely_net::{Fd, NetEvent, SimNet, ACCEPT_BATCH};

pub mod comparators;

/// Per-handler cycle annotations (the paper's profiled averages). The
/// defaults put one full request at roughly 80 Kcycles of handler work —
/// "short duration handlers", matching the ~20 Kcycle stolen sets of
/// Table I and the throughput range of Figure 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwsCosts {
    /// `Epoll`: one poll pass (plus `epoll_per_event` per readiness).
    pub epoll: u64,
    /// Extra cycles charged per readiness event found by a poll.
    pub epoll_per_event: u64,
    /// `Accept`: cost per accepted connection.
    pub accept: u64,
    /// `RegisterFdInEpoll`.
    pub register_fd: u64,
    /// `ReadRequest` (kernel receive path + copy).
    pub read_request: u64,
    /// `ParseRequest`.
    pub parse_request: u64,
    /// `GetFromCache`.
    pub get_from_cache: u64,
    /// `WriteResponse` fixed cost (plus `write_per_byte`).
    pub write_response: u64,
    /// Per-byte transmit cost.
    pub write_per_byte_milli: u64,
    /// `Close`.
    pub close: u64,
    /// `DecClientAccepted`.
    pub dec_accepted: u64,
}

impl Default for SwsCosts {
    fn default() -> Self {
        SwsCosts {
            epoll: 6_000,
            epoll_per_event: 400,
            accept: 28_000,
            register_fd: 4_000,
            read_request: 22_000,
            parse_request: 9_000,
            get_from_cache: 6_000,
            write_response: 26_000,
            write_per_byte_milli: 2_000, // 2 cycles/byte
            close: 14_000,
            dec_accepted: 1_500,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwsConfig {
    /// Listening port.
    pub port: u16,
    /// Number of distinct files prebuilt in the response cache.
    pub files: usize,
    /// Size of each file in bytes (1 KB in the paper's workload).
    pub file_size: usize,
    /// Maximum simultaneously accepted clients.
    pub max_clients: usize,
    /// Handler cost annotations.
    pub costs: SwsCosts,
    /// Fallback poll period when nothing predicts the next activity.
    pub poll_interval: u64,
    /// Minimum delay between two `Epoll` passes: the poll loop batches
    /// readiness like `epoll_wait` does under load, instead of waking
    /// for every individual client event.
    pub min_poll: u64,
    /// Workstealing penalty annotation for the per-connection handlers
    /// (they carry the connection's buffers; see Section III-C).
    pub conn_penalty: u32,
}

impl Default for SwsConfig {
    fn default() -> Self {
        SwsConfig {
            port: 80,
            files: 150,
            file_size: 1024,
            max_clients: 4_096,
            costs: SwsCosts::default(),
            poll_interval: 40_000,
            min_poll: 12_000,
            conn_penalty: 4,
        }
    }
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwsStats {
    /// Responses written (any status).
    pub responses: u64,
    /// 200 responses.
    pub ok: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 400 responses.
    pub bad_request: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed by the server.
    pub closed: u64,
    /// Requests aborted by the peer mid-flight: the connection hit EOF
    /// (or was reset) while a partial request sat in its parse buffer.
    /// Each one also fails exactly one carried request in the runtime's
    /// `failed_requests` accounting.
    pub aborted: u64,
}

impl std::ops::AddAssign for SwsStats {
    /// Field-wise sum (the N-copy deployment's total over its copies).
    fn add_assign(&mut self, o: SwsStats) {
        // Exhaustive on purpose: a counter added to the struct later
        // fails to compile here instead of silently dropping out of
        // every total.
        let SwsStats {
            responses,
            ok,
            not_found,
            bad_request,
            accepted,
            closed,
            aborted,
        } = o;
        self.responses += responses;
        self.ok += ok;
        self.not_found += not_found;
        self.bad_request += bad_request;
        self.accepted += accepted;
        self.closed += closed;
        self.aborted += aborted;
    }
}

#[derive(Debug, Default)]
struct ConnState {
    parser: RequestParser,
    registered: bool,
    read_pending: bool,
    /// Parsed requests awaiting their cache lookup, in arrival order —
    /// or, for an unparseable request, the prebuilt `400` that takes
    /// its slot so responses stay in request order. Queues, not single
    /// slots: a pipelining client keeps several per-connection stage
    /// chains in flight at once, and an interleaved chain must never
    /// overwrite a request (or response) another chain has produced but
    /// not yet consumed.
    reqs: VecDeque<Result<Request, Response>>,
    /// Built responses awaiting their write, in request order.
    resps: VecDeque<Response>,
    close_after: bool,
}

struct SwsState {
    /// Looked up by descriptor, never iterated.
    conns: FxHashMap<Fd, ConnState>,
    cache: ResponseCache,
    accepted: usize,
    accept_pending: bool,
    stats: SwsStats,
}

/// State shared by the nine stages of one [`SwsService`].
struct SwsShared<D> {
    state: Mutex<SwsState>,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SwsConfig,
    /// A [`SwsWaker`] tick is in flight: collapses wake bursts from an
    /// external poller thread into at most one pending `PollTick`.
    wake_pending: AtomicBool,
}

/// The poll loop's self-message. Re-arming ticks (the seed and every
/// tick the loop schedules for itself) keep the timer chain alive;
/// waker-submitted ticks ([`SwsWaker`]) are one-shot extra polls and
/// must not fork a second chain.
struct PollTick {
    rearm: bool,
}

/// One bounded accept batch.
struct AcceptTick;

/// The paper's penalty for the event-loop stages: their colors carry
/// global, long-lived state (interest set, accepted-clients counter);
/// stealing them migrates that state for no benefit (Section III-C).
const SWS_LOOP_PENALTY: u32 = 100;

struct EpollStage<D>(Arc<SwsShared<D>>);
struct AcceptStage<D>(Arc<SwsShared<D>>);
struct RegisterFdStage<D>(Arc<SwsShared<D>>);
struct ReadRequestStage<D>(Arc<SwsShared<D>>);
struct ParseRequestStage<D>(Arc<SwsShared<D>>);
struct GetFromCacheStage<D>(Arc<SwsShared<D>>);
struct WriteResponseStage<D>(Arc<SwsShared<D>>);
struct CloseStage<D>(Arc<SwsShared<D>>);
struct DecAcceptedStage<D>(Arc<SwsShared<D>>);

impl<D: Driver + 'static> Stage for EpollStage<D> {
    type In = PollTick;

    fn spec(&self) -> StageSpec<PollTick> {
        StageSpec::new("Epoll")
            .cost(self.0.cfg.costs.epoll)
            .penalty(SWS_LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: PollTick) {
        let now = ctx.now();
        let s = &self.0;
        // This poll is happening: a new wake may be requested again.
        s.wake_pending.store(false, Ordering::Release);
        let mut net = s.net.lock();
        let done = s.driver.lock().advance(&mut net, now);
        let events = net.poll(now);
        ctx.charge(s.cfg.costs.epoll_per_event * events.len() as u64);
        {
            let mut st = s.state.lock();
            for e in events {
                match e {
                    NetEvent::Acceptable(_) => {
                        if !st.accept_pending && st.accepted < s.cfg.max_clients {
                            st.accept_pending = true;
                            ctx.spawn::<AcceptStage<D>>(AcceptTick);
                        }
                    }
                    NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => {
                        if let Some(conn) = st.conns.get_mut(&fd) {
                            if conn.registered && !conn.read_pending {
                                conn.read_pending = true;
                                // Each readiness notification opens a
                                // new request: its latency runs from the
                                // ReadRequest dispatch to the response.
                                ctx.spawn::<ReadRequestStage<D>>(fd);
                            }
                        }
                    }
                }
            }
        }
        // Re-arm: wake exactly when the network or the clients next
        // have something for us. Waker-submitted one-shot ticks skip
        // this — the original chain is still armed.
        let next = [net.next_activity(now), s.driver.lock().next_due(now)]
            .into_iter()
            .flatten()
            .min();
        drop(net);
        if !msg.rearm {
            return;
        }
        match next {
            Some(t) => ctx.to_after::<EpollStage<D>>(
                t.saturating_sub(now).max(s.cfg.min_poll),
                PollTick { rearm: true },
            ),
            None if !done => {
                ctx.to_after::<EpollStage<D>>(s.cfg.poll_interval, PollTick { rearm: true })
            }
            None => {
                // Load finished and the network is silent: stop
                // re-arming so the simulation can drain and return.
            }
        }
    }
}

impl<D: Driver + 'static> Stage for AcceptStage<D> {
    type In = AcceptTick;

    fn spec(&self) -> StageSpec<AcceptTick> {
        StageSpec::new("Accept")
            .cost(self.0.cfg.costs.accept)
            .penalty(SWS_LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: AcceptTick) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        let mut st = s.state.lock();
        // Accept a bounded batch per event, then yield and re-register
        // (see `ACCEPT_BATCH`).
        let mut first = true;
        let mut batch = 0;
        while st.accepted < s.cfg.max_clients && batch < ACCEPT_BATCH {
            let Some(fd) = net.accept(s.cfg.port, now) else {
                break;
            };
            if !first {
                ctx.charge(s.cfg.costs.accept);
            }
            first = false;
            batch += 1;
            st.accepted += 1;
            st.stats.accepted += 1;
            st.conns.insert(fd, ConnState::default());
            ctx.to::<RegisterFdStage<D>>(fd);
        }
        if batch == ACCEPT_BATCH && st.accepted < s.cfg.max_clients {
            // More connections may be pending: keep accepting.
            ctx.to::<AcceptStage<D>>(AcceptTick);
        } else {
            st.accept_pending = false;
        }
    }
}

impl<D: Driver + 'static> Stage for RegisterFdStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        // Colored like Epoll "in order to manage concurrency" (paper).
        StageSpec::new("RegisterFdInEpoll")
            .cost(self.0.cfg.costs.register_fd)
            .penalty(SWS_LOOP_PENALTY)
            .share_color_with::<EpollStage<D>>()
    }

    fn handle(&self, _ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut st = self.0.state.lock();
        if let Some(conn) = st.conns.get_mut(&fd) {
            conn.registered = true;
        }
    }
}

impl<D: Driver + 'static> Stage for ReadRequestStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("ReadRequest")
            .cost(self.0.cfg.costs.read_request)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        let data = net.read(fd, now);
        // EOF only counts once all data has been consumed.
        let hup = data.is_empty() && net.peer_closed(fd, now);
        drop(net);
        let mut st = s.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        conn.read_pending = false;
        if hup {
            if conn.parser.has_partial() {
                // The peer abandoned a request mid-flight (reset, or
                // EOF with a partial request buffered): exactly one
                // carried request fails.
                ctx.fail();
                st.stats.aborted += 1;
            }
            ctx.to::<CloseStage<D>>(fd);
            return;
        }
        if !data.is_empty() {
            conn.parser.feed(&data);
            ctx.to::<ParseRequestStage<D>>(fd);
        }
    }
}

impl<D: Driver + 'static> Stage for ParseRequestStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("ParseRequest")
            .cost(self.0.cfg.costs.parse_request)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut st = self.0.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        match conn.parser.next_request() {
            Some(Ok(req)) => {
                conn.close_after |= !req.keep_alive;
                conn.reqs.push_back(Ok(req));
                ctx.to::<GetFromCacheStage<D>>(fd);
            }
            None => {
                // Wait for more bytes; Epoll will re-trigger a read.
            }
            Some(Err(_)) => {
                conn.reqs.push_back(Err(Response::bad_request()));
                conn.close_after = true;
                st.stats.bad_request += 1;
                ctx.to::<GetFromCacheStage<D>>(fd);
            }
        }
    }
}

impl<D: Driver + 'static> Stage for GetFromCacheStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("GetFromCache")
            .cost(self.0.cfg.costs.get_from_cache)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut st = self.0.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        let Some(slot) = conn.reqs.pop_front() else {
            return;
        };
        let resp = match slot {
            Ok(req) => match st.cache.lookup(&req.path) {
                Some(r) => r.clone(),
                None => Response::not_found(),
            },
            // Unparseable request: its `400` passes straight through.
            Err(prebuilt) => prebuilt,
        };
        let conn = st.conns.get_mut(&fd).expect("checked above");
        conn.resps.push_back(resp);
        ctx.to::<WriteResponseStage<D>>(fd);
    }
}

impl<D: Driver + 'static> Stage for WriteResponseStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("WriteResponse")
            .cost(self.0.cfg.costs.write_response)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let now = ctx.now();
        let mut st = s.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        let Some(resp) = conn.resps.pop_front() else {
            return;
        };
        ctx.charge(resp.wire_len() as u64 * s.cfg.costs.write_per_byte_milli / 1_000);
        st.stats.responses += 1;
        match resp.status() {
            200 => st.stats.ok += 1,
            404 => st.stats.not_found += 1,
            _ => {} // 400s are counted at parse time
        }
        let conn = st.conns.get_mut(&fd).expect("checked above");
        let close_after = conn.close_after;
        let more = conn.parser.has_partial();
        drop(st);
        s.net.lock().write(fd, now, resp.to_vec());
        // The response left the server: the request is complete.
        ctx.complete(());
        if close_after {
            ctx.to::<CloseStage<D>>(fd);
        } else if more {
            // Pipelined request already buffered: a new request begins
            // at its parse.
            ctx.spawn::<ParseRequestStage<D>>(fd);
        }
    }
}

impl<D: Driver + 'static> Stage for CloseStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("Close")
            .cost(self.0.cfg.costs.close)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        net.close(fd, now);
        net.reap(fd);
        drop(net);
        let mut st = s.state.lock();
        if st.conns.remove(&fd).is_some() {
            st.stats.closed += 1;
            ctx.to::<DecAcceptedStage<D>>(());
        }
    }
}

impl<D: Driver + 'static> Stage for DecAcceptedStage<D> {
    type In = ();

    fn spec(&self) -> StageSpec<()> {
        // Colored like Accept "to manage concurrency" (paper).
        StageSpec::new("DecClientAccepted")
            .cost(self.0.cfg.costs.dec_accepted)
            .penalty(SWS_LOOP_PENALTY)
            .share_color_with::<AcceptStage<D>>()
    }

    fn handle(&self, _ctx: &mut StageCtx<'_, '_>, _msg: ()) {
        let mut st = self.0.state.lock();
        st.accepted = st.accepted.saturating_sub(1);
    }
}

/// SWS as a typed stage [`Pipeline`]:
/// bundle the network, the driver and the configuration, then
/// `rt.install(SwsService::new(..))` on either executor. After the run,
/// [`SwsService::stats`] reads the server counters, and the report's
/// `completed_requests` / `latency_p50` / `latency_p99` cover every
/// response served (one request per readiness-to-response chain).
///
/// The nine stages and their coloring follow the paper exactly —
/// `Epoll` + `RegisterFdInEpoll` share a serial color, `Accept` +
/// `DecClientAccepted` another, the per-request stages are keyed by
/// descriptor — but the colors themselves come from the pipeline's
/// [`ColorSpace`], not hand-picked constants.
pub struct SwsService<D> {
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SwsConfig,
    colors: Option<ColorSpace>,
    installed: Option<Arc<SwsShared<D>>>,
    pipeline: Option<Pipeline>,
}

impl<D: Driver + 'static> SwsService<D> {
    /// Bundles a web server over `net` serving load from `driver`.
    pub fn new(net: Arc<Mutex<SimNet>>, driver: Arc<Mutex<D>>, cfg: SwsConfig) -> Self {
        SwsService {
            net,
            driver,
            cfg,
            colors: None,
            installed: None,
            pipeline: None,
        }
    }

    /// Replaces the pipeline's color space (default
    /// [`ColorSpace::for_stages`]). Several copies of this service
    /// share an executor by residue: build copy `c` on
    /// [`ColorSpace::congruent`]`(c, copies)` and their colors are
    /// disjoint — with `copies` = the core count that is the N-copy
    /// deployment ([`comparators::install_ncopy`]).
    pub fn with_colors(mut self, colors: ColorSpace) -> Self {
        self.colors = Some(colors);
        self
    }

    /// Current server-side counters.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been installed yet.
    pub fn stats(&self) -> SwsStats {
        self.installed
            .as_ref()
            .expect("service not installed")
            .state
            .lock()
            .stats
    }

    /// A wake handle for external pollers (the real-socket gateway's
    /// poller thread): each [`SwsWaker::wake`] submits one extra
    /// `Epoll` pass through the injection path, so readiness
    /// that arrived from the kernel is polled promptly instead of
    /// waiting out the poll interval. Wake bursts collapse — at most
    /// one waker tick is in flight at a time — and waker ticks never
    /// fork the poll loop's own re-arm chain.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been installed yet.
    pub fn waker(&self, injector: Injector) -> SwsWaker {
        let shared = Arc::clone(self.installed.as_ref().expect("service not installed"));
        let sender = self
            .pipeline
            .as_ref()
            .expect("service not installed")
            .sender(injector);
        SwsWaker {
            wake: Arc::new(move || {
                if !shared.wake_pending.swap(true, Ordering::AcqRel) {
                    sender.submit::<EpollStage<D>>(PollTick { rearm: false });
                }
            }),
        }
    }
}

/// A cloneable handle nudging an installed [`SwsService`]'s poll loop
/// from outside the executor — see [`SwsService::waker`].
#[derive(Clone)]
pub struct SwsWaker {
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl SwsWaker {
    /// Requests one prompt `Epoll` pass (idempotent while one is
    /// already pending).
    pub fn wake(&self) {
        (self.wake)()
    }
}

impl std::fmt::Debug for SwsWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwsWaker").finish()
    }
}

impl<D: Driver + 'static> Service for SwsService<D> {
    fn name(&self) -> &str {
        "sws"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        let mut cache = ResponseCache::new();
        cache.populate_uniform(self.cfg.files, self.cfg.file_size);
        self.net.lock().listen(self.cfg.port);
        let shared = Arc::new(SwsShared {
            state: Mutex::new(SwsState {
                conns: FxHashMap::default(),
                cache,
                accepted: 0,
                accept_pending: false,
                stats: SwsStats::default(),
            }),
            net: Arc::clone(&self.net),
            driver: Arc::clone(&self.driver),
            cfg: self.cfg.clone(),
            wake_pending: AtomicBool::new(false),
        });
        let mut builder = PipelineBuilder::new("sws");
        if let Some(colors) = self.colors.take() {
            builder = builder.with_colors(colors);
        }
        let mut pipeline = builder
            .stage(EpollStage(Arc::clone(&shared)))
            .stage(AcceptStage(Arc::clone(&shared)))
            .stage(RegisterFdStage(Arc::clone(&shared)))
            .stage(ReadRequestStage(Arc::clone(&shared)))
            .stage(ParseRequestStage(Arc::clone(&shared)))
            .stage(GetFromCacheStage(Arc::clone(&shared)))
            .stage(WriteResponseStage(Arc::clone(&shared)))
            .stage(CloseStage(Arc::clone(&shared)))
            .stage(DecAcceptedStage(Arc::clone(&shared)))
            .seed::<EpollStage<D>>(PollTick { rearm: true })
            .build();
        pipeline.install(exec);
        self.pipeline = Some(pipeline);
        self.installed = Some(shared);
    }
}

/// The HTTP client protocol for SWS load: each request fetches one of
/// the server's prebuilt files; responses are validated by status line
/// and `Content-Length` framing.
#[derive(Debug)]
pub struct HttpProtocol {
    files: usize,
    ok: u64,
    errors: u64,
}

impl HttpProtocol {
    /// Clients will request one of `files` prebuilt paths.
    pub fn new(files: usize) -> Self {
        HttpProtocol {
            files,
            ok: 0,
            errors: 0,
        }
    }

    /// `200` responses observed.
    pub fn ok_responses(&self) -> u64 {
        self.ok
    }

    /// Non-200 responses observed.
    pub fn error_responses(&self) -> u64 {
        self.errors
    }
}

impl ClientProtocol for HttpProtocol {
    fn request(&mut self, client: usize, seq: u64) -> Vec<u8> {
        let file = (client as u64 * 31 + seq) % self.files.max(1) as u64;
        format!("GET /f{file}.bin HTTP/1.1\r\nHost: sws\r\nConnection: keep-alive\r\n\r\n")
            .into_bytes()
    }

    fn response_len(&self, buf: &[u8]) -> Option<usize> {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&buf[..head_end]).ok()?;
        let mut content_length = 0usize;
        for line in head.split("\r\n") {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().ok()?;
                }
            }
        }
        let total = head_end + content_length;
        (buf.len() >= total).then_some(total)
    }

    fn on_response(&mut self, _client: usize, response: &[u8]) {
        if response.starts_with(b"HTTP/1.1 200") {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_core::prelude::*;
    use mely_loadgen::{ClosedLoopLoad, LoadConfig};
    use mely_net::NetConfig;

    /// One simulated run of a default-configured [`SwsService`] (Mely
    /// flavor) under `clients` closed-loop clients speaking `protocol`.
    fn serve<P: ClientProtocol + 'static>(
        cores: usize,
        ws: WsPolicy,
        protocol: P,
        clients: usize,
        requests_per_conn: u64,
        duration: u64,
    ) -> (SwsStats, Arc<Mutex<ClosedLoopLoad<P>>>, RunReport) {
        let mut rt = RuntimeBuilder::new()
            .cores(cores)
            .flavor(Flavor::Mely)
            .workstealing(ws)
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = SwsConfig::default();
        let load = ClosedLoopLoad::new(
            protocol,
            LoadConfig {
                clients,
                ports: vec![cfg.port],
                requests_per_conn,
                duration,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let svc = rt.install(SwsService::new(net, Arc::clone(&driver), cfg));
        let report = rt.run();
        (svc.stats(), driver, report)
    }

    fn http() -> HttpProtocol {
        HttpProtocol::new(SwsConfig::default().files)
    }

    #[test]
    fn serves_requests_end_to_end() {
        let (srv, driver, report) = serve(8, WsPolicy::off(), http(), 8, 10, 30_000_000);
        let cli = driver.lock().stats();
        assert!(cli.responses > 10, "got {}", cli.responses);
        assert_eq!(srv.responses, srv.ok, "all 200s");
        assert!(srv.responses >= cli.responses);
        assert!(report.events_processed() > cli.responses * 4);
    }

    #[test]
    fn missing_files_get_404() {
        #[derive(Debug)]
        struct BadPath(HttpProtocol);
        impl ClientProtocol for BadPath {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"GET /missing HTTP/1.1\r\n\r\n".to_vec()
            }
            fn response_len(&self, buf: &[u8]) -> Option<usize> {
                self.0.response_len(buf)
            }
        }
        let (srv, _, _) = serve(2, WsPolicy::off(), BadPath(http()), 1, 3, 10_000_000);
        assert!(srv.not_found > 0);
        assert_eq!(srv.ok, 0);
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        #[derive(Debug)]
        struct Garbage;
        impl ClientProtocol for Garbage {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"NONSENSE\r\n\r\n".to_vec()
            }
            fn response_len(&self, buf: &[u8]) -> Option<usize> {
                HttpProtocol::new(1).response_len(buf)
            }
        }
        let (srv, _, _) = serve(2, WsPolicy::off(), Garbage, 1, 2, 10_000_000);
        assert!(srv.bad_request > 0);
        assert!(srv.closed > 0, "400 closes the connection");
    }

    #[test]
    fn http_protocol_framing() {
        let p = HttpProtocol::new(10);
        assert_eq!(p.response_len(b"HTTP/1.1 200 OK\r\n"), None);
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(p.response_len(full), Some(full.len()));
        // Trailing extra bytes belong to the next response.
        let mut two = full.to_vec();
        two.extend_from_slice(b"HTTP");
        assert_eq!(p.response_len(&two), Some(full.len()));
    }

    #[test]
    fn stats_sum_covers_every_counter() {
        let mut total = SwsStats {
            responses: 1,
            ok: 2,
            not_found: 3,
            bad_request: 4,
            accepted: 5,
            closed: 6,
            aborted: 7,
        };
        total += SwsStats {
            responses: 10,
            ok: 20,
            not_found: 30,
            bad_request: 40,
            accepted: 50,
            closed: 60,
            aborted: 70,
        };
        assert_eq!(
            total,
            SwsStats {
                responses: 11,
                ok: 22,
                not_found: 33,
                bad_request: 44,
                accepted: 55,
                closed: 66,
                aborted: 77,
            }
        );
    }

    #[test]
    fn stage_service_serves_requests_and_reports_latency() {
        let (srv, driver, report) = serve(8, WsPolicy::improved(), http(), 16, 10, 30_000_000);
        assert!(srv.responses > 20, "served {}", srv.responses);
        assert_eq!(srv.responses, srv.ok, "all 200s");
        // Every response closed one request of the latency pipeline.
        assert_eq!(report.completed_requests(), srv.responses);
        assert!(report.latency_p50() > 0, "multi-hop requests take time");
        assert!(report.latency_p50() <= report.latency_p99());
        // The clients verified every status line they were sent.
        let d = driver.lock();
        assert!(d.protocol().ok_responses() > 0);
        assert_eq!(d.protocol().error_responses(), 0);
    }

    #[test]
    fn stage_service_is_deterministic_on_the_simulator() {
        // The network-driven SWS is time-driven (poll loops, closed-loop
        // clients), so event counts are not structural across executors —
        // but on the deterministic simulator it must serve every request
        // the clients issue, identically run to run, including its
        // request accounting.
        let run = || {
            let (srv, _, report) = serve(8, WsPolicy::improved(), http(), 16, 10, 20_000_000);
            (
                report.fingerprint(),
                srv.responses,
                report.events_processed(),
                report.completed_requests(),
                report.latency_p99(),
            )
        };
        let a = run();
        let b = run();
        assert!(a.1 > 0, "must actually serve requests");
        // Fingerprint equality pins the whole per-core completion
        // sequence, not just the aggregate counts.
        assert_eq!(a, b, "deterministic replay of the stage pipeline");
    }

    #[test]
    fn workstealing_spreads_work_across_cores() {
        let (_, driver, report) = serve(8, WsPolicy::improved(), http(), 64, 10, 40_000_000);
        assert!(driver.lock().stats().responses > 50);
        let active = report
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 4, "work must spread, got {active} cores");
    }
}
