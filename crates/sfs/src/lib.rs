//! SFS — the paper's NFS-like secure file server (Section V-C2).
//!
//! "As all communications are encrypted and authenticated, SFS is
//! CPU-intensive": the server spends most of its time in cryptographic
//! handlers. Following the coloring scheme the paper inherits from
//! Zeldovich et al., **only the CPU-intensive handlers are colored**: the
//! protocol handlers (`Epoll`, `Accept`, `ReadRequest`, `ProcessRead`,
//! `SendReply`, `Close`) all share the default color 0 and therefore run
//! serially, while each session's `Encrypt` handler gets its own color
//! and parallelizes across cores:
//!
//! ```text
//! Epoll(0) ─► ReadRequest(0) ─► ProcessRead(0) ─► Encrypt(session) ─► SendReply(0)
//! ```
//!
//! The wire protocol is a minimal read protocol over persistent
//! connections: requests are `READ <client> <offset> <len>\n` lines; the
//! response is a 16-byte header (payload length + MAC tag, little
//! endian) followed by the encrypted payload. The server seals each
//! payload with [`mely_crypto::seal`] (encrypt, then MAC the ciphertext,
//! in one pass) and clients open and check every response with
//! [`mely_crypto::open`] ([`SfsProtocol`]), so the crypto work is real
//! on both sides. Like the paper's `multio` benchmark, the requested file stays
//! in the server's in-memory buffer cache ([`FileStore`]).
//!
//! [`SfsService`] is the server, a typed stage pipeline
//! (`mely_core::stage`) in which every encrypted reply closes a request
//! of the per-request latency pipeline. The network-free, structurally
//! countable variant is [`service::FileServerService`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::exec::{Executor, Service};
use mely_core::stage::{PipelineBuilder, Stage, StageCtx, StageSpec};
use mely_crypto::{crypto_cost_cycles, SessionKey};
use mely_loadgen::ClientProtocol;
use mely_net::driver::Driver;
use mely_net::{Fd, NetEvent, SimNet, ACCEPT_BATCH};

pub mod service;

pub use service::{FileServerConfig, FileServerService, FileServerStats};

/// The in-memory buffer cache holding the served files (the paper's
/// workload never touches disk: "the content of the requested file
/// remains in the server's disk buffer cache").
#[derive(Debug, Default)]
pub struct FileStore {
    files: HashMap<String, Arc<Vec<u8>>>,
}

/// Deterministic file contents so clients can verify decrypted data
/// without holding a copy: byte `i` of every generated file is
/// `gen_byte(i)`: bits 13..20 of `i * 2654435761`. Those depend only
/// on the low 21 bits of `i`, so a 32-bit multiply gives them exactly,
/// and unlike a 64-bit one it vectorises.
pub fn gen_byte(i: u64) -> u8 {
    ((i as u32).wrapping_mul(2_654_435_761) >> 13) as u8
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates and stores a `len`-byte file under `path`.
    pub fn put_generated(&mut self, path: &str, len: u64) {
        let data: Vec<u8> = (0..len).map(gen_byte).collect();
        self.files.insert(path.to_string(), Arc::new(data));
    }

    /// Looks up a file.
    pub fn get(&self, path: &str) -> Option<&Arc<Vec<u8>>> {
        self.files.get(path)
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Offset of reader `who`'s `seq`-th chunked read: readers are
/// staggered so they do not all hit the same offsets in lockstep
/// (irrelevant to correctness, realistic for caching).
fn offset_for(who: u64, seq: u64, chunk: u64, file_len: u64) -> u64 {
    ((who + seq) * chunk) % file_len.max(1)
}

/// Copies bytes `offset..offset + len` of `file`, clamped to its end
/// (empty when `offset` lies at or past it).
fn read_chunk(file: &[u8], offset: u64, len: u64) -> Vec<u8> {
    let start = offset.min(file.len() as u64) as usize;
    let end = offset.saturating_add(len).min(file.len() as u64) as usize;
    file[start..end].to_vec()
}

/// Seals the chunk read at `offset` for `session`: encrypts `payload`
/// in place and returns the MAC tag of the ciphertext
/// ([`mely_crypto::seal`]).
fn seal(session: u64, offset: u64, payload: &mut [u8]) -> u64 {
    mely_crypto::seal(&SessionKey::from_seed(session), offset, payload)
}

/// The receiving end of [`seal`]: checks `tag` over the ciphertext,
/// decrypts `payload` in place ([`mely_crypto::open`]) and compares it
/// byte for byte against the content generator. `true` when both the
/// MAC and the data hold.
fn open_verified(session: u64, offset: u64, payload: &mut [u8], tag: u64) -> bool {
    let mac_ok = mely_crypto::open(&SessionKey::from_seed(session), offset, payload, tag);
    // A fold rather than `all`: no early exit, so the compare vectorises.
    let diff = (offset..)
        .zip(payload.iter())
        .fold(0, |d, (i, &b)| d | (b ^ gen_byte(i)));
    mac_ok && diff == 0
}

/// Per-handler cycle annotations. `encrypt` is derived from the chunk
/// size via [`crypto_cost_cycles`], making the coarse-grain profile of
/// the paper's SFS (stolen sets of ~1200 Kcycles, Table I) explicit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfsCosts {
    /// `Epoll` poll pass.
    pub epoll: u64,
    /// Extra cycles per readiness event found.
    pub epoll_per_event: u64,
    /// `Accept` per connection.
    pub accept: u64,
    /// `ReadRequest` (receive + line parse).
    pub read_request: u64,
    /// `ProcessRead` (buffer-cache lookup and copy).
    pub process_read: u64,
    /// `SendReply` fixed cost (plus per-byte).
    pub send_reply: u64,
    /// Per-byte transmit cost, in milli-cycles.
    pub send_per_byte_milli: u64,
    /// `Close`.
    pub close: u64,
}

impl Default for SfsCosts {
    fn default() -> Self {
        SfsCosts {
            epoll: 6_000,
            epoll_per_event: 400,
            accept: 20_000,
            read_request: 10_000,
            process_read: 12_000,
            send_reply: 14_000,
            send_per_byte_milli: 1_500,
            close: 10_000,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SfsConfig {
    /// Listening port.
    pub port: u16,
    /// Path of the served file.
    pub path: String,
    /// Length of the served file in bytes (the paper uses 200 MB; the
    /// default here is scaled down so simulations stay laptop-sized).
    pub file_len: u64,
    /// Read chunk size per request.
    pub chunk: u64,
    /// Handler cost annotations.
    pub costs: SfsCosts,
    /// Fallback poll period.
    pub poll_interval: u64,
    /// Minimum delay between two `Epoll` passes (readiness batching).
    pub min_poll: u64,
}

impl Default for SfsConfig {
    fn default() -> Self {
        SfsConfig {
            port: 4_000,
            path: "/data".to_string(),
            file_len: 4 << 20,
            chunk: 32 << 10,
            costs: SfsCosts::default(),
            poll_interval: 40_000,
            min_poll: 12_000,
        }
    }
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfsStats {
    /// Read requests served.
    pub reads: u64,
    /// Encrypted payload bytes sent.
    pub bytes: u64,
    /// Sessions accepted.
    pub sessions: u64,
    /// Malformed or out-of-range requests rejected (connection closed).
    pub rejected: u64,
}

#[derive(Debug, Default)]
struct ConnState {
    buf: Vec<u8>,
    read_pending: bool,
}

struct SfsState {
    store: FileStore,
    conns: HashMap<Fd, ConnState>,
    accept_pending: bool,
    stats: SfsStats,
}

/// A parsed `READ` request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReadReq {
    client: u64,
    offset: u64,
    len: u64,
}

fn parse_read_line(line: &str) -> Option<ReadReq> {
    let mut it = line.split_ascii_whitespace();
    if it.next()? != "READ" {
        return None;
    }
    let client = it.next()?.parse().ok()?;
    let offset = it.next()?.parse().ok()?;
    let len = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(ReadReq {
        client,
        offset,
        len,
    })
}

/// State shared by the typed SFS stages ([`SfsService`]).
struct SfsShared<D> {
    state: Mutex<SfsState>,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SfsConfig,
}

/// The poll loop's self-message.
struct SfsPollTick;

/// One bounded accept batch.
struct SfsAcceptTick;

/// Plaintext chunk on its way to the per-session `Encrypt` stage.
struct SfsEncryptMsg {
    fd: Fd,
    req: ReadReq,
    plain: Vec<u8>,
}

/// Encrypted payload awaiting framing and delivery.
struct SfsReplyMsg {
    fd: Fd,
    payload: Vec<u8>,
    tag: u64,
}

/// The paper's penalty annotation for the serialized protocol stages.
const SFS_LOOP_PENALTY: u32 = 100;

struct SfsEpollStage<D>(Arc<SfsShared<D>>);
struct SfsAcceptStage<D>(Arc<SfsShared<D>>);
struct SfsReadRequestStage<D>(Arc<SfsShared<D>>);
struct SfsProcessReadStage<D>(Arc<SfsShared<D>>);
struct SfsEncryptStage<D>(Arc<SfsShared<D>>);
struct SfsSendReplyStage<D>(Arc<SfsShared<D>>);
struct SfsCloseStage<D>(Arc<SfsShared<D>>);

impl<D: Driver + 'static> Stage for SfsEpollStage<D> {
    type In = SfsPollTick;

    fn spec(&self) -> StageSpec<SfsPollTick> {
        // The serial protocol color: every protocol stage below shares
        // it, so protocol work is serialized exactly like the paper's
        // default-color scheme — only `Encrypt` parallelizes.
        StageSpec::new("Epoll")
            .cost(self.0.cfg.costs.epoll)
            .penalty(SFS_LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: SfsPollTick) {
        let now = ctx.now();
        let s = &self.0;
        let mut net = s.net.lock();
        let done = s.driver.lock().advance(&mut net, now);
        let events = net.poll(now);
        ctx.charge(s.cfg.costs.epoll_per_event * events.len() as u64);
        {
            let mut st = s.state.lock();
            for e in events {
                match e {
                    NetEvent::Acceptable(_) => {
                        if !st.accept_pending {
                            st.accept_pending = true;
                            ctx.spawn::<SfsAcceptStage<D>>(SfsAcceptTick);
                        }
                    }
                    NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => {
                        if let Some(conn) = st.conns.get_mut(&fd) {
                            if !conn.read_pending {
                                conn.read_pending = true;
                                // One readiness notification = one new
                                // request of the latency pipeline.
                                ctx.spawn::<SfsReadRequestStage<D>>(fd);
                            }
                        }
                    }
                }
            }
        }
        let next = [net.next_activity(now), s.driver.lock().next_due(now)]
            .into_iter()
            .flatten()
            .min();
        drop(net);
        match next {
            Some(t) => ctx.to_after::<SfsEpollStage<D>>(
                t.saturating_sub(now).max(s.cfg.min_poll),
                SfsPollTick,
            ),
            None if !done => ctx.to_after::<SfsEpollStage<D>>(s.cfg.poll_interval, SfsPollTick),
            None => {}
        }
    }
}

impl<D: Driver + 'static> Stage for SfsAcceptStage<D> {
    type In = SfsAcceptTick;

    fn spec(&self) -> StageSpec<SfsAcceptTick> {
        StageSpec::new("Accept")
            .cost(self.0.cfg.costs.accept)
            .penalty(SFS_LOOP_PENALTY)
            .share_color_with::<SfsEpollStage<D>>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: SfsAcceptTick) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        let mut st = s.state.lock();
        // Bounded accept batch (see the SWS accept handler).
        let mut first = true;
        let mut batch = 0;
        while batch < ACCEPT_BATCH {
            let Some(fd) = net.accept(s.cfg.port, now) else {
                break;
            };
            if !first {
                ctx.charge(s.cfg.costs.accept);
            }
            first = false;
            batch += 1;
            st.stats.sessions += 1;
            st.conns.insert(fd, ConnState::default());
        }
        if batch == ACCEPT_BATCH {
            ctx.to::<SfsAcceptStage<D>>(SfsAcceptTick);
        } else {
            st.accept_pending = false;
        }
    }
}

impl<D: Driver + 'static> Stage for SfsReadRequestStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("ReadRequest")
            .cost(self.0.cfg.costs.read_request)
            .penalty(SFS_LOOP_PENALTY)
            .share_color_with::<SfsEpollStage<D>>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        let data = net.read(fd, now);
        let hup = data.is_empty() && net.peer_closed(fd, now);
        drop(net);
        let mut st = s.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        conn.read_pending = false;
        if hup {
            ctx.to::<SfsCloseStage<D>>(fd);
            return;
        }
        conn.buf.extend_from_slice(&data);
        // Extract complete request lines; each carries the running
        // request forward (they all arrived in this read).
        while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.buf.drain(..=pos).collect();
            let parsed = std::str::from_utf8(&line[..line.len() - 1])
                .ok()
                .and_then(parse_read_line);
            match parsed {
                Some(req) => ctx.to::<SfsProcessReadStage<D>>((fd, req)),
                None => {
                    st.stats.rejected += 1;
                    ctx.to::<SfsCloseStage<D>>(fd);
                    return;
                }
            }
        }
    }
}

impl<D: Driver + 'static> Stage for SfsProcessReadStage<D> {
    type In = (Fd, ReadReq);

    fn spec(&self) -> StageSpec<(Fd, ReadReq)> {
        StageSpec::new("ProcessRead")
            .cost(self.0.cfg.costs.process_read)
            .penalty(SFS_LOOP_PENALTY)
            .share_color_with::<SfsEpollStage<D>>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, (fd, req): (Fd, ReadReq)) {
        let s = &self.0;
        let mut st = s.state.lock();
        let Some(file) = st.store.get(&s.cfg.path) else {
            return;
        };
        let plain = read_chunk(file, req.offset, req.len);
        if plain.is_empty() {
            st.stats.rejected += 1;
            ctx.to::<SfsCloseStage<D>>(fd);
            return;
        }
        drop(st);
        ctx.to::<SfsEncryptStage<D>>(SfsEncryptMsg { fd, req, plain });
    }
}

impl<D: Driver + 'static> Stage for SfsEncryptStage<D> {
    type In = SfsEncryptMsg;

    fn spec(&self) -> StageSpec<SfsEncryptMsg> {
        // The one colored stage: per-session parallelism, keyed into
        // the keyed plane (disjoint from the protocol color) by a
        // realistic, imperfect hash: session colors collide on a subset
        // of the cores, giving the static dispatch the load imbalance
        // that workstealing then corrects (the effect Figure 3
        // measures).
        StageSpec::new("Encrypt")
            .cost(crypto_cost_cycles(self.0.cfg.chunk))
            .keyed(|m| 16 + (m.fd * 5) % 13)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: SfsEncryptMsg) {
        let mut payload = msg.plain;
        let tag = seal(msg.req.client, msg.req.offset, &mut payload);
        ctx.to::<SfsSendReplyStage<D>>(SfsReplyMsg {
            fd: msg.fd,
            payload,
            tag,
        });
    }
}

impl<D: Driver + 'static> Stage for SfsSendReplyStage<D> {
    type In = SfsReplyMsg;

    fn spec(&self) -> StageSpec<SfsReplyMsg> {
        StageSpec::new("SendReply")
            .cost(self.0.cfg.costs.send_reply)
            .penalty(SFS_LOOP_PENALTY)
            .share_color_with::<SfsEpollStage<D>>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: SfsReplyMsg) {
        let s = &self.0;
        let now = ctx.now();
        ctx.charge(msg.payload.len() as u64 * s.cfg.costs.send_per_byte_milli / 1_000);
        let mut frame = Vec::with_capacity(16 + msg.payload.len());
        frame.extend_from_slice(&(msg.payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&msg.tag.to_le_bytes());
        frame.extend_from_slice(&msg.payload);
        let n = msg.payload.len() as u64;
        s.net.lock().write(msg.fd, now, frame);
        let mut st = s.state.lock();
        st.stats.reads += 1;
        st.stats.bytes += n;
        // The encrypted reply left the server: request complete.
        ctx.complete(());
    }
}

impl<D: Driver + 'static> Stage for SfsCloseStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("Close")
            .cost(self.0.cfg.costs.close)
            .penalty(SFS_LOOP_PENALTY)
            .share_color_with::<SfsEpollStage<D>>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        net.close(fd, now);
        net.reap(fd);
        drop(net);
        s.state.lock().conns.remove(&fd);
    }
}

/// SFS as a typed stage [`Pipeline`](mely_core::stage::Pipeline):
/// bundle the network, the driver and the configuration, then
/// `rt.install(SfsService::new(..))` on either executor. After the run,
/// [`SfsService::stats`] reads the server counters, and the report's
/// `completed_requests` / latency percentiles cover every encrypted
/// reply (one request per readiness-to-reply chain).
///
/// Coloring follows the paper's scheme: every protocol stage shares the
/// `Epoll` stage's serial color (the stage-layer formalization of "all
/// protocol handlers share the default color"), and only the
/// CPU-intensive `Encrypt` stage is keyed per session.
pub struct SfsService<D> {
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SfsConfig,
    installed: Option<Arc<SfsShared<D>>>,
}

impl<D: Driver + 'static> SfsService<D> {
    /// Bundles a file server over `net` serving load from `driver`.
    pub fn new(net: Arc<Mutex<SimNet>>, driver: Arc<Mutex<D>>, cfg: SfsConfig) -> Self {
        SfsService {
            net,
            driver,
            cfg,
            installed: None,
        }
    }

    /// Current server-side counters.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been installed yet.
    pub fn stats(&self) -> SfsStats {
        self.installed
            .as_ref()
            .expect("service not installed")
            .state
            .lock()
            .stats
    }
}

impl<D: Driver + 'static> Service for SfsService<D> {
    fn name(&self) -> &str {
        "sfs"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        let mut store = FileStore::new();
        store.put_generated(&self.cfg.path, self.cfg.file_len);
        self.net.lock().listen(self.cfg.port);
        let shared = Arc::new(SfsShared {
            state: Mutex::new(SfsState {
                store,
                conns: HashMap::new(),
                accept_pending: false,
                stats: SfsStats::default(),
            }),
            net: Arc::clone(&self.net),
            driver: Arc::clone(&self.driver),
            cfg: self.cfg.clone(),
        });
        PipelineBuilder::new("sfs")
            .stage(SfsEpollStage(Arc::clone(&shared)))
            .stage(SfsAcceptStage(Arc::clone(&shared)))
            .stage(SfsReadRequestStage(Arc::clone(&shared)))
            .stage(SfsProcessReadStage(Arc::clone(&shared)))
            .stage(SfsEncryptStage(Arc::clone(&shared)))
            .stage(SfsSendReplyStage(Arc::clone(&shared)))
            .stage(SfsCloseStage(Arc::clone(&shared)))
            .seed::<SfsEpollStage<D>>(SfsPollTick)
            .build()
            .install(exec);
        self.installed = Some(shared);
    }
}

/// The SFS client protocol: sequential chunked reads of the served file
/// over a persistent session, verifying the MAC and the decrypted
/// contents of every response.
#[derive(Debug)]
pub struct SfsProtocol {
    file_len: u64,
    chunk: u64,
    /// Per-client offset of the next expected response.
    pending: Vec<u64>,
    verified: u64,
    corrupt: u64,
}

impl SfsProtocol {
    /// Protocol for `clients` clients reading a `file_len`-byte file in
    /// `chunk`-byte reads.
    pub fn new(clients: usize, file_len: u64, chunk: u64) -> Self {
        SfsProtocol {
            file_len,
            chunk,
            pending: vec![0; clients],
            verified: 0,
            corrupt: 0,
        }
    }

    /// Responses whose MAC and contents verified.
    pub fn verified(&self) -> u64 {
        self.verified
    }

    /// Responses that failed verification.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
    }
}

impl ClientProtocol for SfsProtocol {
    fn request(&mut self, client: usize, seq: u64) -> Vec<u8> {
        let offset = offset_for(client as u64, seq, self.chunk, self.file_len);
        self.pending[client] = offset;
        format!("READ {client} {offset} {}\n", self.chunk).into_bytes()
    }

    fn response_len(&self, buf: &[u8]) -> Option<usize> {
        if buf.len() < 16 {
            return None;
        }
        let len = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")) as usize;
        let total = 16 + len;
        (buf.len() >= total).then_some(total)
    }

    fn on_response(&mut self, client: usize, response: &[u8]) {
        let tag = u64::from_le_bytes(response[8..16].try_into().expect("8 bytes"));
        let mut payload = response[16..].to_vec();
        if open_verified(client as u64, self.pending[client], &mut payload, tag) {
            self.verified += 1;
        } else {
            self.corrupt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_core::prelude::*;
    use mely_loadgen::{ClosedLoopLoad, LoadConfig};
    use mely_net::NetConfig;

    fn run_sfs(
        flavor: Flavor,
        ws: WsPolicy,
        clients: usize,
        duration: u64,
        cfg: SfsConfig,
    ) -> (SfsStats, mely_loadgen::LoadStats, u64, u64, RunReport) {
        let mut rt = RuntimeBuilder::new()
            .cores(8)
            .flavor(flavor)
            .workstealing(ws)
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let load = ClosedLoopLoad::new(
            SfsProtocol::new(clients, cfg.file_len, cfg.chunk),
            LoadConfig {
                clients,
                ports: vec![cfg.port],
                requests_per_conn: u64::MAX, // persistent sessions
                duration,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sfs = rt.install(SfsService::new(net, Arc::clone(&driver), cfg));
        let report = rt.run();
        let d = driver.lock();
        (
            sfs.stats(),
            d.stats(),
            d.protocol().verified(),
            d.protocol().corrupt(),
            report,
        )
    }

    fn small_cfg() -> SfsConfig {
        SfsConfig {
            file_len: 64 << 10,
            chunk: 4 << 10,
            ..SfsConfig::default()
        }
    }

    #[test]
    fn serves_verified_encrypted_reads() {
        for (ws, clients) in [(WsPolicy::off(), 4), (WsPolicy::improved(), 8)] {
            let (srv, cli, verified, corrupt, report) =
                run_sfs(Flavor::Mely, ws, clients, 60_000_000, small_cfg());
            assert!(srv.reads > clients as u64, "served {}", srv.reads);
            assert_eq!(corrupt, 0, "every response must verify");
            assert_eq!(verified, cli.responses);
            assert_eq!(srv.rejected, 0);
            assert!(srv.sessions >= clients as u64);
            // Every encrypted reply closed one request of the latency
            // pipeline.
            assert_eq!(report.completed_requests(), srv.reads);
            assert!(report.latency_p50() > 0);
            assert!(report.latency_p50() <= report.latency_p99());
        }
    }

    #[test]
    fn crypto_parallelizes_across_cores_with_ws() {
        let (_, _, _, _, report) = run_sfs(
            Flavor::Mely,
            WsPolicy::improved(),
            8,
            60_000_000,
            small_cfg(),
        );
        let active = report
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 3, "encrypt colors must spread, got {active}");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        struct Bad;
        impl ClientProtocol for Bad {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"WRITE nope\n".to_vec()
            }
            fn response_len(&self, _buf: &[u8]) -> Option<usize> {
                None
            }
        }
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = small_cfg();
        let load = ClosedLoopLoad::new(
            Bad,
            LoadConfig {
                clients: 1,
                ports: vec![cfg.port],
                requests_per_conn: 1,
                duration: 3_000_000,
                poll_interval: 100_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sfs = rt.install(SfsService::new(net, driver, cfg));
        rt.run();
        assert!(sfs.stats().rejected > 0);
        assert_eq!(sfs.stats().reads, 0);
    }

    #[test]
    fn parse_read_lines() {
        assert_eq!(
            parse_read_line("READ 3 4096 8192"),
            Some(ReadReq {
                client: 3,
                offset: 4096,
                len: 8192
            })
        );
        assert_eq!(parse_read_line("READ 3 4096"), None);
        assert_eq!(parse_read_line("READ 3 4096 10 extra"), None);
        assert_eq!(parse_read_line("WRITE 3 0 1"), None);
        assert_eq!(parse_read_line("READ x 0 1"), None);
    }

    #[test]
    fn filestore_generates_deterministic_content() {
        let mut fs = FileStore::new();
        assert!(fs.is_empty());
        fs.put_generated("/a", 1024);
        assert_eq!(fs.len(), 1);
        let f = fs.get("/a").unwrap();
        assert_eq!(f.len(), 1024);
        assert_eq!(f[10], gen_byte(10));
        assert!(fs.get("/b").is_none());
    }

    #[test]
    fn gen_byte_equals_its_64_bit_form() {
        let wide = |i: u64| (i.wrapping_mul(2_654_435_761).rotate_right(13) & 0xFF) as u8;
        for i in (0..1u64 << 21).chain(u64::MAX - 4096..=u64::MAX) {
            assert_eq!(gen_byte(i), wide(i), "i = {i}");
        }
    }

    #[test]
    fn chunk_reads_clamp_to_the_file() {
        let file: Vec<u8> = (0..10).collect();
        assert_eq!(read_chunk(&file, 2, 3), [2, 3, 4]);
        assert_eq!(read_chunk(&file, 8, 5), [8, 9], "clamped at the end");
        assert!(read_chunk(&file, 10, 5).is_empty());
        assert!(read_chunk(&file, 999, 5).is_empty());
        // A hostile length must clamp, not wrap around.
        assert_eq!(read_chunk(&file, 9, u64::MAX), [9]);
    }

    #[test]
    fn out_of_range_reads_close_the_session() {
        struct OffEnd;
        impl ClientProtocol for OffEnd {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"READ 0 999999999 4096\n".to_vec()
            }
            fn response_len(&self, _buf: &[u8]) -> Option<usize> {
                None
            }
        }
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = small_cfg();
        let load = ClosedLoopLoad::new(
            OffEnd,
            LoadConfig {
                clients: 1,
                ports: vec![cfg.port],
                requests_per_conn: 1,
                duration: 3_000_000,
                poll_interval: 100_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sfs = rt.install(SfsService::new(net, driver, cfg));
        rt.run();
        assert!(sfs.stats().rejected > 0);
    }

    #[test]
    fn protocol_detects_corruption() {
        let mut p = SfsProtocol::new(1, 64 << 10, 4 << 10);
        let req = p.request(0, 0);
        assert!(req.starts_with(b"READ 0 0"));
        // Build a legitimate response, then corrupt it.
        let mut payload: Vec<u8> = (0..64u64).map(gen_byte).collect();
        let tag = seal(0, 0, &mut payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(p.response_len(&frame), Some(frame.len()));
        p.on_response(0, &frame);
        assert_eq!(p.verified(), 1);
        frame[20] ^= 0xFF;
        p.on_response(0, &frame);
        assert_eq!(p.corrupt(), 1);
    }
}
