//! The file-server application as a portable typed stage pipeline
//! ([`mely_core::stage::Pipeline`]).
//!
//! [`FileServerService`] is the SFS processing pipeline — request parse,
//! buffer-cache read, *real* encrypt + MAC, reply with client-side
//! verification — expressed as four typed [`Stage`]s against the
//! executor-agnostic API, with the network boundary replaced by a
//! fixed, structural request schedule: each session is a closed loop of
//! `requests_per_session` chunked reads, and every request is exactly
//! the four-stage chain
//!
//! ```text
//! ReadRequest ─► ProcessRead ─► Encrypt(session) ─► SendReply
//! ```
//!
//! following the paper's SFS coloring (protocol stages share one serial
//! color, the CPU-intensive `Encrypt` stage is keyed per session,
//! Section V-C2) — but no stage names a `u16` color or a `HandlerId`:
//! the [`PipelineBuilder`] takes the serial color from the pipeline's
//! `ColorSpace` and fills every event's cost and penalty from the stage
//! specs. Each read is one *request* of the
//! latency pipeline: `SendReply` completes it, so
//! [`completed_requests`](mely_core::metrics::RunReport::completed_requests)
//! equals the reads served and
//! [`latency_p50`](mely_core::metrics::RunReport::latency_p50) /
//! [`latency_p99`](mely_core::metrics::RunReport::latency_p99) measure
//! the four-hop end-to-end time.
//!
//! Because the event count is structural —
//! `sessions × requests_per_session × 4` — the *same unmodified
//! service* processes the *same number of events* on the simulator and
//! on the threaded executor; the cross-executor conformance suite pins
//! that equality. The full network-driven SFS (poll loop, SimNet,
//! closed-loop clients) lives in [`crate::SfsService`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mely_core::exec::{Executor, Service};
use mely_core::stage::{PipelineBuilder, Stage, StageCtx, StageSpec};
use mely_crypto::crypto_cost_cycles;

use crate::{offset_for, open_verified, read_chunk, seal, FileStore, SfsCosts};

/// Shape of the deterministic file-server workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileServerConfig {
    /// Concurrent sessions (each gets its own `Encrypt` color).
    pub sessions: u64,
    /// Chunked reads issued by each session, one at a time.
    pub requests_per_session: u64,
    /// Read chunk size per request, in bytes.
    pub chunk: u64,
    /// Length of the served in-memory file.
    pub file_len: u64,
    /// Path of the served file in the buffer cache.
    pub path: String,
    /// Protocol-handler cost annotations (the `Encrypt` cost is derived
    /// from `chunk` via [`crypto_cost_cycles`]).
    pub costs: SfsCosts,
}

impl Default for FileServerConfig {
    fn default() -> Self {
        FileServerConfig {
            sessions: 8,
            requests_per_session: 16,
            chunk: 4 << 10,
            file_len: 256 << 10,
            path: "/data".to_string(),
            costs: SfsCosts::default(),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    bytes: AtomicU64,
    verified: AtomicU64,
    corrupt: AtomicU64,
}

/// Counters of a [`FileServerService`] run. Every response is verified
/// "client-side" inside `SendReply` (MAC check, decrypt, byte-for-byte
/// compare against the generator), so `corrupt` must stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileServerStats {
    /// Read requests served.
    pub reads: u64,
    /// Encrypted payload bytes produced.
    pub bytes: u64,
    /// Responses whose MAC and plaintext verified.
    pub verified: u64,
    /// Responses that failed verification (must be zero).
    pub corrupt: u64,
}

/// State shared by all four stages.
struct FsShared {
    store: FileStore,
    cfg: FileServerConfig,
    counters: Arc<Counters>,
}

/// A session's next chunked read.
struct ReadMsg {
    session: u64,
    seq: u64,
}

/// The resolved read: which offset to serve.
struct ProcessMsg {
    session: u64,
    seq: u64,
    offset: u64,
}

/// Plaintext chunk awaiting encryption.
struct EncryptMsg {
    session: u64,
    seq: u64,
    offset: u64,
    plain: Vec<u8>,
}

/// Encrypted, MAC'd payload awaiting delivery + verification.
struct ReplyMsg {
    session: u64,
    seq: u64,
    offset: u64,
    payload: Vec<u8>,
    tag: u64,
}

/// The paper's penalty annotation for event-loop-like protocol stages.
const LOOP_PENALTY: u32 = 100;

struct ReadRequest(Arc<FsShared>);
struct ProcessRead(Arc<FsShared>);
struct Encrypt(Arc<FsShared>);
struct SendReply(Arc<FsShared>);

impl Stage for ReadRequest {
    type In = ReadMsg;

    fn spec(&self) -> StageSpec<ReadMsg> {
        // The serial protocol color every other protocol stage shares.
        StageSpec::new("ReadRequest")
            .cost(self.0.cfg.costs.read_request)
            .penalty(LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: ReadMsg) {
        let cfg = &self.0.cfg;
        let offset = offset_for(msg.session, msg.seq, cfg.chunk, cfg.file_len);
        ctx.to::<ProcessRead>(ProcessMsg {
            session: msg.session,
            seq: msg.seq,
            offset,
        });
    }
}

impl Stage for ProcessRead {
    type In = ProcessMsg;

    fn spec(&self) -> StageSpec<ProcessMsg> {
        StageSpec::new("ProcessRead")
            .cost(self.0.cfg.costs.process_read)
            .penalty(LOOP_PENALTY)
            .share_color_with::<ReadRequest>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: ProcessMsg) {
        let file = self
            .0
            .store
            .get(&self.0.cfg.path)
            .expect("file generated at install");
        let plain = read_chunk(file, msg.offset, self.0.cfg.chunk);
        ctx.to::<Encrypt>(EncryptMsg {
            session: msg.session,
            seq: msg.seq,
            offset: msg.offset,
            plain,
        });
    }
}

impl Stage for Encrypt {
    type In = EncryptMsg;

    fn spec(&self) -> StageSpec<EncryptMsg> {
        // The one parallel stage, keyed per session — exactly the
        // paper's SFS coloring. The key keeps the deliberately
        // imperfect 13-way spread of the raw implementation's
        // `session_color`, so static dispatch produces the load
        // imbalance that workstealing then corrects (keyed colors hash
        // into the keyed plane, disjoint from the allocated protocol
        // color by construction). The cost annotation derives from the
        // configured chunk size — this is why `spec` takes `&self`.
        StageSpec::new("Encrypt")
            .cost(crypto_cost_cycles(self.0.cfg.chunk))
            .keyed(|m| 16 + (m.session * 5) % 13)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: EncryptMsg) {
        let mut payload = msg.plain;
        let tag = seal(msg.session, msg.offset, &mut payload);
        ctx.to::<SendReply>(ReplyMsg {
            session: msg.session,
            seq: msg.seq,
            offset: msg.offset,
            payload,
            tag,
        });
    }
}

impl Stage for SendReply {
    type In = ReplyMsg;

    fn spec(&self) -> StageSpec<ReplyMsg> {
        StageSpec::new("SendReply")
            .cost(self.0.cfg.costs.send_reply)
            .penalty(LOOP_PENALTY)
            .share_color_with::<ReadRequest>()
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: ReplyMsg) {
        // "Client-side" verification of the wire payload: MAC, then
        // decrypt, then compare against the content generator.
        let mut plain = msg.payload;
        let ok = open_verified(msg.session, msg.offset, &mut plain, msg.tag);
        let c = &self.0.counters;
        c.reads.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(plain.len() as u64, Ordering::Relaxed);
        if ok {
            c.verified.fetch_add(1, Ordering::Relaxed);
        } else {
            c.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        // One chunked read = one request of the latency pipeline.
        ctx.complete(());
        // Closed loop: the session issues its next read as a new
        // request.
        if msg.seq + 1 < self.0.cfg.requests_per_session {
            ctx.spawn::<ReadRequest>(ReadMsg {
                session: msg.session,
                seq: msg.seq + 1,
            });
        }
    }
}

/// The deterministic file-server service: a typed four-stage pipeline
/// installed on any executor; run, then read
/// [`FileServerService::stats`] and the report's latency percentiles.
///
/// # Examples
///
/// ```
/// use mely_core::prelude::*;
/// use sfs::{FileServerConfig, FileServerService};
///
/// let mut counts = Vec::new();
/// for kind in [ExecKind::Sim, ExecKind::Threaded] {
///     let mut rt = RuntimeBuilder::new()
///         .cores(4)
///         .workstealing(WsPolicy::improved())
///         .build(kind);
///     let svc = rt.install(FileServerService::new(FileServerConfig {
///         sessions: 4,
///         requests_per_session: 4,
///         ..FileServerConfig::default()
///     }));
///     let report = rt.run();
///     assert_eq!(report.events_processed(), svc.expected_events());
///     assert_eq!(report.completed_requests(), svc.stats().reads);
///     assert!(report.latency_p50() <= report.latency_p99());
///     assert_eq!(svc.stats().corrupt, 0);
///     counts.push(report.events_processed());
/// }
/// // The same unmodified service processes the same number of events
/// // on both executors.
/// assert_eq!(counts[0], counts[1]);
/// ```
pub struct FileServerService {
    cfg: FileServerConfig,
    counters: Arc<Counters>,
}

impl FileServerService {
    /// Creates the service.
    ///
    /// # Panics
    ///
    /// Panics if `sessions`, `requests_per_session`, `chunk` or
    /// `file_len` is zero.
    pub fn new(cfg: FileServerConfig) -> Self {
        assert!(cfg.sessions > 0, "need at least one session");
        assert!(cfg.requests_per_session > 0, "need at least one request");
        assert!(cfg.chunk > 0 && cfg.file_len > 0, "need a non-empty file");
        FileServerService {
            cfg,
            counters: Arc::new(Counters::default()),
        }
    }

    /// The configuration this service runs.
    pub fn config(&self) -> &FileServerConfig {
        &self.cfg
    }

    /// The structural event count of one full run: four stage events
    /// per request (`ReadRequest`, `ProcessRead`, `Encrypt`,
    /// `SendReply`) — identical on every executor.
    pub fn expected_events(&self) -> u64 {
        self.cfg.sessions * self.cfg.requests_per_session * 4
    }

    /// Requests the latency pipeline must report for a complete run
    /// (`SendReply` completes one request per read).
    pub fn expected_requests(&self) -> u64 {
        self.cfg.sessions * self.cfg.requests_per_session
    }

    /// Current counters.
    pub fn stats(&self) -> FileServerStats {
        FileServerStats {
            reads: self.counters.reads.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            verified: self.counters.verified.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
        }
    }
}

impl Service for FileServerService {
    fn name(&self) -> &str {
        "file-server"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        let mut store = FileStore::new();
        store.put_generated(&self.cfg.path, self.cfg.file_len);
        let shared = Arc::new(FsShared {
            store,
            cfg: self.cfg.clone(),
            counters: Arc::clone(&self.counters),
        });
        let mut builder = PipelineBuilder::new("file-server")
            .stage(ReadRequest(Arc::clone(&shared)))
            .stage(ProcessRead(Arc::clone(&shared)))
            .stage(Encrypt(Arc::clone(&shared)))
            .stage(SendReply(Arc::clone(&shared)));
        for session in 0..self.cfg.sessions {
            builder = builder.seed::<ReadRequest>(ReadMsg { session, seq: 0 });
        }
        builder.build().install(exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_core::prelude::*;

    fn run(
        kind: ExecKind,
        ws: WsPolicy,
        cfg: FileServerConfig,
    ) -> (FileServerStats, u64, RunReport) {
        let mut rt = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(ws)
            .build(kind);
        let svc = rt.install(FileServerService::new(cfg));
        let report = rt.run();
        (svc.stats(), svc.expected_events(), report)
    }

    #[test]
    fn serves_and_verifies_every_read_on_sim() {
        let cfg = FileServerConfig::default();
        let (stats, expected, report) = run(ExecKind::Sim, WsPolicy::improved(), cfg.clone());
        assert_eq!(report.events_processed(), expected);
        assert_eq!(stats.reads, cfg.sessions * cfg.requests_per_session);
        assert_eq!(stats.verified, stats.reads);
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.bytes, stats.reads * cfg.chunk);
    }

    #[test]
    fn latency_pipeline_counts_every_read() {
        let cfg = FileServerConfig::default();
        let reads = cfg.sessions * cfg.requests_per_session;
        let (_, _, report) = run(ExecKind::Sim, WsPolicy::improved(), cfg);
        assert_eq!(report.completed_requests(), reads);
        assert!(report.latency_p50() > 0, "four-hop chains take time");
        assert!(report.latency_p50() <= report.latency_p99());
    }

    #[test]
    fn same_event_count_on_both_executors() {
        let cfg = FileServerConfig {
            sessions: 6,
            requests_per_session: 8,
            ..FileServerConfig::default()
        };
        let (sim_stats, expected, sim_report) =
            run(ExecKind::Sim, WsPolicy::improved(), cfg.clone());
        let (thr_stats, _, thr_report) = run(ExecKind::Threaded, WsPolicy::improved(), cfg);
        assert_eq!(sim_report.events_processed(), expected);
        assert_eq!(thr_report.events_processed(), expected);
        assert_eq!(sim_stats, thr_stats, "identical counters on both executors");
        assert_eq!(thr_stats.corrupt, 0);
        assert_eq!(
            sim_report.completed_requests(),
            thr_report.completed_requests(),
            "identical request counts on both executors"
        );
    }

    #[test]
    fn encrypt_colors_spread_across_cores_with_ws() {
        let (_, _, report) = run(
            ExecKind::Sim,
            WsPolicy::improved(),
            FileServerConfig {
                sessions: 16,
                requests_per_session: 8,
                ..FileServerConfig::default()
            },
        );
        let active = report
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 2, "sessions must parallelize, got {active}");
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_rejected() {
        let _ = FileServerService::new(FileServerConfig {
            sessions: 0,
            ..FileServerConfig::default()
        });
    }
}
