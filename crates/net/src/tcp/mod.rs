//! Real-socket front-end: loopback TCP served by the existing stage
//! graphs.
//!
//! Everything below the stage layer in this repository speaks
//! [`SimNet`] — an in-memory network with visibility timestamps. This
//! module bolts a real kernel socket path onto that substrate without
//! the servers noticing:
//!
//! ```text
//!  clients ──TCP──► TcpListener            ┌─────────────────────────┐
//!                      │                   │   threaded runtime      │
//!                      ▼                   │                         │
//!               poller thread ──inboxes──► │ Epoll stage ─► Accept   │
//!               (epoll_wait)    (waker)    │   │                     │
//!                 │        ▲               │   ▼                     │
//!  accept4 / read │        │ eventfd       │ ReadRequest ─► Parse ─► │
//!    client_write ▼        │ (output watch)│ GetFromCache ─► Write   │
//!                  ┌────────┐              └───────────┬─────────────┘
//!                  │ SimNet │◄─────────────────────────┘ net.write
//!                  └────────┘
//!                      │ take_tx_ready, client_read
//!                      ▼
//!               per-conn WriteBuf ──write (EAGAIN-aware)──► clients
//! ```
//!
//! A [`TcpGateway`] owns one listener and a dedicated poller thread.
//! The poller multiplexes every real descriptor through one
//! [`epoll::Epoll`] instance (raw `minilibc` syscalls — no network
//! crates), and translates kernel readiness into [`SimNet`] *client*
//! operations: an accepted socket becomes `net.connect(port)`, request
//! bytes become `net.client_write`, EOF becomes `net.client_close`.
//! From there the normal machinery takes over — the server's `Epoll`
//! stage polls the [`SimNet`], sees `Acceptable`/`Readable`/`PeerClosed`
//! [`NetEvent`](crate::NetEvent)s, and runs the stage graph unmodified,
//! with each connection's stages keyed by its descriptor and the accept
//! path on its serial color exactly as for simulated load. Response
//! bytes flow back the same way, by event: the server's `net.write`
//! lists the connection and wakes the poller, which drains
//! `net.client_read` of exactly the listed connections into their
//! [`conn::WriteBuf`]s and pushes those out with `EAGAIN`-aware partial
//! writes, arming `EPOLLOUT` only while a tail is pending.
//!
//! Three small pieces close the loop with the runtime:
//!
//! - a **waker**, inbound ([`TcpGateway::set_waker`]): whenever the
//!   poller moved bytes, it nudges the server's poll loop through the
//!   injection path (`SwsService::waker` builds the right
//!   callback), so a request does not wait out the server's fallback
//!   poll interval;
//! - an **output watch**, outbound ([`SimNet::watch_tx`]): the
//!   [`SimNet`] writes an `eventfd` in the poller's epoll set when
//!   server output appears where there was none, so a response does not
//!   wait out the `epoll_wait` timeout either. With both, latency
//!   through the gateway is bounded by scheduling, not by a timer;
//! - a **driver** ([`TcpDriver`]): the stage graph's poll loop asks its
//!   [`Driver`] when the load is finished; the gateway's driver says
//!   "not yet" until [`TcpGateway::shutdown`] ran, keeping the poll
//!   loop re-armed while real clients may still connect.
//!
//! The poller idles the way the runtime's workers do. Bridged sockets
//! are edge-triggered, so a half-closed connection waiting on the server
//! costs no wake-ups (level-triggered, its EOF is a readiness report per
//! `epoll_wait` and the poller spins). And for 50 µs after a readiness
//! report the poller polls, yielding in between, instead of sleeping:
//! that covers a request's turn through the stage graph and a new
//! connection's first bytes, whereas a sleep and a wake-up per hop cost
//! more than the wait — by an amount that differs with every placement
//! the scheduler picks, which made throughput wander from run to run. A
//! poller without traffic is asleep.
//!
//! Failure handling follows the fault model: a peer reset or an EOF
//! with a partial request buffered fails exactly one carried request
//! (`failed_requests`); accept-path descriptor exhaustion
//! (`EMFILE`/`ENFILE`) sheds the connection with a counter
//! ([`TcpStats::accept_sheds`]) instead of panicking the poller.
//!
//! Linux-only at runtime (the `minilibc` stubs fail with `ENOSYS`
//! elsewhere); everything still compiles cross-platform.

pub mod conn;
pub mod epoll;

pub use minilibc::raise_nofile_limit;

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use minilibc as libc;
use parking_lot::Mutex;

use mely_core::cycles;

use crate::driver::Driver;
use crate::{Fd, SimNet};
use conn::{drain_reads, ReadOutcome, WriteOutcome};
use epoll::{Epoll, Interest};

/// The epoll token reserved for the listener. A bridged connection's
/// token is its [`SimNet`] descriptor, which counts up from zero and is
/// never reused, so it cannot reach the reserved values — and a
/// readiness report left over from a closed connection cannot name the
/// next one, even though the kernel recycles the raw descriptor.
const LISTENER_TOKEN: u64 = u64::MAX;
/// The epoll token reserved for the wake `eventfd`.
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Bridged sockets are edge-triggered (module docs): level-triggered, a
/// half-closed peer reads as EOF, hence ready, on every `epoll_wait`
/// until the server closes too. [`drain_reads`] reads to `EAGAIN` and
/// `EPOLL_CTL_MOD` re-reports what is ready, so no edge is lost.
const CONN_READ: Interest = Interest::READ.edge();
const CONN_READ_WRITE: Interest = Interest::READ_WRITE.edge();

/// How long after a readiness report the poller keeps polling, yielding
/// in between, before it blocks in `epoll_wait` (module docs).
const HOT_POLL: Duration = Duration::from_micros(50);

/// Gateway parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpGatewayConfig {
    /// The [`SimNet`] port accepted connections are bridged to (must be
    /// the port the server listens on).
    pub sim_port: u16,
    /// Accept no more than this many simultaneous bridged connections;
    /// beyond it, accepted sockets are closed immediately and counted
    /// as [`TcpStats::accept_sheds`].
    pub max_conns: usize,
    /// How long an idle poller sleeps in `epoll_wait`, in milliseconds.
    /// No request or response waits for it: sockets, server output and
    /// shutdown all wake the poller through its epoll set, and after a
    /// readiness report it polls on for a moment before it sleeps again.
    pub poll_timeout_ms: i32,
}

impl Default for TcpGatewayConfig {
    fn default() -> Self {
        TcpGatewayConfig {
            sim_port: 80,
            max_conns: 16_384,
            poll_timeout_ms: 1,
        }
    }
}

/// Gateway counters (monotonic; snapshot via [`TcpGateway::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Real connections accepted and bridged.
    pub accepted: u64,
    /// Bridged connections fully torn down (both sides closed).
    pub closed: u64,
    /// Connections shed at the accept path: `EMFILE`/`ENFILE`
    /// descriptor exhaustion, or the [`TcpGatewayConfig::max_conns`]
    /// cap. Overload-style accounting — the poller never panics on
    /// these.
    pub accept_sheds: u64,
    /// Connections that died without an orderly close (`ECONNRESET`
    /// on read, or a dead peer discovered on write).
    pub resets: u64,
    /// Request bytes read from real sockets.
    pub rx_bytes: u64,
    /// Response bytes queued toward real sockets.
    pub tx_bytes: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    accepted: AtomicU64,
    closed: AtomicU64,
    accept_sheds: AtomicU64,
    resets: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
    /// `epoll_wait` calls that reported something (not in [`TcpStats`]:
    /// it counts the poller's work, not the traffic).
    busy_polls: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> TcpStats {
        TcpStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            accept_sheds: self.accept_sheds.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
        }
    }
}

type Waker = Box<dyn Fn() + Send>;

/// One bridged connection, owned by the poller thread.
struct Bridged {
    /// The real socket (closing it deregisters it from epoll).
    fd: OwnedFd,
    /// Response bytes awaiting a writable socket.
    wb: conn::WriteBuf,
    /// `EPOLLOUT` is currently armed.
    wants_write: bool,
    /// The real peer sent EOF (already forwarded as `client_close`).
    read_closed: bool,
    /// The server closed its side: once `wb` drains, so does the socket.
    server_closed: bool,
}

/// The poller's connections, keyed by [`SimNet`] descriptor.
type Conns = HashMap<Fd, Bridged>;

/// What the poller thread owns besides its connections.
struct Poller {
    listener: TcpListener,
    wake: Arc<File>,
    ep: Epoll,
    net: Arc<Mutex<SimNet>>,
    cfg: TcpGatewayConfig,
    stats: Arc<StatsCells>,
}

/// The `eventfd` that wakes the poller out of `epoll_wait`.
fn wake_fd() -> io::Result<File> {
    // SAFETY: a plain syscall without pointer arguments.
    let fd = unsafe { libc::eventfd(0, libc::EFD_NONBLOCK | libc::EFD_CLOEXEC) };
    if fd < 0 {
        return Err(epoll::last_error());
    }
    // SAFETY: `fd` is a fresh descriptor that nothing else owns.
    Ok(unsafe { File::from_raw_fd(fd) })
}

/// Adds one to the wake `eventfd`, making it readable (it can only
/// fail on a full counter, and then the descriptor is readable already).
fn kick(mut wake: &File) {
    let _ = wake.write(&1u64.to_ne_bytes());
}

/// Socket options every accepted connection gets: `TCP_NODELAY`,
/// because a response's last short segment must not sit behind Nagle's
/// algorithm waiting for the client's delayed ACK (tens of
/// milliseconds on loopback).
fn configure_accepted(fd: OwnedFd) -> OwnedFd {
    let stream = TcpStream::from(fd);
    // Only fails on a socket that is already dead, which the first
    // read reports.
    let _ = stream.set_nodelay(true);
    stream.into()
}

/// The loopback TCP front-end: a listener plus a poller thread bridging
/// real sockets into a shared [`SimNet`] (see the module docs).
pub struct TcpGateway {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    waker: Arc<Mutex<Option<Waker>>>,
    wake: Arc<File>,
    poller: Option<JoinHandle<()>>,
}

impl TcpGateway {
    /// Binds `addr` (use port 0 for an ephemeral port), opens the
    /// [`SimNet`] listener on `cfg.sim_port`, installs the network's
    /// output watch, and starts the poller thread. The returned gateway
    /// accepts immediately; attach the server's waker with
    /// [`TcpGateway::set_waker`] once it is installed.
    ///
    /// # Errors
    ///
    /// Fails if the bind fails or epoll is unavailable (non-Linux).
    pub fn bind(
        addr: &str,
        net: Arc<Mutex<SimNet>>,
        cfg: TcpGatewayConfig,
    ) -> io::Result<TcpGateway> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), Interest::READ, LISTENER_TOKEN)?;
        let wake = Arc::new(wake_fd()?);
        ep.add(wake.as_raw_fd(), Interest::READ, WAKE_TOKEN)?;
        {
            let mut n = net.lock();
            n.listen(cfg.sim_port);
            // Weak: the network may outlive the gateway, and must not
            // keep its descriptor open when it does.
            let wake = Arc::downgrade(&wake);
            n.watch_tx(move || {
                if let Some(wake) = wake.upgrade() {
                    kick(&wake);
                }
            });
        }

        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());
        let waker: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let poller = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            let p = Poller {
                listener,
                wake: Arc::clone(&wake),
                ep,
                net,
                cfg,
                stats: Arc::clone(&stats),
            };
            std::thread::Builder::new()
                .name("mely-tcp-poller".into())
                .spawn(move || p.run(&stop, &waker))
                .expect("spawn poller thread")
        };
        Ok(TcpGateway {
            local_addr,
            stop,
            finished,
            stats,
            waker,
            wake,
            poller: Some(poller),
        })
    }

    /// The bound address real clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Installs the callback the poller invokes after moving bytes —
    /// normally `SwsService::waker(..)`'s `wake` wrapped in a
    /// closure — so the server polls promptly instead of waiting out
    /// its fallback interval.
    pub fn set_waker(&self, wake: impl Fn() + Send + 'static) {
        *self.waker.lock() = Some(Box::new(wake));
    }

    /// A [`Driver`] for the server's poll loop: reports "not finished"
    /// until [`TcpGateway::shutdown`] completes, so the loop keeps
    /// re-arming while real clients may still connect.
    pub fn driver(&self) -> TcpDriver {
        TcpDriver {
            finished: Arc::clone(&self.finished),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TcpStats {
        self.stats.snapshot()
    }

    /// Stops the poller, closes the listener and every bridged socket,
    /// marks the [`TcpDriver`] finished, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> TcpStats {
        self.stop_and_join();
        self.stats.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        kick(&self.wake); // the poller may be asleep in epoll_wait
        if let Some(t) = self.poller.take() {
            let _ = t.join();
        }
        self.finished.store(true, Ordering::Release);
    }
}

impl Drop for TcpGateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for TcpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpGateway")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// The gateway's [`Driver`]: keeps the server's poll loop armed until
/// the gateway shuts down (real clients, unlike simulated ones, give no
/// advance notice of their next action, so `next_due` is `None` and the
/// loop falls back to its poll interval — the waker covers promptness).
#[derive(Debug, Clone)]
pub struct TcpDriver {
    finished: Arc<AtomicBool>,
}

impl Driver for TcpDriver {
    fn advance(&mut self, _net: &mut SimNet, _now: u64) -> bool {
        self.finished.load(Ordering::Acquire)
    }
}

impl Poller {
    fn run(&self, stop: &AtomicBool, waker: &Mutex<Option<Waker>>) {
        let mut conns = Conns::new();
        let mut ready = Vec::new();
        // Connections with server output to deliver. Normally filled
        // and emptied within one iteration; an entry stays only while
        // its output is not visible yet (`one_way_delay`), and then the
        // wait below is short.
        let mut tx: Vec<Fd> = Vec::new();
        let mut last_ready = Instant::now();
        while !stop.load(Ordering::Acquire) {
            ready.clear();
            let retry = !tx.is_empty();
            let hot = last_ready.elapsed() < HOT_POLL;
            let idle = if retry { 1 } else { self.cfg.poll_timeout_ms };
            let timeout = if hot { 0 } else { idle };
            if self.ep.wait(&mut ready, timeout).is_err() {
                // Only non-EINTR errors reach here: the epoll fd itself
                // is broken, so readiness can no longer be observed.
                break;
            }
            if !ready.is_empty() {
                last_ready = Instant::now();
                self.stats.busy_polls.fetch_add(1, Ordering::Relaxed);
            } else if hot {
                std::thread::yield_now();
            }
            let mut activity = false;
            let mut output = retry;
            for r in ready.iter().copied() {
                match r.token {
                    LISTENER_TOKEN => activity |= self.accept_burst(&mut conns),
                    WAKE_TOKEN => {
                        // Reset the counter before taking the list: a
                        // write that lands in between signals again.
                        let _ = (&*self.wake).read(&mut [0u8; 8]);
                        output = true;
                    }
                    _ => activity |= self.conn_readiness(r, &mut conns),
                }
            }
            if output {
                activity |= self.deliver_output(&mut conns, &mut tx);
            }
            if activity {
                if let Some(wake) = waker.lock().as_ref() {
                    wake();
                }
            }
        }
        // Teardown: every bridged socket that is still open counts as a
        // close, and its SimNet twin is closed so the server can reap it.
        let now = cycles::now();
        let mut n = self.net.lock();
        for (sim_fd, b) in conns.drain() {
            if !b.read_closed {
                n.client_close(sim_fd, now);
            }
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accepts until `EAGAIN`, bridging each socket into the [`SimNet`].
    /// Descriptor exhaustion and the `max_conns` cap shed (with a
    /// counter) instead of panicking.
    fn accept_burst(&self, conns: &mut Conns) -> bool {
        let stats = &self.stats;
        let mut any = false;
        loop {
            // SAFETY: plain accept4 with no address out-parameters.
            let raw = unsafe {
                libc::accept4(
                    self.listener.as_raw_fd(),
                    std::ptr::null_mut(),
                    std::ptr::null_mut(),
                    libc::SOCK_NONBLOCK | libc::SOCK_CLOEXEC,
                )
            };
            if raw < 0 {
                match libc::errno() {
                    libc::EINTR => continue,
                    libc::EMFILE | libc::ENFILE => {
                        // Out of descriptors: shed this accept burst and
                        // keep serving what we have. The pending backlog
                        // entry stays queued in the kernel; it is retried
                        // on the next readiness (by then fds may be free).
                        stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    _ => break,
                }
            }
            // SAFETY: `raw` is a freshly accepted descriptor we own.
            let owned = configure_accepted(unsafe { OwnedFd::from_raw_fd(raw) });
            if conns.len() >= self.cfg.max_conns {
                stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                continue; // dropping `owned` closes the socket
            }
            let Some(sim_fd) = self.net.lock().connect(self.cfg.sim_port, cycles::now()) else {
                // No listener on the sim port — nothing can serve this.
                stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if self.ep.add(raw, CONN_READ, sim_fd).is_err() {
                stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                self.net.lock().client_close(sim_fd, cycles::now());
                continue;
            }
            conns.insert(
                sim_fd,
                Bridged {
                    fd: owned,
                    wb: conn::WriteBuf::default(),
                    wants_write: false,
                    read_closed: false,
                    server_closed: false,
                },
            );
            stats.accepted.fetch_add(1, Ordering::Relaxed);
            any = true;
        }
        any
    }

    /// Handles readiness on one bridged connection: drains request
    /// bytes into the [`SimNet`], forwards EOF/reset, flushes on
    /// writability.
    fn conn_readiness(&self, r: epoll::Ready, conns: &mut Conns) -> bool {
        let sim_fd = r.token;
        let Some(b) = conns.get_mut(&sim_fd) else {
            return false; // already torn down this iteration
        };
        let mut activity = false;
        if (r.readable || r.hangup) && !b.read_closed {
            let mut data = Vec::new();
            let outcome = drain_reads(b.fd.as_raw_fd(), &mut data);
            let now = cycles::now();
            if !data.is_empty() {
                self.stats
                    .rx_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                self.net.lock().client_write(sim_fd, now, data);
                activity = true;
            }
            match outcome {
                ReadOutcome::WouldBlock => {}
                ReadOutcome::Eof => {
                    // Orderly half-close: forward the EOF, keep the write
                    // side open until the server's close is delivered.
                    b.read_closed = true;
                    self.net.lock().client_close(sim_fd, now);
                    activity = true;
                }
                ReadOutcome::Reset => {
                    self.stats.resets.fetch_add(1, Ordering::Relaxed);
                    self.net.lock().client_close(sim_fd, now);
                    conns.remove(&sim_fd); // dropping the OwnedFd closes it
                    return true;
                }
            }
        }
        if r.writable {
            activity |= self.flush(sim_fd, conns);
        }
        activity
    }

    /// Moves server output from the [`SimNet`] toward the real sockets
    /// of exactly the connections the output watch listed (plus those
    /// carried over in `tx`), and tears down the ones whose server side
    /// closed.
    fn deliver_output(&self, conns: &mut Conns, tx: &mut Vec<Fd>) -> bool {
        let mut waiting = Vec::new();
        {
            let mut n = self.net.lock();
            n.take_tx_ready(tx);
            let now = cycles::now();
            for &sim_fd in tx.iter() {
                let Some(b) = conns.get_mut(&sim_fd) else {
                    continue; // reset since it was listed
                };
                let data = n.client_read(sim_fd, now);
                self.stats
                    .tx_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                b.wb.queue(&data);
                b.server_closed = n.client_sees_close(sim_fd, now);
                if n.client_next_visibility(sim_fd, now).is_some() {
                    waiting.push(sim_fd);
                }
            }
        }
        // Flush outside the net lock: write syscalls must not stall the
        // server's stages.
        let mut activity = false;
        for sim_fd in tx.drain(..) {
            activity |= self.flush(sim_fd, conns);
        }
        tx.append(&mut waiting); // `tx` keeps its allocation
        activity
    }

    /// Pushes connection `sim_fd`'s buffered tail toward its socket,
    /// keeps `EPOLLOUT` armed exactly while the kernel refuses part of
    /// it, and finishes the connection once the tail has drained behind
    /// a server-side close — or the peer turns out to be gone.
    fn flush(&self, sim_fd: Fd, conns: &mut Conns) -> bool {
        let Some(b) = conns.get_mut(&sim_fd) else {
            return false;
        };
        let raw = b.fd.as_raw_fd();
        match b.wb.flush(raw) {
            WriteOutcome::Drained if b.server_closed => {
                conns.remove(&sim_fd); // closes the socket, leaving epoll
                self.stats.closed.fetch_add(1, Ordering::Relaxed);
            }
            WriteOutcome::Drained => {
                if b.wants_write && self.ep.modify(raw, CONN_READ, sim_fd).is_ok() {
                    b.wants_write = false;
                }
            }
            WriteOutcome::Blocked => {
                if !b.wants_write && self.ep.modify(raw, CONN_READ_WRITE, sim_fd).is_ok() {
                    b.wants_write = true;
                }
                return false;
            }
            WriteOutcome::Closed => {
                self.stats.resets.fetch_add(1, Ordering::Relaxed);
                self.net.lock().client_close(sim_fd, cycles::now());
                conns.remove(&sim_fd);
            }
        }
        true
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::NetConfig;
    use std::net::Shutdown;

    /// A poller that sleeps two seconds when nothing wakes it: whatever
    /// a test sees sooner than that was event-driven.
    const SLOW_POLL: TcpGatewayConfig = TcpGatewayConfig {
        sim_port: 80,
        max_conns: 16,
        poll_timeout_ms: 2_000,
    };
    const PROMPT: Duration = Duration::from_millis(250);

    fn gateway(cfg: TcpGatewayConfig) -> (TcpGateway, Arc<Mutex<SimNet>>) {
        gateway_with_delay(0, cfg)
    }

    fn gateway_with_delay(
        one_way_delay: u64,
        cfg: TcpGatewayConfig,
    ) -> (TcpGateway, Arc<Mutex<SimNet>>) {
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay })));
        let gw = TcpGateway::bind("127.0.0.1:0", Arc::clone(&net), cfg).expect("bind");
        (gw, net)
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not reached in 5s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A client that connected and sent `ping`.
    fn pinging_client(gw: &TcpGateway) -> TcpStream {
        let mut c = TcpStream::connect(gw.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c
    }

    /// Plays the server's part for the `nth` (0-based) pinging client:
    /// accepts it and reads its `ping`. Returns its sim descriptor.
    fn serve_ping(net: &Mutex<SimNet>, nth: u64) -> Fd {
        wait_until(|| net.lock().accept(80, cycles::now()).is_some());
        wait_until(|| {
            let mut n = net.lock();
            n.read(nth, cycles::now());
            n.stats().bytes_received == 4 * (nth + 1)
        });
        nth
    }

    #[test]
    fn bytes_flow_both_ways_and_server_close_closes_the_socket() {
        let (gw, net) = gateway(TcpGatewayConfig::default());
        let mut c = pinging_client(&gw);
        let fd = serve_ping(&net, 0);
        {
            let mut n = net.lock();
            let now = cycles::now();
            n.write(fd, now, b"pong".to_vec());
            n.close(fd, now);
        }
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap(); // until server-side close
        assert_eq!(got, b"pong");
        let stats = gw.shutdown();
        assert_eq!((stats.accepted, stats.closed, stats.resets), (1, 1, 0));
        assert_eq!((stats.rx_bytes, stats.tx_bytes), (4, 4));
    }

    /// The server's `pong` reaches the client while the poller's
    /// timeout is still far away.
    fn pong_arrives_promptly(one_way_delay: u64) {
        let (gw, net) = gateway_with_delay(one_way_delay, SLOW_POLL);
        let mut c = pinging_client(&gw);
        let fd = serve_ping(&net, 0);
        let written = Instant::now();
        net.lock().write(fd, cycles::now(), b"pong".to_vec());
        let mut got = [0u8; 4];
        c.read_exact(&mut got).unwrap();
        assert!(written.elapsed() < PROMPT, "{:?}", written.elapsed());
        assert_eq!(&got, b"pong");
    }

    #[test]
    fn responses_do_not_wait_for_the_poll_timeout() {
        pong_arrives_promptly(0);
    }

    #[test]
    fn output_not_visible_yet_is_delivered_once_it_is() {
        // ~10 ms each way: the poller wakes for the write long before
        // the bytes may be seen, and must come back for them.
        pong_arrives_promptly(20_000_000);
    }

    #[test]
    fn server_close_behind_a_blocked_tail_delivers_every_byte_then_eof() {
        const LEN: usize = 8 << 20; // far beyond the loopback socket buffers
        let (gw, net) = gateway(SLOW_POLL);
        let mut c = pinging_client(&gw);
        let fd = serve_ping(&net, 0);
        {
            let mut n = net.lock();
            let now = cycles::now();
            n.write(fd, now, (0..LEN).map(|i| i as u8).collect());
            n.close(fd, now);
        }
        // Start reading late: by now the poller holds the whole
        // response, the kernel took what it could, and the close sits
        // behind the blocked tail.
        wait_until(|| gw.stats().tx_bytes == LEN as u64);
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), LEN);
        assert!(got.iter().enumerate().all(|(i, &b)| b == i as u8));
        let stats = gw.shutdown();
        assert_eq!((stats.closed, stats.resets), (1, 0));
    }

    #[test]
    fn each_teardown_path_forgets_the_connection_and_the_next_starts_clean() {
        // Sequential connections, so the kernel hands every accept the
        // raw descriptor the previous connection just gave back.
        let (gw, net) = gateway(SLOW_POLL);
        for nth in 0..3 {
            let mut c = pinging_client(&gw);
            let fd = serve_ping(&net, nth);
            let pong = format!("pong{nth}").into_bytes();
            net.lock().write(fd, cycles::now(), pong.clone());
            let mut got = [0u8; 5];
            match nth {
                0 => {
                    // The server closes first.
                    c.read_exact(&mut got).unwrap();
                    net.lock().close(fd, cycles::now());
                }
                1 => {
                    // The client half-closes, the server follows.
                    c.read_exact(&mut got).unwrap();
                    c.shutdown(Shutdown::Write).unwrap();
                    wait_until(|| net.lock().peer_closed(fd, cycles::now()));
                    // Reading as EOF now, it must not report per poll.
                    let polls = || gw.stats.busy_polls.load(Ordering::Relaxed);
                    let before = polls();
                    std::thread::sleep(Duration::from_millis(50));
                    assert_eq!(polls(), before, "nothing happened, nothing reported");
                    net.lock().close(fd, cycles::now());
                }
                _ => {
                    // The client vanishes with the response unread,
                    // which makes the kernel send RST. (Where it shows
                    // as a clean EOF instead, the server's close ends
                    // the connection as above.)
                    c.peek(&mut got).unwrap();
                    drop(c);
                    wait_until(|| net.lock().peer_closed(fd, cycles::now()));
                    net.lock().close(fd, cycles::now());
                    wait_until(|| gw.stats().closed + gw.stats().resets == 3);
                    continue;
                }
            }
            assert_eq!(got, pong[..], "a connection sees its own bytes only");
            assert_eq!(c.read(&mut got).unwrap(), 0, "then EOF");
        }
        let open = gw.stats();
        assert_eq!(open.accepted, 3);
        let stats = gw.shutdown();
        assert_eq!(stats.closed, open.closed, "teardown found nothing left");
    }

    #[test]
    fn shutdown_is_prompt_counts_open_sockets_and_finishes_the_driver() {
        let (gw, net) = gateway(SLOW_POLL);
        let _open = [pinging_client(&gw), pinging_client(&gw)];
        wait_until(|| gw.stats().accepted == 2);
        let mut d = gw.driver();
        assert!(!d.advance(&mut net.lock(), 0), "live gateway: not finished");
        assert_eq!(d.next_due(0), None);
        let asked = Instant::now();
        let stats = gw.shutdown();
        assert!(asked.elapsed() < PROMPT, "{:?}", asked.elapsed());
        assert_eq!(stats.closed, 2, "every open bridged socket counted");
        assert!(d.advance(&mut net.lock(), 0), "and the driver is done");
    }

    #[test]
    fn accepted_sockets_get_tcp_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _c = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "off by default");
        let configured = TcpStream::from(configure_accepted(accepted.into()));
        assert!(configured.nodelay().unwrap());
    }

    #[test]
    fn max_conns_cap_sheds_with_a_counter() {
        let (gw, _net) = gateway(TcpGatewayConfig {
            max_conns: 1,
            ..TcpGatewayConfig::default()
        });
        let _keep = TcpStream::connect(gw.local_addr()).unwrap();
        wait_until(|| gw.stats().accepted == 1);
        let mut shed = TcpStream::connect(gw.local_addr()).unwrap();
        wait_until(|| gw.stats().accept_sheds >= 1);
        // The shed socket is closed by the gateway, not served.
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(shed.read(&mut buf).unwrap(), 0, "gateway closed it");
        let stats = gw.shutdown();
        assert_eq!(stats.accepted, 1);
        assert!(stats.accept_sheds >= 1);
    }
}
