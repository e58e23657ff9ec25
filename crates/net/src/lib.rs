//! In-memory simulated network: listeners, connections, byte streams and
//! a readiness interface (the role `epoll` plays in the paper's runtime,
//! Section IV-C).
//!
//! This reproduction has no physical testbed network, so the two system
//! services (SWS, SFS) and the load injector communicate through this
//! substrate instead. The shape of the API mirrors what the servers'
//! `Epoll` handler needs:
//!
//! - the server `listen`s on ports, `poll`s for readiness events
//!   ([`NetEvent::Acceptable`], [`NetEvent::Readable`],
//!   [`NetEvent::PeerClosed`]), `accept`s, `read`s, `write`s and
//!   `close`s file descriptors;
//! - clients (the load generator) `connect`, `client_write`,
//!   `client_read` and `client_close`.
//!
//! Every transfer carries a *visibility timestamp*: data written at time
//! `t` becomes readable by the peer at `t + one_way_delay`, so the
//! simulation executor sees realistic request/response latencies, and
//! `next_activity` tells the server's poll loop when to re-arm. Time is
//! just a `u64` cycle count — virtual cycles under the simulator, the
//! cycle counter under the threaded executor.
//!
//! # Examples
//!
//! ```
//! use mely_net::{NetConfig, NetEvent, SimNet};
//!
//! let mut net = SimNet::new(NetConfig { one_way_delay: 100 });
//! net.listen(80);
//! let fd = net.connect(80, 0).unwrap();
//! net.client_write(fd, 0, b"GET / HTTP/1.1\r\n\r\n".to_vec());
//!
//! // Nothing is visible server-side before the propagation delay.
//! assert!(net.poll(50).is_empty());
//! let events = net.poll(100);
//! assert_eq!(events[0], NetEvent::Acceptable(80));
//! let accepted = net.accept(80, 100).unwrap();
//! assert_eq!(accepted, fd);
//! assert_eq!(net.read(fd, 100), b"GET / HTTP/1.1\r\n\r\n".to_vec());
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use fxhash::FxHashMap;

pub mod driver;
#[cfg(unix)]
pub mod tcp;

/// Network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// One-way propagation delay in cycles (half the RTT).
    pub one_way_delay: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // ~8.6 µs at 2.33 GHz: a switched gigabit LAN like the testbed's.
        NetConfig {
            one_way_delay: 20_000,
        }
    }
}

/// A connection identifier (monotonically increasing, never reused, so
/// per-connection colors cannot collide with in-flight events).
pub type Fd = u64;

/// Connections a server's `Accept` handler takes per event before it
/// yields and re-registers itself, so one connection storm cannot
/// monopolize a core: the accept-batching factor of Brecht et al.,
/// which the paper cites. SWS and SFS both accept in batches of this.
pub const ACCEPT_BATCH: u32 = 8;

/// Readiness event reported by [`SimNet::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A listener has pending connections to accept.
    Acceptable(u16),
    /// An accepted connection has readable bytes.
    Readable(Fd),
    /// The client closed its side and everything has been read.
    PeerClosed(Fd),
}

/// One direction of a connection: timestamped segments.
#[derive(Debug, Default)]
struct HalfStream {
    segs: VecDeque<(u64, Vec<u8>)>,
    closed_at: Option<u64>,
}

impl HalfStream {
    fn write(&mut self, readable_at: u64, data: Vec<u8>) {
        if !data.is_empty() {
            self.segs.push_back((readable_at, data));
        }
    }

    /// Whether any byte is visible at `now` (written segments are never
    /// empty, so the front segment decides).
    fn readable(&self, now: u64) -> bool {
        self.segs.front().is_some_and(|(t, _)| *t <= now)
    }

    /// Every visible byte. The first visible segment is moved out, not
    /// copied, so the common case (one segment) costs no allocation.
    fn read_all(&mut self, now: u64) -> Vec<u8> {
        if !self.readable(now) {
            return Vec::new();
        }
        let (_, mut out) = self.segs.pop_front().expect("readable");
        while self.readable(now) {
            let (_, d) = self.segs.pop_front().expect("readable");
            out.extend_from_slice(&d);
        }
        out
    }

    fn next_visibility(&self, now: u64) -> Option<u64> {
        let seg = self.segs.iter().map(|(t, _)| *t).find(|&t| t > now);
        let close = self.closed_at.filter(|&t| t > now);
        match (seg, close) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[derive(Debug)]
struct Conn {
    /// Client-to-server bytes.
    c2s: HalfStream,
    /// Server-to-client bytes.
    s2c: HalfStream,
    accepted: bool,
    server_closed: bool,
    /// Set once `PeerClosed` was both visible and reported/consumed.
    hup_reported: bool,
    /// Already on the output watch's ready list (see [`SimNet::watch_tx`]).
    tx_listed: bool,
}

/// An installed output watch: who to tell, and what about.
struct TxWatch {
    signal: Box<dyn Fn() + Send>,
    /// Connections the server wrote to or closed since the last
    /// [`SimNet::take_tx_ready`], each at most once.
    ready: Vec<Fd>,
}

impl fmt::Debug for TxWatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxWatch")
            .field("ready", &self.ready)
            .finish_non_exhaustive()
    }
}

impl TxWatch {
    /// Lists `fd` (once) and signals on the list's empty→non-empty edge.
    fn note(&mut self, fd: Fd, conn: &mut Conn) {
        if !std::mem::replace(&mut conn.tx_listed, true) {
            self.ready.push(fd);
            if self.ready.len() == 1 {
                (self.signal)();
            }
        }
    }
}

/// The simulated network fabric.
///
/// Connections live in a hash table keyed by descriptor: every client
/// and server call is one lookup, and the table holds only unreaped
/// connections, however many were opened before. [`poll`](SimNet::poll)
/// sorts what it reports, so its order does not depend on the table's.
#[derive(Debug, Default)]
pub struct SimNet {
    cfg: NetConfig,
    listeners: BTreeMap<u16, VecDeque<(u64, Fd)>>,
    conns: FxHashMap<Fd, Conn>,
    next_fd: Fd,
    /// Counters for reports.
    bytes_c2s: u64,
    bytes_s2c: u64,
    accepted_total: u64,
    tx_watch: Option<TxWatch>,
}

impl SimNet {
    /// Creates a network with the given parameters.
    pub fn new(cfg: NetConfig) -> Self {
        SimNet {
            cfg,
            ..SimNet::default()
        }
    }

    /// The configured one-way delay.
    pub fn one_way_delay(&self) -> u64 {
        self.cfg.one_way_delay
    }

    /// Opens a listener on `port` (idempotent).
    pub fn listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// Client side: opens a connection to `port` at time `now`. The
    /// server sees it `one_way_delay` later. Returns `None` if nobody
    /// listens on `port`.
    pub fn connect(&mut self, port: u16, now: u64) -> Option<Fd> {
        if !self.listeners.contains_key(&port) {
            return None;
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.conns.insert(
            fd,
            Conn {
                c2s: HalfStream::default(),
                s2c: HalfStream::default(),
                accepted: false,
                server_closed: false,
                hup_reported: false,
                tx_listed: false,
            },
        );
        self.listeners
            .get_mut(&port)
            .expect("listener exists")
            .push_back((now + self.cfg.one_way_delay, fd));
        Some(fd)
    }

    /// Server side: readiness scan at time `now` (level-triggered).
    /// Listeners come first in port order, then connections in ascending
    /// descriptor order.
    pub fn poll(&mut self, now: u64) -> Vec<NetEvent> {
        let mut out = Vec::new();
        for (&port, backlog) in &self.listeners {
            if backlog.front().is_some_and(|(t, _)| *t <= now) {
                out.push(NetEvent::Acceptable(port));
            }
        }
        let listeners = out.len();
        for (&fd, conn) in &mut self.conns {
            if !conn.accepted || conn.server_closed {
                continue;
            }
            if conn.c2s.readable(now) {
                out.push(NetEvent::Readable(fd));
            } else if conn.c2s.closed_at.is_some_and(|t| t <= now) && !conn.hup_reported {
                out.push(NetEvent::PeerClosed(fd));
                conn.hup_reported = true;
            }
        }
        out[listeners..].sort_unstable_by_key(|e| match *e {
            NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => fd,
            NetEvent::Acceptable(_) => unreachable!("listeners precede connections"),
        });
        out
    }

    /// Server side: accepts one pending connection on `port`.
    pub fn accept(&mut self, port: u16, now: u64) -> Option<Fd> {
        let backlog = self.listeners.get_mut(&port)?;
        match backlog.front() {
            Some(&(t, fd)) if t <= now => {
                backlog.pop_front();
                self.conns
                    .get_mut(&fd)
                    .expect("pending conn exists")
                    .accepted = true;
                self.accepted_total += 1;
                Some(fd)
            }
            _ => None,
        }
    }

    /// Server side: reads every visible byte from `fd`.
    pub fn read(&mut self, fd: Fd, now: u64) -> Vec<u8> {
        match self.conns.get_mut(&fd) {
            Some(c) => {
                let d = c.c2s.read_all(now);
                self.bytes_c2s += d.len() as u64;
                d
            }
            None => Vec::new(),
        }
    }

    /// Server side: sends bytes to the client (visible after the one-way
    /// delay).
    pub fn write(&mut self, fd: Fd, now: u64, data: Vec<u8>) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            if !c.server_closed {
                self.bytes_s2c += data.len() as u64;
                c.s2c.write(now + delay, data);
                if let Some(w) = &mut self.tx_watch {
                    w.note(fd, c);
                }
            }
        }
    }

    /// Server side: closes the server half of `fd` at `now`.
    pub fn close(&mut self, fd: Fd, now: u64) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            c.server_closed = true;
            if c.s2c.closed_at.is_none() {
                c.s2c.closed_at = Some(now + delay);
            }
            if let Some(w) = &mut self.tx_watch {
                w.note(fd, c);
            }
        }
    }

    /// Client side: makes server output event-driven. From now on every
    /// server-side [`write`](SimNet::write) or [`close`](SimNet::close)
    /// puts its descriptor on a ready list (at most once until taken),
    /// and `signal` runs whenever that list goes from empty to
    /// non-empty — inside the writing call, so keep it to a wake-up
    /// (the TCP gateway writes an `eventfd`). Simulated clients learn
    /// when to look from
    /// [`client_next_visibility`](SimNet::client_next_visibility) and
    /// install none; an unwatched network records nothing.
    pub fn watch_tx(&mut self, signal: impl Fn() + Send + 'static) {
        self.tx_watch = Some(TxWatch {
            signal: Box::new(signal),
            ready: Vec::new(),
        });
    }

    /// Client side: moves the watched ready list into `out`. A listed
    /// descriptor may have been reaped since; every client-side call
    /// treats that as closed and empty.
    pub fn take_tx_ready(&mut self, out: &mut Vec<Fd>) {
        let Some(w) = &mut self.tx_watch else { return };
        for fd in &w.ready {
            if let Some(c) = self.conns.get_mut(fd) {
                c.tx_listed = false;
            }
        }
        out.append(&mut w.ready);
    }

    /// Client side: earliest time after `now` at which more
    /// server-to-client data (or the server's close) becomes visible on
    /// `fd`. Lets closed-loop clients sleep exactly until their response
    /// arrives.
    pub fn client_next_visibility(&self, fd: Fd, now: u64) -> Option<u64> {
        self.conns.get(&fd).and_then(|c| c.s2c.next_visibility(now))
    }

    /// Client side: reads every visible byte.
    pub fn client_read(&mut self, fd: Fd, now: u64) -> Vec<u8> {
        match self.conns.get_mut(&fd) {
            Some(c) => c.s2c.read_all(now),
            None => Vec::new(),
        }
    }

    /// Client side: whether the server closed the connection (and all
    /// data has been read). A reaped (fully torn down) connection also
    /// reads as closed.
    pub fn client_sees_close(&self, fd: Fd, now: u64) -> bool {
        self.conns
            .get(&fd)
            .is_none_or(|c| c.s2c.closed_at.is_some_and(|t| t <= now) && !c.s2c.readable(now))
    }

    /// Client side: sends bytes to the server.
    pub fn client_write(&mut self, fd: Fd, now: u64, data: Vec<u8>) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            c.c2s.write(now + delay, data);
        }
    }

    /// Client side: closes the client half at `now` (server sees EOF
    /// after the delay).
    pub fn client_close(&mut self, fd: Fd, now: u64) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            if c.c2s.closed_at.is_none() {
                c.c2s.closed_at = Some(now + delay);
            }
        }
    }

    /// Server side: whether the client's half is closed (EOF visible)
    /// and every byte has been drained. Unknown (reaped) descriptors
    /// read as closed.
    pub fn peer_closed(&self, fd: Fd, now: u64) -> bool {
        self.conns
            .get(&fd)
            .is_none_or(|c| c.c2s.closed_at.is_some_and(|t| t <= now) && !c.c2s.readable(now))
    }

    /// Drops a fully closed connection's state.
    pub fn reap(&mut self, fd: Fd) {
        self.conns.remove(&fd);
    }

    /// Earliest time after `now` at which new data or a new connection
    /// becomes visible anywhere (used by poll loops to re-arm).
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut consider = |t: Option<u64>| {
            if let Some(t) = t {
                best = Some(best.map_or(t, |b: u64| b.min(t)));
            }
        };
        for backlog in self.listeners.values() {
            consider(backlog.iter().map(|(t, _)| *t).find(|&t| t > now));
        }
        for c in self.conns.values() {
            consider(c.c2s.next_visibility(now));
            consider(c.s2c.next_visibility(now));
        }
        best
    }

    /// Total bytes the server received / sent, and connections accepted.
    pub fn stats(&self) -> NetStats {
        NetStats {
            bytes_received: self.bytes_c2s,
            bytes_sent: self.bytes_s2c,
            accepted: self.accepted_total,
        }
    }

    /// Live (unreaped) connections.
    pub fn live_conns(&self) -> usize {
        self.conns.len()
    }
}

/// Aggregate transfer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Bytes the server read from clients.
    pub bytes_received: u64,
    /// Bytes the server wrote to clients.
    pub bytes_sent: u64,
    /// Connections accepted by the server.
    pub accepted: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rx={}B tx={}B accepted={}",
            self.bytes_received, self.bytes_sent, self.accepted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
    use std::sync::Arc;

    fn net() -> SimNet {
        SimNet::new(NetConfig { one_way_delay: 100 })
    }

    #[test]
    fn connect_requires_listener() {
        let mut n = net();
        assert!(n.connect(80, 0).is_none());
        n.listen(80);
        assert!(n.connect(80, 0).is_some());
    }

    #[test]
    fn accept_respects_propagation_delay() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 50).unwrap();
        assert!(n.accept(80, 149).is_none());
        assert_eq!(n.accept(80, 150), Some(fd));
        assert!(n.accept(80, 150).is_none(), "backlog drained");
    }

    #[test]
    fn data_flows_both_ways_with_delay() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"req".to_vec());
        assert!(n.read(fd, 150).is_empty());
        assert_eq!(n.read(fd, 200), b"req");
        n.write(fd, 200, b"resp".to_vec());
        assert!(n.client_read(fd, 250).is_empty());
        assert_eq!(n.client_read(fd, 300), b"resp");
    }

    #[test]
    fn read_joins_visible_segments_and_leaves_later_ones() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"ab".to_vec());
        n.client_write(fd, 150, b"cd".to_vec());
        n.client_write(fd, 250, b"ef".to_vec());
        assert_eq!(n.read(fd, 250), b"abcd");
        assert_eq!(n.read(fd, 350), b"ef");
        assert_eq!(n.stats().bytes_received, 6);
    }

    #[test]
    fn poll_reports_acceptable_readable_hup_once() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        assert!(n.poll(99).is_empty());
        assert_eq!(n.poll(100), vec![NetEvent::Acceptable(80)]);
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"x".to_vec());
        assert_eq!(n.poll(200), vec![NetEvent::Readable(fd)]);
        n.read(fd, 200);
        assert!(n.poll(200).is_empty());
        n.client_close(fd, 200);
        assert_eq!(n.poll(300), vec![NetEvent::PeerClosed(fd)]);
        assert!(n.poll(300).is_empty(), "hup reported once");
    }

    #[test]
    fn hup_waits_until_data_drained() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"last".to_vec());
        n.client_close(fd, 100);
        // Readable first; no HUP while data pending.
        assert_eq!(n.poll(200), vec![NetEvent::Readable(fd)]);
        n.read(fd, 200);
        assert_eq!(n.poll(200), vec![NetEvent::PeerClosed(fd)]);
    }

    #[test]
    fn server_close_visible_to_client() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.write(fd, 100, b"bye".to_vec());
        n.close(fd, 100);
        assert!(!n.client_sees_close(fd, 150));
        // Data must be drained before close is observed.
        assert!(!n.client_sees_close(fd, 200));
        n.client_read(fd, 200);
        assert!(n.client_sees_close(fd, 200));
        n.reap(fd);
        assert_eq!(n.live_conns(), 0);
    }

    #[test]
    fn closed_server_side_ignores_writes_and_polls() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.close(fd, 100);
        n.write(fd, 150, b"ignored".to_vec());
        n.client_read(fd, 10_000);
        assert!(n.client_sees_close(fd, 10_000));
        n.client_write(fd, 200, b"late".to_vec());
        assert!(n.poll(1_000).is_empty(), "closed conns are not polled");
    }

    #[test]
    fn next_activity_finds_earliest_future_event() {
        let mut n = net();
        n.listen(80);
        assert_eq!(n.next_activity(0), None);
        let fd = n.connect(80, 0).unwrap(); // visible at 100
        n.client_write(fd, 50, b"x".to_vec()); // visible at 150
        assert_eq!(n.next_activity(0), Some(100));
        assert_eq!(n.next_activity(100), Some(150));
        assert_eq!(n.next_activity(150), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, vec![0; 10]);
        n.read(fd, 300);
        n.write(fd, 300, vec![0; 20]);
        let s = n.stats();
        assert_eq!(s.bytes_received, 10);
        assert_eq!(s.bytes_sent, 20);
        assert_eq!(s.accepted, 1);
        assert!(s.to_string().contains("rx=10B"));
    }

    #[test]
    fn output_watch_lists_an_fd_once_and_signals_per_empty_edge() {
        let mut n = net();
        n.listen(80);
        let (a, b) = (n.connect(80, 0).unwrap(), n.connect(80, 0).unwrap());
        n.accept(80, 100).unwrap();
        n.accept(80, 100).unwrap();
        let signals = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&signals);
        n.watch_tx(move || {
            counter.fetch_add(1, Relaxed);
        });
        n.write(a, 100, b"x".to_vec());
        n.write(a, 100, b"y".to_vec());
        n.close(a, 100);
        n.write(b, 100, b"z".to_vec());
        assert_eq!(signals.load(Relaxed), 1, "only the first listing signals");
        n.reap(a);
        let mut ready = Vec::new();
        n.take_tx_ready(&mut ready);
        assert_eq!(ready, [a, b]);
        // A listed descriptor reaped since reads as closed and empty.
        assert!(n.client_read(a, 1_000).is_empty() && n.client_sees_close(a, 1_000));
        assert_eq!(n.client_next_visibility(a, 0), None);
        n.take_tx_ready(&mut ready);
        assert_eq!(ready, [a, b], "taken means gone");
        n.write(b, 200, b"again".to_vec());
        assert_eq!(signals.load(Relaxed), 2, "the list was empty again");
        ready.clear();
        n.take_tx_ready(&mut ready);
        assert_eq!(ready, [b]);
    }

    #[test]
    fn an_unwatched_net_records_no_output() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.write(fd, 100, b"x".to_vec());
        n.close(fd, 100);
        let mut ready = Vec::new();
        n.take_tx_ready(&mut ready);
        assert!(ready.is_empty());
    }

    #[test]
    fn poll_reports_connections_in_ascending_fd_order() {
        let mut n = net();
        n.listen(80);
        let fds: Vec<Fd> = (0..48).map(|_| n.connect(80, 0).unwrap()).collect();
        while n.accept(80, 100).is_some() {}
        // Reap out of fd order, then open more: the table's layout is
        // now nothing like the descriptors' order.
        for &fd in fds.iter().rev().step_by(3) {
            n.close(fd, 100);
            n.reap(fd);
        }
        let more: Vec<Fd> = (0..24).map(|_| n.connect(80, 100).unwrap()).collect();
        while n.accept(80, 200).is_some() {}
        let live: Vec<Fd> = fds
            .iter()
            .rev()
            .skip(1)
            .step_by(3)
            .chain(fds.iter().rev().skip(2).step_by(3))
            .chain(more.iter().rev())
            .copied()
            .collect();
        for (i, &fd) in live.iter().enumerate() {
            if i % 2 == 0 {
                n.client_write(fd, 200, b"x".to_vec());
            } else {
                n.client_close(fd, 200);
            }
        }
        n.connect(80, 200).unwrap(); // pending at poll time
        let events = n.poll(300);
        assert_eq!(events[0], NetEvent::Acceptable(80), "listeners first");
        let fd_of = |e: &NetEvent| match *e {
            NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => fd,
            NetEvent::Acceptable(_) => panic!("one listener, reported once"),
        };
        let got: Vec<Fd> = events[1..].iter().map(fd_of).collect();
        let mut want = live.clone();
        want.sort_unstable();
        assert_eq!(got, want, "connections in ascending fd order");
        assert!(events.iter().any(|e| matches!(e, NetEvent::Readable(_))));
        assert!(events.iter().any(|e| matches!(e, NetEvent::PeerClosed(_))));
    }

    #[test]
    fn reaped_and_never_issued_fds_read_empty_and_closed() {
        let mut n = net();
        n.listen(80);
        let reaped = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(reaped, 100, b"unread".to_vec());
        n.write(reaped, 100, b"unread".to_vec());
        n.reap(reaped);
        let never = reaped + 1_000;
        let before = n.stats();
        for fd in [reaped, never] {
            n.write(fd, 300, b"dropped".to_vec());
            n.client_write(fd, 300, b"dropped".to_vec());
            n.close(fd, 300);
            n.client_close(fd, 300);
            assert!(n.read(fd, 1_000).is_empty());
            assert!(n.client_read(fd, 1_000).is_empty());
            assert!(n.peer_closed(fd, 1_000));
            assert!(n.client_sees_close(fd, 1_000));
            assert_eq!(n.client_next_visibility(fd, 0), None);
            n.reap(fd);
        }
        assert_eq!(n.stats(), before, "nothing was transferred");
        assert!(n.poll(1_000).is_empty());
        assert_eq!(n.next_activity(0), None);
        assert_eq!(n.live_conns(), 0);
    }

    #[test]
    fn memory_follows_live_connections() {
        let mut n = net();
        n.listen(80);
        let long = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        for i in 0..10_000u64 {
            let now = 100 + i * 300;
            let fd = n.connect(80, now).unwrap();
            assert_eq!(n.accept(80, now + 100), Some(fd));
            n.client_write(fd, now + 100, b"req".to_vec());
            assert_eq!(n.read(fd, now + 200), b"req");
            n.write(fd, now + 200, b"resp".to_vec());
            n.close(fd, now + 200);
            n.client_close(fd, now + 200);
            n.reap(fd);
        }
        assert_eq!(n.live_conns(), 1);
        assert!(
            n.conns.capacity() < 16,
            "the table holds {} slots for 2 connections at a time",
            n.conns.capacity()
        );
        n.client_write(long, 10_000_000, b"still here".to_vec());
        assert_eq!(n.read(long, 10_000_100), b"still here");
    }

    #[test]
    fn fds_are_never_reused() {
        let mut n = net();
        n.listen(80);
        let a = n.connect(80, 0).unwrap();
        n.reap(a);
        let b = n.connect(80, 0).unwrap();
        assert_ne!(a, b);
    }
}
