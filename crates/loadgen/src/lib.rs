//! Closed-loop load injection, as in the paper's evaluation (Section
//! V-C): a master coordinates a set of virtual clients, each repeatedly
//! connecting to the server, issuing requests, and waiting for the
//! response before issuing the next one (a *closed* loop, per the
//! methodology of Schroeder et al. the paper cites).
//!
//! [`ClosedLoopLoad`] implements [`mely_net::driver::Driver`]: the
//! simulated server's poll loop advances it in virtual time. The wire
//! protocol is pluggable through [`ClientProtocol`], with ready-made
//! implementations living in the application crates (HTTP for SWS, the
//! SFS read protocol for SFS).
//!
//! For the *threaded* executor, [`threaded::InjectorPool`] provides the
//! real-time analogue: OS producer threads injecting events through the
//! runtime's injection inboxes.
//!
//! # Examples
//!
//! A minimal echo protocol against a hand-driven server:
//!
//! ```
//! use mely_loadgen::{ClientProtocol, ClosedLoopLoad, LoadConfig, LoadStats};
//! use mely_net::driver::Driver;
//! use mely_net::{NetConfig, SimNet};
//!
//! struct Echo;
//! impl ClientProtocol for Echo {
//!     fn request(&mut self, _c: usize, _seq: u64) -> Vec<u8> {
//!         b"ping".to_vec()
//!     }
//!     fn response_len(&self, buf: &[u8]) -> Option<usize> {
//!         (buf.len() >= 4).then_some(4)
//!     }
//! }
//!
//! let mut net = SimNet::new(NetConfig { one_way_delay: 10 });
//! net.listen(7);
//! let mut load = ClosedLoopLoad::new(Echo, LoadConfig {
//!     clients: 1,
//!     ports: vec![7],
//!     requests_per_conn: 1,
//!     duration: 1_000_000,
//!     ..LoadConfig::default()
//! });
//! // Client connects and sends at t=0; serve it by hand.
//! load.advance(&mut net, 0);
//! let fd = net.accept(7, 50).unwrap();
//! assert_eq!(net.read(fd, 50), b"ping");
//! net.write(fd, 50, b"pong".to_vec());
//! // After the propagation delay the client completes its request.
//! load.advance(&mut net, 2_000_000);
//! assert_eq!(load.stats().responses, 1);
//! ```

#[cfg(unix)]
pub mod tcp;
pub mod threaded;

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;

use mely_net::driver::Driver;
use mely_net::{Fd, SimNet};

/// Client-side wire protocol.
pub trait ClientProtocol: Send {
    /// Builds the request with sequence number `seq` (within the current
    /// connection) for `client`.
    fn request(&mut self, client: usize, seq: u64) -> Vec<u8>;

    /// How many bytes at the head of `buf` form one complete response;
    /// `None` while incomplete.
    fn response_len(&self, buf: &[u8]) -> Option<usize>;

    /// Called with each complete response (verification hook).
    fn on_response(&mut self, client: usize, response: &[u8]) {
        let _ = (client, response);
    }
}

/// Load shape parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of virtual clients.
    pub clients: usize,
    /// Server ports; client `i` talks to `ports[i % ports.len()]`
    /// (multiple ports model the N-copy comparator).
    pub ports: Vec<u16>,
    /// Requests issued per connection before closing and reconnecting
    /// (150 in the paper's SWS runs).
    pub requests_per_conn: u64,
    /// Virtual duration of the injection phase, in cycles. After the
    /// deadline clients finish their in-flight request and stop.
    pub duration: u64,
    /// Think time between a response and the next request (0 in the
    /// paper's closed loops).
    pub think_time: u64,
    /// Client start times are spread uniformly over this window to avoid
    /// a synchronized connection storm at t = 0.
    pub start_spread: u64,
    /// Fallback polling period when response arrival cannot be predicted.
    pub poll_interval: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 16,
            ports: vec![80],
            requests_per_conn: 150,
            duration: 200_000_000, // ~86 ms at 2.33 GHz
            think_time: 0,
            start_spread: 100_000,
            poll_interval: 50_000,
        }
    }
}

/// Aggregate client-side results (what the paper's master node
/// collects).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadStats {
    /// Completed responses.
    pub responses: u64,
    /// Response payload bytes received.
    pub bytes: u64,
    /// Completed connections.
    pub conns: u64,
    /// Sum of response times in cycles (request sent → response
    /// complete), for mean latency.
    pub latency_sum: u64,
}

impl LoadStats {
    /// Mean response latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.responses as f64
        }
    }

    /// Throughput in thousands of responses per second over `secs`.
    pub fn kreq_per_sec(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.responses as f64 / secs / 1e3
        }
    }

    /// Goodput in MB/s over `secs`.
    pub fn mb_per_sec(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs / 1e6
        }
    }
}

impl fmt::Display for LoadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} responses, {} bytes, {} conns",
            self.responses, self.bytes, self.conns
        )
    }
}

#[derive(Debug)]
struct ClientState {
    fd: Option<Fd>,
    buf: Vec<u8>,
    seq_on_conn: u64,
    sent_at: u64,
    waiting: bool,
    finished: bool,
}

/// Closed-loop virtual clients implementing [`Driver`].
///
/// Each unfinished client has exactly one wake-up on a min-heap of
/// `(time, client)`; stepping a client re-arms that entry in place.
/// A response is read into the client's buffer (moved in whole when the
/// buffer is empty), handed to [`ClientProtocol::on_response`] as a
/// slice of it and then drained, so a response costs no copy of its own.
pub struct ClosedLoopLoad<P> {
    proto: P,
    cfg: LoadConfig,
    clients: Vec<ClientState>,
    /// One `(time, client)` entry per unfinished client.
    wakeups: BinaryHeap<Reverse<(u64, usize)>>,
    stats: LoadStats,
    finished_clients: usize,
}

impl<P: ClientProtocol> ClosedLoopLoad<P> {
    /// Creates the load and schedules every client's start.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.clients` is zero or `cfg.ports` is empty.
    pub fn new(proto: P, cfg: LoadConfig) -> Self {
        assert!(cfg.clients > 0, "need at least one client");
        assert!(!cfg.ports.is_empty(), "need at least one port");
        let mut wakeups = BinaryHeap::new();
        let clients = (0..cfg.clients)
            .map(|i| {
                let start = if cfg.clients > 1 {
                    cfg.start_spread * i as u64 / cfg.clients as u64
                } else {
                    0
                };
                wakeups.push(Reverse((start, i)));
                ClientState {
                    fd: None,
                    buf: Vec::new(),
                    seq_on_conn: 0,
                    sent_at: 0,
                    waiting: false,
                    finished: false,
                }
            })
            .collect();
        ClosedLoopLoad {
            proto,
            cfg,
            clients,
            wakeups,
            stats: LoadStats::default(),
            finished_clients: 0,
        }
    }

    /// Collected client-side statistics.
    pub fn stats(&self) -> LoadStats {
        self.stats
    }

    /// The configured injection duration in cycles.
    pub fn duration(&self) -> u64 {
        self.cfg.duration
    }

    /// Access to the protocol (e.g. to read verification counters).
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    fn port_of(&self, client: usize) -> u16 {
        self.cfg.ports[client % self.cfg.ports.len()]
    }

    fn finish_client(&mut self, client: usize, net: &mut SimNet, now: u64) {
        let st = &mut self.clients[client];
        if let Some(fd) = st.fd.take() {
            net.client_close(fd, now);
            self.stats.conns += 1;
        }
        if !st.finished {
            st.finished = true;
            self.finished_clients += 1;
        }
    }

    /// Sends the next request; returns when to wake for its response.
    fn send_next(&mut self, client: usize, net: &mut SimNet, now: u64) -> u64 {
        let seq = self.clients[client].seq_on_conn;
        let req = self.proto.request(client, seq);
        let st = &mut self.clients[client];
        let fd = st.fd.expect("connected before sending");
        net.client_write(fd, now, req);
        st.sent_at = now;
        st.waiting = true;
        // Wake when the response (or anything) becomes visible; fall back
        // to polling if the server has not written yet.
        net.client_next_visibility(fd, now)
            .unwrap_or(now + self.cfg.poll_interval)
    }

    /// Runs `client`'s state machine at `now`. Returns its next wake-up,
    /// or `None` once it has finished.
    fn step_client(&mut self, client: usize, net: &mut SimNet, now: u64) -> Option<u64> {
        if self.clients[client].finished {
            return None;
        }
        // Past the deadline: stop after the in-flight request completes.
        let deadline_passed = now >= self.cfg.duration;

        if self.clients[client].fd.is_none() {
            if deadline_passed {
                self.finish_client(client, net, now);
                return None;
            }
            let port = self.port_of(client);
            let fd = net
                .connect(port, now)
                .expect("server must be listening before load starts");
            let st = &mut self.clients[client];
            st.fd = Some(fd);
            st.seq_on_conn = 0;
            st.buf.clear();
            return Some(self.send_next(client, net, now));
        }

        let fd = self.clients[client].fd.expect("checked above");
        if !self.clients[client].waiting {
            // Think time elapsed: issue the next request.
            return Some(self.send_next(client, net, now));
        }

        // Waiting for a response: pull whatever is visible, moving it in
        // whole when nothing is buffered yet.
        let data = net.client_read(fd, now);
        let buf = &mut self.clients[client].buf;
        if buf.is_empty() {
            *buf = data;
        } else {
            buf.extend_from_slice(&data);
        }
        if let Some(n) = self.proto.response_len(buf) {
            self.proto.on_response(client, &buf[..n]);
            buf.drain(..n);
            self.stats.responses += 1;
            self.stats.bytes += n as u64;
            self.stats.latency_sum += now - self.clients[client].sent_at;
            let st = &mut self.clients[client];
            st.waiting = false;
            st.seq_on_conn += 1;
            let conn_exhausted = st.seq_on_conn >= self.cfg.requests_per_conn;
            if deadline_passed {
                self.finish_client(client, net, now);
                return None;
            }
            if conn_exhausted {
                // Close and reconnect immediately (the paper's clients
                // "repeatedly connect ... and request 150 files").
                net.client_close(fd, now);
                self.stats.conns += 1;
                let st = &mut self.clients[client];
                st.fd = None;
                st.buf.clear();
            }
            return Some(now + self.cfg.think_time);
        }
        if net.client_sees_close(fd, now) {
            // Server closed on us mid-request (overload shedding): treat
            // as the end of this connection and reconnect.
            let st = &mut self.clients[client];
            st.fd = None;
            st.buf.clear();
            st.waiting = false;
            self.stats.conns += 1;
            if deadline_passed {
                self.finish_client(client, net, now);
                return None;
            }
            return Some(now);
        }
        if deadline_passed {
            // The injection window is over and the response is still
            // incomplete: abandon it (a real injector times out too) so
            // the run can drain.
            self.finish_client(client, net, now);
            return None;
        }
        // Still incomplete: wake on next visibility (or poll).
        let due = net
            .client_next_visibility(fd, now)
            .unwrap_or(now + self.cfg.poll_interval);
        Some(due.max(now + 1))
    }
}

impl<P: ClientProtocol> Driver for ClosedLoopLoad<P> {
    /// Steps every client whose wake-up is due. The heap holds exactly
    /// one wake-up per unfinished client, so a stepped client's next
    /// wake-up replaces the heap top in place (one sift) and a finished
    /// one's is popped; with unique `(t, client)` keys the step order is
    /// the same as popping and pushing.
    fn advance(&mut self, net: &mut SimNet, now: u64) -> bool {
        while let Some(&Reverse((t, c))) = self.wakeups.peek() {
            if t > now {
                break;
            }
            // Stepping leaves the heap alone, so `c`'s wake-up is still on top.
            let next = self.step_client(c, net, now.max(t));
            let mut top = self.wakeups.peek_mut().expect("c's wake-up is queued");
            debug_assert_eq!(top.0 .1, c, "one wake-up per unfinished client");
            debug_assert_eq!(next.is_none(), self.clients[c].finished);
            match next {
                Some(due) => *top = Reverse((due, c)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        self.finished_clients == self.clients.len()
    }

    fn next_due(&self, _now: u64) -> Option<u64> {
        self.wakeups.peek().map(|&Reverse((t, _))| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_net::NetConfig;

    struct Fixed {
        resp_len: usize,
        seen: u64,
    }

    impl ClientProtocol for Fixed {
        fn request(&mut self, _c: usize, seq: u64) -> Vec<u8> {
            format!("REQ {seq}").into_bytes()
        }
        fn response_len(&self, buf: &[u8]) -> Option<usize> {
            (buf.len() >= self.resp_len).then_some(self.resp_len)
        }
        fn on_response(&mut self, _c: usize, r: &[u8]) {
            assert_eq!(r.len(), self.resp_len);
            self.seen += 1;
        }
    }

    fn serve_everything(net: &mut SimNet, now: u64, resp: &[u8]) {
        // Accept and answer every readable request byte-for-byte.
        loop {
            let events = net.poll(now);
            if events.is_empty() {
                break;
            }
            for e in events {
                match e {
                    mely_net::NetEvent::Acceptable(p) => {
                        net.accept(p, now);
                    }
                    mely_net::NetEvent::Readable(fd) => {
                        let _ = net.read(fd, now);
                        net.write(fd, now, resp.to_vec());
                    }
                    mely_net::NetEvent::PeerClosed(fd) => {
                        net.close(fd, now);
                        net.reap(fd);
                    }
                }
            }
        }
    }

    #[test]
    fn closed_loop_completes_requests_and_reconnects() {
        let mut net = SimNet::new(NetConfig { one_way_delay: 100 });
        net.listen(80);
        let mut load = ClosedLoopLoad::new(
            Fixed {
                resp_len: 8,
                seen: 0,
            },
            LoadConfig {
                clients: 4,
                ports: vec![80],
                requests_per_conn: 3,
                duration: 60_000,
                start_spread: 0,
                think_time: 0,
                poll_interval: 500,
            },
        );
        let resp = [7u8; 8];
        let mut now = 0;
        let mut done = false;
        while !done && now < 10_000_000 {
            done = load.advance(&mut net, now);
            serve_everything(&mut net, now, &resp);
            now = load
                .next_due(now)
                .or_else(|| net.next_activity(now))
                .unwrap_or(now + 1_000)
                .max(now + 1);
        }
        assert!(done, "load must finish");
        let s = load.stats();
        assert!(s.responses > 0);
        assert_eq!(s.bytes, s.responses * 8);
        assert!(s.conns > 0);
        assert_eq!(load.protocol().seen, s.responses);
        assert!(s.mean_latency() >= 200.0, "at least one RTT");
    }

    /// The re-arm invariant: exactly one wake-up per unfinished client.
    fn assert_one_wakeup_per_unfinished_client<P>(load: &ClosedLoopLoad<P>) {
        let mut queued: Vec<usize> = load.wakeups.iter().map(|w| w.0 .1).collect();
        queued.sort_unstable();
        let unfinished: Vec<usize> = (0..load.clients.len())
            .filter(|&c| !load.clients[c].finished)
            .collect();
        assert_eq!(queued, unfinished);
        assert_eq!(load.finished_clients, load.clients.len() - unfinished.len());
    }

    #[test]
    fn every_unfinished_client_has_exactly_one_wakeup() {
        let mut net = SimNet::new(NetConfig { one_way_delay: 100 });
        net.listen(80);
        let mut load = ClosedLoopLoad::new(
            Fixed {
                resp_len: 8,
                seen: 0,
            },
            LoadConfig {
                clients: 16,
                ports: vec![80],
                requests_per_conn: 3,
                duration: 40_000,
                start_spread: 1_000,
                think_time: 50,
                poll_interval: 300,
            },
        );
        assert_one_wakeup_per_unfinished_client(&load);
        let resp = [7u8; 8];
        let (mut now, mut done, mut boundaries) = (0, false, 0);
        while !done {
            done = load.advance(&mut net, now);
            assert_one_wakeup_per_unfinished_client(&load);
            boundaries += 1;
            // Serve only every other boundary, so clients also wake to
            // incomplete responses and re-arm on the poll interval.
            if boundaries % 2 == 0 {
                serve_everything(&mut net, now, &resp);
            }
            now = load.next_due(now).unwrap_or(now + 1_000).max(now + 1);
        }
        assert!(load.wakeups.is_empty());
        assert!(load.stats().responses > 16 && load.stats().conns > 16);
    }

    #[test]
    fn deadline_stops_the_load() {
        let mut net = SimNet::new(NetConfig { one_way_delay: 10 });
        net.listen(80);
        let mut load = ClosedLoopLoad::new(
            Fixed {
                resp_len: 4,
                seen: 0,
            },
            LoadConfig {
                clients: 2,
                ports: vec![80],
                requests_per_conn: u64::MAX,
                duration: 5_000,
                start_spread: 0,
                think_time: 0,
                poll_interval: 100,
            },
        );
        let mut now = 0;
        let mut done = false;
        while !done && now < 1_000_000 {
            done = load.advance(&mut net, now);
            serve_everything(&mut net, now, b"pong");
            now += 50;
        }
        assert!(done);
        assert!(load.stats().responses < 1_000, "deadline must bound work");
    }

    #[test]
    fn stats_math() {
        let s = LoadStats {
            responses: 2_000,
            bytes: 2_000_000,
            conns: 10,
            latency_sum: 4_000,
        };
        assert_eq!(s.mean_latency(), 2.0);
        assert_eq!(s.kreq_per_sec(2.0), 1.0);
        assert_eq!(s.mb_per_sec(1.0), 2.0);
        assert_eq!(LoadStats::default().mean_latency(), 0.0);
        assert_eq!(LoadStats::default().kreq_per_sec(0.0), 0.0);
        assert_eq!(LoadStats::default().mb_per_sec(0.0), 0.0);
        assert!(s.to_string().contains("2000 responses"));
    }

    #[test]
    fn multiple_ports_spread_clients() {
        let mut net = SimNet::new(NetConfig { one_way_delay: 10 });
        net.listen(80);
        net.listen(81);
        let mut load = ClosedLoopLoad::new(
            Fixed {
                resp_len: 4,
                seen: 0,
            },
            LoadConfig {
                clients: 4,
                ports: vec![80, 81],
                requests_per_conn: 1,
                duration: 100,
                start_spread: 0,
                think_time: 0,
                poll_interval: 100,
            },
        );
        load.advance(&mut net, 0);
        // Two clients per port connected.
        assert_eq!(net.poll(10).len(), 2, "both listeners acceptable");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ClosedLoopLoad::new(
            Fixed {
                resp_len: 1,
                seen: 0,
            },
            LoadConfig {
                clients: 0,
                ..LoadConfig::default()
            },
        );
    }
}
