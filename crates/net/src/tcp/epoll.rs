//! Safe wrapper around the `minilibc` epoll externs.
//!
//! One [`Epoll`] instance multiplexes every descriptor a poller thread
//! owns. The wrapper is deliberately small: interest registration with
//! a caller-chosen `u64` token, level- or edge-triggered delivery
//! ([`Interest::edge`]), and a [`wait`](Epoll::wait) that retries
//! `EINTR` transparently (signals must never look like readiness — the
//! retry loop is unit-tested against an injected `EINTR` sequence).

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

use minilibc as libc;

/// What a descriptor is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable data (or a pending accept).
    pub read: bool,
    /// Wake on writability.
    pub write: bool,
    /// Edge-triggered delivery: one wake per readiness *edge* (new
    /// data, new writability) instead of one per `wait` while ready.
    pub edge: bool,
}

impl Interest {
    /// Level-triggered read interest (the acceptor/reader default).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
        edge: false,
    };

    /// Level-triggered read + write interest (a connection with
    /// buffered response bytes waiting for `EAGAIN` to clear).
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
        edge: false,
    };

    /// Edge-triggered read interest.
    pub const fn edge(self) -> Interest {
        Interest { edge: true, ..self }
    }

    fn mask(self) -> u32 {
        let mut m = libc::EPOLLRDHUP;
        if self.read {
            m |= libc::EPOLLIN;
        }
        if self.write {
            m |= libc::EPOLLOUT;
        }
        if self.edge {
            m |= libc::EPOLLET;
        }
        m
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Data (or a pending accept) can be read.
    pub readable: bool,
    /// The descriptor can be written.
    pub writable: bool,
    /// The peer closed (EPOLLHUP / EPOLLRDHUP) or the descriptor
    /// errored (EPOLLERR) — in every case the right reaction is a read,
    /// which surfaces the EOF or the error code.
    pub hangup: bool,
}

impl Ready {
    fn from_event(ev: libc::EpollEvent) -> Ready {
        let bits = ev.events;
        Ready {
            token: ev.data,
            readable: bits & libc::EPOLLIN != 0,
            writable: bits & libc::EPOLLOUT != 0,
            hangup: bits & (libc::EPOLLHUP | libc::EPOLLRDHUP | libc::EPOLLERR) != 0,
        }
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

pub(super) fn last_error() -> io::Error {
    io::Error::from_raw_os_error(libc::errno())
}

impl Epoll {
    /// Creates the instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        let mut ev = libc::EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a valid EpollEvent for the duration of the
        // call; `self.fd` is an owned epoll descriptor.
        if unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) } != 0 {
            return Err(last_error());
        }
        Ok(())
    }

    /// Registers `fd` with `interest`; readiness reports carry `token`.
    pub fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest of an already registered `fd`.
    pub fn modify(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, Interest::READ, 0)
    }

    /// Waits up to `timeout_ms` (−1 = forever) and appends readiness to
    /// `out`. Returns how many events arrived. `EINTR` is retried.
    pub fn wait(&self, out: &mut Vec<Ready>, timeout_ms: i32) -> io::Result<usize> {
        let mut buf = [libc::EpollEvent::default(); 256];
        let n = wait_retrying(|| {
            // SAFETY: `buf` is a valid array of EpollEvents and its
            // length is passed as maxevents.
            let r = unsafe {
                libc::epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
            };
            (r, libc::errno())
        })?;
        out.extend(buf[..n as usize].iter().map(|&ev| Ready::from_event(ev)));
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an owned descriptor, closed exactly once.
        unsafe { libc::close(self.fd) };
    }
}

/// The `EINTR` retry loop, factored over an injectable raw wait so the
/// retry policy is testable without arranging for real signal delivery:
/// `raw` returns `(ret, errno)` like a syscall, and the loop repeats it
/// for as long as it fails with `EINTR`.
fn wait_retrying(mut raw: impl FnMut() -> (c_int, c_int)) -> io::Result<c_int> {
    loop {
        let (ret, err) = raw();
        if ret >= 0 {
            return Ok(ret);
        }
        if err != libc::EINTR {
            return Err(io::Error::from_raw_os_error(err));
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected loopback pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn eintr_is_retried_until_the_wait_succeeds() {
        let mut calls = 0;
        let n = wait_retrying(|| {
            calls += 1;
            if calls < 3 {
                (-1, minilibc::EINTR)
            } else {
                (7, 0)
            }
        })
        .unwrap();
        assert_eq!(n, 7);
        assert_eq!(calls, 3, "two EINTRs retried, third call returned");
    }

    #[test]
    fn non_eintr_errors_surface() {
        let err = wait_retrying(|| (-1, minilibc::EMFILE)).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(minilibc::EMFILE));
    }

    #[test]
    fn level_triggered_readiness_reports_until_drained() {
        let (mut client, server) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), Interest::READ, 42).unwrap();
        client.write_all(b"x").unwrap();
        let mut out = Vec::new();
        assert_eq!(ep.wait(&mut out, 1_000).unwrap(), 1);
        assert_eq!(out[0].token, 42);
        assert!(out[0].readable);
        // Level-triggered: still ready while the byte sits unread.
        out.clear();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 1);
    }

    #[test]
    fn edge_triggered_rearms_on_new_data_only() {
        let (mut client, server) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), Interest::READ.edge(), 7)
            .unwrap();
        let mut out = Vec::new();

        client.write_all(b"a").unwrap();
        assert_eq!(ep.wait(&mut out, 1_000).unwrap(), 1, "first edge");
        out.clear();
        // Without draining and without new data: no second report.
        assert_eq!(ep.wait(&mut out, 50).unwrap(), 0, "edge consumed");
        // New data re-arms the edge even though the old byte is unread.
        client.write_all(b"b").unwrap();
        assert_eq!(ep.wait(&mut out, 1_000).unwrap(), 1, "new edge");
        out.clear();

        // Drain, then confirm one more full cycle.
        let mut sink = [0u8; 8];
        let mut server = &server;
        let n = server.read(&mut sink).unwrap();
        assert_eq!(n, 2);
        assert_eq!(ep.wait(&mut out, 50).unwrap(), 0, "drained and quiet");
        client.write_all(b"c").unwrap();
        assert_eq!(ep.wait(&mut out, 1_000).unwrap(), 1, "re-armed");
    }

    #[test]
    fn hangup_is_reported() {
        let (client, server) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), Interest::READ, 1).unwrap();
        drop(client);
        let mut out = Vec::new();
        assert!(ep.wait(&mut out, 1_000).unwrap() >= 1);
        assert!(out[0].hangup, "peer close must surface as hangup");
    }

    #[test]
    fn modify_and_remove_change_the_interest_set() {
        let (_client, server) = pair();
        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), Interest::READ, 9).unwrap();
        // Write interest on an idle socket: immediately writable.
        ep.modify(server.as_raw_fd(), Interest::READ_WRITE, 9)
            .unwrap();
        let mut out = Vec::new();
        assert_eq!(ep.wait(&mut out, 1_000).unwrap(), 1);
        assert!(out[0].writable);
        ep.remove(server.as_raw_fd()).unwrap();
        out.clear();
        assert_eq!(ep.wait(&mut out, 50).unwrap(), 0, "deregistered");
    }
}
