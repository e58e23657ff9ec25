//! Per-connection socket I/O for the gateway: EAGAIN-aware reads and
//! buffered partial writes.
//!
//! The gateway's write path must absorb the mismatch between how fast
//! the runtime produces response bytes and how fast the kernel accepts
//! them: a non-blocking `write` can stop mid-response (`EAGAIN`), so
//! every connection carries a [`WriteBuf`] holding the unsent tail, and
//! the poller re-arms `EPOLLOUT` until the buffer drains. The read path
//! is the mirror image: drain until `EAGAIN`, with EOF and
//! `ECONNRESET` folded into explicit outcomes so the caller can route
//! them into the fault accounting instead of panicking.

use std::os::fd::RawFd;
use std::os::raw::c_void;

use minilibc as libc;

/// Result of draining a socket's readable bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Drained to `EAGAIN`; the connection stays open.
    WouldBlock,
    /// Orderly EOF: the peer shut down its writing half.
    Eof,
    /// `ECONNRESET` (or another hard socket error): the connection is
    /// gone without an orderly close.
    Reset,
}

/// Reads everything currently available on `fd` into `sink`.
///
/// Loops until `EAGAIN` (retrying `EINTR`), so it is safe under
/// edge-triggered delivery too. Bytes read before an EOF or reset are
/// still appended — a request that arrived right before the peer died
/// must reach the parser.
pub fn drain_reads(fd: RawFd, sink: &mut Vec<u8>) -> ReadOutcome {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // SAFETY: `chunk` is a valid writable buffer of the given length.
        let n = unsafe { libc::read(fd, chunk.as_mut_ptr() as *mut c_void, chunk.len()) };
        match n {
            0 => return ReadOutcome::Eof,
            n if n > 0 => sink.extend_from_slice(&chunk[..n as usize]),
            _ => match libc::errno() {
                libc::EINTR => continue,
                libc::EAGAIN => return ReadOutcome::WouldBlock,
                _ => return ReadOutcome::Reset,
            },
        }
    }
}

/// Result of pushing buffered bytes out of a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Everything buffered has left the socket.
    Drained,
    /// The kernel buffer filled (`EAGAIN`); a tail remains buffered and
    /// the caller must arm `EPOLLOUT`.
    Blocked,
    /// The peer is gone (`EPIPE`/`ECONNRESET`); the tail is discarded.
    Closed,
}

/// Outbound bytes awaiting a writable socket, with a consumed prefix
/// (compacted lazily so a slow client does not trigger a memmove per
/// partial write).
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    sent: usize,
}

impl WriteBuf {
    /// Appends response bytes to the pending tail.
    pub fn queue(&mut self, bytes: &[u8]) {
        if self.sent > 0 && self.sent == self.buf.len() {
            self.buf.clear();
            self.sent = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes still waiting to leave.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.sent
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Writes as much of the pending tail as the kernel accepts.
    pub fn flush(&mut self, fd: RawFd) -> WriteOutcome {
        while self.sent < self.buf.len() {
            let tail = &self.buf[self.sent..];
            // SAFETY: `tail` is a valid readable slice of that length.
            let n = unsafe { libc::write(fd, tail.as_ptr() as *const c_void, tail.len()) };
            if n > 0 {
                self.sent += n as usize;
                continue;
            }
            match libc::errno() {
                libc::EINTR => continue,
                libc::EAGAIN => return WriteOutcome::Blocked,
                _ => {
                    // The peer is gone: drop the tail so the buffer
                    // cannot grow without bound on a dead connection.
                    self.buf.clear();
                    self.sent = 0;
                    return WriteOutcome::Closed;
                }
            }
        }
        self.buf.clear();
        self.sent = 0;
        WriteOutcome::Drained
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn drain_reads_consumes_everything_then_would_block() {
        let (mut a, b) = pair();
        a.write_all(b"hello").unwrap();
        let mut sink = Vec::new();
        assert_eq!(
            drain_reads(b.as_raw_fd(), &mut sink),
            ReadOutcome::WouldBlock
        );
        assert_eq!(sink, b"hello");
        // Nothing new: still WouldBlock, sink untouched.
        assert_eq!(
            drain_reads(b.as_raw_fd(), &mut sink),
            ReadOutcome::WouldBlock
        );
        assert_eq!(sink, b"hello");
    }

    #[test]
    fn drain_reads_reports_eof_after_final_bytes() {
        let (mut a, b) = pair();
        a.write_all(b"last").unwrap();
        drop(a);
        let mut sink = Vec::new();
        // Final bytes and the EOF can land in one drain pass.
        let outcome = drain_reads(b.as_raw_fd(), &mut sink);
        assert_eq!(outcome, ReadOutcome::Eof);
        assert_eq!(sink, b"last", "bytes before the EOF are kept");
    }

    #[test]
    fn write_buf_survives_partial_writes() {
        let (a, mut b) = pair();
        // Big enough to overrun loopback socket buffers.
        let payload = vec![0xABu8; 8 * 1024 * 1024];
        let mut wb = WriteBuf::default();
        wb.queue(&payload);
        let first = wb.flush(a.as_raw_fd());
        assert_eq!(first, WriteOutcome::Blocked, "kernel buffer must fill");
        let blocked_pending = wb.pending();
        assert!(blocked_pending > 0 && blocked_pending < payload.len());

        // Drain the peer until the writer can finish.
        let mut got = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match b.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    match wb.flush(a.as_raw_fd()) {
                        WriteOutcome::Drained => {
                            if got.len() == payload.len() {
                                break;
                            }
                        }
                        WriteOutcome::Blocked => {}
                        WriteOutcome::Closed => panic!("peer alive"),
                    }
                }
                Err(e) => panic!("{e}"),
            }
            if got.len() == payload.len() && wb.is_empty() {
                break;
            }
        }
        assert!(wb.is_empty());
        assert_eq!(got.len(), payload.len());
        assert!(got.iter().all(|&b| b == 0xAB), "no bytes lost or reordered");
    }

    #[test]
    fn write_buf_discards_tail_on_peer_close() {
        let (a, b) = pair();
        drop(b);
        let mut wb = WriteBuf::default();
        wb.queue(&vec![1u8; 1024 * 1024]);
        // First flush may succeed into the kernel buffer; keep flushing
        // until the RST surfaces.
        let mut outcome = wb.flush(a.as_raw_fd());
        for _ in 0..100 {
            if outcome == WriteOutcome::Closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            wb.queue(b"more");
            outcome = wb.flush(a.as_raw_fd());
        }
        assert_eq!(outcome, WriteOutcome::Closed);
        assert!(wb.is_empty(), "dead connections must not accumulate bytes");
    }

    #[test]
    fn queue_compacts_the_consumed_prefix() {
        let (a, mut b) = pair();
        let mut wb = WriteBuf::default();
        wb.queue(b"abc");
        assert_eq!(wb.flush(a.as_raw_fd()), WriteOutcome::Drained);
        wb.queue(b"def");
        assert_eq!(wb.pending(), 3);
        assert_eq!(wb.flush(a.as_raw_fd()), WriteOutcome::Drained);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut got = [0u8; 6];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"abcdef");
    }
}
