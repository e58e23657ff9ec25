//! HTTP/1.1 subset for the SWS web server.
//!
//! SWS "handles static content, supports a subset of HTTP/1.1, builds
//! responses during start-up (an optimization already used in Flash), and
//! handles error cases" (paper Section V-C1). This crate provides exactly
//! those pieces:
//!
//! - [`parse_request`] — an incremental parser for the request line and
//!   headers (enough of HTTP/1.1 for a closed-loop static workload);
//! - [`ResponseCache`] — responses (status line + headers + body)
//!   prebuilt at server start-up, indexed by path, as in Flash;
//! - [`Response`] helpers for the error cases (400/404/505).
//!
//! # Examples
//!
//! ```
//! use mely_http::{parse_request, ParseOutcome, ResponseCache};
//!
//! let mut cache = ResponseCache::new();
//! cache.insert_file("/index.html", vec![b'x'; 1024]);
//!
//! let raw = b"GET /index.html HTTP/1.1\r\nHost: sws\r\n\r\n";
//! match parse_request(raw) {
//!     ParseOutcome::Complete(req, consumed) => {
//!         assert_eq!(req.path, "/index.html");
//!         assert_eq!(consumed, raw.len());
//!         let resp = cache.lookup(&req.path).expect("prebuilt");
//!         assert!(resp.bytes().starts_with(b"HTTP/1.1 200 OK\r\n"));
//!     }
//!     _ => panic!("complete request expected"),
//! }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An HTTP method understood by SWS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET` — the only method the static workload uses.
    Get,
    /// `HEAD` — answered without a body.
    Head,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request path (percent-decoding not needed for the workload).
    pub path: String,
    /// Whether the client asked to keep the connection alive.
    pub keep_alive: bool,
}

/// Result of feeding bytes to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A full request was parsed; `usize` is the bytes consumed.
    Complete(Request, usize),
    /// More bytes are needed.
    Partial,
    /// The bytes cannot be a valid request.
    Bad(BadRequest),
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadRequest {
    /// Malformed request line.
    Malformed,
    /// Method other than GET/HEAD.
    UnsupportedMethod,
    /// HTTP version other than 1.0/1.1.
    UnsupportedVersion,
}

impl fmt::Display for BadRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadRequest::Malformed => write!(f, "malformed request line"),
            BadRequest::UnsupportedMethod => write!(f, "unsupported method"),
            BadRequest::UnsupportedVersion => write!(f, "unsupported http version"),
        }
    }
}

/// Parses one request from the front of `buf`.
///
/// Returns [`ParseOutcome::Partial`] until the terminating blank line has
/// arrived, so callers can accumulate bytes across reads (the
/// `ReadRequest` handler's loop).
pub fn parse_request(buf: &[u8]) -> ParseOutcome {
    // Find the end of the header block.
    let Some(end) = find_subsequence(buf, b"\r\n\r\n") else {
        // A lone LF-LF is tolerated like many servers do.
        let Some(end) = find_subsequence(buf, b"\n\n") else {
            return ParseOutcome::Partial;
        };
        return parse_block(&buf[..end], end + 2);
    };
    parse_block(&buf[..end], end + 4)
}

fn parse_block(head: &[u8], consumed: usize) -> ParseOutcome {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split("\r\n").flat_map(|l| l.split('\n'));
    let Some(reqline) = lines.next() else {
        return ParseOutcome::Bad(BadRequest::Malformed);
    };
    let mut parts = reqline.split_ascii_whitespace();
    let (Some(m), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next()) else {
        return ParseOutcome::Bad(BadRequest::Malformed);
    };
    if parts.next().is_some() {
        return ParseOutcome::Bad(BadRequest::Malformed);
    }
    let method = match m {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        _ => return ParseOutcome::Bad(BadRequest::UnsupportedMethod),
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return ParseOutcome::Bad(BadRequest::UnsupportedVersion),
    };
    let mut keep_alive = keep_alive_default;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        if k.trim().eq_ignore_ascii_case("connection") {
            let v = v.trim();
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    ParseOutcome::Complete(
        Request {
            method,
            path: path.to_string(),
            keep_alive,
        },
        consumed,
    )
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Incremental, stateful request parser: one per connection.
///
/// Real sockets deliver bytes with no respect for message boundaries —
/// a request can arrive one byte at a time, and a pipelining client can
/// deliver several requests in one read. `RequestParser` owns the
/// connection's parse buffer: [`feed`](RequestParser::feed) appends
/// whatever the socket produced, [`next_request`](RequestParser::next_request)
/// yields complete requests one at a time (draining exactly the bytes
/// each consumed) until only a partial tail — or nothing — remains.
///
/// ```
/// use mely_http::RequestParser;
///
/// let mut p = RequestParser::new();
/// // Two pipelined requests, split mid-header across reads.
/// p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HT");
/// assert_eq!(p.next_request().unwrap().unwrap().path, "/a");
/// assert!(p.next_request().is_none(), "second request incomplete");
/// assert!(p.has_partial());
/// p.feed(b"TP/1.1\r\n\r\n");
/// assert_eq!(p.next_request().unwrap().unwrap().path, "/b");
/// assert!(!p.has_partial());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete request off the front of the buffer.
    ///
    /// `None` means *incomplete*: nothing buffered, or only a partial
    /// request ([`has_partial`](RequestParser::has_partial) tells which
    /// — the distinction decides whether an EOF here is clean or kills
    /// a request in flight). `Some(Err(_))` means the buffered bytes
    /// cannot be a request; the buffer is cleared, since the only sane
    /// continuation is a `400` and a close.
    pub fn next_request(&mut self) -> Option<Result<Request, BadRequest>> {
        match parse_request(&self.buf) {
            ParseOutcome::Complete(req, n) => {
                self.buf.drain(..n);
                Some(Ok(req))
            }
            ParseOutcome::Partial => None,
            ParseOutcome::Bad(why) => {
                self.buf.clear();
                Some(Err(why))
            }
        }
    }

    /// Whether a partial request sits in the buffer — an EOF now means
    /// the peer abandoned a request mid-flight, not a clean close.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// A prebuilt response: full wire bytes, shareable across handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    bytes: Arc<Vec<u8>>,
    status: u16,
    body_len: usize,
}

impl Response {
    /// Builds a `200 OK` response for `body`.
    pub fn ok(body: Vec<u8>) -> Self {
        Response::with_status(200, "OK", body)
    }

    /// Builds a response with an arbitrary status.
    pub fn with_status(status: u16, reason: &str, body: Vec<u8>) -> Self {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nServer: sws\r\nContent-Length: {}\r\nContent-Type: text/plain\r\n\r\n",
            body.len()
        );
        let mut bytes = head.into_bytes();
        let body_len = body.len();
        bytes.extend_from_slice(&body);
        Response {
            bytes: Arc::new(bytes),
            status,
            body_len,
        }
    }

    /// The canned `404 Not Found` response.
    pub fn not_found() -> Self {
        Response::with_status(404, "Not Found", b"not found".to_vec())
    }

    /// The canned `400 Bad Request` response.
    pub fn bad_request() -> Self {
        Response::with_status(400, "Bad Request", b"bad request".to_vec())
    }

    /// Full wire bytes (status line + headers + body).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Cheap clone of the wire bytes (shared `Arc`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes.as_ref().clone()
    }

    /// HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Body length in bytes.
    pub fn body_len(&self) -> usize {
        self.body_len
    }

    /// Total wire length in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Responses prebuilt at start-up, indexed by path (the Flash
/// optimization the paper's SWS uses; the `GetFromCache` handler is a
/// lookup in this map).
#[derive(Debug, Default)]
pub struct ResponseCache {
    map: HashMap<String, Response>,
}

impl ResponseCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prebuilds and stores the response for `path`.
    pub fn insert_file(&mut self, path: &str, content: Vec<u8>) {
        self.map.insert(path.to_string(), Response::ok(content));
    }

    /// Prebuilds `count` files named `/f<i>.bin` of `size` bytes each —
    /// the paper's workload of small static files.
    pub fn populate_uniform(&mut self, count: usize, size: usize) {
        for i in 0..count {
            let body = vec![b'a' + (i % 26) as u8; size];
            self.insert_file(&format!("/f{i}.bin"), body);
        }
    }

    /// Looks up the prebuilt response for `path`.
    pub fn lookup(&self, path: &str) -> Option<&Response> {
        self.map.get(path)
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_complete_get() {
        let raw = b"GET /a.html HTTP/1.1\r\nHost: x\r\n\r\n";
        let ParseOutcome::Complete(req, n) = parse_request(raw) else {
            panic!("expected complete");
        };
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/a.html");
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        assert_eq!(n, raw.len());
    }

    #[test]
    fn partial_until_blank_line() {
        assert_eq!(parse_request(b"GET / HT"), ParseOutcome::Partial);
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            ParseOutcome::Partial
        );
    }

    #[test]
    fn consumed_leaves_pipelined_bytes() {
        let raw = b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete(req, n) = parse_request(raw) else {
            panic!();
        };
        assert_eq!(req.path, "/1");
        let ParseOutcome::Complete(req2, _) = parse_request(&raw[n..]) else {
            panic!();
        };
        assert_eq!(req2.path, "/2");
    }

    #[test]
    fn connection_header_overrides_default() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(raw) else {
            panic!();
        };
        assert!(!req.keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(raw) else {
            panic!();
        };
        assert!(req.keep_alive);
    }

    #[test]
    fn http10_defaults_to_close() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(raw) else {
            panic!();
        };
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_bad_requests() {
        let cases: [(&[u8], BadRequest); 4] = [
            (b"BREW /pot HTTP/1.1\r\n\r\n", BadRequest::UnsupportedMethod),
            (b"GET / HTTP/2.0\r\n\r\n", BadRequest::UnsupportedVersion),
            (b"GET /\r\n\r\n", BadRequest::Malformed),
            (b"GET / HTTP/1.1 extra\r\n\r\n", BadRequest::Malformed),
        ];
        for (raw, why) in cases {
            assert_eq!(parse_request(raw), ParseOutcome::Bad(why), "{raw:?}");
        }
    }

    #[test]
    fn head_is_supported() {
        let raw = b"HEAD /x HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete(req, _) = parse_request(raw) else {
            panic!();
        };
        assert_eq!(req.method, Method::Head);
    }

    #[test]
    fn lf_only_requests_are_tolerated() {
        let raw = b"GET /lf HTTP/1.1\nHost: x\n\n";
        let ParseOutcome::Complete(req, n) = parse_request(raw) else {
            panic!();
        };
        assert_eq!(req.path, "/lf");
        assert_eq!(n, raw.len());
    }

    #[test]
    fn parser_handles_byte_at_a_time_delivery() {
        let raw = b"GET /slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, b) in raw.iter().enumerate() {
            assert!(
                p.next_request().is_none(),
                "no request before byte {i} arrived"
            );
            p.feed(std::slice::from_ref(b));
        }
        let req = p.next_request().expect("complete").expect("valid");
        assert_eq!(req.path, "/slow");
        assert!(!req.keep_alive);
        assert!(!p.has_partial(), "fully consumed");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn parser_drains_coalesced_pipelined_requests() {
        // Three requests land in one read, as a pipelining client or a
        // large socket buffer produces them.
        let mut p = RequestParser::new();
        p.feed(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n");
        let paths: Vec<String> = std::iter::from_fn(|| p.next_request())
            .map(|r| r.expect("valid").path)
            .collect();
        assert_eq!(paths, ["/1", "/2", "/3"]);
        assert!(!p.has_partial());
    }

    #[test]
    fn parser_keeps_partial_tail_across_feeds() {
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHo");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/a");
        assert!(p.next_request().is_none());
        assert!(p.has_partial(), "an EOF here would kill /b mid-request");
        p.feed(b"st: x\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/b");
        assert!(p.next_request().is_none());
        assert!(!p.has_partial(), "an EOF here is a clean close");
    }

    #[test]
    fn parser_surfaces_bad_requests_and_resets() {
        let mut p = RequestParser::new();
        p.feed(b"BREW /pot HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request(), Some(Err(BadRequest::UnsupportedMethod)));
        assert!(!p.has_partial(), "buffer cleared after a bad request");
        assert!(p.next_request().is_none());
    }

    #[test]
    fn responses_have_correct_framing() {
        let r = Response::ok(vec![b'z'; 1024]);
        assert_eq!(r.status(), 200);
        assert_eq!(r.body_len(), 1024);
        let s = String::from_utf8_lossy(r.bytes());
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 1024\r\n"));
        assert!(r.wire_len() > 1024);
        assert_eq!(Response::not_found().status(), 404);
        assert_eq!(Response::bad_request().status(), 400);
    }

    #[test]
    fn cache_prebuilds_uniform_files() {
        let mut c = ResponseCache::new();
        assert!(c.is_empty());
        c.populate_uniform(150, 1024);
        assert_eq!(c.len(), 150);
        let r = c.lookup("/f0.bin").unwrap();
        assert_eq!(r.body_len(), 1024);
        assert!(c.lookup("/f150.bin").is_none());
        assert!(c.lookup("/nope").is_none());
    }
}
