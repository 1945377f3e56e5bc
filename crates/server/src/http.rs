//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Just enough of RFC 9112 for the citation service and its load
//! generator: request-line + header parsing with hard size limits,
//! `Content-Length` bodies, keep-alive/`Connection: close`
//! negotiation, and response serialization. Anything outside the
//! accepted subset maps to a 4xx [`HttpError`] rather than a panic or
//! a wedged read — the workers recycle the connection and move on.

use std::io::{self, BufRead, IoSlice, Write};
use std::time::{Duration, Instant};

/// Hard cap on the request line plus all header lines, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum number of header lines accepted.
pub const MAX_HEADERS: usize = 64;

/// Request header carrying the caller's end-to-end deadline budget in
/// milliseconds. The front door clamps it to the configured maximum
/// (or assigns the default when absent), and a coordinator passes the
/// budget that is left on to each replica it tries; an exhausted
/// budget is a structured 504, never a hang.
pub const DEADLINE_HEADER: &str = "x-deadline-ms";

/// Resolve a request's end-to-end deadline: the `x-deadline-ms`
/// header clamped to `max`, or `default` when absent or unparseable.
pub fn deadline_from(request: &HttpRequest, default: Duration, max: Duration) -> Instant {
    let requested = request
        .header(DEADLINE_HEADER)
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(default);
    Instant::now() + requested.min(max)
}

/// Milliseconds left until `deadline` (0 when already past).
pub fn remaining_ms(deadline: Instant) -> u64 {
    deadline
        .saturating_duration_since(Instant::now())
        .as_millis() as u64
}

/// A parsed request head plus its body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request target path (query strings are not interpreted).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 defaults to keep-alive).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. Carries the status line the
/// server should answer with (when the connection is still usable
/// enough to answer at all).
#[derive(Debug)]
pub enum HttpError {
    /// Clean end of stream before any request byte: not an error,
    /// the peer just closed an idle connection.
    Closed,
    /// The stream timed out or failed mid-request.
    Io(io::Error),
    /// Syntactically invalid or unsupported request → 400.
    BadRequest(String),
    /// A body-bearing method without a `Content-Length` header → 411.
    /// (Without a declared length the server would silently read an
    /// empty body and answer a misleading parse error.)
    LengthRequired,
    /// Body larger than the configured limit → 413.
    PayloadTooLarge(usize),
    /// The cumulative header-read deadline elapsed before the blank
    /// line → 408. Bounds slow-drip clients that defeat the per-read
    /// socket timeout by trickling one byte at a time.
    HeaderTimeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
            HttpError::HeaderTimeout => write!(f, "request head not completed in time"),
        }
    }
}

impl std::error::Error for HttpError {}

fn read_line_limited(
    reader: &mut impl BufRead,
    budget: &mut usize,
    deadline: Option<Instant>,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::BadRequest("truncated request head".into()));
            }
            Ok(_) => {
                // Checked per byte received: a client trickling bytes
                // resets the per-read socket timeout every time, so
                // only a cumulative clock bounds the whole head.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(HttpError::HeaderTimeout);
                }
                if *budget == 0 {
                    return Err(HttpError::BadRequest("request head too large".into()));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::BadRequest("non-utf8 request head".into()));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Read one request from the stream. `Err(Closed)` means the peer
/// hung up between requests (normal keep-alive teardown); every other
/// error names the 4xx the caller should send.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<HttpRequest, HttpError> {
    read_request_with_deadline(reader, max_body_bytes, None)
}

/// [`read_request`] with a cumulative wall-clock deadline on the
/// request head. The per-read socket timeout bounds each individual
/// `read`; this bounds their sum, so a slow-drip client is answered
/// with [`HttpError::HeaderTimeout`] (408) instead of holding a
/// worker for `timeout × head_bytes`.
pub fn read_request_with_deadline(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
    head_deadline: Option<Instant>,
) -> Result<HttpRequest, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line_limited(reader, &mut budget, head_deadline)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::BadRequest("malformed request line".into())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(reader, &mut budget, head_deadline)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "transfer-encoding not supported; send Content-Length".into(),
        ));
    }
    let length = match request.header("content-length") {
        // every POST this service routes carries a JSON body: an
        // absent header is indistinguishable from an empty body and
        // used to surface as a confusing parse error — answer 411
        // Length Required (RFC 9110 §8.6). Other methods legitimately
        // send no body and proceed to routing (404/405 as usual).
        None if request.method == "POST" => return Err(HttpError::LengthRequired),
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("invalid Content-Length".into()))?,
    };
    if length > max_body_bytes {
        return Err(HttpError::PayloadTooLarge(length));
    }
    let mut body = vec![0u8; length];
    if length > 0 {
        match reader.read_exact(&mut body) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(HttpError::BadRequest("truncated body".into()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(HttpRequest { body, ..request })
}

/// Reason phrase for the handful of statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serialize one response. `keep_alive` controls the `Connection`
/// header; bodies are always `Content-Length`-framed JSON.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(stream, status, body, keep_alive, "application/json", &[])
}

/// [`write_response`] with an explicit `Content-Type` and extra
/// response headers (e.g. the `x-request-id` echo; `/metrics` bodies
/// are `text/plain`). Header names/values must already be valid HTTP
/// field text. The head is formatted into one buffer and leaves with
/// the body in a single vectored write.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    push_headers(&mut head, extra_headers);
    head.push_str("\r\n");
    write_message(stream, head.as_bytes(), body.as_bytes())
}

/// Append `name: value` header lines to a message head.
pub(crate) fn push_headers(head: &mut String, headers: &[(&str, &str)]) {
    for (name, value) in headers {
        for part in [name, ": ", value, "\r\n"] {
            head.push_str(part);
        }
    }
}

/// Send one HTTP message: `head` and `body` go out together through
/// vectored writes, so a stream that takes the whole message (a
/// socket with room in its send buffer) sees exactly one `write`
/// call, and the body is never copied. On a `TCP_NODELAY` socket that
/// is one segment train instead of a small packet per header line.
pub(crate) fn write_message(stream: &mut impl Write, head: &[u8], body: &[u8]) -> io::Result<()> {
    let mut parts = [IoSlice::new(head), IoSlice::new(body)];
    let mut unsent = &mut parts[..];
    // drop an empty body up front
    IoSlice::advance_slices(&mut unsent, 0);
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole message",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /cite HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/cite");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn empty_stream_reports_closed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
    }

    #[test]
    fn truncated_head_and_body_are_bad_requests() {
        assert!(matches!(
            parse("POST /cite HTTP/1.1\r\nContent-Le"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST /cite HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn post_without_content_length_is_411() {
        // regression: an absent Content-Length was read as an empty
        // body and answered with a confusing JSON parse error
        assert!(matches!(
            parse("POST /cite HTTP/1.1\r\nHost: x\r\n\r\n{\"query\": \"Q\"}"),
            Err(HttpError::LengthRequired)
        ));
        // non-POST methods legitimately carry no body: they parse
        // (and get routed to 404/405 later) instead of 411
        for head in ["GET /stats HTTP/1.1\r\n\r\n", "PUT /cite HTTP/1.1\r\n\r\n"] {
            let req = parse(head).unwrap();
            assert!(req.body.is_empty(), "{head}");
        }
        assert_eq!(reason(411), "Length Required");
    }

    #[test]
    fn transfer_encoding_is_still_rejected_4xx() {
        // chunked framing is unsupported; the 400 must fire even
        // though the request also lacks a Content-Length
        assert!(matches!(
            parse("POST /cite HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_body_is_413() {
        assert!(matches!(
            parse("POST /cite HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::PayloadTooLarge(9999))
        ));
    }

    #[test]
    fn garbage_request_line_is_rejected() {
        assert!(matches!(
            parse("nonsense\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn header_deadline_cuts_off_a_slow_head() {
        // An already-expired deadline fires on the first byte.
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let err = read_request_with_deadline(
            &mut BufReader::new(raw.as_bytes()),
            1024,
            Some(Instant::now() - Duration::from_millis(1)),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::HeaderTimeout), "{err}");
        assert_eq!(reason(408), "Request Timeout");
        // A generous deadline leaves a normal request untouched.
        let req = read_request_with_deadline(
            &mut BufReader::new(raw.as_bytes()),
            1024,
            Some(Instant::now() + Duration::from_secs(5)),
        )
        .unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn deadline_header_is_parsed_clamped_and_defaulted() {
        let with = |value: &str| HttpRequest {
            method: "POST".into(),
            path: "/cite".into(),
            headers: vec![(DEADLINE_HEADER.into(), value.into())],
            body: Vec::new(),
        };
        let default = Duration::from_secs(30);
        let max = Duration::from_secs(300);
        // header honored
        let d = deadline_from(&with("1000"), default, max);
        let ms = remaining_ms(d);
        assert!((900..=1000).contains(&ms), "{ms}");
        // clamped to max
        let d = deadline_from(&with("999999999"), default, max);
        assert!(remaining_ms(d) <= 300_000);
        // absent or garbage → default
        for req in [
            with("not-a-number"),
            parse("GET / HTTP/1.1\r\n\r\n").unwrap(),
        ] {
            let d = deadline_from(&req, default, max);
            let ms = remaining_ms(d);
            assert!((29_000..=30_000).contains(&ms), "{ms}");
        }
        // zero budget → already exhausted
        assert_eq!(remaining_ms(deadline_from(&with("0"), default, max)), 0);
        assert_eq!(reason(504), "Gateway Timeout");
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    /// A stream that takes every byte it is offered and counts the
    /// `write` calls it took them in.
    #[derive(Default)]
    pub(crate) struct CountingWrite {
        pub bytes: Vec<u8>,
        pub writes: usize,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A stream that takes at most `limit` bytes per call, like a
    /// socket whose send buffer is nearly full.
    struct Trickle {
        bytes: Vec<u8>,
        limit: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.limit);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write_with_unchanged_framing() {
        for size in [0, 1024, 2 << 20] {
            let body = "x".repeat(size);
            let mut out = CountingWrite::default();
            write_response_with(
                &mut out,
                200,
                &body,
                true,
                "application/json",
                &[("x-request-id", "r-1")],
            )
            .unwrap();
            assert_eq!(out.writes, 1, "{size} B body");
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {size}\r\nConnection: keep-alive\r\n\
                 x-request-id: r-1\r\n\r\n{body}"
            );
            assert!(out.bytes == expected.as_bytes(), "{size} B body");
        }
    }

    #[test]
    fn a_short_writing_stream_still_gets_the_whole_message() {
        let body = "0123456789".repeat(100);
        let mut whole = Vec::new();
        write_response(&mut whole, 400, &body, false).unwrap();
        for limit in [1, 7, 64, 4096] {
            let mut out = Trickle {
                bytes: Vec::new(),
                limit,
            };
            write_response(&mut out, 400, &body, false).unwrap();
            assert!(out.bytes == whole, "limit {limit}");
        }
    }

    #[test]
    fn extra_headers_land_before_the_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "ok",
            false,
            "text/plain; version=0.0.4",
            &[("x-request-id", "abc-123")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("x-request-id: abc-123\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("x-request-id").unwrap() < head_end);
        assert!(text.ends_with("ok"));
    }
}
