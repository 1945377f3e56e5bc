//! The benchmark's own HTTP/1.1 keep-alive client: one connection, one
//! reusable buffer, and the three timestamps the load model needs
//! (request written, first response byte, last response byte). It
//! speaks only what the benchmark sends and the service answers —
//! `Content-Length`-framed bodies — and shares no code with
//! `fgc_server::Client`, so a change there cannot move a measurement.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Refuse to buffer a response larger than this (the largest body any
/// workload produces is ≈ 2.4 MB).
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// How long a reply may take before the request counts as a transport
/// failure instead of hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Raw storage for the current response; `filled` bytes are valid.
    buf: Vec<u8>,
    filled: usize,
}

/// Where a response sits in the connection's buffer, and when its
/// bytes moved.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    body_start: usize,
    body_end: usize,
    /// The request was handed to the kernel.
    pub written: Instant,
    /// The first response byte arrived.
    pub first_byte: Instant,
    /// The last body byte arrived.
    pub done: Instant,
}

/// Serialize one request. Head and body go out in a single write, so
/// the program never sees a request split across segments by the
/// harness.
pub fn render_request(path: &str, extra_headers: &[(&str, &str)], body: &str, out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(out, "POST {path} HTTP/1.1\r\nHost: fgcite\r\n");
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    let _ = write!(
        out,
        "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            filled: 0,
        })
    }

    /// Send pre-rendered request bytes and read the whole response
    /// into the connection's buffer.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        let written = Instant::now();
        self.filled = 0;
        let mut first_byte = None;

        // head: read until the blank line
        let head_end = loop {
            if let Some(end) = find(&self.buf[..self.filled], b"\r\n\r\n") {
                break end + 4;
            }
            if self.filled == self.buf.len() {
                if self.filled > 64 * 1024 {
                    return Err(invalid("response head exceeds 64 KiB"));
                }
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.filled..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.filled += n;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|line| line.split_ascii_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let length: usize = lines
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
            .ok_or_else(|| invalid("response without Content-Length"))?
            .1
            .trim()
            .parse()
            .map_err(|_| invalid("bad Content-Length"))?;
        if length > MAX_RESPONSE_BYTES {
            return Err(invalid(format!(
                "response of {length} bytes exceeds the client cap"
            )));
        }

        // body: the head read may already hold part of it
        let body_end = head_end + length;
        if self.filled > body_end {
            return Err(invalid("bytes after the declared body"));
        }
        if self.buf.len() < body_end {
            self.buf.resize(body_end, 0);
        }
        self.stream
            .read_exact(&mut self.buf[self.filled..body_end])?;
        self.filled = body_end;
        let done = Instant::now();
        Ok(Reply {
            status,
            body_start: head_end,
            body_end,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }

    /// The body of the most recent reply.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..reply.body_end]
    }
}

/// First position of `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A listener that answers each request on one connection with the
    /// next canned response, written in `chunk`-byte pieces.
    fn serve(
        responses: Vec<Vec<u8>>,
        chunk: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut bodies = Vec::new();
            for response in responses {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                bodies.push(String::from_utf8(body).unwrap());
                for piece in response.chunks(chunk) {
                    writer.write_all(piece).unwrap();
                    writer.flush().unwrap();
                }
            }
            bodies
        });
        (addr, handle)
    }

    fn response(status: u16, body: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\ncontent-LENGTH: {}\r\nx-request-id: r1\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn frames_keep_alive_responses_including_a_2_mb_body() {
        let big: Vec<u8> = (0..2 * 1024 * 1024)
            .map(|i| b'a' + (i % 26) as u8)
            .collect();
        let (addr, server) = serve(
            vec![
                response(200, b"{\"a\": 1}"),
                response(200, &big),
                response(503, b"{}"),
            ],
            7919, // a prime, so chunks straddle head/body boundaries
        );
        let mut conn = Conn::connect(addr).unwrap();
        let mut request = Vec::new();

        render_request(
            "/cite",
            &[("x-request-id", "b1")],
            "{\"query\": \"one\"}",
            &mut request,
        );
        let reply = conn.send(&request).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(conn.body(&reply), b"{\"a\": 1}");
        assert!(reply.written <= reply.first_byte && reply.first_byte <= reply.done);

        render_request("/cite", &[], "two", &mut request);
        let reply = conn.send(&request).unwrap();
        assert_eq!(reply.status, 200);
        assert!(conn.body(&reply) == big.as_slice());

        render_request("/cite", &[], "three", &mut request);
        let reply = conn.send(&request).unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(conn.body(&reply), b"{}");

        assert_eq!(
            server.join().unwrap(),
            ["{\"query\": \"one\"}", "two", "three"]
        );
    }

    #[test]
    fn a_truncated_body_is_a_transport_error() {
        let mut short = response(200, b"0123456789");
        short.truncate(short.len() - 4);
        let (addr, server) = serve(vec![short], 1024);
        let mut conn = Conn::connect(addr).unwrap();
        let mut request = Vec::new();
        render_request("/cite", &[], "x", &mut request);
        let err = conn.send(&request).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }

    #[test]
    fn a_response_without_a_length_is_refused() {
        let (addr, server) = serve(vec![b"HTTP/1.1 200 OK\r\n\r\n".to_vec()], 1024);
        let mut conn = Conn::connect(addr).unwrap();
        let mut request = Vec::new();
        render_request("/cite", &[], "x", &mut request);
        assert_eq!(
            conn.send(&request).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        server.join().unwrap();
    }
}
