//! A minimal blocking HTTP/1.1 client for the integration tests, the
//! load generator, and the examples.
//!
//! One [`Client`] owns one keep-alive connection; `get`/`post` return
//! the status code, headers, and body. This is intentionally tiny —
//! it speaks exactly the dialect [`crate::http`] emits
//! (Content-Length framed bodies, `Connection: keep-alive|close`).

use crate::http::{push_headers, write_message};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Response header `(name, value)` pairs, names lowercased —
    /// how the `x-request-id` echo is observed.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First value of a response header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Cap on a response body the client will buffer. Large
/// enough for any citation payload this service emits, small enough
/// that a hostile or corrupted `Content-Length` cannot demand a
/// multi-gigabyte allocation before a single body byte arrives.
pub const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Send one request: the head is formatted into one buffer and leaves
/// with the body in a single vectored write.
fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: fgcite\r\n");
    push_headers(&mut head, extra_headers);
    if let Some(body) = body {
        head.push_str("Content-Type: application/json\r\nContent-Length: ");
        head.push_str(&body.len().to_string());
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    write_message(stream, head.as_bytes(), body.unwrap_or_default().as_bytes())
}

/// A keep-alive connection to the citation service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Replace the connection's read timeout (the default is 30 s; a
    /// coordinator sets its per-replica budget here).
    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Issue a `GET`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issue a `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Issue a request and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, path, body, &[])
    }

    /// [`Self::request`] with extra request headers — how a
    /// coordinator propagates `x-request-id` on the cites it forwards.
    /// Header names/values must already be valid HTTP field text.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        write_request(self.reader.get_mut(), method, path, body, extra_headers)?;
        self.read_response()
    }

    /// Send raw bytes (for malformed-input tests) and try to read
    /// whatever response comes back.
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<ClientResponse> {
        self.reader.get_mut().write_all(raw)?;
        self.reader.get_mut().flush()?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line `{status_line}`"),
                )
            })?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                headers.push((name, value));
            }
        }
        // The declared length is untrusted input: refuse it before
        // allocating (a structured `InvalidData` error), naming both
        // sides of the comparison.
        if content_length > MAX_RESPONSE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "response Content-Length {content_length} exceeds the \
                     {MAX_RESPONSE_BYTES}-byte client cap"
                ),
            ));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 body"))?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWrite;

    #[test]
    fn a_request_leaves_in_one_write_with_unchanged_framing() {
        for size in [0, 1024, 2 << 20] {
            let body = "y".repeat(size);
            let mut out = CountingWrite::default();
            write_request(
                &mut out,
                "POST",
                "/cite",
                Some(&body),
                &[("x-request-id", "r-2")],
            )
            .unwrap();
            assert_eq!(out.writes, 1, "{size} B body");
            let expected = format!(
                "POST /cite HTTP/1.1\r\nHost: fgcite\r\nx-request-id: r-2\r\n\
                 Content-Type: application/json\r\nContent-Length: {size}\r\n\r\n{body}"
            );
            assert!(out.bytes == expected.as_bytes(), "{size} B body");
        }
        // a bodiless request carries no entity headers
        let mut out = CountingWrite::default();
        write_request(&mut out, "GET", "/healthz", None, &[]).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"GET /healthz HTTP/1.1\r\nHost: fgcite\r\n\r\n");
    }
}
