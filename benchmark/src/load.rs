//! The load model: a closed loop. Each client owns one keep-alive
//! connection and sends its next request only after the previous reply
//! has been read and hashed. Clients share one cursor into the
//! stream, so the requests sent are always a prefix of it. Replies are
//! compared with the reference after the phases
//! ([`crate::verify::judge`]); until then none counts as a success.

use crate::client::{find, render_request, Conn};
use crate::stream::{body_with_stages, Stream};
use crate::trace::Tracer;
use crate::verify::Outcome;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the stream's pool.
    pub pool_id: u32,
    pub outcome: Outcome,
    /// Response body bytes.
    pub bytes: u32,
    /// Send → last body byte: the latency every end-to-end number uses.
    pub latency_ns: u64,
    pub write_ns: u64,
    pub ttfb_ns: u64,
    pub read_body_ns: u64,
    pub verify_ns: u64,
    /// The response's own `elapsed_us` (traced `/cite` requests only).
    pub engine_us: Option<u64>,
}

/// When a phase stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Requests(usize),
}

#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// First send → last reply, seconds.
    pub wall_s: f64,
}

impl Phase {
    pub fn ok(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count()
    }

    pub fn failed(&self) -> usize {
        self.samples.len() - self.ok()
    }

    /// Verified-OK responses per second.
    pub fn rps(&self) -> f64 {
        self.ok() as f64 / self.wall_s
    }

    /// Ascending latencies of the verified-OK requests.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.latency_ns)
            .collect();
        out.sort_unstable();
        out
    }
}

/// `"key": <digits>` inside `text`.
fn number_after(text: &[u8], key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = find(text, needle.as_bytes())? + needle.len();
    let digits = text[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&text[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The stages the wire reports, outermost first; `plan` and `route`
/// run inside `evaluate`.
const OUTER_STAGES: [(&str, &str); 5] = [
    ("parse", "core.stage.parse"),
    ("evaluate", "core.stage.evaluate"),
    ("rewrite", "core.stage.rewrite"),
    ("extent", "core.stage.extent"),
    ("render", "core.stage.render"),
];
const INNER_STAGES: [(&str, &str); 2] =
    [("plan", "core.stage.plan"), ("route", "core.stage.route")];

/// Attach the response's own stage micros as children of the
/// time-to-first-byte span, laid end to end from its start.
fn stage_spans(tracer: &mut Tracer, tail: &[u8], ttfb: u32, request: u32) {
    let Some(at) = find(tail, b"\"stages\"") else {
        return;
    };
    let stages = &tail[at..];
    let mut cursor = tracer.start_ns(ttfb);
    for (key, name) in OUTER_STAGES {
        let Some(us) = number_after(stages, key) else {
            continue;
        };
        let id = tracer.span_ns(name, cursor, cursor + us * 1000, Some(ttfb), request);
        if key == "evaluate" {
            let mut inner = cursor;
            for (key, name) in INNER_STAGES {
                if let Some(us) = number_after(stages, key) {
                    tracer.span_ns(name, inner, inner + us * 1000, Some(id), request);
                    inner += us * 1000;
                }
            }
        }
        cursor += us * 1000;
    }
}

struct Client<'a> {
    stream: &'a Stream,
    cursor: &'a AtomicUsize,
    until: Until,
}

impl Client<'_> {
    /// The closed loop of one client. With a tracer, requests carry an
    /// `x-request-id` (and `"stages": true` where the route takes it)
    /// and every request leaves its spans.
    fn run(
        &self,
        addr: SocketAddr,
        ready: &Barrier,
        mut tracer: Option<&mut Tracer>,
    ) -> (Vec<Sample>, Instant, Instant) {
        let mut conn = Conn::connect(addr);
        let mut samples = Vec::with_capacity(1 << 16);
        let mut wire = Vec::new();
        ready.wait();
        let begun = Instant::now();
        let stop_at = match self.until {
            Until::Elapsed(d) => Some(begun + d),
            Until::Requests(_) => None,
        };
        let mut last = begun;
        loop {
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            let position = self.cursor.fetch_add(1, Ordering::Relaxed);
            if let Until::Requests(n) = self.until {
                if position >= n {
                    break;
                }
            }
            let (pool_id, request) = self.stream.at(position);
            let path = self.stream.workload.path();
            let bytes: &[u8] = if tracer.is_some() {
                let rid = format!("b{position}");
                let staged;
                let body = if path == "/cite" {
                    staged = body_with_stages(request);
                    &staged
                } else {
                    &request.body
                };
                render_request(path, &[("x-request-id", &rid)], body, &mut wire);
                &wire
            } else {
                &request.wire
            };

            let start = Instant::now();
            let reply = match &mut conn {
                Ok(conn) => conn.send(bytes),
                Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            };
            let received = Instant::now();
            let mut sample = Sample {
                pool_id: pool_id as u32,
                outcome: Outcome::Transport,
                bytes: 0,
                latency_ns: 0,
                write_ns: 0,
                ttfb_ns: 0,
                read_body_ns: 0,
                verify_ns: 0,
                engine_us: None,
            };
            match reply {
                Ok(reply) => {
                    let body = conn.as_ref().expect("replied").body(&reply);
                    sample.outcome = Outcome::of_reply(reply.status, body);
                    let verified = Instant::now();
                    sample.bytes = body.len() as u32;
                    sample.latency_ns = (reply.done - start).as_nanos() as u64;
                    sample.write_ns = (reply.written - start).as_nanos() as u64;
                    sample.ttfb_ns = (reply.first_byte - reply.written).as_nanos() as u64;
                    sample.read_body_ns = (reply.done - reply.first_byte).as_nanos() as u64;
                    sample.verify_ns = (verified - reply.done).as_nanos() as u64;
                    if let Some(tracer) = tracer.as_deref_mut() {
                        let tail = &body[body.len().saturating_sub(1024)..];
                        sample.engine_us = number_after(tail, "elapsed_us");
                        let id = position as u32;
                        let root = tracer.span("load.request", start, verified, None, id);
                        tracer.span("load.write", start, reply.written, Some(root), id);
                        let ttfb = tracer.span(
                            "load.ttfb",
                            reply.written,
                            reply.first_byte,
                            Some(root),
                            id,
                        );
                        tracer.span(
                            "load.read_body",
                            reply.first_byte,
                            reply.done,
                            Some(root),
                            id,
                        );
                        tracer.span("load.verify", reply.done, verified, Some(root), id);
                        stage_spans(tracer, tail, ttfb, id);
                    }
                    last = verified;
                }
                Err(_) => {
                    // the connection's framing is lost: reconnect, so
                    // one failure costs one operation
                    sample.latency_ns = (received - start).as_nanos() as u64;
                    conn = Conn::connect(addr);
                    last = received;
                }
            }
            samples.push(sample);
        }
        (samples, begun, last)
    }
}

/// Run one phase: `clients` closed-loop clients against `addr`,
/// starting together, drawing stream positions from `cursor`.
pub fn run_phase(
    addr: SocketAddr,
    clients: usize,
    stream: &Stream,
    cursor: &AtomicUsize,
    until: Until,
    tracer: Option<&mut Tracer>,
) -> Phase {
    assert!(
        tracer.is_none() || clients == 1,
        "the traced pass is single-client"
    );
    let client = Client {
        stream,
        cursor,
        until,
    };
    let ready = Barrier::new(clients);
    let runs: Vec<(Vec<Sample>, Instant, Instant)> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..clients)
            .map(|_| scope.spawn(|| client.run(addr, &ready, None)))
            .collect();
        let mut runs = vec![client.run(addr, &ready, tracer)];
        runs.extend(others.into_iter().map(|h| h.join().expect("client thread")));
        runs
    });
    let begun = runs.iter().map(|r| r.1).min().expect("at least one client");
    let ended = runs.iter().map(|r| r.2).max().expect("at least one client");
    Phase {
        samples: runs.into_iter().flat_map(|r| r.0).collect(),
        wall_s: (ended - begun).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Class, Request, Workload};
    use crate::verify::Expected;
    use std::io::{BufRead, BufReader, Read, Write};

    /// A one-request stream and a listener that answers it four ways:
    /// right, one byte flipped, 503, and by hanging up.
    #[test]
    fn each_kind_of_wrong_answer_is_one_failed_operation() {
        let good = br#"{"tuples": [], "aggregate": {"ID": "f1"}, "elapsed_us": 5}"#.to_vec();
        let mut flipped = good.clone();
        flipped[3] ^= 0x20;
        let answers = [(200, good.clone()), (200, flipped), (503, good.clone())];

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // first connection: three answers, then a hang-up mid-request;
            // second connection (the client's reconnect): one good answer
            for answers in [&answers[..], &answers[..1]] {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                for (status, body) in answers {
                    let mut length = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if let Some(v) = line.strip_prefix("Content-Length:") {
                            length = v.trim().parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    reader.read_exact(&mut vec![0; length]).unwrap();
                    write!(
                        writer,
                        "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .unwrap();
                    writer.write_all(body).unwrap();
                }
            }
        });

        let mut wire = Vec::new();
        render_request("/cite", &[], "{}", &mut wire);
        let stream = Stream {
            workload: Workload::Lookup,
            pool: vec![Request {
                query: String::new(),
                version: None,
                class: Class::Keyed,
                body: "{}".into(),
                wire,
            }],
            order: vec![0; 5],
        };
        let phase = run_phase(
            addr,
            1,
            &stream,
            &AtomicUsize::new(0),
            Until::Requests(5),
            None,
        );
        server.join().unwrap();
        // nothing is a success before it is judged
        assert_eq!((phase.ok(), phase.failed()), (0, 5));
        let expected = Expected::of(&good);
        let outcomes: Vec<Outcome> = phase
            .samples
            .iter()
            .map(|s| s.outcome.judged(&expected))
            .collect();
        assert_eq!(
            outcomes,
            [
                Outcome::Ok,
                Outcome::Mismatch,
                Outcome::Status(503),
                Outcome::Transport,
                Outcome::Ok
            ]
        );
    }

    #[test]
    fn reads_numbers_out_of_a_response_tail() {
        let tail = br#"false, "elapsed_us": 812, "cache_hits": 4, "cache_misses": 0, "stages": {"parse": 3, "plan": 0, "evaluate": 41, "render": 700}}"#;
        assert_eq!(number_after(tail, "elapsed_us"), Some(812));
        assert_eq!(number_after(tail, "render"), Some(700));
        assert_eq!(number_after(tail, "extent"), None);
    }

    #[test]
    fn stage_micros_become_children_of_ttfb() {
        let tail = br#""elapsed_us": 60, "stages": {"parse": 5, "plan": 2, "route": 1, "evaluate": 30, "rewrite": 10, "render": 15}}"#;
        let mut tracer = Tracer::new(16);
        let root = tracer.span_ns("load.request", 0, 100_000, None, 9);
        let ttfb = tracer.span_ns("load.ttfb", 1_000, 90_000, Some(root), 9);
        stage_spans(&mut tracer, tail, ttfb, 9);
        let self_times = tracer.self_times();
        assert_eq!(self_times["core.stage.evaluate"], (1, 27_000));
        assert_eq!(self_times["core.stage.plan"], (1, 2_000));
        assert_eq!(self_times["load.ttfb"], (1, 89_000 - 60_000));
        assert_eq!(tracer.durations("core.stage.render"), [15_000]);
    }
}
