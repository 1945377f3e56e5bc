//! Spans recorded from outside the program, in the benchmark's files
//! only: name, start, end, parent, request id. Held in memory and
//! written out once at exit. Timers inside the program are a later
//! issue.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Position of the request in the stream; spans of one request
    /// share it.
    pub request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span between two instants.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u32,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(name, start_ns, end_ns.max(start_ns), parent, request)
    }

    /// Record a span the program reported as a duration (the wire's
    /// stage micros), laid out from `start_ns`.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now(), parent, request);
        out
    }

    pub fn start_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize].start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Close a span that was recorded before its children.
    pub fn set_end(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its children cover, summed over spans of that name. Returns
    /// `(count, total self ns)` per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Write every span and the self-time summary as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time\": {{"
        )?;
        for (i, (name, (count, ns))) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"spans\": {count}, \"self_ns\": {ns}}}"
            )?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{sep}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(8);
        let request = tracer.span_ns("load.request", 0, 100, None, 7);
        let ttfb = tracer.span_ns("load.ttfb", 10, 80, Some(request), 7);
        tracer.span_ns("core.stage.evaluate", 10, 40, Some(ttfb), 7);
        tracer.span_ns("core.stage.render", 40, 60, Some(ttfb), 7);
        tracer.span_ns("load.read_body", 80, 95, Some(request), 7);
        let self_times = tracer.self_times();
        assert_eq!(self_times["load.request"], (1, 100 - 70 - 15));
        assert_eq!(self_times["load.ttfb"], (1, 70 - 30 - 20));
        assert_eq!(self_times["core.stage.render"], (1, 20));
        assert_eq!(tracer.durations("load.ttfb"), [70]);
    }

    #[test]
    fn the_span_file_carries_parents_and_request_ids() {
        let mut tracer = Tracer::new(2);
        let root = tracer.span_ns("load.request", 5, 50, None, 3);
        tracer.span_ns("load.write", 5, 9, Some(root), 3);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        tracer.write_json(&path, "lookup", 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = fgc_server::parse_json(&text).expect("span file is JSON");
        let fgc_views::Json::Array(spans) = doc.get("spans").unwrap() else {
            panic!("spans is an array");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&fgc_views::Json::Int(0)));
        assert_eq!(spans[1].get("request"), Some(&fgc_views::Json::Int(3)));
        assert_eq!(spans[0].get("parent"), Some(&fgc_views::Json::Null));
    }
}
