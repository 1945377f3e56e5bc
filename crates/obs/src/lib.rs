//! Dependency-free observability primitives for the fgcite stack.
//!
//! The serving tier (single-process server, replicas, coordinator)
//! needs to answer three questions under load: *how slow is the
//! tail* (not the mean), *where does the time go inside one cite*
//! (parse vs plan vs evaluate vs rewrite vs render), and *which
//! request was that* across the coordinator→replica hop. This crate
//! supplies the shared primitives, std-only so every crate in the
//! workspace can use them without pulling a dependency:
//!
//! - [`Histogram`] — a lock-free, log-bucketed latency histogram
//!   (64 power-of-two buckets). `record` is wait-free (three relaxed
//!   atomic ops), quantiles are computed on read from a consistent
//!   [`HistogramSnapshot`]. Any recorded quantile is within a factor
//!   of two of the exact order statistic.
//! - [`StageSet`] — a fixed set of named per-stage histograms with a
//!   [`StageSet::time`] closure wrapper that records the stage
//!   histogram and returns the measurement, so a per-request
//!   breakdown is a value its caller builds from the same samples.
//! - [`PromWriter`] — Prometheus text-format (0.0.4) exposition for
//!   counters, gauges, and histogram buckets.
//! - [`SlowLog`] — a bounded ring of the top-K slowest requests with
//!   their stage breakdowns, surfaced at `GET /debug/slow`.
//! - [`next_request_id`] — cheap unique-enough request IDs for the
//!   `x-request-id` front-door convention.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of buckets in a [`Histogram`]: one per power of two of a
/// `u64`, plus a zero bucket and a saturation bucket.
pub const BUCKETS: usize = 64;

/// Bucket index for a recorded value: bucket 0 holds exact zeros,
/// bucket `i` (1 ≤ i ≤ 62) holds `2^(i-1) ..= 2^i - 1`, and bucket 63
/// saturates everything at or above `2^62`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` edge).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// A lock-free, log-bucketed histogram of `u64` samples (typically
/// latencies in nanoseconds or microseconds).
///
/// [`record`](Self::record) is wait-free — one `fetch_add` on the
/// bucket, one on the running sum, one `fetch_max` — so it is safe on
/// the hottest serving paths. Reads take a [`snapshot`](Self::snapshot)
/// and derive count/mean/quantiles from it; because each recorded
/// sample stays inside its power-of-two bucket, any reported quantile
/// is within a factor of two of the exact order statistic.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .field("max", &snap.max)
            .finish()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let out = Histogram::new();
        for (i, b) in self.buckets.iter().enumerate() {
            out.buckets[i].store(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out.sum
            .store(self.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        out.max
            .store(self.max.load(Ordering::Relaxed), Ordering::Relaxed);
        out
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free; safe from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in microseconds.
    pub fn record_micros(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record a duration in nanoseconds.
    pub fn record_nanos(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy for quantile/exposition reads. The copy
    /// is relaxed (buckets are read one by one under concurrent
    /// writes) but internally consistent enough for monitoring: every
    /// counted sample was really recorded.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Convenience quantile straight off the live histogram; `p` in
    /// `[0, 1]`.
    pub fn quantile(&self, p: f64) -> u64 {
        self.snapshot().quantile(p)
    }
}

/// A point-in-time copy of a [`Histogram`], from which count, mean,
/// quantiles, and Prometheus bucket series are derived.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample, 0 when empty. Count and sum come from the same
    /// snapshot, so a racing `record` between the loads cannot
    /// produce the torn mean the old per-field counters could.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The `p`-quantile (`p` in `[0, 1]`; NaN reads as 0, out-of-range
    /// values clamp). Finds the bucket holding the ⌈p·n⌉-th smallest
    /// sample and interpolates linearly inside it; the result is
    /// bounded by the bucket edges, hence within 2× of the exact
    /// order statistic, and `quantile(1.0)` is clamped to the true
    /// observed maximum.
    pub fn quantile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
        let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let c = self.buckets[i];
            if c > 0 && cum + c >= rank {
                let lower = bucket_lower(i);
                let upper = bucket_upper(i).min(self.max.max(lower));
                let pos = (rank - cum - 1) as f64; // 0-based within bucket
                let frac = if c <= 1 { 1.0 } else { pos / (c - 1) as f64 };
                let step = ((upper - lower) as f64 * frac) as u64;
                return lower.saturating_add(step).min(upper);
            }
            cum += c;
        }
        self.max
    }

    /// Cumulative `(le, count)` pairs over the non-empty buckets, for
    /// Prometheus exposition. The final implicit `+Inf` bucket equals
    /// [`count`](Self::count).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            if self.buckets[i] > 0 {
                cum += self.buckets[i];
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Stage sets
// ---------------------------------------------------------------------------

/// The cite pipeline stages, in the order `/metrics` lists them (a
/// request's own breakdown lists them in the order they first ran:
/// parse, rewrite, plan, evaluate, extent, build, render). `evaluate`
/// wraps the whole answer evaluation, so on a serving engine it
/// *contains* the `plan` sub-span recorded beneath it.
pub const CITE_STAGES: &[&str] = &[
    "parse", "plan", "evaluate", "rewrite", "extent", "build", "render",
];

/// A fixed set of named stage histograms (nanosecond samples).
///
/// [`time`](Self::time) wraps a closure, records its elapsed time
/// into the stage's histogram and hands that time back, so a caller
/// that also keeps a per-request breakdown adds the same measurement
/// to it.
#[derive(Debug)]
pub struct StageSet {
    stages: Vec<(&'static str, Histogram)>,
}

impl StageSet {
    /// A stage set over the given names (e.g. [`CITE_STAGES`]).
    pub fn new(names: &[&'static str]) -> Self {
        StageSet {
            stages: names.iter().map(|n| (*n, Histogram::new())).collect(),
        }
    }

    /// Run `f`, recording its wall-clock time under `stage`; returns
    /// `f`'s value with that time.
    pub fn time<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.record(stage, elapsed);
        (out, elapsed)
    }

    /// Record an already-measured duration under `stage`. Unknown
    /// stages are ignored.
    pub fn record(&self, stage: &'static str, elapsed: Duration) {
        if let Some((_, h)) = self.stages.iter().find(|(n, _)| *n == stage) {
            h.record_nanos(elapsed);
        }
    }

    /// The histogram for one stage.
    pub fn get(&self, stage: &str) -> Option<&Histogram> {
        self.stages
            .iter()
            .find(|(n, _)| *n == stage)
            .map(|(_, h)| h)
    }

    /// Iterate `(name, histogram)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.stages.iter().map(|(n, h)| (*n, h))
    }
}

// ---------------------------------------------------------------------------
// Request IDs
// ---------------------------------------------------------------------------

/// A cheap, unique-enough request ID: microseconds since the epoch
/// plus a process-wide sequence number, hex-encoded. Assigned at the
/// front door when the client did not send `x-request-id`.
pub fn next_request_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    format!("{:012x}-{:04x}", micros & 0xffff_ffff_ffff, seq & 0xffff)
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Builder for a Prometheus text-format (0.0.4) exposition body.
///
/// ```
/// use fgc_obs::{Histogram, PromWriter};
/// let h = Histogram::new();
/// h.record(1500);
/// let mut w = PromWriter::new();
/// w.help("fgc_requests_total", "counter", "Requests served.");
/// w.int("fgc_requests_total", &[("role", "single")], 1);
/// w.help("fgc_latency_seconds", "histogram", "Request latency.");
/// w.histogram("fgc_latency_seconds", &[("role", "single")], &h.snapshot(), 1e-6);
/// let text = w.finish();
/// assert!(text.contains("fgc_requests_total{role=\"single\"} 1"));
/// assert!(text.contains("fgc_latency_seconds_count{role=\"single\"} 1"));
/// ```
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        PromWriter::default()
    }

    /// Emit `# HELP` and `# TYPE` lines for a metric family. Call once
    /// per family, before its samples.
    pub fn help(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emit one integer-valued sample.
    pub fn int(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", label_block(labels)));
    }

    /// Emit one float-valued sample.
    pub fn float(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", label_block(labels)));
    }

    /// Emit a histogram family: cumulative `_bucket` samples over the
    /// non-empty buckets plus `le="+Inf"`, `_sum`, and `_count`.
    /// `scale` converts raw sample units into the exposed unit (e.g.
    /// `1e-6` for microsecond samples exposed as seconds).
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        scale: f64,
    ) {
        let count = snap.count();
        for (le, cum) in snap.cumulative() {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            let le = if le == u64::MAX {
                "+Inf".to_string()
            } else {
                format!("{}", le as f64 * scale)
            };
            all.push(("le", &le));
            self.out
                .push_str(&format!("{name}_bucket{} {cum}\n", label_block(&all)));
        }
        let mut all: Vec<(&str, &str)> = labels.to_vec();
        all.push(("le", "+Inf"));
        self.out
            .push_str(&format!("{name}_bucket{} {count}\n", label_block(&all)));
        self.out.push_str(&format!(
            "{name}_sum{} {}\n",
            label_block(labels),
            snap.sum as f64 * scale
        ));
        self.out
            .push_str(&format!("{name}_count{} {count}\n", label_block(labels)));
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Slow-request ring
// ---------------------------------------------------------------------------

/// One entry in the [`SlowLog`]: a served request with its ID, route,
/// status, total latency, and (for cite routes) stage breakdown.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's `x-request-id` (assigned or honored).
    pub request_id: String,
    /// The route served (e.g. `/cite`).
    pub endpoint: String,
    /// HTTP status answered.
    pub status: u16,
    /// Total wall-clock time serving the request.
    pub total: Duration,
    /// Per-stage durations, empty for routes without stage tracing.
    pub stages: Vec<(String, Duration)>,
}

/// A bounded record of the top-K slowest requests seen so far,
/// surfaced at `GET /debug/slow`. `observe` is O(K) under a mutex —
/// negligible next to the request it just measured.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// A ring keeping the `capacity` slowest requests.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer one served request; it is kept iff it ranks among the
    /// `capacity` slowest observed.
    pub fn observe(&self, entry: SlowEntry) {
        let mut entries = self.entries.lock().expect("slow log lock");
        if entries.len() < self.capacity {
            entries.push(entry);
            return;
        }
        let (min_i, min) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total)
            .map(|(i, e)| (i, e.total))
            .expect("non-empty slow log");
        if entry.total > min {
            entries[min_i] = entry;
        }
    }

    /// The retained entries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        let mut entries = self.entries.lock().expect("slow log lock").clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.total));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so quantile tests are reproducible.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Stage timers stay on in production, which is only sound if a
    /// record is cheap (tens of ns optimised). The bound leaves 20x
    /// headroom for a debug build on a shared box.
    #[test]
    fn record_costs_well_under_two_microseconds() {
        use std::hint::black_box;
        let hist = Histogram::new();
        let values = 1_000_000u32;
        let start = std::time::Instant::now();
        for i in 0..values {
            hist.record(black_box(u64::from(i)));
        }
        let mean = start.elapsed() / values;
        assert!(mean < Duration::from_micros(2), "{mean:?}");
        assert_eq!(hist.count(), u64::from(values));
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn quantiles_track_exact_sort_within_2x() {
        let mut rng = Rng(0x5eed_cafe);
        // Mixed scales: sub-µs noise through multi-second outliers.
        let samples: Vec<u64> = (0..20_000)
            .map(|i| {
                let scale = 10u64.pow((i % 7) as u32);
                rng.next() % (scale * 9 + 1)
            })
            .collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        assert_eq!(snap.max, *sorted.last().unwrap());
        for &p in &[0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let q = snap.quantile(p);
            if exact == 0 {
                assert_eq!(q, 0, "p={p}");
            } else {
                assert!(
                    q <= exact.saturating_mul(2) && exact <= q.saturating_mul(2),
                    "p={p}: approx {q} vs exact {exact}"
                );
            }
        }
        assert_eq!(snap.quantile(1.0), snap.max);
    }

    #[test]
    fn saturation_bucket_catches_huge_samples() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        h.record(5);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max, u64::MAX);
        // The top quantile clamps to the observed max, not the bucket
        // edge.
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn nan_and_out_of_range_quantiles_are_safe() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(100);
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn concurrent_records_from_eight_threads_lose_nothing() {
        let h = Histogram::new();
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1000 + (i % 100));
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8 * per_thread);
        let expected_sum: u64 = (0..8u64)
            .map(|t| (0..per_thread).map(|i| t * 1000 + (i % 100)).sum::<u64>())
            .sum();
        assert_eq!(snap.sum, expected_sum);
        assert_eq!(snap.max, 7 * 1000 + 99);
    }

    #[test]
    fn stage_set_times_into_histograms() {
        let stages = StageSet::new(CITE_STAGES);
        let (v, elapsed) = stages.time("plan", || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(elapsed >= Duration::from_millis(2));
        stages.time("plan", || ());
        stages.record("render", Duration::from_micros(5));
        // a stage outside the set is ignored
        stages.record("route", Duration::from_micros(5));
        let snap = stages.get("plan").unwrap().snapshot();
        assert_eq!(snap.count(), 2);
        assert!(snap.max >= 2_000_000, "nanosecond samples expected");
        assert_eq!(stages.get("render").unwrap().snapshot().sum, 5_000);
        assert!(stages.get("route").is_none());
        let recorded: Vec<(&str, u64)> = stages.iter().map(|(n, h)| (n, h.count())).collect();
        assert_eq!(
            recorded,
            [
                ("parse", 0),
                ("plan", 2),
                ("evaluate", 0),
                ("rewrite", 0),
                ("extent", 0),
                ("build", 0),
                ("render", 1)
            ]
        );
    }

    #[test]
    fn request_ids_are_unique_in_sequence() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.contains('-'));
    }

    #[test]
    fn slow_log_keeps_the_top_k() {
        let log = SlowLog::new(3);
        for (i, ms) in [5u64, 1, 9, 3, 7].iter().enumerate() {
            log.observe(SlowEntry {
                request_id: format!("r{i}"),
                endpoint: "/cite".into(),
                status: 200,
                total: Duration::from_millis(*ms),
                stages: Vec::new(),
            });
        }
        let top = log.snapshot();
        assert_eq!(top.len(), 3);
        let totals: Vec<u64> = top.iter().map(|e| e.total.as_millis() as u64).collect();
        assert_eq!(totals, vec![9, 7, 5]);
    }

    #[test]
    fn prom_writer_emits_valid_families() {
        let h = Histogram::new();
        h.record(1000);
        h.record(3000);
        let mut w = PromWriter::new();
        w.help("fgc_latency_seconds", "histogram", "Latency.");
        w.histogram(
            "fgc_latency_seconds",
            &[("role", "single"), ("endpoint", "/cite")],
            &h.snapshot(),
            1e-6,
        );
        w.help("fgc_up", "gauge", "Liveness.");
        w.int("fgc_up", &[], 1);
        let text = w.finish();
        assert!(text.contains("# TYPE fgc_latency_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("fgc_latency_seconds_count{role=\"single\",endpoint=\"/cite\"} 2"));
        assert!(text.contains("fgc_up 1"));
        // Every sample line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.split_whitespace().count() == 2, "bad line: {line}");
        }
    }
}
