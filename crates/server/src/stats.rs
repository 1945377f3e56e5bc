//! Per-endpoint serving counters surfaced at `GET /stats` and
//! `GET /metrics`.
//!
//! Recording is wait-free on the worker hot path: error counts are
//! relaxed atomics and latencies go into a lock-free
//! [`fgc_obs::Histogram`], so readers get real tail quantiles
//! (p50/p90/p99/max) instead of the mean that hid them. Reads derive
//! every figure from one histogram snapshot — the old separate
//! `requests`/`total_micros` loads could tear (a racing increment
//! between them skewed the mean); a snapshot cannot.

use fgc_obs::{Histogram, HistogramSnapshot, PromWriter};
use fgc_views::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counters for one route: error count plus a log-bucketed latency
/// histogram (microsecond samples).
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Serving latency, microseconds, log-bucketed.
    pub latency: Histogram,
}

impl EndpointStats {
    /// Record one served request.
    pub fn record(&self, elapsed: Duration, ok: bool) {
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_micros(elapsed);
    }

    /// Requests answered (any status).
    pub fn requests(&self) -> u64 {
        self.latency.count()
    }

    /// A point-in-time latency snapshot (for quantiles/exposition).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    fn to_json(&self) -> Json {
        // One snapshot feeds count, mean, and quantiles: the mean can
        // no longer race a concurrent `requests` increment.
        let snap = self.latency.snapshot();
        Json::from_pairs([
            ("requests", Json::Int(snap.count() as i64)),
            (
                "errors",
                Json::Int(self.errors.load(Ordering::Relaxed) as i64),
            ),
            ("mean_us", Json::Int(snap.mean() as i64)),
            ("p50_us", Json::Int(snap.quantile(0.5) as i64)),
            ("p90_us", Json::Int(snap.quantile(0.9) as i64)),
            ("p99_us", Json::Int(snap.quantile(0.99) as i64)),
            ("max_us", Json::Int(snap.max as i64)),
        ])
    }
}

/// All serving counters: one [`EndpointStats`] per route plus the
/// admission figures, the process start time, and the in-flight
/// request gauge.
#[derive(Debug)]
pub struct ServerStats {
    /// `POST /cite`.
    pub cite: EndpointStats,
    /// `POST /cite_sql`.
    pub cite_sql: EndpointStats,
    /// `POST /cite_at` (versioned deployments only).
    pub cite_at: EndpointStats,
    /// `GET /versions` (versioned deployments only).
    pub versions: EndpointStats,
    /// `GET /views`.
    pub views: EndpointStats,
    /// `GET /stats`.
    pub stats: EndpointStats,
    /// `GET /healthz`.
    pub healthz: EndpointStats,
    /// `GET /metrics` and `GET /debug/slow`.
    pub observe: EndpointStats,
    /// Requests that did not match any route (404/405).
    pub unrouted: AtomicU64,
    /// Never written: `/cite_at` sheds nothing. It stays only because
    /// `benchmark/src/layers.rs:575` reads it, and goes with the batch
    /// fields below.
    pub rejected: AtomicU64,
    /// Connections whose request could not be parsed (400/413/408).
    pub malformed: AtomicU64,
    /// Requests answered 504 because their end-to-end deadline
    /// (`x-deadline-ms`, or the server default) expired before a
    /// response was produced.
    pub deadline_exceeded: AtomicU64,
    /// Never written: there is no batcher. `batches`,
    /// `batched_requests` and `batch_wait` stay only because
    /// `benchmark/src/layers.rs` reads them (as zero, "no batcher")
    /// and only a benchmark PR may edit it; they go when one retires
    /// `server.batch_wait_us` / `server.batch_size_mean`.
    pub batches: AtomicU64,
    /// See [`ServerStats::batches`].
    pub batched_requests: AtomicU64,
    /// See [`ServerStats::batches`].
    pub batch_wait: Histogram,
    /// Requests currently being served, across all routes.
    pub in_flight: AtomicU64,
    /// When this stats block (i.e. the server) was created.
    pub started: Instant,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            cite: EndpointStats::default(),
            cite_sql: EndpointStats::default(),
            cite_at: EndpointStats::default(),
            versions: EndpointStats::default(),
            views: EndpointStats::default(),
            stats: EndpointStats::default(),
            healthz: EndpointStats::default(),
            observe: EndpointStats::default(),
            unrouted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_wait: Histogram::new(),
            in_flight: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl ServerStats {
    /// Total requests answered across the citation endpoints.
    pub fn served(&self) -> u64 {
        self.cite.requests() + self.cite_sql.requests() + self.cite_at.requests()
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Every route's stats, by exposition label.
    pub fn endpoints(&self) -> [(&'static str, &EndpointStats); 8] {
        [
            ("/cite", &self.cite),
            ("/cite_sql", &self.cite_sql),
            ("/cite_at", &self.cite_at),
            ("/versions", &self.versions),
            ("/views", &self.views),
            ("/stats", &self.stats),
            ("/healthz", &self.healthz),
            ("/metrics", &self.observe),
        ]
    }

    /// The `GET /stats` body (without engine cache stats; the server
    /// layer merges those in).
    pub fn to_json(&self) -> Json {
        let count = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        Json::from_pairs([
            ("cite", self.cite.to_json()),
            ("cite_sql", self.cite_sql.to_json()),
            ("cite_at", self.cite_at.to_json()),
            ("versions", self.versions.to_json()),
            ("views", self.views.to_json()),
            ("stats", self.stats.to_json()),
            ("healthz", self.healthz.to_json()),
            ("unrouted", count(&self.unrouted)),
            ("malformed", count(&self.malformed)),
            ("deadline_exceeded", count(&self.deadline_exceeded)),
            ("uptime_s", Json::Int(self.uptime_s() as i64)),
            ("in_flight", count(&self.in_flight)),
        ])
    }

    /// Write the serving-tier metric families (uptime, in-flight,
    /// per-endpoint counters and latency histograms, admission
    /// counters) into a Prometheus exposition. `base` labels
    /// (typically `role` and `shard`) are attached to every sample;
    /// the caller appends engine-level families afterwards.
    pub fn write_prometheus(&self, w: &mut PromWriter, base: &[(&str, &str)]) {
        w.help(
            "fgcite_uptime_seconds",
            "gauge",
            "Seconds since server start.",
        );
        w.int("fgcite_uptime_seconds", base, self.uptime_s());
        w.help(
            "fgcite_in_flight",
            "gauge",
            "Requests currently being served.",
        );
        w.int(
            "fgcite_in_flight",
            base,
            self.in_flight.load(Ordering::Relaxed),
        );

        w.help(
            "fgcite_requests_total",
            "counter",
            "Requests answered, by route.",
        );
        for (name, e) in self.endpoints() {
            let mut labels = base.to_vec();
            labels.push(("endpoint", name));
            w.int("fgcite_requests_total", &labels, e.requests());
        }
        w.help(
            "fgcite_request_errors_total",
            "counter",
            "Requests answered with 4xx/5xx, by route.",
        );
        for (name, e) in self.endpoints() {
            let mut labels = base.to_vec();
            labels.push(("endpoint", name));
            w.int(
                "fgcite_request_errors_total",
                &labels,
                e.errors.load(Ordering::Relaxed),
            );
        }
        w.help(
            "fgcite_request_duration_seconds",
            "histogram",
            "Serving latency, by route.",
        );
        for (name, e) in self.endpoints() {
            let snap = e.snapshot();
            if snap.count() == 0 {
                continue;
            }
            let mut labels = base.to_vec();
            labels.push(("endpoint", name));
            w.histogram("fgcite_request_duration_seconds", &labels, &snap, 1e-6);
        }

        for (name, help, v) in [
            ("fgcite_unrouted_total", "404/405 answers.", &self.unrouted),
            (
                "fgcite_malformed_total",
                "Unparseable requests (400/411/413/408).",
                &self.malformed,
            ),
            (
                "fgcite_deadline_exceeded_total",
                "Requests whose end-to-end deadline expired (504).",
                &self.deadline_exceeded,
            ),
        ] {
            w.help(name, "counter", help);
            w.int(name, base, v.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let s = ServerStats::default();
        s.cite.record(Duration::from_micros(100), true);
        s.cite.record(Duration::from_micros(300), false);
        s.cite_sql.record(Duration::from_micros(50), true);
        assert_eq!(s.served(), 3);
        let j = s.to_json();
        let cite = j.get("cite").unwrap();
        assert_eq!(cite.get("requests"), Some(&Json::Int(2)));
        assert_eq!(cite.get("errors"), Some(&Json::Int(1)));
        assert_eq!(cite.get("max_us"), Some(&Json::Int(300)));
        // Log-bucketed: quantiles land within a factor of two of the
        // exact order statistics, and the full set is reported.
        let p99 = match cite.get("p99_us") {
            Some(&Json::Int(v)) => v as u64,
            other => panic!("missing p99_us: {other:?}"),
        };
        assert!((150..=600).contains(&p99), "p99 {p99}");
        for field in ["mean_us", "p50_us", "p90_us"] {
            assert!(cite.get(field).is_some(), "missing {field}");
        }
        assert!(j.get("uptime_s").is_some());
        assert_eq!(j.get("in_flight"), Some(&Json::Int(0)));
    }

    #[test]
    fn prometheus_families_cover_every_endpoint() {
        let s = ServerStats::default();
        s.cite.record(Duration::from_micros(250), true);
        let mut w = PromWriter::new();
        s.write_prometheus(&mut w, &[("role", "single")]);
        let text = w.finish();
        assert!(text.contains("# TYPE fgcite_request_duration_seconds histogram"));
        assert!(text.contains("fgcite_requests_total{role=\"single\",endpoint=\"/cite\"} 1"));
        assert!(text.contains(
            "fgcite_request_duration_seconds_count{role=\"single\",endpoint=\"/cite\"} 1"
        ));
        assert!(text.contains("fgcite_uptime_seconds"));
    }
}
