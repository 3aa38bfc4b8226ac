//! Live server metrics: per-endpoint counters and fixed log-bucket latency
//! histograms, all lock-free atomics so the hot path never blocks on the
//! `stats` endpoint.

use crate::protocol::{codes, EndpointStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `b` counts requests that took
/// `[2^b, 2^(b+1))` microseconds, so 40 buckets span sub-microsecond to
/// roughly 12 days — every latency this server can produce.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed log₂-bucket latency histogram over microseconds.
///
/// Recording is a single relaxed `fetch_add`; reading produces a consistent-
/// enough snapshot for observability (buckets are read one by one, so a
/// concurrent recording may straddle the snapshot — fine for monitoring).
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(us: u64) -> usize {
    // floor(log2(us)) with us clamped to ≥ 1; bucket 0 holds [0, 2) µs.
    let b = 63 - us.max(1).leading_zeros() as usize;
    b.min(LATENCY_BUCKETS - 1)
}

/// Upper bound of bucket `b` in milliseconds.
fn bucket_upper_ms(b: usize) -> f64 {
    (1u128 << (b + 1)) as f64 / 1e3
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        // Relaxed: monotone telemetry counter; no ordering with other data.
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        // Relaxed: monotone telemetry counter; no ordering with other data.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Bucket counts with trailing zero buckets trimmed.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .buckets
            .iter()
            // Relaxed: monotone telemetry counter; no ordering with other data.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }

    /// Approximate quantile `p` in `[0, 1]`, reported as the upper bound of
    /// the bucket holding the `p`-th observation. `0.0` when empty.
    pub fn quantile_ms(&self, p: f64) -> f64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ms(b);
            }
        }
        bucket_upper_ms(counts.len().saturating_sub(1))
    }

    /// Upper bound of the slowest occupied bucket, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        match self.snapshot().len() {
            0 => 0.0,
            n => bucket_upper_ms(n - 1),
        }
    }
}

/// Counters for one protocol endpoint.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    requests: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

impl EndpointCounters {
    /// Records one finished request: its outcome (an error code, or `None`
    /// for success) and its latency from admission to response.
    pub fn observe(&self, error_code: Option<&str>, latency: Duration) {
        // Relaxed: monotone telemetry counters; no ordering with other data.
        self.requests.fetch_add(1, Ordering::Relaxed);
        let cell = match error_code {
            None => &self.ok,
            Some(codes::OVERLOADED) => &self.overloaded,
            Some(codes::DEADLINE_EXCEEDED) => &self.deadline_exceeded,
            Some(_) => &self.errors,
        };
        // Relaxed: monotone telemetry counters; no ordering with other data.
        cell.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Serializable snapshot for the `stats` endpoint.
    pub fn snapshot(&self, endpoint: &str) -> EndpointStats {
        EndpointStats {
            endpoint: endpoint.to_owned(),
            // Relaxed: monotone telemetry counters; no ordering constraints.
            requests: self.requests.load(Ordering::Relaxed),
            // Relaxed: monotone telemetry counters; no ordering constraints.
            ok: self.ok.load(Ordering::Relaxed),
            // Relaxed: monotone telemetry counters; no ordering constraints.
            overloaded: self.overloaded.load(Ordering::Relaxed),
            // Relaxed: monotone telemetry counters; no ordering constraints.
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            // Relaxed: monotone telemetry counters; no ordering constraints.
            errors: self.errors.load(Ordering::Relaxed),
            p50_ms: self.latency.quantile_ms(0.50),
            p99_ms: self.latency.quantile_ms(0.99),
            max_ms: self.latency.max_ms(),
            latency_buckets: self.latency.snapshot(),
        }
    }
}

/// The protocol endpoints, in stats-report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `open_session`.
    Open,
    /// `(θ, k)` runs.
    Run,
    /// `close_session`.
    Close,
    /// Metrics snapshots.
    Stats,
    /// Liveness probes.
    Ping,
    /// Graph inserts.
    Insert,
    /// Graph removals.
    Remove,
    /// Shutdown requests.
    Shutdown,
    /// Streamed `(θ, k)` runs (`run_stream`).
    RunStream,
}

/// All endpoints, in stats-report order (the discriminant order). New
/// endpoints append so existing stats-row indices stay stable.
pub const ENDPOINTS: [Endpoint; 9] = [
    Endpoint::Open,
    Endpoint::Run,
    Endpoint::Close,
    Endpoint::Stats,
    Endpoint::Ping,
    Endpoint::Insert,
    Endpoint::Remove,
    Endpoint::Shutdown,
    Endpoint::RunStream,
];

impl Endpoint {
    /// Wire name of the endpoint.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Open => "open",
            Endpoint::Run => "run",
            Endpoint::Close => "close",
            Endpoint::Stats => "stats",
            Endpoint::Ping => "ping",
            Endpoint::Insert => "insert",
            Endpoint::Remove => "remove",
            Endpoint::Shutdown => "shutdown",
            Endpoint::RunStream => "run_stream",
        }
    }
}

/// All per-endpoint counters of one server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    counters: [EndpointCounters; ENDPOINTS.len()],
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters of one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointCounters {
        &self.counters[e as usize]
    }

    /// Snapshot of every endpoint, in [`ENDPOINTS`] order.
    pub fn snapshot(&self) -> Vec<EndpointStats> {
        ENDPOINTS
            .iter()
            .map(|&e| self.endpoint(e).snapshot(e.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket 6: [64, 128)
        }
        h.record(Duration::from_millis(100)); // bucket 16
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ms(0.5), 0.128);
        assert!(h.quantile_ms(1.0) > 100.0);
        assert!(h.max_ms() > 100.0);
        assert_eq!(h.snapshot().iter().sum::<u64>(), 100);
    }

    #[test]
    fn counters_classify_outcomes() {
        let c = EndpointCounters::default();
        let d = Duration::from_micros(10);
        c.observe(None, d);
        c.observe(None, d);
        c.observe(Some(codes::OVERLOADED), d);
        c.observe(Some(codes::DEADLINE_EXCEEDED), d);
        c.observe(Some(codes::NOT_FOUND), d);
        let s = c.snapshot("run");
        assert_eq!(
            (
                s.requests,
                s.ok,
                s.overloaded,
                s.deadline_exceeded,
                s.errors
            ),
            (5, 2, 1, 1, 1)
        );
        assert_eq!(s.endpoint, "run");
    }

    #[test]
    fn metrics_snapshot_covers_all_endpoints() {
        let m = ServerMetrics::new();
        m.endpoint(Endpoint::Run).observe(None, Duration::ZERO);
        let snap = m.snapshot();
        assert_eq!(snap.len(), ENDPOINTS.len());
        assert_eq!(snap[1].endpoint, "run");
        assert_eq!(snap[1].requests, 1);
        assert_eq!(snap[0].requests, 0);
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(*e as usize, i, "{} is out of report order", e.name());
        }
    }
}
