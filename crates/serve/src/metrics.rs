//! Serving metrics: lock-free counters and a latency histogram.
//!
//! Workers and callers record into atomics; [`Metrics::snapshot`] reads them
//! into a plain [`MetricsSnapshot`] struct that serializes to JSON — the
//! shape a scrape endpoint or the `ajax-search serve` CLI prints.

use ajax_net::Micros;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

// The histogram grew up here and was lifted into `ajax-obs` so the profile
// rollup could reuse it; re-exported to keep the serve API unchanged.
pub use ajax_obs::LatencyHistogram;

/// The server's live metrics registry. All fields are atomics so workers and
/// clients update without locks; a consistent-enough view is taken by
/// [`Metrics::snapshot`].
#[derive(Debug)]
pub struct Metrics {
    /// Queries answered (cache hits + full evaluations + degraded), i.e.
    /// every admitted query.
    pub completed: AtomicU64,
    /// Queries refused at admission (`ServeError::Overloaded`).
    pub shed: AtomicU64,
    /// Completed queries that merged fewer than all shards.
    pub degraded: AtomicU64,
    /// Result-cache hits / misses / evictions.
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_evictions: AtomicU64,
    /// Index reloads (each also invalidates the cache).
    pub reloads: AtomicU64,
    /// Rejected index reloads (corrupt artifact, shard-count or weights
    /// mismatch) — the server kept serving the previous generation.
    pub reloads_rejected: AtomicU64,
    /// Resident size of the served index in bytes (gauge; set at startup
    /// and on every reload from the shards' honest `approx_bytes`). A
    /// loaded shard's runs move to the heap as queries first touch them,
    /// so the gauge counts those decoded by the time it was set.
    pub index_bytes: AtomicU64,
    /// Bytes served from mmap-ed v4 segments (gauge, same lifecycle as
    /// `index_bytes`). Mapped bytes live in the page cache, not the heap —
    /// capacity planning tracks the two separately.
    pub index_mapped_bytes: AtomicU64,
    /// End-to-end query latency (admission → response), µs.
    pub latency: LatencyHistogram,
    /// Jobs currently queued per shard (gauge).
    pub shard_queue_depth: Vec<AtomicU64>,
}

impl Metrics {
    /// A zeroed registry for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            index_bytes: AtomicU64::new(0),
            index_mapped_bytes: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            shard_queue_depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Takes a serializable snapshot. `uptime_micros` comes from the
    /// server's clock (virtual under a manual clock), `cache_entries` from
    /// the cache, `workers` from the pool configuration.
    pub fn snapshot(
        &self,
        uptime_micros: Micros,
        cache_entries: usize,
        workers: usize,
    ) -> MetricsSnapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        MetricsSnapshot {
            uptime_micros,
            workers: workers as u64,
            completed,
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reloads_rejected: self.reloads_rejected.load(Ordering::Relaxed),
            index_bytes: self.index_bytes.load(Ordering::Relaxed),
            index_mapped_bytes: self.index_mapped_bytes.load(Ordering::Relaxed),
            qps: if uptime_micros == 0 {
                0.0
            } else {
                completed as f64 / (uptime_micros as f64 / 1e6)
            },
            latency_mean_micros: self.latency.mean(),
            latency_p50_micros: self.latency.quantile(0.50),
            latency_p95_micros: self.latency.quantile(0.95),
            latency_p99_micros: self.latency.quantile(0.99),
            latency_buckets: self.latency.bucket_counts(),
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_entries: cache_entries as u64,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            shard_queue_depth: self
                .shard_queue_depth
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time view of [`Metrics`], serializable with serde. Latency
/// percentiles are upper bounds of power-of-two buckets (`latency_buckets[i]`
/// counts samples `< 2^i` µs, `[0]` exact zeros).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub uptime_micros: u64,
    pub workers: u64,
    pub completed: u64,
    pub shed: u64,
    pub degraded: u64,
    pub reloads: u64,
    pub reloads_rejected: u64,
    pub index_bytes: u64,
    pub index_mapped_bytes: u64,
    pub qps: f64,
    pub latency_mean_micros: f64,
    pub latency_p50_micros: u64,
    pub latency_p95_micros: u64,
    pub latency_p99_micros: u64,
    pub latency_buckets: Vec<u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_entries: u64,
    pub cache_hit_rate: f64,
    pub shard_queue_depth: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    // Histogram unit tests live in `ajax-obs` now (crates/obs/src/histogram.rs).

    #[test]
    fn snapshot_serializes_and_roundtrips() {
        let m = Metrics::new(3);
        m.completed.fetch_add(10, Ordering::Relaxed);
        m.cache_hits.fetch_add(4, Ordering::Relaxed);
        m.cache_misses.fetch_add(6, Ordering::Relaxed);
        m.latency.record(100);
        m.shard_queue_depth[1].fetch_add(2, Ordering::Relaxed);

        let snap = m.snapshot(2_000_000, 5, 3);
        assert_eq!(snap.completed, 10);
        assert!((snap.qps - 5.0).abs() < 1e-9);
        assert!((snap.cache_hit_rate - 0.4).abs() < 1e-9);
        assert_eq!(snap.shard_queue_depth, vec![0, 2, 0]);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
