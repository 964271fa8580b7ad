//! The concurrent shard server: admission control, fan-out, degradation.
//!
//! [`ShardServer`] owns a [`ShardTransport`] — in-process worker pools by
//! default ([`crate::pool`]), remote shard processes when built via
//! [`ShardServer::from_transport`] (see `ajax-dist`). A query's life:
//!
//! 1. **admission** — a bounded in-flight gate; beyond
//!    [`ServeConfig::max_in_flight`] the query is shed with
//!    [`ServeError::Overloaded`] (typed, never silently dropped);
//! 2. **cache lookup** — a hit answers immediately from the LRU;
//! 3. **fan-out** — the transport ships the query to every shard; shards
//!    evaluate in parallel and deliver into a per-query slot array;
//! 4. **merge** — the caller collects the shards' batches *in shard order*
//!    and runs [`ajax_index::merge_hits`], the merge the sequential broker
//!    runs, so results are bit-identical to `QueryBroker::search`;
//! 5. **degradation** — with a deadline configured, shards that miss it are
//!    skipped: the response carries whatever arrived, flagged `degraded`,
//!    with the missing shard ids listed. A batch not shaped as an answer to
//!    the query (a malformed remote reply) counts as missing too. Degraded
//!    results are not cached.

use crate::cache::{cache_key, QueryCache};
use crate::clock::ServeClock;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool::PoolTransport;
use crate::transport::{Rendezvous, ShardOutcome, ShardTransport};
use ajax_index::{merge_hits, BrokerResult, Query, QueryBroker, RankWeights};
use ajax_net::Micros;
use ajax_obs::{AttrValue, SpanEvent, SpanLog};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tunables for a [`ShardServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per shard (≥ 1).
    pub workers_per_shard: usize,
    /// LRU result-cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Maximum concurrently admitted queries; excess load is shed with
    /// [`ServeError::Overloaded`]. 0 sheds everything (drain mode).
    pub max_in_flight: usize,
    /// Per-query deadline relative to admission; `None` waits for every
    /// shard. Shards that miss it are dropped from the merge (degraded
    /// partial results).
    pub deadline_micros: Option<Micros>,
    /// Time source for deadlines, latency, and qps.
    pub clock: ServeClock,
    /// Virtual µs a shard evaluation costs under a manual clock (ignored by
    /// the wall clock). Lets load tests model slow shards deterministically.
    pub eval_cost_micros: Micros,
    /// Record `serve.*` / `shard.eval` spans into a shared flight-recorder
    /// ring, drained with [`ShardServer::take_trace`]. Timestamps come from
    /// the server's clock: wall-clock diagnostics normally, deterministic
    /// virtual time under a manual clock.
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 1,
            cache_capacity: 256,
            max_in_flight: 64,
            deadline_micros: None,
            clock: ServeClock::wall(),
            eval_cost_micros: 0,
            trace: false,
        }
    }
}

impl ServeConfig {
    pub fn with_workers_per_shard(mut self, n: usize) -> Self {
        self.workers_per_shard = n;
        self
    }

    pub fn with_cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    pub fn with_max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n;
        self
    }

    pub fn with_deadline_micros(mut self, d: Option<Micros>) -> Self {
        self.deadline_micros = d;
        self
    }

    pub fn with_clock(mut self, clock: ServeClock) -> Self {
        self.clock = clock;
        self
    }

    pub fn with_eval_cost_micros(mut self, c: Micros) -> Self {
        self.eval_cost_micros = c;
        self
    }

    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Why a query was refused or a reload rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control shed the query: `in_flight` queries were already
    /// running against a capacity of `max_in_flight`.
    Overloaded {
        in_flight: usize,
        max_in_flight: usize,
    },
    /// `reload` was given a broker with a different shard count than the
    /// server was built with.
    ShardCountMismatch { expected: usize, got: usize },
    /// `reload` was given a broker built with different rank weights than
    /// the server scores and cache-keys with (compared bit-for-bit, like
    /// the cache key). Serving the new shards under the old weights would
    /// silently diverge from a fresh broker.
    WeightsMismatch {
        expected: RankWeights,
        got: RankWeights,
    },
    /// The server's `shutdown` has run; its workers are gone, so queries
    /// can no longer be served.
    ShuttingDown,
    /// The shard transport refused or failed the operation (e.g. hot
    /// reloading remote shard processes, which must be restarted instead).
    Transport(String),
    /// `reload_from_path` was pointed at a missing, corrupt, or
    /// wrong-format index artifact; the server kept serving the previous
    /// generation.
    CorruptArtifact(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                in_flight,
                max_in_flight,
            } => write!(
                f,
                "overloaded: {in_flight} queries in flight (capacity {max_in_flight})"
            ),
            ServeError::ShardCountMismatch { expected, got } => {
                write!(
                    f,
                    "reload shard count mismatch: expected {expected}, got {got}"
                )
            }
            ServeError::WeightsMismatch { expected, got } => {
                write!(
                    f,
                    "reload rank weights mismatch: server uses {expected:?}, \
                     reloaded index was built with {got:?}"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Transport(e) => write!(f, "shard transport: {e}"),
            ServeError::CorruptArtifact(e) => {
                write!(f, "reload rejected, serving previous generation: {e}")
            }
        }
    }
}

/// The four rank weights as bit patterns — the same identity the cache key
/// uses, since cached scores are only valid for bit-identical weights.
fn weights_bits(w: &RankWeights) -> [u64; 4] {
    [
        w.pagerank.to_bits(),
        w.ajaxrank.to_bits(),
        w.tfidf.to_bits(),
        w.proximity.to_bits(),
    ]
}

impl std::error::Error for ServeError {}

/// A served query's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Globally merged, ranked results (identical to `QueryBroker::search`
    /// when not degraded).
    pub results: Vec<BrokerResult>,
    /// True when at least one shard missed the deadline — `results` then
    /// covers only the shards that answered.
    pub degraded: bool,
    /// Shards absent from the merge (empty unless `degraded`).
    pub missing_shards: Vec<usize>,
    /// True when answered from the result cache.
    pub from_cache: bool,
    /// Admission-to-response latency on the server's clock.
    pub latency_micros: Micros,
}

/// Decrements the in-flight gauge when the query finishes, however it
/// finishes.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A long-lived concurrent query server over sharded indexes. Shareable
/// across client threads (`&self` methods); workers shut down on drop.
pub struct ShardServer {
    transport: Box<dyn ShardTransport>,
    weights: RankWeights,
    cache: QueryCache,
    metrics: Arc<Metrics>,
    config: ServeConfig,
    in_flight: AtomicUsize,
    shutting_down: AtomicBool,
    start_micros: Micros,
    /// Shared flight-recorder ring (None when tracing is off — the disabled
    /// path is a single `Option` check, no lock, no allocation).
    trace: Option<Arc<Mutex<SpanLog>>>,
}

impl ShardServer {
    /// Takes over a broker's shards, spawning
    /// `shards × workers_per_shard` worker threads.
    pub fn new(broker: QueryBroker, config: ServeConfig) -> Self {
        let (shards, weights) = broker.into_parts();
        let metrics = Arc::new(Metrics::new(shards.len()));
        let trace = config.trace.then(|| {
            Arc::new(Mutex::new(SpanLog::with_capacity(
                ajax_obs::DEFAULT_CAPACITY,
            )))
        });
        let transport = Box::new(PoolTransport::spawn(
            shards,
            &config,
            Arc::clone(&metrics),
            trace.clone(),
        ));
        Self::assemble(transport, weights, config, metrics, trace)
    }

    /// Builds a server over an externally constructed transport (e.g.
    /// `ajax_dist::TcpTransport` talking to shard processes). The server
    /// keeps all its edge logic — admission, cache, deadlines, merge —
    /// while the transport decides where evaluation happens. Pass the
    /// transport's trace ring so coordinator and rpc spans share one
    /// timeline; with `None` and `config.trace` set, a fresh ring is
    /// created for the server's own spans.
    pub fn from_transport(
        transport: Box<dyn ShardTransport>,
        weights: RankWeights,
        config: ServeConfig,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Self {
        let metrics = Arc::new(Metrics::new(transport.shard_count()));
        let trace = trace.or_else(|| {
            config.trace.then(|| {
                Arc::new(Mutex::new(SpanLog::with_capacity(
                    ajax_obs::DEFAULT_CAPACITY,
                )))
            })
        });
        Self::assemble(transport, weights, config, metrics, trace)
    }

    fn assemble(
        transport: Box<dyn ShardTransport>,
        weights: RankWeights,
        config: ServeConfig,
        metrics: Arc<Metrics>,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Self {
        metrics
            .index_bytes
            .store(transport.index_bytes(), Ordering::Relaxed);
        metrics
            .index_mapped_bytes
            .store(transport.index_mapped_bytes(), Ordering::Relaxed);
        let start_micros = config.clock.now_micros();
        Self {
            transport,
            weights,
            cache: QueryCache::new(config.cache_capacity),
            metrics,
            config,
            in_flight: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            start_micros,
            trace,
        }
    }

    /// Records one span into the shared ring (no-op when tracing is off).
    /// Callers gate attribute construction on [`Self::tracing`].
    fn record_span(
        &self,
        name: &'static str,
        start: Micros,
        end: Micros,
        args: Vec<(&'static str, AttrValue)>,
    ) {
        if let Some(trace) = &self.trace {
            let mut log = trace.lock().expect("trace ring lock");
            // Track 0 is the server's admission/merge timeline; shard
            // workers use tracks 1..=shards.
            log.set_track(0);
            log.push(name, start, end, args);
        }
    }

    /// True when this server records spans.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the serve-side flight recorder (empty when tracing is off).
    /// Under a wall clock these spans are diagnostics; under a manual clock
    /// their timestamps are deterministic virtual time.
    pub fn take_trace(&self) -> Vec<SpanEvent> {
        match &self.trace {
            Some(trace) => trace.lock().expect("trace ring lock").take(),
            None => Vec::new(),
        }
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.transport.shard_count()
    }

    /// Total evaluation lanes (worker threads locally, connections when
    /// distributed).
    pub fn worker_count(&self) -> usize {
        self.transport.worker_count()
    }

    /// True when shards live in other processes.
    pub fn is_remote(&self) -> bool {
        self.transport.is_remote()
    }

    /// The rank weights queries are scored with.
    pub fn weights(&self) -> RankWeights {
        self.weights
    }

    /// The server's time source (clone it to drive a manual clock).
    pub fn clock(&self) -> &ServeClock {
        &self.config.clock
    }

    /// Parses `text` and serves it — the convenience entry point.
    pub fn search(&self, text: &str) -> Result<ServeResponse, ServeError> {
        self.search_query(&Query::parse(text))
    }

    /// Serves an already-parsed query: admission → cache → fan-out → merge.
    pub fn search_query(&self, query: &Query) -> Result<ServeResponse, ServeError> {
        // After `shutdown` the worker threads are gone; fanning out would
        // park a job on a queue nobody drains and `wait_all` would block
        // forever. Refuse with a typed error instead.
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let admitted_at = self.config.clock.now_micros();

        // Admission control: reserve a slot or shed.
        let max = self.config.max_in_flight;
        if self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .is_err()
        {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            if self.tracing() {
                self.record_span(
                    "serve.shed",
                    admitted_at,
                    admitted_at,
                    vec![("max_in_flight", AttrValue::U64(max as u64))],
                );
            }
            return Err(ServeError::Overloaded {
                in_flight: self.in_flight.load(Ordering::SeqCst),
                max_in_flight: max,
            });
        }
        let _guard = InFlightGuard(&self.in_flight);

        if query.is_empty() {
            return Ok(self.finish(admitted_at, Vec::new(), false, Vec::new(), false));
        }

        // Cache lookup. A hit copies the result list, not its URLs: each is
        // a reference count on the index's own.
        let key = cache_key(query, &self.weights);
        if let Some(cached) = self.cache.get(&key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.finish(admitted_at, (*cached).clone(), false, Vec::new(), true));
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Fan out through the transport: one job per shard.
        let deadline = self.config.deadline_micros.map(|d| admitted_at + d);
        let query_arc = Arc::new(query.clone());
        let reply = Arc::new(Rendezvous::new(self.transport.shard_count()));
        self.transport.ship(
            Arc::clone(&query_arc),
            self.weights,
            deadline,
            Arc::clone(&reply),
        );

        // Collect. Under a wall clock with a deadline the caller enforces it
        // here (walking away from late shards); otherwise the transport
        // delivers for every shard — `TimedOut` when a manual-clock deadline
        // expired.
        let replies = match (deadline, self.config.clock.is_manual()) {
            (Some(d), false) => {
                let clock = &self.config.clock;
                reply.wait_until(|| clock.now_micros(), d)
            }
            _ => reply.wait_all(),
        };

        // Merge: the sequential broker's merge, hence bit-identical results
        // when nothing is missing. A batch of another shape than the query
        // (a remote shard's malformed reply) is left out, never merged.
        let mut batches = Vec::with_capacity(replies.len());
        let mut missing = Vec::new();
        for (shard_idx, slot) in replies.into_iter().enumerate() {
            match slot {
                Some(ShardOutcome::Evaluated(batch)) if batch.fits(query) => batches.push(batch),
                _ => missing.push(shard_idx),
            }
        }
        let degraded = !missing.is_empty();
        let merge_start = self.config.clock.now_micros();
        let results = merge_hits(query, &self.weights, batches);
        if self.tracing() {
            let merge_span = if self.transport.is_remote() {
                "dist.merge"
            } else {
                "serve.merge"
            };
            self.record_span(
                merge_span,
                merge_start,
                self.config.clock.now_micros(),
                vec![
                    (
                        "shards",
                        AttrValue::U64(self.transport.shard_count() as u64),
                    ),
                    ("missing", AttrValue::U64(missing.len() as u64)),
                ],
            );
        }

        if !degraded && self.cache.capacity() > 0 {
            let evicted = self.cache.insert(key, Arc::new(results.clone()));
            self.metrics
                .cache_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(self.finish(admitted_at, results, degraded, missing, false))
    }

    fn finish(
        &self,
        admitted_at: Micros,
        results: Vec<BrokerResult>,
        degraded: bool,
        missing_shards: Vec<usize>,
        from_cache: bool,
    ) -> ServeResponse {
        let latency_micros = self.config.clock.now_micros().saturating_sub(admitted_at);
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.latency.record(latency_micros);
        if self.tracing() {
            let result = if from_cache {
                "cache_hit"
            } else if degraded {
                "degraded"
            } else {
                "full"
            };
            self.record_span(
                "serve.query",
                admitted_at,
                admitted_at + latency_micros,
                vec![
                    ("result", AttrValue::str(result)),
                    ("results", AttrValue::U64(results.len() as u64)),
                ],
            );
        }
        ServeResponse {
            results,
            degraded,
            missing_shards,
            from_cache,
            latency_micros,
        }
    }

    /// Swaps in a freshly built index (same shard count, same rank weights)
    /// and invalidates the result cache. In-flight queries finish against
    /// whichever index their shard evaluation snapshots. A broker built with
    /// different weights is rejected — the server would otherwise keep
    /// scoring and cache-keying with its original weights, silently
    /// diverging from a fresh broker.
    pub fn reload(&self, broker: QueryBroker) -> Result<(), ServeError> {
        self.try_reload(broker).inspect_err(|_| {
            self.metrics
                .reloads_rejected
                .fetch_add(1, Ordering::Relaxed);
        })
    }

    fn try_reload(&self, broker: QueryBroker) -> Result<(), ServeError> {
        if broker.shard_count() != self.transport.shard_count() {
            return Err(ServeError::ShardCountMismatch {
                expected: self.transport.shard_count(),
                got: broker.shard_count(),
            });
        }
        let index_bytes = broker.approx_bytes() as u64;
        let index_mapped_bytes = broker.mapped_bytes() as u64;
        let (shards, weights) = broker.into_parts();
        if weights_bits(&weights) != weights_bits(&self.weights) {
            return Err(ServeError::WeightsMismatch {
                expected: self.weights,
                got: weights,
            });
        }
        self.transport
            .reload(shards)
            .map_err(|e| ServeError::Transport(e.to_string()))?;
        self.invalidate_cache();
        self.metrics.reloads.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .index_bytes
            .store(index_bytes, Ordering::Relaxed);
        self.metrics
            .index_mapped_bytes
            .store(index_mapped_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Reloads the serving index from a persisted single-shard artifact
    /// (what `ajax-search build --out` writes). A missing, torn, or
    /// checksum-failing file is rejected as
    /// [`ServeError::CorruptArtifact`] and the server keeps answering
    /// queries from the generation it already holds; the rejection is
    /// visible as `reloads_rejected` in the metrics snapshot.
    pub fn reload_from_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let index = ajax_index::persist::load_index(&path).map_err(|e| {
            self.metrics
                .reloads_rejected
                .fetch_add(1, Ordering::Relaxed);
            ServeError::CorruptArtifact(e.to_string())
        })?;
        let mut broker = QueryBroker::new(vec![index]);
        broker.weights = self.weights;
        self.reload(broker)
    }

    /// Drops every cached result (exposed for operational use; `reload`
    /// calls it automatically).
    pub fn invalidate_cache(&self) {
        self.cache.clear();
    }

    /// Total states across shards (diagnostics, mirrors
    /// `QueryBroker::total_states`).
    pub fn total_states(&self) -> u64 {
        self.transport.total_states()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let uptime = self
            .config
            .clock
            .now_micros()
            .saturating_sub(self.start_micros);
        self.metrics
            .snapshot(uptime, self.cache.len(), self.worker_count())
    }

    /// The snapshot as pretty JSON (what `ajax-search serve` prints).
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.metrics_snapshot()).expect("metrics snapshot serializes")
    }

    /// Stops all workers (also runs on drop). Subsequent queries are
    /// refused with [`ServeError::ShuttingDown`] instead of deadlocking on
    /// queues nobody drains.
    pub fn shutdown(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_crawl::model::AppModel;
    use ajax_index::IndexBuilder;

    fn model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        m
    }

    fn corpus() -> Vec<AppModel> {
        vec![
            model("http://x/1", &["wow great video", "more wow content here"]),
            model("http://x/2", &["dance dance dance", "wow dance"]),
            model("http://x/3", &["nothing relevant at all"]),
            model("http://x/4", &["wow", "dance wow", "silence"]),
            model("http://x/5", &["great dance video wow", "hidden gem"]),
        ]
    }

    fn build_broker(per_shard: usize) -> QueryBroker {
        let shards = corpus()
            .chunks(per_shard)
            .map(|chunk| {
                let mut b = IndexBuilder::new();
                for m in chunk {
                    b.add_model(m, Some(0.2));
                }
                b.build()
            })
            .collect();
        QueryBroker::new(shards)
    }

    const QUERIES: &[&str] = &[
        "wow",
        "dance",
        "wow dance",
        "great video",
        "hidden",
        "absent",
    ];

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        for per_shard in [1, 2, 5] {
            for workers in [1, 3] {
                let sequential = build_broker(per_shard);
                let server = ShardServer::new(
                    build_broker(per_shard),
                    ServeConfig::default().with_workers_per_shard(workers),
                );
                for q in QUERIES {
                    let query = Query::parse(q);
                    let expected = sequential.search(&query);
                    let got = server.search_query(&query).unwrap();
                    assert!(!got.degraded);
                    assert_eq!(expected.len(), got.results.len(), "query {q:?}");
                    for (e, g) in expected.iter().zip(got.results.iter()) {
                        assert_eq!(e.url, g.url);
                        assert_eq!(e.doc, g.doc);
                        assert_eq!(e.shard, g.shard);
                        assert_eq!(
                            e.score.to_bits(),
                            g.score.to_bits(),
                            "score bits differ for {q:?}: {} vs {}",
                            e.score,
                            g.score
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cache_hit_on_repeat_and_invalidation_on_reload() {
        let server = ShardServer::new(build_broker(2), ServeConfig::default());
        let first = server.search("wow dance").unwrap();
        assert!(!first.from_cache);
        let second = server.search("wow dance").unwrap();
        assert!(second.from_cache);
        assert_eq!(first.results, second.results);

        let snap = server.metrics_snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.cache_hit_rate > 0.0);
        assert_eq!(snap.cache_entries, 1);
        assert!(snap.index_bytes > 0, "index size gauge set at startup");

        server.reload(build_broker(2)).unwrap();
        let third = server.search("wow dance").unwrap();
        assert!(!third.from_cache, "reload must invalidate the cache");
        assert_eq!(third.results, first.results);
        assert_eq!(server.metrics_snapshot().reloads, 1);
    }

    #[test]
    fn reload_with_wrong_shard_count_is_rejected() {
        let server = ShardServer::new(build_broker(2), ServeConfig::default());
        let err = server.reload(build_broker(1)).unwrap_err();
        assert_eq!(
            err,
            ServeError::ShardCountMismatch {
                expected: 3,
                got: 5
            }
        );
        // The original index still serves.
        assert!(!server.search("wow").unwrap().results.is_empty());
    }

    #[test]
    fn reload_with_different_weights_is_rejected() {
        let server = ShardServer::new(build_broker(2), ServeConfig::default());
        let cached = server.search("wow dance").unwrap();
        let mut other = build_broker(2);
        other.weights.tfidf += 0.25;
        let err = server.reload(other).unwrap_err();
        assert!(matches!(err, ServeError::WeightsMismatch { .. }));
        // The rejected reload must not have swapped shards or dropped the
        // cache: the original index still serves, from cache.
        let again = server.search("wow dance").unwrap();
        assert!(again.from_cache);
        assert_eq!(again.results, cached.results);
        assert_eq!(server.metrics_snapshot().reloads, 0);
        assert_eq!(server.metrics_snapshot().reloads_rejected, 1);
    }

    #[test]
    fn corrupt_reload_keeps_serving_old_generation() {
        let mut path = std::env::temp_dir();
        path.push(format!("ajax_serve_reload_{}.ajx", std::process::id()));

        // A single-shard server whose index came from a persisted artifact.
        let mut b = IndexBuilder::new();
        for m in corpus() {
            b.add_model(&m, Some(0.2));
        }
        ajax_index::persist::save_index(&path, &b.build()).unwrap();
        let server = ShardServer::new(
            QueryBroker::new(vec![ajax_index::persist::load_index(&path).unwrap()]),
            ServeConfig::default(),
        );
        let before = server.search("wow dance").unwrap();
        assert!(!before.results.is_empty());
        assert!(
            server.metrics_snapshot().index_mapped_bytes > 0,
            "a v4 artifact serves from the mapping"
        );

        // A valid artifact reloads fine.
        server.reload_from_path(&path).unwrap();
        assert_eq!(server.metrics_snapshot().reloads, 1);

        // Replace the artifact with a truncated copy — atomically, by
        // rename, like every legitimate writer (and unlike an in-place
        // truncation, which would clobber the inode the serving generation
        // has mmap-ed; v4 index files are immutable once committed). The
        // reload must be refused, counted, and the old generation must keep
        // answering.
        let bytes = std::fs::read(&path).unwrap();
        let tmp = path.with_extension("corrupt_tmp");
        std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::rename(&tmp, &path).unwrap();
        let err = server.reload_from_path(&path).unwrap_err();
        assert!(matches!(err, ServeError::CorruptArtifact(_)), "{err:?}");
        let after = server.search("wow dance").unwrap();
        assert_eq!(after.results, before.results);
        let snap = server.metrics_snapshot();
        assert_eq!(snap.reloads, 1, "rejected reload must not count");
        assert_eq!(snap.reloads_rejected, 1);

        // A missing artifact is also a rejection, not a crash.
        std::fs::remove_file(&path).ok();
        let err = server.reload_from_path(&path).unwrap_err();
        assert!(matches!(err, ServeError::CorruptArtifact(_)));
        assert_eq!(server.metrics_snapshot().reloads_rejected, 2);
        assert_eq!(server.search("wow dance").unwrap().results, before.results);
    }

    #[test]
    fn zero_deadline_degrades_deterministically() {
        let (clock, _handle) = ServeClock::manual();
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default()
                .with_clock(clock)
                .with_deadline_micros(Some(0)),
        );
        let resp = server.search("wow").unwrap();
        assert!(resp.degraded);
        assert_eq!(resp.missing_shards, vec![0, 1, 2]);
        assert!(resp.results.is_empty());
        let snap = server.metrics_snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.degraded, 1);
        // Degraded results must not be cached.
        assert_eq!(snap.cache_entries, 0);
    }

    #[test]
    fn manual_clock_accounts_eval_cost() {
        let (clock, _handle) = ServeClock::manual();
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default()
                .with_clock(clock)
                .with_eval_cost_micros(500),
        );
        let resp = server.search("wow").unwrap();
        assert!(!resp.degraded);
        // 3 shards × 500 µs of virtual evaluation advanced the clock.
        assert_eq!(resp.latency_micros, 1_500);
        let snap = server.metrics_snapshot();
        assert!(snap.uptime_micros >= 1_500);
        assert!(snap.qps > 0.0);
    }

    #[test]
    fn drain_mode_sheds_everything() {
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default().with_max_in_flight(0),
        );
        let err = server.search("wow").unwrap_err();
        assert!(matches!(
            err,
            ServeError::Overloaded {
                max_in_flight: 0,
                ..
            }
        ));
        assert_eq!(server.metrics_snapshot().shed, 1);
    }

    #[test]
    fn no_query_lost_under_concurrent_overload() {
        // 8 client threads hammer a capacity-2 server; every request must
        // come back as either a response or a typed Overloaded error.
        let server = Arc::new(ShardServer::new(
            build_broker(1),
            ServeConfig::default().with_max_in_flight(2),
        ));
        const CLIENTS: usize = 8;
        const PER_CLIENT: usize = 25;
        let outcomes: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let server = Arc::clone(&server);
                    scope.spawn(move || {
                        let mut ok = 0;
                        let mut shed = 0;
                        for i in 0..PER_CLIENT {
                            match server.search(QUERIES[(c + i) % QUERIES.len()]) {
                                Ok(resp) => {
                                    assert!(!resp.degraded);
                                    ok += 1;
                                }
                                Err(ServeError::Overloaded { .. }) => shed += 1,
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        (ok, shed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ok: usize = outcomes.iter().map(|o| o.0).sum();
        let shed: usize = outcomes.iter().map(|o| o.1).sum();
        assert_eq!(
            ok + shed,
            CLIENTS * PER_CLIENT,
            "every request accounted for"
        );
        assert!(ok > 0, "some queries must get through");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.completed as usize, ok);
        assert_eq!(snap.shed as usize, shed);
        // The in-flight gauge drained back to zero.
        assert_eq!(server.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn tracing_records_query_shard_and_merge_spans() {
        let (clock, _handle) = ServeClock::manual();
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default()
                .with_clock(clock)
                .with_eval_cost_micros(500)
                .with_tracing(true),
        );
        assert!(server.tracing());
        server.search("wow").unwrap(); // miss → fan-out
        server.search("wow").unwrap(); // cache hit
        let spans = server.take_trace();
        assert!(!spans.is_empty());
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("serve.query"), 2);
        assert_eq!(count("serve.merge"), 1, "cache hit skips the merge");
        assert_eq!(count("shard.eval"), 3, "one eval per shard");
        // Shard spans carry the virtual eval cost on per-shard tracks.
        for s in spans.iter().filter(|s| s.name == "shard.eval") {
            assert_eq!(s.dur, 500);
            assert!(s.track >= 1);
        }
        let hit = spans
            .iter()
            .filter(|s| s.name == "serve.query")
            .nth(1)
            .unwrap();
        assert_eq!(hit.track, 0);
        assert!(hit.args.contains(&("result", AttrValue::str("cache_hit"))));
        assert!(server.take_trace().is_empty(), "take_trace drains");
    }

    #[test]
    fn shard_eval_spans_last_the_charged_cost_however_workers_interleave() {
        // The three shard workers of one fan-out advance the same manual
        // clock concurrently. A span that read the clock back at its end
        // would sometimes include a neighbour's advance; 300 uncached
        // fan-outs make that interleaving all but certain.
        let (clock, _handle) = ServeClock::manual();
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default()
                .with_clock(clock)
                .with_cache_capacity(0)
                .with_eval_cost_micros(500)
                .with_tracing(true),
        );
        for _ in 0..300 {
            server.search("wow").unwrap();
        }
        let spans = server.take_trace();
        let evals: Vec<_> = spans.iter().filter(|s| s.name == "shard.eval").collect();
        assert_eq!(evals.len(), 900);
        for s in evals {
            assert_eq!(s.dur, 500, "shard.eval on track {}", s.track);
        }
    }

    #[test]
    fn untraced_server_returns_no_spans() {
        let server = ShardServer::new(build_broker(2), ServeConfig::default());
        assert!(!server.tracing());
        server.search("wow").unwrap();
        assert!(server.take_trace().is_empty());
    }

    #[test]
    fn shed_query_records_a_shed_span() {
        let (clock, _handle) = ServeClock::manual();
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default()
                .with_clock(clock)
                .with_max_in_flight(0)
                .with_tracing(true),
        );
        assert!(server.search("wow").is_err());
        let spans = server.take_trace();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "serve.shed");
        assert_eq!(spans[0].dur, 0, "shed is an instant marker");
    }

    #[test]
    fn empty_query_answers_empty() {
        let server = ShardServer::new(build_broker(2), ServeConfig::default());
        let resp = server.search("   ").unwrap();
        assert!(resp.results.is_empty());
        assert!(!resp.degraded);
        assert_eq!(server.metrics_snapshot().completed, 1);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = ShardServer::new(build_broker(2), ServeConfig::default());
        assert!(!server.search("wow").unwrap().results.is_empty());
        server.shutdown();
        server.shutdown(); // second call must not hang or panic
    }

    #[test]
    fn search_after_shutdown_errors_instead_of_hanging() {
        let mut server = ShardServer::new(build_broker(2), ServeConfig::default());
        server.shutdown();
        assert_eq!(server.search("wow").unwrap_err(), ServeError::ShuttingDown);
        // Cached entries are unreachable too — the refusal is unconditional.
        assert_eq!(
            server.search_query(&Query::parse("wow")).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn wall_clock_deadline_with_late_shard_degrades_without_panicking() {
        // Exercises the wall-clock `wait_until` abandonment path end to end:
        // a zero deadline under the wall clock makes the caller take the
        // reply slots (possibly before workers deliver); late deliveries
        // must be dropped, not panic the worker. With workers_per_shard=1 a
        // dead worker would hang the follow-up query forever.
        let server = ShardServer::new(
            build_broker(2),
            ServeConfig::default().with_deadline_micros(Some(0)),
        );
        for _ in 0..50 {
            let resp = server.search("wow dance").unwrap();
            assert!(resp.degraded || !resp.results.is_empty());
        }
        // Workers are still alive: a no-deadline-pressure query completes.
        let resp = server.search_query(&Query::parse("great video")).unwrap();
        assert!(resp.degraded || !resp.results.is_empty());
    }
}
