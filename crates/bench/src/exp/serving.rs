//! Concurrent query serving (the `ajax-serve` subsystem): throughput of the
//! shard-worker-pool server vs the single-threaded `QueryBroker`, result-
//! cache effectiveness on a repeated workload, and overload accounting.
//!
//! Three phases over the thesis' 100-query VidShare workload (Table 7.4):
//!
//! 1. **throughput** — the 100 queries run once through the sequential
//!    broker, with each `(query, shard)` evaluation individually timed.
//!    Those per-shard costs are then replayed through the repo's virtual
//!    scheduler ([`ajax_net::simulate`]): one process line per worker, one
//!    core per worker — the deterministic timing axis every experiment in
//!    this repo reports on (wall-clock numbers are also collected, but on a
//!    small host the virtual model is the meaningful one). The model covers
//!    shard evaluation — the dominant, parallelized cost; the global-idf
//!    merge stays on the caller in both flavours.
//! 2. **caching** — a fresh server runs the workload twice; the second pass
//!    should be answered from the LRU result cache.
//! 3. **overload** — client threads hammer a server whose admission gate is
//!    capped far below the offered load; every request must come back as a
//!    result or a typed `Overloaded` error (zero lost).

use crate::util::TableFmt;
use ajax_engine::{AjaxSearchEngine, EngineConfig};
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::Query;
use ajax_index::shard::{eval_shard, QueryBroker};
use ajax_net::{simulate, Segment, Task, Url};
use ajax_serve::{ServeConfig, ServeError, ShardServer};
use ajax_webgen::queries::query_phrases;
use ajax_webgen::{VidShareServer, VidShareSpec};
use serde::Serialize;
use std::sync::Arc;

/// Serving-experiment results.
#[derive(Debug, Clone, Serialize)]
pub struct ServingData {
    pub videos: u64,
    pub shards: u64,
    pub workers: u64,
    pub queries: u64,
    /// The measured per-(query, shard) eval times replayed on one worker.
    pub virtual_serial_nanos: u64,
    /// The same measured times replayed on `workers` workers (one per shard).
    pub virtual_parallel_nanos: u64,
    /// `virtual_serial / virtual_parallel` — the throughput multiplier.
    pub virtual_speedup: f64,
    /// Informational wall-clock numbers (noisy; host-dependent).
    pub sequential_wall_micros: u64,
    pub server_wall_micros: u64,
    /// Cache phase: hit rate over two passes of the workload (pass 2 should
    /// hit on every repeated query).
    pub repeat_hit_rate: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Overload phase: accounting across `burst_clients` closed-loop
    /// clients against a capacity-2 admission gate.
    pub burst_clients: u64,
    pub burst_issued: u64,
    pub burst_completed: u64,
    pub burst_shed: u64,
    /// `issued − completed − shed`; the zero-lost-queries invariant.
    pub burst_lost: u64,
}

/// Default collection: 4 shards × 1 worker (the "4 workers" configuration),
/// sized by the experiment scale.
pub fn collect(scale: &crate::scale::Scale) -> ServingData {
    collect_with(scale.query_pages.min(200), 4, 8)
}

/// Parameterized collection: `videos` pages, `shards` single-worker pools,
/// `burst_clients` overload clients.
pub fn collect_with(videos: u32, shards: usize, burst_clients: usize) -> ServingData {
    let workload = query_phrases();

    // Build the corpus once; shard it `shards`-ways ourselves so the worker
    // count is exactly what the experiment says.
    eprintln!("[serving] building index over {videos} videos…");
    let spec = VidShareSpec::small(videos);
    let start = Url::parse(&spec.watch_url(0));
    let site = Arc::new(VidShareServer::new(spec));
    let mut config = EngineConfig::ajax(videos as usize);
    config.keep_models = true;
    let engine = AjaxSearchEngine::build(site, &start, config);
    let pagerank = engine.graph.pagerank.clone();
    let models = engine.models;
    let per_shard = models.len().div_ceil(shards.max(1));
    let build_shards = || -> Vec<InvertedIndex> {
        models
            .chunks(per_shard.max(1))
            .map(|chunk| {
                let mut b = IndexBuilder::new();
                for m in chunk {
                    b.add_model(m, pagerank.get(&m.url).copied());
                }
                b.build()
            })
            .collect()
    };

    // Phase 1: sequential pass, timing every (query, shard) evaluation.
    eprintln!(
        "[serving] sequential baseline over {} queries…",
        workload.len()
    );
    let broker = QueryBroker::new(build_shards());
    let shard_count = broker.shard_count();
    let weights = broker.weights;
    let mut eval_tasks = Vec::with_capacity(workload.len() * shard_count);
    let wall0 = std::time::Instant::now();
    for q in workload {
        let query = Query::parse(q);
        for s in 0..shard_count {
            let shard = broker.shard(s).expect("shard");
            let t0 = std::time::Instant::now();
            let _ = eval_shard(shard, s, &query, &weights);
            let nanos = (t0.elapsed().as_nanos() as u64).max(1);
            eval_tasks.push(Task::new(vec![Segment::Cpu(nanos)]));
        }
        let _ = broker.search(&query);
    }
    let sequential_wall_micros = wall0.elapsed().as_micros() as u64;

    // Replay the measured costs through the virtual scheduler: 1 line/core
    // (serial) vs one line+core per worker (the shard pools).
    let serial = simulate(&eval_tasks, 1, 1);
    let parallel = simulate(&eval_tasks, shard_count, shard_count);
    let virtual_speedup = serial.makespan as f64 / parallel.makespan.max(1) as f64;

    // Closed-loop multi-client wall-clock run through the real server
    // (informational): `burst_clients` threads split the workload evenly,
    // admission uncapped, cache off so every query evaluates.
    let server = Arc::new(ShardServer::new(
        QueryBroker::new(build_shards()),
        ServeConfig::default()
            .with_cache_capacity(0)
            .with_max_in_flight(usize::MAX),
    ));
    let wall1 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..burst_clients.max(1) {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                for (i, q) in workload.iter().enumerate() {
                    if i % burst_clients.max(1) == c {
                        server.search(q).expect("admitted");
                    }
                }
            });
        }
    });
    let server_wall_micros = wall1.elapsed().as_micros() as u64;

    // Phase 2: repeated workload against a fresh cached server.
    eprintln!("[serving] cache phase (2 × {} queries)…", workload.len());
    let cached = ShardServer::new(
        QueryBroker::new(build_shards()),
        ServeConfig::default().with_cache_capacity(workload.len()),
    );
    for _pass in 0..2 {
        for q in workload {
            cached.search(q).expect("admitted");
        }
    }
    let cache_snap = cached.metrics_snapshot();

    // Phase 3: overload burst against a capacity-2 admission gate.
    eprintln!("[serving] overload burst ({burst_clients} clients)…");
    let burst = Arc::new(ShardServer::new(
        QueryBroker::new(build_shards()),
        ServeConfig::default()
            .with_max_in_flight(2)
            .with_cache_capacity(0),
    ));
    let per_client = workload.len();
    let (completed, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..burst_clients)
            .map(|c| {
                let burst = Arc::clone(&burst);
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for i in 0..per_client {
                        match burst.search(workload[(c + i) % workload.len()]) {
                            Ok(_) => ok += 1,
                            Err(ServeError::Overloaded { .. }) => shed += 1,
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client"))
            .fold((0u64, 0u64), |(a, b), (ca, cs)| (a + ca, b + cs))
    });
    let issued = (burst_clients * per_client) as u64;

    ServingData {
        videos: videos as u64,
        shards: shard_count as u64,
        workers: shard_count as u64,
        queries: workload.len() as u64,
        virtual_serial_nanos: serial.makespan,
        virtual_parallel_nanos: parallel.makespan,
        virtual_speedup,
        sequential_wall_micros,
        server_wall_micros,
        repeat_hit_rate: cache_snap.cache_hit_rate,
        cache_hits: cache_snap.cache_hits,
        cache_misses: cache_snap.cache_misses,
        burst_clients: burst_clients as u64,
        burst_issued: issued,
        burst_completed: completed,
        burst_shed: shed,
        burst_lost: issued - completed - shed,
    }
}

impl ServingData {
    /// Renders the serving summary table.
    pub fn render(&self) -> String {
        let mut table = TableFmt::new(vec!["metric", "value"]);
        table.row(vec![
            "workload".to_string(),
            format!(
                "{} queries / {} videos / {} shards",
                self.queries, self.videos, self.shards
            ),
        ]);
        // Both are per-(query, shard) wall timings replayed through the
        // scheduler: measured costs, only their arrangement is simulated.
        table.row(vec![
            "replayed wall: serial eval".to_string(),
            format!("{:.2} ms", self.virtual_serial_nanos as f64 / 1e6),
        ]);
        table.row(vec![
            format!("replayed wall: {}-worker span", self.workers),
            format!("{:.2} ms", self.virtual_parallel_nanos as f64 / 1e6),
        ]);
        table.row(vec![
            "virtual speedup".to_string(),
            format!("x{:.2}", self.virtual_speedup),
        ]);
        table.row(vec![
            "wall: sequential broker".to_string(),
            format!("{:.2} ms", self.sequential_wall_micros as f64 / 1e3),
        ]);
        table.row(vec![
            "wall: server closed-loop".to_string(),
            format!("{:.2} ms", self.server_wall_micros as f64 / 1e3),
        ]);
        table.row(vec![
            "repeat-workload cache hit rate".to_string(),
            format!(
                "{:.0}% ({} hits / {} misses)",
                self.repeat_hit_rate * 100.0,
                self.cache_hits,
                self.cache_misses
            ),
        ]);
        table.row(vec![
            "overload burst".to_string(),
            format!(
                "{} issued = {} completed + {} shed ({} lost)",
                self.burst_issued, self.burst_completed, self.burst_shed, self.burst_lost
            ),
        ]);
        format!(
            "Serving — worker-pool throughput, cache, and admission control\n{}\n\
             invariants: speedup ≥ 2 at 4 workers; hit rate > 0; 0 lost\n",
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criteria of the serving subsystem, at test scale:
    /// ≥2× virtual throughput at 4 workers, cache hits on the repeated
    /// phase, and zero lost queries under the burst.
    #[test]
    fn serving_meets_acceptance_criteria() {
        let data = collect_with(24, 4, 6);
        assert_eq!(data.shards, 4);
        assert!(
            data.virtual_speedup >= 2.0,
            "virtual speedup x{:.2} below 2 at 4 workers",
            data.virtual_speedup
        );
        assert!(
            data.repeat_hit_rate > 0.0,
            "repeated workload must hit the cache"
        );
        assert!(
            data.cache_hits >= data.queries,
            "second pass should hit throughout"
        );
        assert_eq!(
            data.burst_lost, 0,
            "every burst request must be accounted for"
        );
        assert_eq!(data.burst_issued, data.burst_completed + data.burst_shed);
        assert!(!data.render().is_empty());
    }
}
