//! The query side: the three serving tiers behind one `Tier` trait, the
//! reference results every op is checked against, and the closed-loop round
//! runner that feeds the envelope.

use crate::rounds::{run_rounds, Plan, Rounds};
use crate::spans::{scoped, SpanBuf, TraceSink};
use ajax_dist::{ClusterConfig, DistCluster};
use ajax_dom::Fnv64;
use ajax_index::{
    eval_shard, merge_shard_outputs, BrokerResult, InvertedIndex, Query, QueryBroker, RankWeights,
};
use ajax_serve::{ServeConfig, ServeResponse, ShardServer};
use std::time::Instant;

/// One hash over everything a caller can see of a result list: url, state
/// and score bits of every entry, in rank order. (`shard` and `doc.page` are
/// partition-relative and legitimately differ between partitionings.)
pub fn fingerprint(results: &[BrokerResult]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(results.len() as u64);
    for r in results {
        h.write_str(&r.url);
        h.write_u64(u64::from(r.doc.state.0));
        h.write_u64(r.score.to_bits());
    }
    h.finish()
}

/// Reference results of every pool query, from a `QueryBroker` over one
/// in-memory index.
pub struct Expected {
    pub fingerprints: Vec<u64>,
    pub result_counts: Vec<u32>,
}

impl Expected {
    pub fn compute(reference: &QueryBroker, pool: &[String]) -> Self {
        let (fingerprints, result_counts) = pool
            .iter()
            .map(|text| {
                let results = reference.search(&Query::parse(text));
                (fingerprint(&results), results.len() as u32)
            })
            .unzip();
        Self {
            fingerprints,
            result_counts,
        }
    }
}

/// What one op returned.
pub struct Outcome {
    pub fingerprint: u64,
    /// Served in full: not shed, not degraded, no error.
    pub served: bool,
    pub from_cache: bool,
}

impl Outcome {
    fn of_results(results: &[BrokerResult]) -> Self {
        Self {
            fingerprint: fingerprint(results),
            served: true,
            from_cache: false,
        }
    }

    fn of_response<E>(response: Result<ServeResponse, E>) -> Self {
        match response {
            Ok(r) => Self {
                fingerprint: fingerprint(&r.results),
                served: !r.degraded,
                from_cache: r.from_cache,
            },
            Err(_) => Self {
                fingerprint: 0,
                served: false,
                from_cache: false,
            },
        }
    }
}

/// A system that answers query texts.
pub trait Tier {
    /// Called at each round start so the round replays exactly.
    fn reset(&mut self) {}
    /// Answers one query; with `spans`, records the calls into each layer.
    fn run(&mut self, text: &str, op: u32, spans: Option<&mut SpanBuf>) -> Outcome;
}

/// `QueryBroker::search` on the caller's thread: no threads, queues, sockets.
pub struct Direct {
    pub broker: QueryBroker,
    /// The baseline the other tiers' overheads are read against: traced as
    /// one `ref.broker` span per op instead of step by step.
    pub baseline: bool,
}

impl Tier for Direct {
    fn run(&mut self, text: &str, op: u32, spans: Option<&mut SpanBuf>) -> Outcome {
        let results = match spans {
            Some(spans) if !self.baseline => self.search_step_by_step(text, op, spans),
            spans => scoped(spans, "ref.broker", op, || {
                self.broker.search(&Query::parse(text))
            }),
        };
        Outcome::of_results(&results)
    }
}

impl Direct {
    /// `QueryBroker::search`, its three steps called one by one.
    fn search_step_by_step(&self, text: &str, op: u32, spans: &mut SpanBuf) -> Vec<BrokerResult> {
        let query = spans.scope("index.parse", op, |_| Query::parse(text));
        if query.is_empty() {
            return Vec::new();
        }
        let weights = self.broker.weights;
        let mut all_results = Vec::new();
        let mut all_stats = Vec::new();
        for i in 0..self.broker.shard_count() {
            let shard = self.broker.shard(i).expect("shard in range");
            let (results, stats) =
                spans.scope("index.eval", op, |_| eval_shard(shard, i, &query, &weights));
            all_results.extend(results);
            all_stats.push(stats);
        }
        spans.scope("index.merge", op, |_| {
            merge_shard_outputs(&query, &weights, all_results, &all_stats)
        })
    }
}

/// `ShardServer` over in-process shards: cache, admission, worker pools.
pub struct Serve(pub ShardServer);

impl Tier for Serve {
    fn reset(&mut self) {
        self.0.invalidate_cache();
    }

    fn run(&mut self, text: &str, op: u32, spans: Option<&mut SpanBuf>) -> Outcome {
        Outcome::of_response(scoped(spans, "serve.search", op, || self.0.search(text)))
    }
}

/// Coordinator + shard servers over loopback TCP.
pub struct Dist(pub DistCluster);

impl Tier for Dist {
    fn run(&mut self, text: &str, op: u32, spans: Option<&mut SpanBuf>) -> Outcome {
        Outcome::of_response(scoped(spans, "dist.search", op, || {
            self.0.server.search(text)
        }))
    }
}

/// Admission uncapped: a closed loop of one client can never be shed.
fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig::default()
        .with_workers_per_shard(1)
        .with_cache_capacity(cache_capacity)
        .with_max_in_flight(usize::MAX)
}

pub fn launch_serve(shards: Vec<InvertedIndex>) -> Serve {
    let default_cache = ServeConfig::default().cache_capacity;
    Serve(ShardServer::new(
        QueryBroker::new(shards),
        serve_config(default_cache),
    ))
}

/// No cache, no hedging, no chaos: every op crosses the wire.
pub fn launch_dist(shards: Vec<InvertedIndex>) -> Dist {
    Dist(
        DistCluster::launch_threads(
            shards,
            RankWeights::default(),
            ClusterConfig {
                serve: serve_config(0),
                hedge_after_micros: None,
                chaos: None,
            },
        )
        .expect("launch the shard threads on loopback"),
    )
}

pub struct Measured {
    pub rounds: Rounds,
    pub attempted: u64,
    /// Ops that were shed, degraded, errored or returned a wrong result.
    pub failed: u64,
    /// Per op: answered from the cache (identical in every round).
    pub from_cache: Vec<bool>,
}

/// Replays `seq` (indices into `pool`) round after round through `tier`,
/// one closed-loop client, timing each op and checking each result.
pub fn measure(
    tier: &mut dyn Tier,
    seq: &[u32],
    pool: &[String],
    expected: &Expected,
    plan: Plan,
    sink: Option<TraceSink<'_>>,
) -> Measured {
    let (mut attempted, mut failed) = (0, 0);
    let mut from_cache = vec![false; seq.len()];
    let rounds = run_rounds(plan, seq.len(), sink, |latencies, mut spans| {
        tier.reset();
        for (i, &q) in seq.iter().enumerate() {
            let text = &pool[q as usize];
            let t = Instant::now();
            let outcome = tier.run(text, i as u32, spans.as_deref_mut());
            latencies[i] = t.elapsed().as_nanos() as u64;
            attempted += 1;
            if !outcome.served || outcome.fingerprint != expected.fingerprints[q as usize] {
                failed += 1;
            }
            from_cache[i] = outcome.from_cache;
        }
        0
    });
    Measured {
        rounds,
        attempted,
        failed,
        from_cache,
    }
}
