//! Distributed-serving equivalence and chaos tests (`ajax-dist`).
//!
//! The load-bearing invariant: a coordinator over N shard *processes*
//! (here: thread-mode shard servers speaking the real TCP protocol) returns
//! **bit-identical** merged results to single-process serving — same
//! documents, same order, same score bits — for every shard count. Global
//! idf is computed from exact integer sums at merge time, per-document
//! scores are shard-local, and the wire round-trips every float bit, so
//! partitioning must be unobservable in the ranking.
//!
//! Document identity across partitionings is `(url, doc.state)`; the
//! `shard` field and `doc.page` (an index into the owning partition's page
//! table) are partition-relative provenance and excluded from comparison.
//!
//! On top of equivalence: crash → degraded partial results → restart →
//! recovery through the transport's reconnect backoff, and hedged requests
//! under an injected slow shard (latency changes, results never).

use ajax_crawl::model::AppModel;
use ajax_dist::{partition_models, ClusterConfig, DistCluster};
use ajax_index::shard::QueryBroker;
use ajax_index::{BrokerResult, RankWeights};
use ajax_net::{Fault, FaultPlan, FaultRule, ProxyConfig, Url};
use ajax_serve::{ServeConfig, ShardServer};
use ajax_webgen::queries::query_phrases;
use ajax_webgen::{VidShareServer, VidShareSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

const CORPUS_PAGES: u32 = 30;

/// Deterministic, expensive crawl — built once, shared by every test.
fn corpus() -> &'static (Vec<AppModel>, HashMap<String, f64>) {
    static CORPUS: OnceLock<(Vec<AppModel>, HashMap<String, f64>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        use ajax_engine::{AjaxSearchEngine, EngineConfig};
        let spec = VidShareSpec::small(CORPUS_PAGES);
        let start = Url::parse(&spec.watch_url(0));
        let server = Arc::new(VidShareServer::new(spec));
        let mut config = EngineConfig::ajax(CORPUS_PAGES as usize);
        config.keep_models = true;
        let engine = AjaxSearchEngine::build(server, &start, config);
        let pagerank = engine.graph.pagerank.clone();
        (engine.models, pagerank)
    })
}

fn partitions(shards: usize) -> Vec<ajax_index::InvertedIndex> {
    let (models, pagerank) = corpus();
    partition_models(models, |url| pagerank.get(url).copied(), shards, None)
}

fn launch(shards: usize, config: ClusterConfig) -> DistCluster {
    DistCluster::launch_threads(partitions(shards), RankWeights::default(), config)
        .expect("cluster launch")
}

/// The single-process reference: the whole corpus through `ajax-serve`.
fn single_process() -> &'static ShardServer {
    static SINGLE: OnceLock<ShardServer> = OnceLock::new();
    SINGLE.get_or_init(|| ShardServer::new(QueryBroker::new(partitions(1)), ServeConfig::default()))
}

/// Asserts partition-invariant bit-identity of two merged result lists.
fn assert_bit_identical(got: &[BrokerResult], want: &[BrokerResult], context: &str) {
    assert_eq!(got.len(), want.len(), "result count for {context}");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.url, w.url, "url at rank {rank} for {context}");
        assert_eq!(
            g.doc.state, w.doc.state,
            "state at rank {rank} for {context}"
        );
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "score bits at rank {rank} for {context}: {} vs {}",
            g.score,
            w.score
        );
    }
}

/// The full Table 7.4 workload through 1-, 2- and 4-shard clusters must be
/// bit-identical to single-process serving.
#[test]
fn coordinator_matches_single_process_across_shard_counts() {
    let reference = single_process();
    for shards in [1usize, 2, 4] {
        let mut cluster = launch(shards, ClusterConfig::default());
        for q in query_phrases() {
            let want = reference.search(q).expect("single-process admitted");
            let got = cluster.server.search(q).expect("coordinator admitted");
            assert!(!got.degraded, "{shards} shards degraded on {q:?}");
            assert_bit_identical(
                &got.results,
                &want.results,
                &format!("{q:?} at {shards} shards"),
            );
        }
        cluster.shutdown();
    }
}

/// Killing a shard degrades responses (partial results, the dead shard
/// listed missing) instead of hanging or erroring; restarting it on the
/// same port recovers full, bit-identical results through the transport's
/// reconnect backoff.
#[test]
fn crashed_shard_degrades_then_restart_recovers() {
    let probe = "wow";
    // Cache off: the post-crash probe must actually cross the wire, not be
    // answered from the result cache.
    let mut cluster = launch(
        2,
        ClusterConfig {
            serve: ServeConfig::default().with_cache_capacity(0),
            ..ClusterConfig::default()
        },
    );

    let baseline = cluster.server.search(probe).expect("admitted");
    assert!(!baseline.degraded);

    cluster.kill_shard(1);
    let degraded = cluster.server.search(probe).expect("admitted");
    assert!(degraded.degraded, "dead shard must degrade the response");
    assert_eq!(degraded.missing_shards, vec![1]);
    assert!(
        degraded.results.len() < baseline.results.len(),
        "partial results must come from the surviving shard only"
    );

    cluster.restart_shard(1).expect("restart");
    // Reconnect backoff starts at 5 ms and doubles; give it a few rounds.
    let mut recovered = None;
    for _ in 0..200 {
        let resp = cluster.server.search(probe).expect("admitted");
        if !resp.degraded {
            recovered = Some(resp);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let recovered = recovered.expect("coordinator never re-adopted the restarted shard");
    assert_bit_identical(&recovered.results, &baseline.results, "post-restart probe");
    cluster.shutdown();
}

/// A uniformly slow shard (every reply chunk delayed through the chaos
/// proxy) triggers hedged requests on the direct path; hedging changes
/// latency, never results.
#[test]
fn hedging_under_slow_shard_preserves_results() {
    let chaos = ProxyConfig::new(FaultPlan::new(7).with_rule(FaultRule::matching(
        "shard1/reply",
        1.0,
        Fault::Slow { factor: 40.0 },
    )));
    let mut cluster = launch(
        2,
        ClusterConfig {
            serve: ServeConfig::default().with_cache_capacity(0),
            hedge_after_micros: Some(1_000),
            chaos: Some(chaos),
        },
    );
    let reference = single_process();
    for q in query_phrases().iter().take(25) {
        let want = reference.search(q).expect("single-process admitted");
        let got = cluster.server.search(q).expect("coordinator admitted");
        assert!(
            !got.degraded,
            "hedging must keep results complete for {q:?}"
        );
        assert_bit_identical(&got.results, &want.results, &format!("{q:?} hedged"));
    }
    assert!(
        cluster.hedges_fired() > 0,
        "a uniformly slow shard must fire hedges"
    );
    cluster.shutdown();
}

/// A hedge timer that fires after its query completed must find the
/// request finished and ship nothing (the probe used to read the emptied
/// reply slots as "never answered" and re-issue every request).
#[test]
fn hedge_timer_after_completion_ships_nothing() {
    let hedge_after = std::time::Duration::from_millis(400);
    let mut cluster = launch(
        2,
        ClusterConfig {
            serve: ServeConfig::default().with_cache_capacity(0),
            hedge_after_micros: Some(hedge_after.as_micros() as u64),
            ..ClusterConfig::default()
        },
    );
    let started = std::time::Instant::now();
    for q in query_phrases().iter().take(5) {
        let got = cluster.server.search(q).expect("coordinator admitted");
        assert!(!got.degraded);
    }
    // Every query was over before its timer: loopback round trips take
    // about a millisecond. (Should a stalled machine break that, a hedge
    // is legitimate and the check below says nothing.)
    let all_done_early = started.elapsed() < hedge_after;
    std::thread::sleep(hedge_after + std::time::Duration::from_millis(200));
    if all_done_early {
        assert_eq!(cluster.hedges_fired(), 0, "finished requests re-issued");
    }
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded query selections over seeded shard counts: every sampled
    /// query's coordinator top-k (documents, order, score bits) equals
    /// single-process serve.
    #[test]
    fn sampled_queries_match_single_process(
        shards in 1usize..=4,
        picks in proptest::collection::vec(0usize..100, 4..12),
    ) {
        let reference = single_process();
        let workload = query_phrases();
        let mut cluster = launch(shards, ClusterConfig::default());
        for &i in &picks {
            let q = workload[i % workload.len()];
            let want = reference.search(q)
                .map_err(|e| TestCaseError::fail(format!("reference shed {q:?}: {e}")))?;
            let got = cluster.server.search(q)
                .map_err(|e| TestCaseError::fail(format!("coordinator shed {q:?}: {e}")))?;
            prop_assert!(!got.degraded, "degraded on {:?} at {} shards", q, shards);
            prop_assert_eq!(got.results.len(), want.results.len(), "count for {:?}", q);
            for (rank, (g, w)) in got.results.iter().zip(want.results.iter()).enumerate() {
                prop_assert_eq!(&g.url, &w.url, "url at rank {} for {:?}", rank, q);
                prop_assert_eq!(g.doc.state, w.doc.state, "state at rank {} for {:?}", rank, q);
                prop_assert_eq!(
                    g.score.to_bits(), w.score.to_bits(),
                    "score bits at rank {} for {:?}", rank, q
                );
            }
        }
        cluster.shutdown();
    }
}
