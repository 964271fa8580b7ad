//! Property test: the concurrent `ajax-serve` path must be **byte-identical**
//! to the sequential `QueryBroker` — same documents, same score bits, same
//! order — for the full 100-query VidShare workload, under any sharding and
//! any worker count.
//!
//! This is the load-bearing invariant of the serving subsystem: worker pools
//! change *when and where* shard evaluation runs, never *what* it computes.
//! The server collects shard replies in shard order before the global-idf
//! merge, which pins the floating-point summation order to the sequential
//! one. What the sequential broker must return is stated in turn by the
//! brute-force scorer of `crates/index/tests/spec/mod.rs`.

use ajax_crawl::model::AppModel;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::Query;
use ajax_index::shard::QueryBroker;
use ajax_net::Url;
use ajax_serve::{ServeConfig, ShardServer};
use ajax_webgen::queries::query_phrases;
use ajax_webgen::{VidShareServer, VidShareSpec};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The crawled corpus is deterministic and expensive, so it is built once
/// and shared by every proptest case; cases vary the sharding and worker
/// count over it.
fn corpus() -> &'static (Vec<AppModel>, HashMap<String, f64>) {
    static CORPUS: OnceLock<(Vec<AppModel>, HashMap<String, f64>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        use ajax_engine::{AjaxSearchEngine, EngineConfig};
        let spec = VidShareSpec::small(40);
        let start = Url::parse(&spec.watch_url(0));
        let server = Arc::new(VidShareServer::new(spec));
        let mut config = EngineConfig::ajax(40);
        config.keep_models = true;
        let engine = AjaxSearchEngine::build(server, &start, config);
        let pagerank = engine.graph.pagerank.clone();
        (engine.models, pagerank)
    })
}

fn build_shards(per_shard: usize) -> Vec<InvertedIndex> {
    let (models, pagerank) = corpus();
    models
        .chunks(per_shard)
        .map(|chunk| {
            let mut b = IndexBuilder::new();
            for m in chunk {
                b.add_model(m, pagerank.get(&m.url).copied());
            }
            b.build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn serving_workload_matches_sequential_broker(
        per_shard in 1usize..=13,
        workers in 1usize..=4,
    ) {
        let sequential = QueryBroker::new(build_shards(per_shard));
        let server = ShardServer::new(
            QueryBroker::new(build_shards(per_shard)),
            ServeConfig::default().with_workers_per_shard(workers),
        );
        for q in query_phrases() {
            let query = Query::parse(q);
            let expected = sequential.search(&query);
            let got = server.search_query(&query)
                .map_err(|e| TestCaseError::fail(format!("query {q:?} not admitted: {e}")))?;
            prop_assert!(!got.degraded, "no deadline configured, nothing may degrade");
            prop_assert_eq!(
                expected.len(), got.results.len(),
                "result count differs for {:?}", q
            );
            for (rank, (e, g)) in expected.iter().zip(got.results.iter()).enumerate() {
                prop_assert_eq!(&e.url, &g.url, "url at rank {} for {:?}", rank, q);
                prop_assert_eq!(e.doc, g.doc, "doc at rank {} for {:?}", rank, q);
                prop_assert_eq!(e.shard, g.shard, "shard at rank {} for {:?}", rank, q);
                prop_assert_eq!(
                    e.score.to_bits(), g.score.to_bits(),
                    "score bits at rank {} for {:?}: {} vs {}", rank, q, e.score, g.score
                );
            }
        }
    }
}
