//! Every query path against the brute-force scorer of `spec/mod.rs` on
//! text-like corpora: up to 19 pages of a few states each, drawn from a
//! wider vocabulary than `broker_spec.rs` uses, each page indexed under
//! PageRank `1/n`. Sequential `search`, `search_top_k` and
//! `QueryBroker::search` must equal the scorer in page, URL, state, score
//! bits and order (the ajax-serve worker path runs the same two halves,
//! asserted again in the workspace integration tests).

mod spec;

use ajax_crawl::model::AppModel;
use ajax_index::{
    search, search_top_k, IndexBuildError, InvertedIndex, Query, QueryBroker, RankWeights,
};
use proptest::prelude::*;
use spec::{brute_force, brute_force_single, build, hits, single_hits, Corpus};

/// Deterministic pseudo-random corpus: `n_pages` pages, a few states each,
/// drawn from a small vocabulary so conjunctions actually match.
fn corpus(seed: u64, n_pages: usize) -> Vec<AppModel> {
    const VOCAB: &[&str] = &[
        "wow",
        "dance",
        "video",
        "morcheeba",
        "singer",
        "great",
        "filler",
        "the",
        "ride",
        "enjoy",
        "mysterious",
        "concert",
        "live",
        "daisy",
        "2",
    ];
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n_pages)
        .map(|p| {
            let mut m = AppModel::new(format!("http://site.example/watch?v={p}"));
            let n_states = 1 + (next() % 4) as usize;
            for s in 0..n_states {
                let n_tokens = 3 + (next() % 12) as usize;
                let text = (0..n_tokens)
                    .map(|_| VOCAB[(next() % VOCAB.len() as u64) as usize])
                    .collect::<Vec<_>>()
                    .join(" ");
                m.add_state((p * 100 + s) as u64 + 1, text, None);
            }
            m
        })
        .collect()
}

const QUERIES: &[&str] = &[
    "wow",
    "wow dance",
    "morcheeba singer",
    "the great video",
    "enjoy the ride",
    "wow wow",
    "mysterious",
    "absentterm",
    "wow absentterm",
    "",
    "dance video filler",
];

/// `models` in shards of `per_shard` pages under the default weights.
fn sharded(models: &[AppModel], per_shard: usize, query: &str) -> Corpus {
    let pagerank = 1.0 / models.len().max(1) as f64;
    let shards = (models.chunks(per_shard.max(1)))
        .map(|pages| pages.iter().map(|m| (m.clone(), pagerank)).collect())
        .collect();
    Corpus {
        shards,
        weights: RankWeights::default(),
        query: Query::parse(query),
    }
}

/// Asserts that `search` over one index of `models` equals the scorer, and
/// `search_top_k` its first `k` results for each of `ks`.
fn assert_single_index(models: &[AppModel], query: &str, ks: &[usize]) {
    let c = sharded(models, models.len(), query);
    let index = build(&c.shards[0]);
    let want = brute_force_single(&c, 0);
    let got = single_hits(&search(&index, &c.query, &c.weights), 0);
    assert_eq!(got, want, "search, query {query:?}");
    for &k in ks {
        let top = single_hits(&search_top_k(&index, &c.query, &c.weights, k), 0);
        assert_eq!(top, want[..k.min(want.len())], "query {query:?}, k {k}");
    }
}

#[test]
fn sequential_search_equals_reference() {
    for seed in [1u64, 7, 42, 1234] {
        let models = corpus(seed, 12);
        for q in QUERIES {
            assert_single_index(&models, q, &[]);
        }
    }
}

#[test]
fn top_k_equals_reference() {
    for seed in [3u64, 99] {
        let models = corpus(seed, 16);
        for q in QUERIES {
            assert_single_index(&models, q, &[0, 1, 3, 10, 500]);
        }
    }
}

#[test]
fn broker_search_equals_reference() {
    for seed in [5u64, 77] {
        let models = corpus(seed, 13);
        for per_shard in [1usize, 3, 5, 13] {
            for q in QUERIES {
                let c = sharded(&models, per_shard, q);
                let broker = QueryBroker::new(c.shards.iter().map(build).collect());
                let got = hits(&broker.search(&c.query));
                assert_eq!(got, brute_force(&c), "{per_shard} per shard, query {q:?}");
            }
        }
    }
}

#[test]
fn parallel_build_searches_identically() -> Result<(), IndexBuildError> {
    let models = corpus(11, 17);
    let sequential = build(&sharded(&models, 17, "").shards[0]);
    // Partitions built apart, as the parallel crawl's process lines do, and
    // merged as `ajax-search build` saves them.
    let merged = InvertedIndex::try_merge_segments(
        sharded(&models, 5, "").shards.iter().map(build).collect(),
    )?;
    assert_eq!(
        sequential, merged,
        "canonical layout must make builds structurally equal"
    );
    let w = RankWeights::default();
    for q in QUERIES {
        let query = Query::parse(q);
        assert_eq!(
            single_hits(&search(&sequential, &query, &w), 0),
            single_hits(&search(&merged, &query, &w), 0),
            "query {q:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized corpora: the kernel's results (docs, order, score bits)
    /// equal the brute-force scorer's, and `search_top_k(k)` its first `k`.
    #[test]
    fn kernel_equals_naive_semantics(
        seed in 0u64..10_000,
        n_pages in 1usize..20,
        query_idx in 0usize..QUERIES.len(),
        k in 0usize..25,
    ) {
        let c = sharded(&corpus(seed, n_pages), n_pages, QUERIES[query_idx]);
        let index = build(&c.shards[0]);
        let want = brute_force_single(&c, 0);
        let full = single_hits(&search(&index, &c.query, &c.weights), 0);
        prop_assert_eq!(&full, &want);
        let top = single_hits(&search_top_k(&index, &c.query, &c.weights, k), 0);
        prop_assert_eq!(&top[..], &want[..k.min(want.len())]);
    }
}
