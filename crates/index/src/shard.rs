//! Query shipping over partitioned indexes (thesis §6.4–6.5).
//!
//! The parallel architecture builds **one inverted file per partition**.
//! A query is shipped to every shard; each shard evaluates the conjunction
//! locally and scores every hit with its *local* components (PageRank,
//! AJAXRank, proximity) plus the raw per-term `tf` values and its
//! `(state count, df)` statistics. The broker computes the **global idf**
//! from the summed counts (the formula worked in §6.5.2), completes each
//! hit's score with `w3·Σ tf·idf`, merges and ranks — Steps 1 and 2 of
//! Fig 6.4.
//!
//! Every path runs the same three pieces: one scoring loop
//! ([`eval_shard_into`]), one score completion and one total rank order
//! ([`merge_hits`]). A hit stays numbers until it is returned: a shard's
//! answer is one [`ShardHits`] batch — one result per hit and one flat run
//! of tfs — whether it stays in the process ([`QueryBroker::search`]),
//! crosses a thread (`ajax-serve`) or the wire (`ajax-dist`), and a result
//! shares its page's URL with the index (an `Arc<str>` made once per page)
//! instead of copying it. [`eval_shard`] and [`merge_shard_outputs`] are the
//! same two steps with one owned [`ShardResult`] per hit.

use crate::invert::{DocKey, InvertedIndex, PostingList};
use crate::kernel::{self, ScoreScratch};
use crate::query::{Query, RankWeights};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;

/// A shard-local result before the global tf·idf completion, with its own
/// tfs: the owned form of one hit of a [`ShardHits`] batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    pub shard: usize,
    /// The page's URL, shared with the index (or the reply) it came from.
    pub url: Arc<str>,
    pub doc: DocKey,
    /// `w1·PageRank + w2·AJAXRank + w4·proximity` — everything computable
    /// locally.
    pub base_score: f64,
    /// Raw normalized `tf` per query term.
    pub tfs: Vec<f64>,
}

/// Per-shard term statistics returned alongside results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTermStats {
    /// `|{s | s ∈ Idx}|` — states in the shard.
    pub total_states: u64,
    /// `|{s | s ∈ Idx ∧ k ∈ s}|` per query term.
    pub df: Vec<u64>,
}

/// A fully merged, globally scored result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerResult {
    pub shard: usize,
    pub url: Arc<str>,
    pub doc: DocKey,
    pub score: f64,
}

/// One shard's answer to one query as numbers: what [`eval_shard_into`]
/// fills, a serving worker or a shard server hands on, a `Reply` frame
/// carries, and [`merge_hits`] ranks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardHits {
    /// One result per hit, in doc order. Its `score` is the local base,
    /// `w1·PageRank + w2·AJAXRank + w4·proximity`, until [`merge_hits`]
    /// completes it.
    pub hits: Vec<BrokerResult>,
    /// The raw normalized tf per query term of every hit: `k` per hit, back
    /// to back, in the order of `hits`.
    pub tfs: Vec<f64>,
    /// The shard's `(N, df)`: one df per query term.
    pub stats: ShardTermStats,
}

impl ShardHits {
    /// True when the batch is shaped as an answer to `query`: one df per
    /// query term and that many tfs per hit. [`merge_hits`] requires it of
    /// every batch, so a batch from outside the process is checked first.
    pub fn fits(&self, query: &Query) -> bool {
        let k = query.terms.len();
        self.stats.df.len() == k && k.checked_mul(self.hits.len()) == Some(self.tfs.len())
    }

    /// Each hit with its tfs, `stats.df.len()` of them; a hit past the end
    /// of `tfs` gets none.
    pub fn per_hit(&self) -> impl Iterator<Item = (&BrokerResult, &[f64])> + Clone {
        let k = self.stats.df.len();
        (self.hits.iter().enumerate())
            .map(move |(i, hit)| (hit, self.tfs.get(i * k..(i + 1) * k).unwrap_or_default()))
    }

    /// The batch as owned results, each with its own tfs.
    pub fn into_results(self) -> (Vec<ShardResult>, ShardTermStats) {
        let k = self.stats.df.len();
        let mut tfs = self.tfs.as_slice();
        let results = (self.hits.into_iter())
            .map(|hit| {
                let (own, rest) = tfs.split_at(k.min(tfs.len()));
                tfs = rest;
                ShardResult {
                    shard: hit.shard,
                    url: hit.url,
                    doc: hit.doc,
                    base_score: hit.score,
                    tfs: own.to_vec(),
                }
            })
            .collect();
        (results, self.stats)
    }
}

/// The central "Search Application" that ships queries to every shard and
/// merges the result sets.
#[derive(Debug, Default)]
pub struct QueryBroker {
    shards: Vec<InvertedIndex>,
    pub weights: RankWeights,
}

impl QueryBroker {
    /// Builds a broker over per-partition indexes.
    pub fn new(shards: Vec<InvertedIndex>) -> Self {
        Self {
            shards,
            weights: RankWeights::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Access to a shard (diagnostics).
    pub fn shard(&self, i: usize) -> Option<&InvertedIndex> {
        self.shards.get(i)
    }

    /// Total states across shards (the global `|D|`).
    pub fn total_states(&self) -> u64 {
        self.shards.iter().map(|s| s.total_states).sum()
    }

    /// Estimated heap footprint of all shards (diagnostics, BuildReport).
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(InvertedIndex::approx_bytes).sum()
    }

    /// Bytes served from mmap-ed v4 segments across shards (0 when every
    /// shard is resident).
    pub fn mapped_bytes(&self) -> usize {
        self.shards.iter().map(InvertedIndex::mapped_bytes).sum()
    }

    /// Decomposes the broker into its shards and weights — the handoff a
    /// serving layer uses to distribute shards across worker threads.
    pub fn into_parts(self) -> (Vec<InvertedIndex>, RankWeights) {
        (self.shards, self.weights)
    }

    /// Computes the global idf of each query term from per-shard stats:
    /// `idf(k) = ln( Σ_i |Idx_i| / Σ_i df_i(k) )` — the §6.5.2 formula.
    /// The sums saturate instead of overflowing, and a shard without a df
    /// for a term adds nothing to it.
    pub fn global_idf<'a>(
        query: &Query,
        stats: impl IntoIterator<Item = &'a ShardTermStats>,
    ) -> Vec<f64> {
        let mut total = 0u64;
        let mut df = vec![0u64; query.terms.len()];
        for s in stats {
            total = total.saturating_add(s.total_states);
            for (sum, &n) in df.iter_mut().zip(&s.df) {
                *sum = sum.saturating_add(n);
            }
        }
        (df.into_iter())
            .map(|df| match df == 0 || total == 0 {
                true => 0.0,
                false => (total as f64 / df as f64).ln(),
            })
            .collect()
    }

    /// Full distributed evaluation: ship, collect, complete scores with the
    /// global tf·idf (Step 1 of Fig 6.4), merge and rank (Step 2) — one
    /// [`eval_shard_into`] per shard and one [`merge_hits`], the two calls
    /// the serving and distributed paths make, so all of them return the
    /// same results, score bits included.
    pub fn search(&self, query: &Query) -> Vec<BrokerResult> {
        if query.is_empty() {
            return Vec::new();
        }
        let mut scratch = ScoreScratch::new();
        let batches = (self.shards.iter().enumerate())
            .map(|(i, shard)| {
                let mut batch = ShardHits::default();
                eval_shard_into(shard, i, query, &self.weights, &mut scratch, &mut batch);
                batch
            })
            .collect();
        merge_hits(query, &self.weights, batches)
    }
}

/// The one scoring loop, the "query shipping" leg: replaces `out` with the
/// hits of `query` on `shard`, in ascending doc order, each scored with its
/// local base `w1·PageRank + w2·AJAXRank + w4·proximity` and followed in
/// `out.tfs` by its normalized tf per query term, plus the shard's
/// `(N, df)`. The query arrives already parsed and normalized (tokenization
/// happens once per query, not once per shard), each term's posting run is
/// fetched exactly once, serving both the df statistic and the
/// intersection, and steady-state evaluation reuses every buffer of
/// `scratch` and `out`.
pub fn eval_shard_into(
    shard: &InvertedIndex,
    shard_idx: usize,
    query: &Query,
    weights: &RankWeights,
    scratch: &mut ScoreScratch,
    out: &mut ShardHits,
) {
    let ScoreScratch {
        cursors,
        events,
        term_counts,
        ..
    } = scratch;
    let lists: Vec<PostingList<'_>> = query.terms.iter().map(|t| shard.postings(t)).collect();
    let ShardHits { hits, tfs, stats } = out;
    hits.clear();
    tfs.clear();
    kernel::for_each_match(&lists, cursors, |doc, rows| {
        let (pagerank, ajaxrank) = shard.ranks_of(doc);
        let proximity = kernel::proximity_of_rows(&lists, rows, events, term_counts);
        tfs.extend(
            (lists.iter().zip(rows)).map(|(list, &row)| shard.tf_parts(doc, list.count(row))),
        );
        hits.push(BrokerResult {
            shard: shard_idx,
            url: Arc::clone(&shard.pages[doc.page as usize].url),
            doc,
            score: weights.pagerank * pagerank
                + weights.ajaxrank * ajaxrank
                + weights.proximity * proximity,
        });
    });
    stats.total_states = shard.total_states;
    stats.df.clear();
    stats.df.extend(lists.iter().map(|l| l.len() as u64));
}

/// [`eval_shard_into`] with a fresh scratch, returning owned results.
pub fn eval_shard(
    shard: &InvertedIndex,
    shard_idx: usize,
    query: &Query,
    weights: &RankWeights,
) -> (Vec<ShardResult>, ShardTermStats) {
    let mut batch = ShardHits::default();
    eval_shard_into(
        shard,
        shard_idx,
        query,
        weights,
        &mut ScoreScratch::new(),
        &mut batch,
    );
    batch.into_results()
}

/// A hit's formula-5.3 score: its local `base` plus `w3·Σ tf·idf` over the
/// global idf, summed in term order.
fn complete(base: f64, tfs: &[f64], idf: &[f64], weights: &RankWeights) -> f64 {
    let tfidf: f64 = tfs.iter().zip(idf).map(|(tf, idf)| tf * idf).sum();
    base + weights.tfidf * tfidf
}

/// The one rank order of merged results, sorted in place: score descending
/// (by [`f64::total_cmp`], in lockstep with `query::rank_cmp`), then URL
/// bytes (not compared when both results share one URL), then state, shard
/// and page. It is total over hits, which are distinct in `(shard, page,
/// state)`, so an unstable sort is deterministic; on input in shard order,
/// each shard's hits in doc order, it equals a stable sort on `(score, URL,
/// state)`.
fn rank(results: &mut [BrokerResult]) {
    results.sort_unstable_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| match Arc::ptr_eq(&a.url, &b.url) {
                true => Ordering::Equal,
                false => a.url.cmp(&b.url),
            })
            .then_with(|| a.doc.state.cmp(&b.doc.state))
            .then_with(|| a.shard.cmp(&b.shard))
            .then_with(|| a.doc.page.cmp(&b.doc.page))
    });
}

/// The broker-side half of Fig 6.4: completes every hit's base score with
/// the global tf·idf of all `batches` and ranks the hits of all of them.
/// Shard provenance rides along inside each hit.
///
/// # Panics
///
/// If a batch does not [fit](ShardHits::fits) `query`.
pub fn merge_hits(
    query: &Query,
    weights: &RankWeights,
    batches: Vec<ShardHits>,
) -> Vec<BrokerResult> {
    let idf = QueryBroker::global_idf(query, batches.iter().map(|b| &b.stats));
    let k = query.terms.len();
    let mut merged = Vec::new();
    for mut batch in batches {
        assert!(batch.fits(query), "a batch of another shape than its query");
        for (i, hit) in batch.hits.iter_mut().enumerate() {
            hit.score = complete(hit.score, &batch.tfs[i * k..(i + 1) * k], &idf, weights);
        }
        match merged.is_empty() {
            true => merged = batch.hits,
            false => merged.append(&mut batch.hits),
        }
    }
    rank(&mut merged);
    merged
}

/// [`merge_hits`] over owned results, each carrying its own tfs: the same
/// completion and rank order, so it returns the same results bit for bit.
pub fn merge_shard_outputs(
    query: &Query,
    weights: &RankWeights,
    all_results: Vec<ShardResult>,
    all_stats: &[ShardTermStats],
) -> Vec<BrokerResult> {
    let idf = QueryBroker::global_idf(query, all_stats);
    let mut merged: Vec<BrokerResult> = (all_results.into_iter())
        .map(|r| BrokerResult {
            score: complete(r.base_score, &r.tfs, &idf, weights),
            shard: r.shard,
            url: r.url,
            doc: r.doc,
        })
        .collect();
    rank(&mut merged);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invert::IndexBuilder;
    use crate::query::search;
    use ajax_crawl::model::AppModel;

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
        ]
    }

    fn build_single(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(0.25));
        }
        b.build()
    }

    fn build_sharded(models: &[AppModel], per_shard: usize) -> QueryBroker {
        let shards = models
            .chunks(per_shard)
            .map(|chunk| {
                let mut b = IndexBuilder::new();
                for m in chunk {
                    b.add_model(m, Some(0.25));
                }
                b.build()
            })
            .collect();
        QueryBroker::new(shards)
    }

    #[test]
    fn worked_example_of_section_652() {
        // Idx1: 10 states, 4 with k; Idx2: 13 states, 6 with k
        // ⇒ idf = log(23/10).
        let stats = vec![
            ShardTermStats {
                total_states: 10,
                df: vec![4],
            },
            ShardTermStats {
                total_states: 13,
                df: vec![6],
            },
        ];
        let q = Query::parse("k1");
        let idf = QueryBroker::global_idf(&q, &stats);
        assert!((idf[0] - (23.0f64 / 10.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn sharded_equals_single_index() {
        let models = corpus();
        let single = build_single(&models);
        for per_shard in [1, 2, 3] {
            let broker = build_sharded(&models, per_shard);
            for q in ["wow", "dance", "wow dance", "nothing", "absent"] {
                let query = Query::parse(q);
                let merged = broker.search(&query);
                let reference = search(&single, &query, &RankWeights::default());
                assert_eq!(
                    merged.len(),
                    reference.len(),
                    "query {q:?}, per_shard {per_shard}"
                );
                for (m, r) in merged.iter().zip(reference.iter()) {
                    assert_eq!(*m.url, r.url, "query {q:?}");
                    assert_eq!(m.doc.state, r.doc.state);
                    assert!(
                        (m.score - r.score).abs() < 1e-9,
                        "score mismatch for {q:?}: {} vs {}",
                        m.score,
                        r.score
                    );
                }
            }
        }
    }

    #[test]
    fn total_states_sums_shards() {
        let broker = build_sharded(&corpus(), 2);
        assert_eq!(broker.total_states(), 8);
        assert_eq!(broker.shard_count(), 2);
        assert!(broker.approx_bytes() > 0);
    }

    #[test]
    fn empty_query_empty_results() {
        let broker = build_sharded(&corpus(), 2);
        assert!(broker.search(&Query::parse("")).is_empty());
        assert!(broker.search(&Query::parse("absentterm")).is_empty());
    }

    #[test]
    fn shard_provenance_attached() {
        let broker = build_sharded(&corpus(), 1);
        let results = broker.search(&Query::parse("dance"));
        for r in &results {
            let shard = broker.shard(r.shard).unwrap();
            assert_eq!(
                shard.url_of(r.doc),
                &*r.url,
                "provenance must be consistent"
            );
        }
        // "dance" occurs on pages 2 and 4, which live in shards 1 and 3.
        let shards: std::collections::BTreeSet<_> = results.iter().map(|r| r.shard).collect();
        assert_eq!(shards, [1usize, 3].into_iter().collect());
    }
}
