//! Query processing (thesis §5.3): boolean keyword queries and conjunctions
//! over the state-granular inverted file, ranked by formula 5.3.
//!
//! Evaluation runs on the allocation-free kernel (`kernel.rs`): galloping
//! intersection over the columnar posting runs, scoring over raw `DocKey`s,
//! and URL strings materialized only for the results that are actually
//! returned — for [`search_top_k`] that is at most `k` strings however many
//! candidates matched.

use crate::invert::{DocKey, InvertedIndex, PostingList};
use crate::kernel::{self, ScoreScratch, TopK};
use crate::probe;
use crate::tokenize::query_terms;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A parsed query: a conjunction of terms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    pub terms: Vec<String>,
}

impl Query {
    /// Parses a query string (`"Morcheeba Enjoy the Ride"` ⇒ 4 terms).
    pub fn parse(text: &str) -> Self {
        Self {
            terms: query_terms(text),
        }
    }

    /// True when the query has no terms (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The weights `w1..w4` of ranking formula 5.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankWeights {
    /// `w1` — PageRank of the URL.
    pub pagerank: f64,
    /// `w2` — AJAXRank of the state within its page.
    pub ajaxrank: f64,
    /// `w3` — Σ tf·idf over the query terms.
    pub tfidf: f64,
    /// `w4` — term proximity.
    pub proximity: f64,
}

impl Default for RankWeights {
    fn default() -> Self {
        Self {
            pagerank: 0.15,
            ajaxrank: 0.15,
            tfidf: 0.55,
            proximity: 0.15,
        }
    }
}

/// One ranked search result: a `(URL, state)` pair with its score — exactly
/// the 3-tuple `(u, s, r)` of §6.5.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    pub url: String,
    pub doc: DocKey,
    pub score: f64,
}

/// Materializes a scored doc into an owned result (the only place the
/// sequential paths mint URL strings).
fn materialize(index: &InvertedIndex, doc: DocKey, score: f64) -> SearchResult {
    probe::note_url_materialized();
    SearchResult {
        url: index.url_of(doc).to_string(),
        doc,
        score,
    }
}

/// Rank order on raw `(doc, score)` pairs: score descending (by
/// [`f64::total_cmp`] — a *total* order, which the top-k heap contract
/// requires; `partial_cmp(..).unwrap_or(Equal)` made NaN compare equal to
/// everything, a non-transitive relation that let top-k and full-sort
/// disagree), then URL (compared in place — no allocation), then state, then
/// page. Two pages of one index may share a URL, so without the page the
/// order is not total over docs, and the top-k heap kept whichever tie came
/// last where [`search`] keeps the first.
fn rank_cmp(index: &InvertedIndex, a: &(DocKey, f64), b: &(DocKey, f64)) -> Ordering {
    b.1.total_cmp(&a.1)
        .then_with(|| index.url_of(a.0).cmp(index.url_of(b.0)))
        .then_with(|| a.0.state.cmp(&b.0.state))
        .then_with(|| a.0.page.cmp(&b.0.page))
}

/// Evaluates `query` against `index`: conjunction semantics (every term must
/// occur in the state), results ranked by formula 5.3, descending.
pub fn search(index: &InvertedIndex, query: &Query, weights: &RankWeights) -> Vec<SearchResult> {
    search_with_scratch(index, query, weights, &mut ScoreScratch::new())
}

/// [`search`] with a caller-owned scratch (reused across queries by serving
/// threads).
pub fn search_with_scratch(
    index: &InvertedIndex,
    query: &Query,
    weights: &RankWeights,
    scratch: &mut ScoreScratch,
) -> Vec<SearchResult> {
    let mut scored: Vec<(DocKey, f64)> = Vec::new();
    score_matches(index, query, weights, scratch, |doc, score| {
        scored.push((doc, score));
    });
    scored.sort_by(|a, b| rank_cmp(index, a, b));
    scored
        .into_iter()
        .map(|(doc, score)| materialize(index, doc, score))
        .collect()
}

/// Evaluates `query` and returns only the `k` best results — the top-k
/// path (cf. the thesis' pointer to threshold-algorithm style optimized
/// ranking, ch. 9). Scoring work is identical to [`search`], but candidates
/// stream through a bounded heap of `(doc, score)` pairs: the full result
/// set is never materialized and at most `k` URL strings are allocated.
pub fn search_top_k(
    index: &InvertedIndex,
    query: &Query,
    weights: &RankWeights,
    k: usize,
) -> Vec<SearchResult> {
    search_top_k_with_scratch(index, query, weights, k, &mut ScoreScratch::new())
}

/// [`search_top_k`] with a caller-owned scratch.
pub fn search_top_k_with_scratch(
    index: &InvertedIndex,
    query: &Query,
    weights: &RankWeights,
    k: usize,
    scratch: &mut ScoreScratch,
) -> Vec<SearchResult> {
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &(DocKey, f64), b: &(DocKey, f64)| rank_cmp(index, a, b);
    let mut heap = TopK::new(k);
    score_matches(index, query, weights, scratch, |doc, score| {
        heap.offer((doc, score), &cmp);
    });
    heap.into_sorted(&cmp)
        .into_iter()
        .map(|(doc, score)| materialize(index, doc, score))
        .collect()
}

/// The scoring pass shared by the sequential paths: intersects the posting
/// runs and hands each matching doc's formula-5.3 score to `sink`, in doc
/// order, with one arithmetic shape: the tf·idf sum in term order starting
/// from 0.0, then `w1·pr + w2·ar + w3·tfidf + w4·prox` left to right.
/// `tests/broker_spec.rs` holds the score bits to that shape.
fn score_matches(
    index: &InvertedIndex,
    query: &Query,
    weights: &RankWeights,
    scratch: &mut ScoreScratch,
    mut sink: impl FnMut(DocKey, f64),
) {
    if query.is_empty() {
        return;
    }
    let ScoreScratch {
        cursors,
        idf,
        events,
        term_counts,
    } = scratch;
    let lists: Vec<PostingList<'_>> = query.terms.iter().map(|t| index.postings(t)).collect();
    idf.clear();
    idf.extend(lists.iter().map(|l| index.idf_from_df(l.len() as u64)));
    kernel::for_each_match(&lists, cursors, |doc, rows| {
        let (pagerank, ajaxrank) = index.ranks_of(doc);
        let mut tfidf = 0.0f64;
        for (t, list) in lists.iter().enumerate() {
            tfidf += index.tf_parts(doc, list.count(rows[t])) * idf[t];
        }
        let proximity = kernel::proximity_of_rows(&lists, rows, events, term_counts);
        let score = weights.pagerank * pagerank
            + weights.ajaxrank * ajaxrank
            + weights.tfidf * tfidf
            + weights.proximity * proximity;
        sink(doc, score);
    });
}

/// Intersects the query's posting runs and returns the matching docs in
/// ascending order — the posting-list merge of §5.3.2 without scoring
/// (diagnostics and tests).
pub fn conjunction_docs(index: &InvertedIndex, terms: &[String]) -> Vec<DocKey> {
    let lists: Vec<PostingList<'_>> = terms.iter().map(|t| index.postings(t)).collect();
    let mut cursors = Vec::new();
    let mut out = Vec::new();
    kernel::for_each_match(&lists, &mut cursors, |doc, _| out.push(doc));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invert::IndexBuilder;
    use ajax_crawl::model::AppModel;

    fn index_of(states_per_page: &[(&str, &[&str])]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for (url, states) in states_per_page {
            let mut m = AppModel::new(*url);
            for (i, text) in states.iter().enumerate() {
                m.add_state(i as u64 + 1, (*text).to_string(), None);
            }
            b.add_model(&m, Some(0.5));
        }
        b.build()
    }

    /// The thesis' running example (Tables 5.1/5.2, Fig 5.2).
    fn morcheeba_index() -> InvertedIndex {
        index_of(&[
            (
                "http://www.youtube.com/watch?v=w16JlLSySWQ",
                &[
                    "morcheeba enjoy the ride mysterious video",
                    "morcheeba the new singer sounds great",
                ],
            ),
            (
                "http://www.youtube.com/watch?v=Iv5JXxME0js",
                &["morcheeba morcheeba live in concert"],
            ),
        ])
    }

    #[test]
    fn single_keyword_returns_states() {
        let idx = morcheeba_index();
        let results = search(&idx, &Query::parse("morcheeba"), &RankWeights::default());
        assert_eq!(results.len(), 3, "three states contain 'morcheeba'");
    }

    #[test]
    fn double_occurrence_ranks_higher() {
        // Table 5.2: the state where the keyword appears twice ranks first
        // (tf dominates with default weights on equal-length-ish states).
        let idx = morcheeba_index();
        let results = search(&idx, &Query::parse("morcheeba"), &RankWeights::default());
        assert_eq!(
            results[0].url, "http://www.youtube.com/watch?v=Iv5JXxME0js",
            "state with two occurrences must rank first: {results:#?}"
        );
    }

    #[test]
    fn conjunction_requires_same_state() {
        // Q3 of the thesis: "morcheeba singer" must return exactly
        // (URL1, s2) — Fig 5.2.
        let idx = morcheeba_index();
        let results = search(
            &idx,
            &Query::parse("morcheeba singer"),
            &RankWeights::default(),
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].doc.state.0, 1);
        assert!(results[0].url.ends_with("w16JlLSySWQ"));
    }

    #[test]
    fn conjunction_with_unseen_term_is_empty() {
        let idx = morcheeba_index();
        assert!(search(
            &idx,
            &Query::parse("morcheeba zebra"),
            &RankWeights::default()
        )
        .is_empty());
        assert!(search(&idx, &Query::parse(""), &RankWeights::default()).is_empty());
    }

    #[test]
    fn conjunction_equals_naive_intersection() {
        let idx = index_of(&[("u1", &["a b c", "a c", "b c"]), ("u2", &["c a b a", "b"])]);
        let merged_docs = conjunction_docs(&idx, &["a".into(), "b".into()]);
        // Naive: docs containing a ∩ docs containing b.
        let a_docs: std::collections::BTreeSet<DocKey> =
            idx.postings("a").docs().iter().copied().collect();
        let b_docs: std::collections::BTreeSet<DocKey> =
            idx.postings("b").docs().iter().copied().collect();
        let naive: Vec<DocKey> = a_docs.intersection(&b_docs).copied().collect();
        assert_eq!(merged_docs, naive);
    }

    #[test]
    fn proximity_rewards_adjacency() {
        let idx = index_of(&[(
            "u",
            &[
                "enjoy the ride is here",                    // adjacent, in order
                "enjoy something long the filler word ride", // spread
            ],
        )]);
        let q = Query::parse("enjoy ride");
        let results = search(
            &idx,
            &q,
            &RankWeights {
                pagerank: 0.0,
                ajaxrank: 0.0,
                tfidf: 0.0,
                proximity: 1.0,
            },
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].doc.state.0, 0, "adjacent phrase wins");
        assert!(results[0].score > results[1].score);
        assert!(
            (results[0].score - 2.0 / 3.0).abs() < 1e-9,
            "window 'enjoy the ride' = 3"
        );
    }

    #[test]
    fn proximity_single_term_is_one() {
        let idx = index_of(&[("u", &["hello world"])]);
        let q = Query::parse("hello");
        let results = search(
            &idx,
            &q,
            &RankWeights {
                pagerank: 0.0,
                ajaxrank: 0.0,
                tfidf: 0.0,
                proximity: 1.0,
            },
        );
        assert!((results[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_phrase_scores_full_proximity() {
        let idx = index_of(&[("u", &["x sexy can i y"])]);
        let results = search(
            &idx,
            &Query::parse("sexy can i"),
            &RankWeights {
                pagerank: 0.0,
                ajaxrank: 0.0,
                tfidf: 0.0,
                proximity: 1.0,
            },
        );
        assert!((results[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn results_sorted_desc_deterministic() {
        let idx = morcheeba_index();
        let a = search(&idx, &Query::parse("morcheeba"), &RankWeights::default());
        let b = search(&idx, &Query::parse("morcheeba"), &RankWeights::default());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn pagerank_breaks_content_ties() {
        let mut builder = IndexBuilder::new();
        let mut m1 = AppModel::new("http://low");
        m1.add_state(1, "identical words".into(), None);
        let mut m2 = AppModel::new("http://high");
        m2.add_state(2, "identical words".into(), None);
        builder.add_model(&m1, Some(0.1));
        builder.add_model(&m2, Some(0.9));
        let idx = builder.build();
        let results = search(&idx, &Query::parse("identical"), &RankWeights::default());
        assert_eq!(results[0].url, "http://high");
    }

    #[test]
    fn duplicate_query_terms_handled() {
        let idx = index_of(&[("u", &["wow wow great", "wow only"])]);
        let results = search(&idx, &Query::parse("wow wow"), &RankWeights::default());
        // Both states contain "wow"; the conjunction of a term with itself
        // degenerates to the single-term query (set semantics).
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let idx = morcheeba_index();
        let w = RankWeights::default();
        let mut scratch = ScoreScratch::new();
        for q in ["morcheeba", "morcheeba singer", "", "live concert", "zebra"] {
            let query = Query::parse(q);
            let fresh = search(&idx, &query, &w);
            let reused = search_with_scratch(&idx, &query, &w, &mut scratch);
            assert_eq!(fresh, reused, "query {q:?}");
        }
    }
}

#[cfg(test)]
mod top_k_tests {
    use super::*;
    use crate::invert::IndexBuilder;
    use ajax_crawl::model::AppModel;

    fn big_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for page in 0..40 {
            let mut m = AppModel::new(format!("http://x/{page:02}"));
            for s in 0..3 {
                // Vary tf so scores differ.
                let mut text = "common ".repeat((page % 7 + 1) as usize);
                text.push_str(&"filler ".repeat((s + 1) * 2));
                m.add_state(u64::from(page * 10 + s as u32 + 1), text, None);
            }
            b.add_model(&m, Some(1.0 / 40.0));
        }
        b.build()
    }

    #[test]
    fn top_k_matches_full_sort_prefix() {
        let idx = big_index();
        let q = Query::parse("common");
        let w = RankWeights::default();
        let full = search(&idx, &q, &w);
        for k in [0usize, 1, 5, 17, 120, 1000] {
            let top = search_top_k(&idx, &q, &w, k);
            assert_eq!(top.len(), full.len().min(k));
            assert_eq!(&full[..top.len()], &top[..], "k={k}");
        }
    }

    #[test]
    fn top_k_matches_full_sort_under_degenerate_weights() {
        // Degenerate weights force NaN and ±inf scores (inf·0 = NaN with
        // zero pageranks). The rank comparator must stay a *total* order —
        // with the old `partial_cmp(..).unwrap_or(Equal)`, NaN compared
        // equal to everything (non-transitive) and the bounded heap's
        // selection diverged from the full sort's prefix.
        let mut b = IndexBuilder::new();
        for page in 0..25 {
            let mut m = AppModel::new(format!("http://x/{page:02}"));
            m.add_state(1, format!("common filler{}", page % 5), None);
            b.add_model(&m, if page % 2 == 0 { None } else { Some(0.0) });
        }
        let idx = b.build();
        let q = Query::parse("common");
        let degenerate = [
            RankWeights {
                pagerank: f64::INFINITY, // inf · 0.0 = NaN
                ajaxrank: 0.0,
                tfidf: 1.0,
                proximity: 0.0,
            },
            RankWeights {
                pagerank: f64::NAN,
                ajaxrank: 1.0,
                tfidf: 1.0,
                proximity: 1.0,
            },
            RankWeights {
                pagerank: f64::NEG_INFINITY,
                ajaxrank: f64::INFINITY,
                tfidf: 0.0,
                proximity: 0.0,
            },
        ];
        // NaN != NaN under `==`, so compare results by score *bits*.
        let fingerprint = |rs: &[SearchResult]| -> Vec<(String, DocKey, u64)> {
            rs.iter()
                .map(|r| (r.url.clone(), r.doc, r.score.to_bits()))
                .collect()
        };
        for (wi, w) in degenerate.iter().enumerate() {
            let full = search(&idx, &q, w);
            assert_eq!(full.len(), 25);
            for k in [1usize, 3, 10, 25, 40] {
                let top = search_top_k(&idx, &q, w, k);
                assert_eq!(top.len(), full.len().min(k));
                assert_eq!(
                    fingerprint(&full[..top.len()]),
                    fingerprint(&top),
                    "weights[{wi}] k={k}"
                );
            }
        }
    }

    #[test]
    fn top_k_on_empty_results() {
        let idx = big_index();
        let q = Query::parse("absent");
        assert!(search_top_k(&idx, &q, &RankWeights::default(), 10).is_empty());
    }

    #[test]
    fn top_k_materializes_at_most_k_urls() {
        let idx = big_index();
        let q = Query::parse("common");
        let w = RankWeights::default();
        let full = search(&idx, &q, &w);
        assert!(full.len() > 10, "need a large result set");
        crate::probe::reset_url_materializations();
        let top = search_top_k(&idx, &q, &w, 10);
        assert_eq!(top.len(), 10);
        assert!(
            crate::probe::url_materializations() <= 10,
            "top-k minted {} URL strings for k=10",
            crate::probe::url_materializations()
        );
    }
}
