//! The **frozen pre-columnar implementation**: `BTreeMap<String,
//! Vec<Posting>>` with per-posting position vectors, per-candidate binary
//! search and per-candidate allocation — kept verbatim as (a) the oracle the
//! equivalence suite pins the columnar engine against (results must match
//! bit-for-bit, same summation order), and (b) the baseline `exp_index_perf`
//! measures the kernel speedup over.
//!
//! Not a public API: nothing outside tests and the bench harness should
//! build a [`RefIndex`].

use crate::invert::{DocKey, PageEntry};
use crate::query::{Query, RankWeights, SearchResult};
use crate::shard::{BrokerResult, QueryBroker, ShardTermStats};
use crate::tokenize::tokenize;
use ajax_crawl::model::AppModel;
use ajax_crawl::pagerank::pagerank_default;
use std::collections::{BTreeMap, HashMap};

/// One owned posting: where a term occurs and how often.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPosting {
    pub doc: DocKey,
    pub count: u32,
    pub positions: Vec<u32>,
}

/// The pre-columnar inverted file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefIndex {
    postings: BTreeMap<String, Vec<RefPosting>>,
    pub pages: Vec<PageEntry>,
    pub total_states: u64,
}

impl RefIndex {
    pub fn postings(&self, term: &str) -> &[RefPosting] {
        self.postings.get(term).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn df(&self, term: &str) -> u64 {
        self.postings(term).len() as u64
    }

    pub fn idf(&self, term: &str) -> f64 {
        let df = self.df(term);
        if df == 0 || self.total_states == 0 {
            0.0
        } else {
            (self.total_states as f64 / df as f64).ln()
        }
    }

    pub fn tf(&self, posting: &RefPosting) -> f64 {
        let page = &self.pages[posting.doc.page as usize];
        let len = page.state_lengths[posting.doc.state.index()].max(1);
        f64::from(posting.count) / f64::from(len)
    }

    pub fn url_of(&self, doc: DocKey) -> &str {
        &self.pages[doc.page as usize].url
    }

    pub fn ranks_of(&self, doc: DocKey) -> (f64, f64) {
        let page = &self.pages[doc.page as usize];
        let ajax = page.ajaxrank.get(doc.state.index()).copied().unwrap_or(0.0);
        (page.pagerank, ajax)
    }
}

/// The pre-columnar builder: per-state `HashMap` grouping and one
/// `term.to_string()` per term per state.
#[derive(Debug, Default)]
pub struct RefIndexBuilder {
    index: RefIndex,
    max_states: Option<usize>,
}

impl RefIndexBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states.max(1));
        self
    }

    pub fn add_model(&mut self, model: &AppModel, pagerank: Option<f64>) {
        let page_idx = self.index.pages.len() as u32;
        let limit = self
            .max_states
            .unwrap_or(usize::MAX)
            .min(model.state_count());

        let ajaxrank = pagerank_default(&model.state_adjacency());

        let mut entry = PageEntry {
            url: model.url.as_str().into(),
            pagerank: pagerank.unwrap_or(0.0),
            ajaxrank,
            state_lengths: Vec::with_capacity(limit),
        };

        for state in model.states.iter().take(limit) {
            let tokens = tokenize(&state.text);
            entry.state_lengths.push(tokens.len() as u32);
            self.index.total_states += 1;

            let mut grouped: HashMap<&str, Vec<u32>> = HashMap::new();
            for token in &tokens {
                grouped
                    .entry(token.term.as_str())
                    .or_default()
                    .push(token.position);
            }
            for (term, positions) in grouped {
                let posting = RefPosting {
                    doc: DocKey {
                        page: page_idx,
                        state: state.id,
                    },
                    count: positions.len() as u32,
                    positions,
                };
                self.index
                    .postings
                    .entry(term.to_string())
                    .or_default()
                    .push(posting);
            }
        }
        self.index.pages.push(entry);
    }

    pub fn build(mut self) -> RefIndex {
        for postings in self.index.postings.values_mut() {
            postings.sort_by_key(|p| p.doc);
        }
        self.index
    }
}

// The one deliberate deviation from the frozen code: the rank comparator
// moved to `f64::total_cmp` in lockstep with the engine (`query::rank_cmp`,
// the broker's rank order in `shard.rs`). Both sides must use the same total
// order or NaN-scored ties (degenerate weights) would order differently
// and break the bit-identity contract.
fn compare_results(a: &SearchResult, b: &SearchResult) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.url.cmp(&b.url))
        .then_with(|| a.doc.state.cmp(&b.doc.state))
}

/// Pre-columnar [`crate::search`]: full scoring, URL clone per candidate,
/// total sort.
pub fn ref_search(index: &RefIndex, query: &Query, weights: &RankWeights) -> Vec<SearchResult> {
    let mut results = search_unsorted(index, query, weights);
    results.sort_by(compare_results);
    results
}

/// Pre-columnar [`crate::search_top_k`]: scores and materializes every
/// candidate, then `select_nth` + truncate.
pub fn ref_search_top_k(
    index: &RefIndex,
    query: &Query,
    weights: &RankWeights,
    k: usize,
) -> Vec<SearchResult> {
    let mut results = search_unsorted(index, query, weights);
    if k == 0 || results.is_empty() {
        return Vec::new();
    }
    if results.len() > k {
        results.select_nth_unstable_by(k - 1, compare_results);
        results.truncate(k);
    }
    results.sort_by(compare_results);
    results
}

fn search_unsorted(index: &RefIndex, query: &Query, weights: &RankWeights) -> Vec<SearchResult> {
    conjunction_postings(index, &query.terms)
        .into_iter()
        .map(|(doc, postings)| {
            let (pagerank, ajaxrank) = index.ranks_of(doc);
            let tfidf: f64 = postings
                .iter()
                .zip(query.terms.iter())
                .map(|(p, term)| index.tf(p) * index.idf(term))
                .sum();
            let proximity = proximity_score(&postings, query.terms.len());
            let score = weights.pagerank * pagerank
                + weights.ajaxrank * ajaxrank
                + weights.tfidf * tfidf
                + weights.proximity * proximity;
            SearchResult {
                url: index.url_of(doc).to_string(),
                doc,
                score,
            }
        })
        .collect()
}

fn conjunction_postings<'a>(
    index: &'a RefIndex,
    terms: &[String],
) -> Vec<(DocKey, Vec<&'a RefPosting>)> {
    let lists: Vec<&[RefPosting]> = terms.iter().map(|t| index.postings(t)).collect();
    conjunction_of_lists(&lists)
}

fn conjunction_of_lists<'a>(lists: &[&'a [RefPosting]]) -> Vec<(DocKey, Vec<&'a RefPosting>)> {
    if lists.is_empty() {
        return Vec::new();
    }
    if lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    // Drive the merge from the rarest list; binary-search the others — from
    // scratch, for every candidate.
    let (driver_idx, driver) = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .expect("non-empty terms");

    let mut out = Vec::new();
    'candidates: for candidate in driver.iter() {
        let doc = candidate.doc;
        let mut row: Vec<&RefPosting> = Vec::with_capacity(lists.len());
        for (i, list) in lists.iter().enumerate() {
            if i == driver_idx {
                row.push(candidate);
                continue;
            }
            match list.binary_search_by_key(&doc, |p| p.doc) {
                Ok(pos) => row.push(&list[pos]),
                Err(_) => continue 'candidates,
            }
        }
        out.push((doc, row));
    }
    out
}

fn proximity_score(postings: &[&RefPosting], k: usize) -> f64 {
    if k <= 1 {
        return 1.0;
    }
    let mut events: Vec<(u32, usize)> = Vec::new();
    for (term_idx, posting) in postings.iter().enumerate() {
        for &pos in &posting.positions {
            events.push((pos, term_idx));
        }
    }
    events.sort_unstable();

    let mut counts = vec![0u32; k];
    let mut covered = 0usize;
    let mut best = u32::MAX;
    let mut left = 0usize;
    for right in 0..events.len() {
        let (_, term) = events[right];
        if counts[term] == 0 {
            covered += 1;
        }
        counts[term] += 1;
        while covered == k {
            let window = events[right].0 - events[left].0 + 1;
            best = best.min(window);
            let (_, lterm) = events[left];
            counts[lterm] -= 1;
            if counts[lterm] == 0 {
                covered -= 1;
            }
            left += 1;
        }
    }
    if best == u32::MAX {
        return 0.0;
    }
    (k as f64 / f64::from(best)).min(1.0)
}

/// Pre-columnar distributed evaluation: the old `eval_shard` +
/// `merge_shard_outputs` pair, including the per-query provenance
/// `HashMap` rebuild the new path eliminated.
pub fn ref_broker_search(
    shards: &[RefIndex],
    query: &Query,
    weights: &RankWeights,
) -> Vec<BrokerResult> {
    if query.is_empty() {
        return Vec::new();
    }

    struct RefShardResult {
        shard: usize,
        url: String,
        doc: DocKey,
        base_score: f64,
        tfs: Vec<f64>,
    }

    let mut all_results: Vec<RefShardResult> = Vec::new();
    let mut all_stats: Vec<ShardTermStats> = Vec::with_capacity(shards.len());
    for (shard_idx, shard) in shards.iter().enumerate() {
        let lists: Vec<&[RefPosting]> = query.terms.iter().map(|t| shard.postings(t)).collect();
        all_stats.push(ShardTermStats {
            total_states: shard.total_states,
            df: lists.iter().map(|l| l.len() as u64).collect(),
        });
        for (doc, postings) in conjunction_of_lists(&lists) {
            let (pagerank, ajaxrank) = shard.ranks_of(doc);
            let proximity = proximity_score(&postings, query.terms.len());
            all_results.push(RefShardResult {
                shard: shard_idx,
                url: shard.url_of(doc).to_string(),
                doc,
                base_score: weights.pagerank * pagerank
                    + weights.ajaxrank * ajaxrank
                    + weights.proximity * proximity,
                tfs: postings.iter().map(|p| shard.tf(p)).collect(),
            });
        }
    }

    let idf = QueryBroker::global_idf(query, &all_stats);
    let mut merged: Vec<SearchResult> = all_results
        .iter()
        .map(|r| {
            let tfidf: f64 = r.tfs.iter().zip(idf.iter()).map(|(tf, idf)| tf * idf).sum();
            SearchResult {
                url: r.url.clone(),
                doc: r.doc,
                score: r.base_score + weights.tfidf * tfidf,
            }
        })
        .collect();
    merged.sort_by(compare_results);

    let provenance: HashMap<(&str, DocKey), usize> = all_results
        .iter()
        .map(|s| ((s.url.as_str(), s.doc), s.shard))
        .collect();
    merged
        .into_iter()
        .map(|r| {
            let shard = provenance
                .get(&(r.url.as_str(), r.doc))
                .copied()
                .unwrap_or(0);
            BrokerResult {
                shard,
                url: r.url.into(),
                doc: r.doc,
                score: r.score,
            }
        })
        .collect()
}
