//! The brute-force scorer that states what `search`, `search_top_k` and the
//! broker must return (formula 5.3, thesis §5.3 and §6.5). It knows nothing
//! of posting runs, cursors, heaps, hit buffers or shared URLs: it scans
//! every state and keeps the ones that hold every query term, each with its
//! PageRank, AJAXRank, proximity and one tf per term. The tf·idf is summed
//! in term order. Then:
//!
//! * **One index** ([`brute_force_single`]): the index's own idf, and the
//!   score `w1·PR + w2·AR + w3·Σ tf·idf + w4·prox` summed left to right.
//! * **The broker** ([`brute_force`]): the §6.5.2 global idf over every
//!   shard, and the association `(w1·PR + w2·AR + w4·prox) + w3·Σ tf·idf`.
//!
//! Both rank by score descending (`total_cmp`), then URL bytes, state,
//! shard and page.

use ajax_crawl::model::AppModel;
use ajax_crawl::pagerank::pagerank_default;
use ajax_index::tokenize::{tokenize, TokenAt};
use ajax_index::{BrokerResult, IndexBuilder, InvertedIndex, Query, RankWeights, SearchResult};

/// One shard's pages, each with the PageRank it is indexed under.
pub type Shard = Vec<(AppModel, f64)>;

pub struct Corpus {
    pub shards: Vec<Shard>,
    pub weights: RankWeights,
    pub query: Query,
}

pub fn build(shard: &Shard) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for (model, pagerank) in shard {
        b.add_model(model, Some(*pagerank));
    }
    b.build()
}

/// One ranked result as a caller sees it: `(shard, page, url, state, score
/// bits)`.
pub type Hit = (usize, u32, String, u32, u64);

/// `T(q, s)` (§5.3.3 item 4): `k / w` capped at 1, where `w` is the fewest
/// consecutive tokens holding every query term; 1 for a single term.
fn proximity(tokens: &[TokenAt], terms: &[String]) -> f64 {
    let k = terms.len();
    if k <= 1 {
        return 1.0;
    }
    let holds_all = |a: usize, b: usize| {
        (terms.iter()).all(|t| tokens[a..=b].iter().any(|token| token.term == *t))
    };
    let narrowest = (0..tokens.len())
        .flat_map(|a| (a..tokens.len()).map(move |b| (a, b)))
        .filter(|&(a, b)| holds_all(a, b))
        .map(|(a, b)| tokens[b].position - tokens[a].position + 1)
        .min();
    narrowest.map_or(0.0, |w| (k as f64 / f64::from(w)).min(1.0))
}

/// A state holding every query term, with what its score is made of.
struct Match<'a> {
    shard: usize,
    page: u32,
    url: &'a str,
    state: u32,
    pagerank: f64,
    ajaxrank: f64,
    proximity: f64,
    /// `count / max(state length, 1)` per query term.
    tfs: Vec<f64>,
}

impl Match<'_> {
    /// `Σ tf·idf`, summed in term order.
    fn tfidf(&self, idf: &[f64]) -> f64 {
        self.tfs.iter().zip(idf).map(|(tf, idf)| tf * idf).sum()
    }
}

/// Every state of the shards `only` admits that holds every query term,
/// and the idf of each term over those shards: `ln(N / df)`, 0 when no
/// state holds it.
fn scan(c: &Corpus, only: impl Fn(usize) -> bool) -> (Vec<Match<'_>>, Vec<f64>) {
    let terms = &c.query.terms;
    let (mut total, mut df) = (0u64, vec![0u64; terms.len()]);
    let mut matched = Vec::new();
    for (s, pages) in c.shards.iter().enumerate().filter(|&(s, _)| only(s)) {
        for (p, (model, pagerank)) in pages.iter().enumerate() {
            let ajaxrank = pagerank_default(&model.state_adjacency());
            for state in &model.states {
                total += 1;
                let tokens = tokenize(&state.text);
                let counts: Vec<u32> = (terms.iter())
                    .map(|t| tokens.iter().filter(|token| token.term == *t).count() as u32)
                    .collect();
                for (df, &n) in df.iter_mut().zip(&counts) {
                    *df += u64::from(n > 0);
                }
                if terms.is_empty() || counts.contains(&0) {
                    continue;
                }
                let len = (tokens.len() as u32).max(1);
                matched.push(Match {
                    shard: s,
                    page: p as u32,
                    url: &model.url,
                    state: state.id.0,
                    pagerank: *pagerank,
                    ajaxrank: ajaxrank[state.id.index()],
                    proximity: proximity(&tokens, terms),
                    tfs: (counts.iter())
                        .map(|&n| f64::from(n) / f64::from(len))
                        .collect(),
                });
            }
        }
    }
    let idf = (df.iter())
        .map(|&df| match df == 0 || total == 0 {
            true => 0.0,
            false => (total as f64 / df as f64).ln(),
        })
        .collect();
    (matched, idf)
}

/// Scores every match and sorts by the full rank order: score descending,
/// then URL, state, shard and page.
fn rank(matched: &[Match], score: impl Fn(&Match) -> f64) -> Vec<Hit> {
    let mut hits: Vec<(f64, Hit)> = (matched.iter())
        .map(|m| {
            let score = score(m);
            let hit = (m.shard, m.page, m.url.to_string(), m.state, score.to_bits());
            (score, hit)
        })
        .collect();
    hits.sort_by(|(a_score, a), (b_score, b)| {
        (b_score.total_cmp(a_score))
            .then_with(|| a.2.cmp(&b.2))
            .then_with(|| a.3.cmp(&b.3))
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    hits.into_iter().map(|(_, hit)| hit).collect()
}

/// What the broker returns: formula 5.3 over every shard with the global
/// idf of §6.5.2, in the association `(w1·PR + w2·AR + w4·prox) + w3·Σ`.
pub fn brute_force(c: &Corpus) -> Vec<Hit> {
    let w = &c.weights;
    let (matched, idf) = scan(c, |_| true);
    rank(&matched, |m| {
        let base = w.pagerank * m.pagerank + w.ajaxrank * m.ajaxrank + w.proximity * m.proximity;
        base + w.tfidf * m.tfidf(&idf)
    })
}

/// What `search` over shard `s` alone returns: that index's own idf, and
/// `w1·PR + w2·AR + w3·Σ + w4·prox` summed left to right.
pub fn brute_force_single(c: &Corpus, s: usize) -> Vec<Hit> {
    let w = &c.weights;
    let (matched, idf) = scan(c, |i| i == s);
    rank(&matched, |m| {
        w.pagerank * m.pagerank
            + w.ajaxrank * m.ajaxrank
            + w.tfidf * m.tfidf(&idf)
            + w.proximity * m.proximity
    })
}

pub fn single_hits(results: &[SearchResult], shard: usize) -> Vec<Hit> {
    (results.iter())
        .map(|r| {
            let url = r.url.clone();
            (shard, r.doc.page, url, r.doc.state.0, r.score.to_bits())
        })
        .collect()
}

pub fn hits(results: &[BrokerResult]) -> Vec<Hit> {
    (results.iter())
        .map(|r| {
            let url = r.url.to_string();
            (r.shard, r.doc.page, url, r.doc.state.0, r.score.to_bits())
        })
        .collect()
}
