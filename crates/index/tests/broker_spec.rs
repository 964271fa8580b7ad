//! Executable specification of scoring and rank order (formula 5.3, thesis
//! §5.3 and §6.5), for one index and for the broker over many, against the
//! brute-force scorer in `spec/mod.rs`.
//!
//! * **One index**: `search` must equal the scorer's single-index list, and
//!   `search_top_k(k)` its first `k` results.
//! * **The broker** (`QueryBroker::search`, `merge_shard_outputs` over
//!   `eval_shard`, `merge_hits` over `eval_shard_into` batches): each must
//!   equal the scorer's global-idf list.
//!
//! Each must equal the scorer in shard, page, URL, state, score bits and
//! order.
//!
//! Corpora are random, with ties forced: pages are copied within and across
//! shards (same URL, texts and PageRank), URLs repeat, state texts repeat
//! across pages, and weights and PageRanks include zero, NaN and ±∞.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

mod spec;

use ajax_crawl::model::{AppModel, Transition};
use ajax_dom::EventType;
use ajax_index::{
    eval_shard, eval_shard_into, merge_hits, merge_shard_outputs, search, search_top_k,
    BrokerResult, InvertedIndex, Query, QueryBroker, RankWeights, ScoreScratch, ShardHits,
};
use proptest::prelude::*;
use spec::{brute_force, brute_force_single, build, hits, single_hits, Corpus, Hit};

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    ProptestConfig::with_cases(cases)
}

// ---- corpora --------------------------------------------------------------

/// SplitMix64: the generator's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

const URLS: &[&str] = &["http://t/a", "http://t/b", "http://t/b2", "http://t/c?v=1"];
const WORDS: &[&str] = &["wow", "dance", "the", "fun", "x"];

/// Odd weights and PageRanks. The NaN is the one this machine's arithmetic
/// makes (∞ − ∞), so it is the only NaN a score can meet: Rust leaves the
/// sign and payload of an operation on two different NaNs open, and the
/// compiler may order the operands of `+` and `*` either way.
fn odd() -> [f64; 8] {
    let nan = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
    let inf = f64::INFINITY;
    [0.0, -0.0, 1.0, -1.0, 1e-300, nan, inf, -inf]
}

fn text(rng: &mut Rng) -> String {
    let words: Vec<&str> = (0..rng.below(9)).map(|_| rng.pick(WORDS)).collect();
    words.join(" ")
}

fn odd_or(rng: &mut Rng, usual: f64) -> f64 {
    match rng.below(4) {
        0 => rng.pick(&odd()),
        _ => usual,
    }
}

fn corpus(seed: u64) -> Corpus {
    let mut rng = Rng(seed);
    let texts: Vec<String> = (0..2 + rng.below(4)).map(|_| text(&mut rng)).collect();
    let mut made: Vec<(AppModel, f64)> = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let mut pages = Vec::new();
        for _ in 0..rng.below(9) {
            if !made.is_empty() && rng.below(2) == 0 {
                let copy = made[rng.below(made.len())].clone();
                pages.push(copy);
                continue;
            }
            let mut model = AppModel::new(rng.pick(URLS));
            let states = 1 + rng.below(5);
            for s in 0..states {
                let body = match rng.below(3) {
                    0 => text(&mut rng),
                    _ => texts[rng.below(texts.len())].clone(),
                };
                model.add_state(s as u64, body, None);
            }
            for _ in 0..rng.below(2 * states) {
                model.add_transition(Transition {
                    from: model.states[rng.below(states)].id,
                    to: model.states[rng.below(states)].id,
                    source: format!("a#e{}", rng.below(3)),
                    event: EventType::Click,
                    action: String::new(),
                    targets: Vec::new(),
                });
            }
            let usual = rng.below(8) as f64 / 8.0;
            let pagerank = odd_or(&mut rng, usual);
            made.push((model.clone(), pagerank));
            pages.push((model, pagerank));
        }
        shards.push(pages);
    }
    // One corpus in eight weighs every term by a signed zero.
    let usual = match rng.below(8) {
        0 => RankWeights {
            pagerank: rng.pick(&[0.0, -0.0]),
            ajaxrank: rng.pick(&[0.0, -0.0]),
            tfidf: rng.pick(&[0.0, -0.0]),
            proximity: rng.pick(&[0.0, -0.0]),
        },
        _ => RankWeights::default(),
    };
    let weights = RankWeights {
        pagerank: odd_or(&mut rng, usual.pagerank),
        ajaxrank: odd_or(&mut rng, usual.ajaxrank),
        tfidf: odd_or(&mut rng, usual.tfidf),
        proximity: odd_or(&mut rng, usual.proximity),
    };
    let mut words: Vec<&str> = (0..1 + rng.below(4)).map(|_| rng.pick(WORDS)).collect();
    if rng.below(16) == 0 {
        words.push("absent");
    }
    Corpus {
        shards,
        weights,
        query: Query::parse(&words.join(" ")),
    }
}

// ---- the broker paths ----------------------------------------------------

/// The three broker paths over `c`: `QueryBroker::search`,
/// `merge_shard_outputs` over `eval_shard`, and `merge_hits` over one
/// `eval_shard_into` batch per shard, every shard reusing one scratch and
/// one batch as a serving worker does.
fn broker_paths(c: &Corpus) -> [(&'static str, Vec<BrokerResult>); 3] {
    let shards: Vec<InvertedIndex> = c.shards.iter().map(build).collect();
    let (mut results, mut stats) = (Vec::new(), Vec::new());
    for (i, shard) in shards.iter().enumerate() {
        let (r, s) = eval_shard(shard, i, &c.query, &c.weights);
        results.extend(r);
        stats.push(s);
    }
    let merged = merge_shard_outputs(&c.query, &c.weights, results, &stats);
    let (mut scratch, mut batch) = (ScoreScratch::new(), ShardHits::default());
    let batches = (shards.iter().enumerate())
        .map(|(i, shard)| {
            eval_shard_into(shard, i, &c.query, &c.weights, &mut scratch, &mut batch);
            batch.clone()
        })
        .collect();
    let flat = merge_hits(&c.query, &c.weights, batches);
    let mut broker = QueryBroker::new(shards);
    broker.weights = c.weights;
    [
        ("QueryBroker::search", broker.search(&c.query)),
        ("merge_shard_outputs over eval_shard", merged),
        ("merge_hits over eval_shard_into", flat),
    ]
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn every_broker_path_equals_the_brute_force_scorer(seed in any::<u64>()) {
        let c = corpus(seed);
        let want = brute_force(&c);
        for (path, results) in broker_paths(&c) {
            prop_assert_eq!(hits(&results), want.clone(), "{}", path);
        }
    }

    #[test]
    fn search_and_top_k_equal_the_brute_force_scorer(seed in any::<u64>()) {
        let c = corpus(seed);
        for (s, shard) in c.shards.iter().enumerate() {
            let index = build(shard);
            let want = brute_force_single(&c, s);
            let got = single_hits(&search(&index, &c.query, &c.weights), s);
            prop_assert_eq!(&got, &want, "search over index {}", s);
            for k in 0..=want.len() + 1 {
                let top = search_top_k(&index, &c.query, &c.weights, k);
                let top = single_hits(&top, s);
                prop_assert_eq!(
                    &top[..], &want[..k.min(want.len())],
                    "search_top_k over index {}, k = {}", s, k
                );
            }
        }
    }
}

/// The spec is only as strong as its corpora: over a fixed run of seeds
/// they must produce what each part of the rank order and the score
/// decides — long lists (an unstable sort reorders ties only past its
/// insertion-sort cut-off), exact ties on `(score, URL, state)` between
/// shards and between pages, the same inside one index (where only the
/// page tells the top-k heap which tie ranks first), NaN and zero scores,
/// and answered conjunctions of three or more terms.
#[test]
fn corpora_force_ties_long_lists_and_odd_scores() {
    let (mut long_tied, mut shard_ties, mut page_ties, mut index_ties) = (0, 0, 0, 0);
    let (mut nan, mut zero, mut three_terms) = (0, 0, 0);
    let tie = |a: &Hit, b: &Hit| a.2 == b.2 && a.3 == b.3 && a.4 == b.4;
    for seed in 0..400 {
        let c = corpus(seed);
        let want = brute_force(&c);
        let ties: Vec<(&Hit, &Hit)> = (want.windows(2))
            .filter(|w| tie(&w[0], &w[1]))
            .map(|w| (&w[0], &w[1]))
            .collect();
        long_tied += usize::from(want.len() > 24 && !ties.is_empty());
        shard_ties += usize::from(ties.iter().any(|(a, b)| a.0 != b.0));
        page_ties += usize::from(ties.iter().any(|(a, b)| a.0 == b.0 && a.1 != b.1));
        index_ties += usize::from((0..c.shards.len()).any(|s| {
            let single = brute_force_single(&c, s);
            (single.windows(2)).any(|w| tie(&w[0], &w[1]))
        }));
        nan += usize::from(want.iter().any(|h| f64::from_bits(h.4).is_nan()));
        zero += usize::from(want.iter().any(|h| f64::from_bits(h.4) == 0.0));
        three_terms += usize::from(c.query.terms.len() >= 3 && !want.is_empty());
    }
    for (what, n) in [
        ("long lists with ties", long_tied),
        ("ties across shards", shard_ties),
        ("ties across pages of a shard", page_ties),
        ("pages of one URL tied inside one index", index_ties),
        ("NaN scores", nan),
        ("zero scores", zero),
        ("answered conjunctions of 3+ terms", three_terms),
    ] {
        assert!(n >= 10, "only {n} of 400 corpora have {what}");
    }
}
