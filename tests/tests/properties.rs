//! Cross-crate property-based tests (proptest) on the core invariants the
//! thesis' correctness rests on.

use ajax_crawl::crawler::{CrawlConfig, Crawler};
use ajax_crawl::replay::reconstruct_state;
use ajax_dom::parse_document;
use ajax_index::invert::IndexBuilder;
use ajax_index::query::{search, Query, RankWeights};
use ajax_index::shard::QueryBroker;
use ajax_net::{LatencyModel, Server, Url};
use ajax_webgen::{
    GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer, VidShareSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The three synthetic sites.
#[derive(Debug, Clone, Copy)]
enum Site {
    VidShare,
    NewsShare,
    Gallery,
}

/// Crawls page `page` (of 64) of `site` generated from `seed`.
fn crawl_page(
    site: Site,
    seed: u64,
    page: u32,
    config: CrawlConfig,
) -> ajax_crawl::model::AppModel {
    let (server, url): (Arc<dyn Server>, String) = match site {
        Site::VidShare => {
            let spec = VidShareSpec {
                seed,
                ..VidShareSpec::small(64)
            };
            (
                Arc::new(VidShareServer::new(spec.clone())),
                spec.watch_url(page),
            )
        }
        Site::NewsShare => {
            let spec = NewsSpec {
                seed,
                ..NewsSpec::small(64)
            };
            (
                Arc::new(NewsShareServer::new(spec.clone())),
                spec.page_url(page),
            )
        }
        Site::Gallery => {
            let spec = GallerySpec {
                seed,
                ..GallerySpec::small(64)
            };
            (
                Arc::new(GalleryServer::new(spec.clone())),
                spec.page_url(page),
            )
        }
    };
    let mut crawler = Crawler::new(server, LatencyModel::Zero, config);
    crawler.crawl_page(&Url::parse(&url)).expect("crawl").model
}

/// 16 cases in tier-1; `PROPTEST_CASES` raises them in CI.
fn cache_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cache_cases())]

    /// The hot-node cache must be *transparent*: same states, same
    /// transitions, on every site, for any site seed and any page.
    #[test]
    fn cache_transparency(
        site in prop_oneof![Just(Site::VidShare), Just(Site::NewsShare), Just(Site::Gallery)],
        seed in 0u64..1_000,
        page in 0u32..64,
    ) {
        let cached = crawl_page(site, seed, page, CrawlConfig::ajax());
        let uncached = crawl_page(site, seed, page, CrawlConfig::ajax_no_cache());
        prop_assert_eq!(&cached.states, &uncached.states);
        prop_assert_eq!(&cached.transitions, &uncached.transitions);
        prop_assert_eq!(cached.graph_signature(), uncached.graph_signature());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crawling is deterministic: same inputs, identical model.
    #[test]
    fn crawl_determinism(seed in 0u64..1_000, video in 0u32..64) {
        let a = crawl_page(Site::VidShare, seed, video, CrawlConfig::ajax());
        let b = crawl_page(Site::VidShare, seed, video, CrawlConfig::ajax());
        prop_assert_eq!(a, b);
    }

    /// Every crawled state can be reconstructed by event replay, hash-exact.
    #[test]
    fn replay_soundness(seed in 0u64..300, video in 0u32..64) {
        let model = crawl_page(Site::VidShare, seed, video, CrawlConfig::ajax().storing_dom());
        for state in &model.states {
            let doc = reconstruct_state(&model, state.id)
                .map_err(|e| TestCaseError::fail(format!("state {}: {e}", state.id)))?;
            prop_assert_eq!(doc.content_hash(), state.hash);
        }
    }

    /// State-count caps are always respected and state hashes are unique.
    #[test]
    fn state_cap_and_uniqueness(seed in 0u64..1_000, video in 0u32..64, cap in 1usize..12) {
        let model = crawl_page(Site::VidShare, seed, video, CrawlConfig::ajax().with_max_states(cap));
        prop_assert!(model.state_count() <= cap);
        let mut hashes: Vec<u64> = model.states.iter().map(|s| s.hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        prop_assert_eq!(hashes.len(), model.state_count(), "duplicate states in model");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// HTML parse → serialize → parse is a fixpoint on the *normalized*
    /// form, for arbitrary text content and ids.
    #[test]
    fn html_roundtrip_fixpoint(
        texts in proptest::collection::vec("[ -~]{0,40}", 1..6),
        ids in proptest::collection::vec("[a-z][a-z0-9]{0,8}", 1..6),
    ) {
        let mut html = String::new();
        for (text, id) in texts.iter().zip(ids.iter()) {
            html.push_str(&format!("<div id=\"{id}\"><p>{}</p></div>",
                ajax_dom::entities::encode_text(text)));
        }
        let doc1 = parse_document(&html);
        let doc2 = parse_document(&doc1.to_html());
        prop_assert_eq!(doc1.normalized(), doc2.normalized());
        prop_assert_eq!(doc1.content_hash(), doc2.content_hash());
    }

    /// Sharded query processing must equal the single-index reference for
    /// any partitioning of any corpus.
    #[test]
    fn sharding_equivalence(
        state_words in proptest::collection::vec(
            proptest::collection::vec("[a-e]{1,3}", 1..6), 2..8),
        per_shard in 1usize..5,
        query in proptest::collection::vec("[a-e]{1,3}", 1..3),
    ) {
        // Build one page per state-word list.
        let models: Vec<ajax_crawl::model::AppModel> = state_words
            .iter()
            .enumerate()
            .map(|(i, words)| {
                let mut m = ajax_crawl::model::AppModel::new(format!("http://x/{i}"));
                m.add_state(i as u64 + 1, words.join(" "), None);
                m
            })
            .collect();

        let mut single = IndexBuilder::new();
        for m in &models {
            single.add_model(m, Some(0.5));
        }
        let single = single.build();

        let shards: Vec<_> = models
            .chunks(per_shard)
            .map(|chunk| {
                let mut b = IndexBuilder::new();
                for m in chunk {
                    b.add_model(m, Some(0.5));
                }
                b.build()
            })
            .collect();
        let broker = QueryBroker::new(shards);

        let q = Query { terms: query };
        let reference = search(&single, &q, &RankWeights::default());
        let merged = broker.search(&q);
        prop_assert_eq!(reference.len(), merged.len());
        for (r, m) in reference.iter().zip(merged.iter()) {
            prop_assert_eq!(r.url.as_str(), &*m.url);
            prop_assert!((r.score - m.score).abs() < 1e-9);
        }
    }

    /// Conjunction results are always a subset of each term's results.
    #[test]
    fn conjunction_subset(
        state_words in proptest::collection::vec(
            proptest::collection::vec("[a-d]{1,2}", 1..8), 1..6),
        t1 in "[a-d]{1,2}",
        t2 in "[a-d]{1,2}",
    ) {
        let mut m = ajax_crawl::model::AppModel::new("http://x/1");
        for (i, words) in state_words.iter().enumerate() {
            m.add_state(i as u64 + 1, words.join(" "), None);
        }
        let mut b = IndexBuilder::new();
        b.add_model(&m, None);
        let idx = b.build();
        let w = RankWeights::default();

        let both: std::collections::BTreeSet<_> = search(
            &idx,
            &Query { terms: vec![t1.clone(), t2.clone()] },
            &w,
        )
        .into_iter()
        .map(|r| r.doc)
        .collect();
        let only1: std::collections::BTreeSet<_> =
            search(&idx, &Query { terms: vec![t1] }, &w)
                .into_iter()
                .map(|r| r.doc)
                .collect();
        let only2: std::collections::BTreeSet<_> =
            search(&idx, &Query { terms: vec![t2] }, &w)
                .into_iter()
                .map(|r| r.doc)
                .collect();
        prop_assert!(both.is_subset(&only1));
        prop_assert!(both.is_subset(&only2));
        prop_assert_eq!(both.clone(), only1.intersection(&only2).copied().collect());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Damaging a persisted index at *any* byte offset — truncating there or
    /// flipping a bit there — must yield a clean typed [`PersistError`],
    /// never a panic and never a silently wrong load (the tentpole
    /// durability guarantee of §8.3's on-disk format).
    #[test]
    fn corrupted_index_never_loads_wrong(
        offset_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
        truncate in any::<bool>(),
        case in 0u64..1_000_000,
    ) {
        use ajax_index::persist::{load_index, save_index, PersistError};

        let model = crawl_page(Site::VidShare, 7, 3, CrawlConfig::ajax());
        let mut b = IndexBuilder::new();
        b.add_model(&model, Some(0.5));
        let index = b.build();

        let mut path = std::env::temp_dir();
        path.push(format!("ajax_prop_corrupt_{}_{case}.ajx", std::process::id()));
        save_index(&path, &index).expect("save");
        let mut bytes = std::fs::read(&path).expect("read back");
        prop_assert!(!bytes.is_empty());
        let offset = ((bytes.len() as f64 * offset_frac) as usize).min(bytes.len() - 1);

        if truncate {
            bytes.truncate(offset);
        } else {
            bytes[offset] ^= 1 << flip_bit;
        }
        std::fs::write(&path, &bytes).expect("write damaged");

        let outcome = load_index(&path);
        std::fs::remove_file(&path).ok();
        match outcome {
            // A bit-flip inside JSON string content can survive parsing —
            // but then the decoded index must differ from the original
            // (CRC32 catches every 1-bit flip, so a *successful* load can
            // only be the undamaged truncation-at-EOF... which the exact
            // length check also rejects; equality here means the damage
            // was outside anything load reads, which the frame forbids).
            Ok(loaded) => prop_assert!(
                loaded == index,
                "corrupt file loaded as a different index"
            ),
            Err(
                PersistError::Io { .. }
                | PersistError::Serde { .. }
                | PersistError::Format { .. }
                | PersistError::Corrupt { .. },
            ) => {}
        }
    }
}
