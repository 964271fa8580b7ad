//! Property suite for the v4 on-disk segment: any index the builder can
//! produce must survive encode → mmap-backed load **bit-identically** —
//! structural equality and equal search results (score bits included),
//! whether a query meets a term's run cold (decoded on that touch) or warm
//! (decoded by an earlier query, on this thread or another). The flip side:
//! any torn or bit-flipped artifact must be *rejected* at load, never
//! half-read.
//!
//! These run against real temp files so the mmap path (not just the
//! encoder) is what's under test.

use ajax_crawl::model::AppModel;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::{search, Query, RankWeights};
use ajax_index::{load_index, save_index, PersistError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic pseudo-random corpus (same generator family as the
/// equivalence suite): `n_pages` pages, 1–4 states each, drawn from a
/// small vocabulary so queries actually match.
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
    "enjoy the ride",
    "absentterm",
    "",
];

fn build(models: &[AppModel]) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for m in models {
        b.add_model(m, Some(1.0 / models.len().max(1) as f64));
    }
    b.build()
}

/// A unique scratch path per call — proptest shrinks re-enter the test
/// body, so a fixed name would race against itself.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ajax-v4-roundtrip-{}-{tag}-{n}.ajx",
        std::process::id()
    ))
}

fn assert_bit_identical(a: &InvertedIndex, b: &InvertedIndex, queries: &[Query]) {
    let w = RankWeights::default();
    for q in queries {
        let ra = search(a, q, &w);
        let rb = search(b, q, &w);
        assert_eq!(ra.len(), rb.len(), "result count for {:?}", q.terms);
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.doc, y.doc);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for {:?}: {} vs {}",
                q.terms,
                x.score,
                y.score
            );
        }
    }
}

/// Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.
fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(cases())]

    /// Random corpus → save v4 → mmap load: the loaded index is logically
    /// equal without decoding a run into its cell, answers every query
    /// bit-identically with its cells cold and then warm, and still equals
    /// the exact builder output afterwards.
    #[test]
    fn v4_roundtrip_is_bit_identical(seed in 0u64..10_000, n_pages in 1usize..24) {
        let models = corpus(seed, n_pages);
        let built = build(&models);
        let path = scratch_path("rt");
        save_index(&path, &built).expect("save v4");

        let loaded = load_index(&path).expect("load v4");
        prop_assert!(loaded.is_mapped(), "a v4 artifact must load mapped");
        prop_assert!(loaded.mapped_bytes() > 0);
        let cold_bytes = loaded.approx_bytes();
        prop_assert_eq!(&built, &loaded);
        prop_assert_eq!(loaded.approx_bytes(), cold_bytes, "equality filled a run cell");

        // Re-saving the loaded index writes the original bytes and fills no
        // cell either.
        let resaved = scratch_path("resave");
        save_index(&resaved, &loaded).expect("re-save v4");
        let same_bytes = std::fs::read(&path).expect("read") == std::fs::read(&resaved).expect("read");
        let _ = std::fs::remove_file(&resaved);
        prop_assert!(same_bytes, "re-saving a loaded index changed its bytes");
        prop_assert_eq!(loaded.approx_bytes(), cold_bytes, "re-saving filled a run cell");

        // Loaded halves merge to what the built halves merge to.
        let (front, back) = models.split_at(n_pages / 2);
        let halves = [build(front), build(back)];
        let loaded_halves: Vec<InvertedIndex> = halves
            .iter()
            .map(|half| {
                let path = scratch_path("half");
                save_index(&path, half).expect("save half");
                let loaded = load_index(&path).expect("load half");
                let _ = std::fs::remove_file(&path);
                loaded
            })
            .collect();
        let merged_built = InvertedIndex::try_merge_segments(halves.to_vec()).expect("merge");
        let merged_loaded = InvertedIndex::try_merge_segments(loaded_halves).expect("merge");
        prop_assert_eq!(&merged_loaded, &merged_built);

        let queries: Vec<Query> = QUERIES.iter().map(|q| Query::parse(q)).collect();
        assert_bit_identical(&built, &loaded, &queries);
        assert_bit_identical(&built, &loaded, &queries);
        prop_assert_eq!(&built, &loaded);

        let _ = std::fs::remove_file(&path);
    }

    /// A single flipped bit anywhere in the artifact — header line, segment
    /// payload, or commit marker — must make the load fail; damage inside
    /// the checksummed payload is reported as `Corrupt`.
    #[test]
    fn v4_bit_flip_is_rejected(seed in 0u64..1_000, flip_frac in 0.0f64..1.0, bit in 0u8..8) {
        let models = corpus(seed, 6);
        let built = build(&models);
        let path = scratch_path("flip");
        save_index(&path, &built).expect("save v4");

        let mut bytes = std::fs::read(&path).expect("read artifact");
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("rewrite artifact");

        let err = load_index(&path).expect_err("flipped artifact must not load");
        // Flips in the JSON header line surface as Format/Serde (the frame
        // no longer parses); flips past it are caught by the payload CRC or
        // the torn-commit marker and must say Corrupt.
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap_or(0) + 1;
        if pos >= header_len {
            prop_assert!(
                matches!(err, PersistError::Corrupt { .. }),
                "payload flip at {} reported {:?}",
                pos,
                err
            );
        }

        let _ = std::fs::remove_file(&path);
    }

    /// Every strict prefix of a committed v4 artifact is a torn write and
    /// must be rejected as `Corrupt` (or fail framing entirely) — never
    /// parsed into a half-index.
    #[test]
    fn v4_truncation_is_rejected(seed in 0u64..1_000, keep_frac in 0.0f64..1.0) {
        let models = corpus(seed, 5);
        let built = build(&models);
        let path = scratch_path("trunc");
        save_index(&path, &built).expect("save v4");

        let bytes = std::fs::read(&path).expect("read artifact");
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).expect("truncate artifact");

        prop_assert!(
            load_index(&path).is_err(),
            "a {}-of-{} byte prefix must not load",
            keep,
            bytes.len()
        );

        let _ = std::fs::remove_file(&path);
    }
}

/// Non-property anchor: the empty index round-trips too (zero terms, zero
/// pages — every section table entry is a zero-length slice).
#[test]
fn empty_index_roundtrips() {
    let built = IndexBuilder::new().build();
    let path = scratch_path("empty");
    save_index(&path, &built).expect("save empty v4");
    let loaded = load_index(&path).expect("load empty v4");
    assert!(loaded.is_mapped());
    assert_eq!(built, loaded);
    let _ = std::fs::remove_file(&path);
}

/// Four threads share one freshly loaded index and race to first-touch the
/// same terms: whichever thread decodes a run, every answer on every thread
/// is bit-identical to the built index's.
#[test]
fn racing_first_touches_answer_like_the_build() {
    let built = build(&corpus(7, 20));
    let path = scratch_path("race");
    save_index(&path, &built).expect("save v4");
    let loaded = std::sync::Arc::new(load_index(&path).expect("load v4"));
    let _ = std::fs::remove_file(&path);
    let queries: Vec<Query> = QUERIES.iter().map(|q| Query::parse(q)).collect();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                barrier.wait();
                assert_bit_identical(&built, &loaded, &queries);
            });
        }
    });
    assert_eq!(built, *loaded);
}

// ------------------------------------------------------------ pinned bytes

/// Small fixed crawls of the three webgen sites, the way
/// `tests/tests/transition_targets.rs` pins them.
mod sites {
    use ajax_crawl::crawler::{CrawlConfig, Crawler};
    use ajax_crawl::model::AppModel;
    use ajax_net::{LatencyModel, Server, Url};
    use ajax_webgen::{
        video_meta, GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer,
        VidShareSpec,
    };
    use std::sync::Arc;

    fn crawl(server: Arc<dyn Server>, urls: &[String], config: CrawlConfig) -> Vec<AppModel> {
        let mut crawler = Crawler::new(server, LatencyModel::Fixed(5_000), config);
        urls.iter()
            .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl").model)
            .collect()
    }

    pub fn vidshare() -> Vec<AppModel> {
        let spec = VidShareSpec::small(40);
        let urls: Vec<String> = (0..40)
            .filter(|&v| video_meta(&spec, v).comment_pages >= 3)
            .take(4)
            .map(|v| spec.watch_url(v))
            .collect();
        crawl(
            Arc::new(VidShareServer::new(spec)),
            &urls,
            CrawlConfig::ajax(),
        )
    }

    pub fn newsshare() -> Vec<AppModel> {
        let spec = NewsSpec::small(30);
        let urls: Vec<String> = [3, 7].iter().map(|&p| spec.page_url(p)).collect();
        crawl(
            Arc::new(NewsShareServer::new(spec)),
            &urls,
            CrawlConfig::ajax().with_max_states(20),
        )
    }

    pub fn gallery() -> Vec<AppModel> {
        let spec = GallerySpec::small(6);
        let urls: Vec<String> = (0..3).map(|a| spec.page_url(a)).collect();
        crawl(
            Arc::new(GalleryServer::new(spec)),
            &urls,
            CrawlConfig::ajax().with_equiv_prune(),
        )
    }
}

/// The saved v4 artifact of each site's small crawl, pinned by length and
/// CRC32 of the whole file (frame header, segment, end marker). Recorded at
/// `12ef942`, before the write side was rebuilt: the builder, the encoder,
/// the checksum and the frame writer may change how they work, never what
/// they write.
#[test]
fn saved_v4_bytes_are_pinned_per_site() {
    let pinned: [(&str, Vec<AppModel>, usize, u32); 3] = [
        ("vidshare", sites::vidshare(), 22_690, 2_021_488_302),
        ("newsshare", sites::newsshare(), 16_119, 967_533_723),
        ("gallery", sites::gallery(), 4_574, 861_284_593),
    ];
    let mut saved = Vec::new();
    let mut expected = Vec::new();
    for (site, models, len, crc) in pinned {
        let path = scratch_path(site);
        save_index(&path, &build(&models)).expect("save v4");
        let bytes = std::fs::read(&path).expect("read artifact");
        let _ = std::fs::remove_file(&path);
        saved.push((site, bytes.len(), ajax_crawl::durable::crc32(&bytes)));
        expected.push((site, len, crc));
    }
    assert_eq!(saved, expected, "saved v4 bytes moved");
}
