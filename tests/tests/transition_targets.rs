//! What `AppModel::graph_signature` does not cover: the Table 2.1 target
//! annotation of every transition, and the virtual clock of the crawl that
//! produced it. Both are pinned here on small VidShare, NewsShare and
//! Gallery crawls, so a change to the DOM diff, the rollback or the hashing
//! path that alters an annotation or a `charge_cpu` fails tier-1.

use ajax_crawl::crawler::{CrawlConfig, Crawler, PageCrawl};
use ajax_net::{LatencyModel, Server, Url};
use ajax_webgen::{
    video_meta, GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer, VidShareSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn crawl(server: Arc<dyn Server>, urls: &[String], config: CrawlConfig) -> Vec<PageCrawl> {
    let mut crawler = Crawler::new(server, LatencyModel::Fixed(5_000), config);
    urls.iter()
        .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl"))
        .collect()
}

/// The first four VidShare videos with at least three comment pages.
fn vidshare() -> Vec<PageCrawl> {
    let spec = VidShareSpec::small(40);
    let urls: Vec<String> = (0..40)
        .filter(|&v| video_meta(&spec, v).comment_pages >= 3)
        .take(4)
        .map(|v| spec.watch_url(v))
        .collect();
    assert_eq!(urls.len(), 4);
    crawl(
        Arc::new(VidShareServer::new(spec)),
        &urls,
        CrawlConfig::ajax(),
    )
}

fn newsshare() -> Vec<PageCrawl> {
    let spec = NewsSpec::small(30);
    let urls: Vec<String> = [3, 7].iter().map(|&p| spec.page_url(p)).collect();
    crawl(
        Arc::new(NewsShareServer::new(spec)),
        &urls,
        CrawlConfig::ajax().with_max_states(20),
    )
}

fn gallery() -> Vec<PageCrawl> {
    let spec = GallerySpec::small(6);
    let urls: Vec<String> = (0..3).map(|a| spec.page_url(a)).collect();
    crawl(
        Arc::new(GalleryServer::new(spec)),
        &urls,
        CrawlConfig::ajax().with_equiv_prune(),
    )
}

/// Distinct target lists over every transition, with their multiplicity.
fn target_census(pages: &[PageCrawl]) -> BTreeMap<Vec<String>, usize> {
    let mut census = BTreeMap::new();
    for page in pages {
        for t in &page.model.transitions {
            *census.entry(t.targets.clone()).or_insert(0) += 1;
        }
    }
    census
}

fn census_of(entries: &[(&[&str], usize)]) -> BTreeMap<Vec<String>, usize> {
    entries
        .iter()
        .map(|(targets, n)| (targets.iter().map(|s| s.to_string()).collect(), *n))
        .collect()
}

#[test]
fn vidshare_transitions_target_the_comment_box() {
    let pages = vidshare();
    let transitions: usize = pages.iter().map(|p| p.model.transitions.len()).sum();
    assert_eq!(
        target_census(&pages),
        census_of(&[(&["div#recent_comments"], transitions)]),
        "every VidShare transition refills the comment box (Table 2.1)"
    );
}

#[test]
fn newsshare_transitions_target_their_region() {
    assert_eq!(target_census(&newsshare()), census_of(NEWS_TARGETS));
}

#[test]
fn gallery_transitions_target_the_hero() {
    assert_eq!(target_census(&gallery()), census_of(GALLERY_TARGETS));
}

/// `(crawl_micros, cpu_micros, events_fired, states)` per crawled page.
fn clock(pages: &[PageCrawl]) -> Vec<(u64, u64, u64, u64)> {
    pages
        .iter()
        .map(|p| {
            let s = &p.stats;
            (s.crawl_micros, s.cpu_micros, s.events_fired, s.states)
        })
        .collect()
}

/// Recorded at the commit before the span-based diff landed. The virtual
/// clock is a function of the charges alone, so any drift here means a
/// `charge_cpu` moved, changed amount, or an event fired differently.
#[test]
fn virtual_clock_matches_recorded_constants() {
    assert_eq!(clock(&vidshare()), VIDSHARE_CLOCK, "vidshare");
    assert_eq!(clock(&newsshare()), NEWS_CLOCK, "newsshare");
    assert_eq!(clock(&gallery()), GALLERY_CLOCK, "gallery");
}

/// `(pruned_events, equiv_pruned_events, commute_pruned_events, duplicates)`
/// per crawled page: which planner rule claimed how many events.
fn claims(pages: &[PageCrawl]) -> Vec<(u64, u64, u64, u64)> {
    pages
        .iter()
        .map(|p| {
            let s = &p.stats;
            (
                s.pruned_events,
                s.equiv_pruned_events,
                s.commute_pruned_events,
                s.duplicates,
            )
        })
        .collect()
}

/// Recorded at the commit before the planner moved to dense ids: the
/// purity, equivalence and commutativity rules must each keep claiming
/// exactly the events they claimed when handlers were keyed by source.
#[test]
fn planner_claims_match_recorded_constants() {
    assert_eq!(claims(&vidshare()), VIDSHARE_CLAIMS, "vidshare");
    assert_eq!(claims(&newsshare()), NEWS_CLAIMS, "newsshare");
    assert_eq!(claims(&gallery()), GALLERY_CLAIMS, "gallery");
}

/// `(duplicates, events_fired, states, transitions, graph_signature)` per
/// crawled page.
fn shape(pages: &[PageCrawl]) -> Vec<(u64, u64, u64, usize, u64)> {
    pages
        .iter()
        .map(|p| {
            let s = &p.stats;
            (
                s.duplicates,
                s.events_fired,
                s.states,
                p.model.transitions.len(),
                p.model.graph_signature(),
            )
        })
        .collect()
}

/// Recorded at the commit before duplicate detection moved from comparing
/// hashes to comparing the normalized text: which events were unchanged,
/// which led to a known state and which to a new one must not move, and
/// every `State::hash` (inside the signature) must stay the FNV of the text.
#[test]
fn crawl_shape_matches_recorded_constants() {
    assert_eq!(shape(&vidshare()), VIDSHARE_SHAPE, "vidshare");
    assert_eq!(shape(&newsshare()), NEWS_SHAPE, "newsshare");
    assert_eq!(shape(&gallery()), GALLERY_SHAPE, "gallery");
}

/// Every equivalence/commutativity claim on the Gallery pages, fired
/// anyway: none of them changes the state.
#[test]
fn gallery_claims_verify_with_zero_mismatches() {
    let spec = GallerySpec::small(6);
    let urls: Vec<String> = (0..3).map(|a| spec.page_url(a)).collect();
    let verified = crawl(
        Arc::new(GalleryServer::new(spec)),
        &urls,
        CrawlConfig::ajax().with_equiv_prune().verifying(),
    );
    for (page, pruned) in verified.iter().zip(gallery()) {
        assert_eq!(page.stats.equiv_mismatches, 0);
        assert_eq!(page.stats.prune_mismatches, 0);
        assert_eq!(
            page.model.graph_signature(),
            pruned.model.graph_signature(),
            "pruning must not change the model"
        );
    }
}

const NEWS_TARGETS: &[(&[&str], usize)] = &[(&["div#top_stories"], 24), (&["div.panel"], 36)];
const GALLERY_TARGETS: &[(&[&str], usize)] = &[(&["div#hero"], 18)];
const VIDSHARE_CLOCK: &[(u64, u64, u64, u64)] = &[
    (182364, 162364, 9, 3),
    (350730, 320730, 19, 5),
    (520523, 480523, 29, 7),
    (181113, 161113, 9, 3),
];
const NEWS_CLOCK: &[(u64, u64, u64, u64)] = &[(635100, 600100, 39, 9), (634682, 599682, 39, 9)];
const GALLERY_CLOCK: &[(u64, u64, u64, u64)] = &[
    (165827, 140827, 7, 4),
    (165279, 140279, 7, 4),
    (165702, 140702, 7, 4),
];
const VIDSHARE_CLAIMS: &[(u64, u64, u64, u64)] =
    &[(3, 0, 0, 7), (5, 0, 0, 15), (7, 0, 0, 23), (3, 0, 0, 7)];
const NEWS_CLAIMS: &[(u64, u64, u64, u64)] = &[(0, 0, 0, 22), (0, 0, 0, 22)];
const GALLERY_CLAIMS: &[(u64, u64, u64, u64)] = &[(0, 13, 42, 3), (0, 13, 42, 3), (0, 13, 42, 3)];
const VIDSHARE_SHAPE: &[(u64, u64, u64, usize, u64)] = &[
    (7, 9, 3, 9, 7860993191086318296),
    (15, 19, 5, 19, 4987640653832535369),
    (23, 29, 7, 29, 14569789840453344927),
    (7, 9, 3, 9, 2704556479062135336),
];
const NEWS_SHAPE: &[(u64, u64, u64, usize, u64)] = &[
    (22, 39, 9, 30, 14405320551259955757),
    (22, 39, 9, 30, 15627658952793385874),
];
const GALLERY_SHAPE: &[(u64, u64, u64, usize, u64)] = &[
    (3, 7, 4, 6, 5633866710177244907),
    (3, 7, 4, 6, 5266015128884040178),
    (3, 7, 4, 6, 761345627761824859),
];
