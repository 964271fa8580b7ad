//! Integration tests for the static effect analysis and the crawl planner
//! built on it: pruning must change *cost* (events fired), never *results*
//! (transition graphs, state counts, search output), and verify mode must
//! find zero soundness mismatches on both generated sites.

use ajax_crawl::crawler::CrawlConfig;
use ajax_engine::{analyze_site, AjaxSearchEngine, EngineConfig};
use ajax_net::{LatencyModel, Server, Url};
use ajax_webgen::{
    query_workload, GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer,
    VidShareSpec,
};
use std::sync::Arc;

fn vid_site(n: u32) -> (Arc<VidShareServer>, Url) {
    let spec = VidShareSpec::small(n);
    let start = Url::parse(&spec.watch_url(0));
    (Arc::new(VidShareServer::new(spec)), start)
}

fn build(n: u32, crawl: CrawlConfig) -> AjaxSearchEngine {
    let (server, start) = vid_site(n);
    let mut config = EngineConfig::ajax(n as usize);
    config.crawl = crawl;
    config.keep_models = true;
    AjaxSearchEngine::build(server, &start, config)
}

#[test]
fn pruned_build_is_cheaper_but_identical() {
    let n = 20;
    let pruned = build(n, CrawlConfig::ajax());
    let baseline = build(n, CrawlConfig::ajax().without_static_prune());

    // Cost: the planner must actually cut fired events.
    assert!(pruned.report.crawl.pruned_events > 0, "nothing was pruned");
    assert!(
        pruned.report.crawl.events_fired < baseline.report.crawl.events_fired,
        "pruning must reduce fired events: {} !< {}",
        pruned.report.crawl.events_fired,
        baseline.report.crawl.events_fired
    );

    // Results: state counts, transition graphs, and the index must agree.
    assert_eq!(pruned.report.crawl.states, baseline.report.crawl.states);
    assert_eq!(
        pruned.report.crawl.transitions,
        baseline.report.crawl.transitions
    );
    assert_eq!(pruned.report.total_states, baseline.report.total_states);
    let sig = |e: &AjaxSearchEngine| -> Vec<(String, u64)> {
        let mut sigs: Vec<(String, u64)> = e
            .models
            .iter()
            .map(|m| (m.url.clone(), m.graph_signature()))
            .collect();
        sigs.sort();
        sigs
    };
    assert_eq!(sig(&pruned), sig(&baseline), "transition graphs diverged");

    for query in query_workload().iter().take(6) {
        let a = pruned.search(&query.text);
        let b = baseline.search(&query.text);
        assert_eq!(a.len(), b.len(), "result count for {:?}", query.text);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.url, rb.url);
            assert_eq!(ra.doc.state, rb.doc.state);
        }
    }
}

#[test]
fn verify_prune_is_sound_on_both_sites() {
    // VidShare via the engine pipeline.
    let verified = build(12, CrawlConfig::ajax().verifying());
    assert!(verified.report.crawl.pruned_events > 0);
    assert_eq!(
        verified.report.crawl.prune_mismatches, 0,
        "a statically-pruned vidshare event changed state"
    );

    // NewsShare via a direct crawl of every page.
    let spec = NewsSpec::small(4);
    let server: Arc<dyn Server> = Arc::new(NewsShareServer::new(spec.clone()));
    let mut crawler =
        ajax_crawl::Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax().verifying());
    for page in 0..4 {
        let crawl = crawler
            .crawl_page(&Url::parse(&spec.page_url(page)))
            .unwrap();
        assert_eq!(
            crawl.stats.prune_mismatches, 0,
            "a statically-pruned news event changed state on page {page}"
        );
    }
}

#[test]
fn analysis_span_appears_in_traced_builds() {
    let (server, start) = vid_site(6);
    let mut config = EngineConfig::ajax(6);
    config.trace = true;
    let engine = AjaxSearchEngine::build(server, &start, config);
    let pages = engine
        .spans
        .iter()
        .filter(|s| s.name == "analysis.page")
        .count();
    assert!(pages >= 6, "one analysis.page span per crawled page");
}

#[test]
fn analyze_surface_flags_both_sites_clean() {
    // The CI analyze-smoke gate in library form: no error-severity
    // diagnostics on either generated site.
    let vid_spec = VidShareSpec::small(6);
    let vid_urls: Vec<String> = (0..6).map(|v| vid_spec.watch_url(v)).collect();
    let vid = analyze_site(&VidShareServer::new(vid_spec), &vid_urls);
    assert!(!vid.has_errors(), "vidshare must lint clean");

    let news_spec = NewsSpec::small(4);
    let news_urls: Vec<String> = (0..4).map(|p| news_spec.page_url(p)).collect();
    let news = analyze_site(&NewsShareServer::new(news_spec), &news_urls);
    assert!(!news.has_errors(), "news must lint clean");
}

fn gallery_build(n: u32, crawl: CrawlConfig) -> AjaxSearchEngine {
    let spec = GallerySpec::small(n);
    let start = Url::parse(&spec.page_url(0));
    let server = Arc::new(GalleryServer::new(spec));
    let mut config = EngineConfig::ajax(n as usize);
    config.crawl = crawl;
    config.keep_models = true;
    config.path_filter = Some("/album".to_string());
    AjaxSearchEngine::build(server, &start, config)
}

#[test]
fn equiv_pruned_gallery_build_is_cheaper_but_identical() {
    let n = 4;
    let baseline = gallery_build(n, CrawlConfig::ajax());
    let pruned = gallery_build(n, CrawlConfig::ajax().with_equiv_prune());

    // Cost: both claim channels fire, every skipped event is accounted
    // for, and the acceptance bar (≥ 40% fewer fired events) clears.
    assert!(pruned.report.crawl.equiv_pruned_events > 0);
    assert!(pruned.report.crawl.commute_pruned_events > 0);
    assert_eq!(
        pruned.report.crawl.events_fired
            + pruned.report.crawl.equiv_pruned_events
            + pruned.report.crawl.commute_pruned_events,
        baseline.report.crawl.events_fired,
        "claimed events must partition the baseline's fired events"
    );
    assert!(
        pruned.report.crawl.events_fired * 5 <= baseline.report.crawl.events_fired * 3,
        "expected >=40% reduction: {} vs {}",
        pruned.report.crawl.events_fired,
        baseline.report.crawl.events_fired
    );

    // Results: state counts, transition graphs, and search output agree.
    assert_eq!(pruned.report.crawl.states, baseline.report.crawl.states);
    assert_eq!(
        pruned.report.crawl.transitions,
        baseline.report.crawl.transitions
    );
    assert_eq!(pruned.report.total_states, baseline.report.total_states);
    let sig = |e: &AjaxSearchEngine| -> Vec<(String, u64)> {
        let mut sigs: Vec<(String, u64)> = e
            .models
            .iter()
            .map(|m| (m.url.clone(), m.graph_signature()))
            .collect();
        sigs.sort();
        sigs
    };
    assert_eq!(sig(&pruned), sig(&baseline), "transition graphs diverged");
    for query in query_workload().iter().take(6) {
        let a = pruned.search(&query.text);
        let b = baseline.search(&query.text);
        assert_eq!(a.len(), b.len(), "result count for {:?}", query.text);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.url, rb.url);
            assert_eq!(ra.doc.state, rb.doc.state);
            assert_eq!(ra.score.to_bits(), rb.score.to_bits());
        }
    }
}

#[test]
fn verify_equiv_finds_no_mismatches_on_gallery() {
    let verified = gallery_build(4, CrawlConfig::ajax().with_equiv_prune().verifying());
    assert!(
        verified.report.crawl.equiv_pruned_events + verified.report.crawl.commute_pruned_events > 0,
        "verify mode must still make claims to check"
    );
    assert_eq!(
        verified.report.crawl.equiv_mismatches, 0,
        "an event claimed barren by equivalence/commutativity changed state"
    );
    // Verify fires everything, so its model matches the plain baseline.
    let baseline = gallery_build(4, CrawlConfig::ajax());
    assert_eq!(
        verified.report.crawl.events_fired,
        baseline.report.crawl.events_fired
    );
    assert_eq!(verified.report.total_states, baseline.report.total_states);
}

#[test]
fn analyze_surface_reports_gallery_classes() {
    let spec = GallerySpec::small(3);
    let urls: Vec<String> = (0..3).map(|a| spec.page_url(a)).collect();
    let site = analyze_site(&GalleryServer::new(spec), &urls);
    assert!(!site.has_errors(), "gallery must lint clean");
    for page in &site.pages {
        // All caption + tag rows collapse into one class.
        let biggest = page
            .equiv_classes
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0);
        assert!(
            biggest >= 10,
            "expected a large redundant-handler class, got {biggest}"
        );
        assert!(!page.commute.codes.is_empty());
    }
}
