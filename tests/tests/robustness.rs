//! Robustness of the resilient crawl: determinism under injected faults,
//! fault-transparency of retries, zero page loss under transient faults,
//! and quarantine of permanently dead URLs.

use ajax_crawl::crawler::{CrawlConfig, Crawler};
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::{partition_urls, Partition};
use ajax_net::{Fault, FaultPlan, FaultRule, LatencyModel, Server, Url};
use ajax_webgen::{VidShareServer, VidShareSpec};
use std::sync::Arc;

fn vidshare(n: u32) -> Arc<VidShareServer> {
    Arc::new(VidShareServer::new(VidShareSpec::small(n)))
}

fn watch_urls(n: u32) -> Vec<String> {
    (0..n)
        .map(|v| format!("http://vidshare.example/watch?v={v}"))
        .collect()
}

/// Two serial crawls under the same fault seed are bit-identical: same
/// states, same transitions, same stats (virtual time included).
#[test]
fn serial_crawl_is_deterministic_under_faults() {
    let run = || {
        let server = vidshare(20);
        let mut crawler =
            Crawler::new(server, LatencyModel::thesis_default(7), CrawlConfig::ajax())
                .with_fault_plan(FaultPlan::transient_mix(9, 0.3));
        watch_urls(6)
            .iter()
            .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl"))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.model.states, pb.model.states);
        assert_eq!(pa.model.transitions, pb.model.transitions);
        assert_eq!(pa.stats, pb.stats, "virtual time must reproduce exactly");
    }
}

/// Two parallel crawls under the same fault seed produce identical models,
/// stats, and makespan — thread scheduling must not leak into results.
#[test]
fn parallel_crawl_is_deterministic_under_faults() {
    let partitions = partition_urls(&watch_urls(16), 4);
    let run = || {
        let mp = MpCrawler::new(
            vidshare(20) as Arc<dyn Server>,
            LatencyModel::thesis_default(7),
            CrawlConfig::ajax(),
        )
        .with_proc_lines(4)
        .with_fault_plan(FaultPlan::transient_mix(5, 0.3));
        mp.crawl(&partitions)
    };
    let a = run();
    let b = run();
    assert_eq!(a.aggregate, b.aggregate);
    assert_eq!(a.virtual_makespan, b.virtual_makespan);
    assert_eq!(a.virtual_serial, b.virtual_serial);
    for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
        assert_eq!(pa.failures, pb.failures);
        assert_eq!(pa.models.len(), pb.models.len());
        for (ma, mb) in pa.models.iter().zip(&pb.models) {
            assert_eq!(ma.url, mb.url);
            assert_eq!(ma.states, mb.states);
            assert_eq!(ma.transitions, mb.transitions);
        }
    }
}

/// Transient 5xx that succeed within the retry budget are invisible in the
/// crawled model: states and transitions match the fault-free crawl.
#[test]
fn recovered_faults_leave_no_trace_in_the_model() {
    let crawl = |plan: Option<FaultPlan>| {
        let mut crawler = Crawler::new(
            vidshare(15) as Arc<dyn Server>,
            LatencyModel::thesis_default(7),
            CrawlConfig::ajax(),
        );
        if let Some(plan) = plan {
            crawler = crawler.with_fault_plan(plan);
        }
        watch_urls(8)
            .iter()
            .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl"))
            .collect::<Vec<_>>()
    };
    // Every request fails once then succeeds: well inside 3 attempts.
    let plan = FaultPlan::new(3).with_rule(FaultRule::any(
        1.0,
        Fault::Transient {
            status: 503,
            fail_attempts: 1,
        },
    ));
    let clean = crawl(None);
    let faulty = crawl(Some(plan));
    for (c, f) in clean.iter().zip(&faulty) {
        assert_eq!(c.model.states, f.model.states);
        assert_eq!(c.model.transitions, f.model.transitions);
        assert_eq!(f.model.partial_states, 0, "nothing exhausted its budget");
        assert!(f.stats.fetch_retries > 0, "faults must have cost retries");
        assert_eq!(
            c.stats.ajax_network_calls, f.stats.ajax_network_calls,
            "logical calls"
        );
    }
}

/// 30% transient faults on the webgen site: zero lost pages, every model
/// present, costs visible in the report.
#[test]
fn thirty_percent_transient_faults_lose_no_pages() {
    let urls = watch_urls(24);
    let partitions = partition_urls(&urls, 6);
    let mp = MpCrawler::new(
        vidshare(30) as Arc<dyn Server>,
        LatencyModel::thesis_default(7),
        CrawlConfig::ajax(),
    )
    .with_proc_lines(4)
    .with_fault_plan(FaultPlan::transient_mix(17, 0.3));
    let report = mp.crawl(&partitions);
    let crawled: usize = report.partitions.iter().map(|p| p.models.len()).sum();
    assert_eq!(
        crawled,
        urls.len(),
        "no page may be lost to transient faults"
    );
    for p in &report.partitions {
        assert!(p.failures.is_empty(), "partition {} lost pages", p.id);
    }
    assert!(report.aggregate.fetch_retries > 0);
    assert!(report.aggregate.backoff_micros > 0);
    assert_eq!(report.quarantined_pages, 0);
    // `quarantined_pages` counts a subset of `failed_pages`; with nothing
    // lost, both halves of the accounting identity are zero.
    assert_eq!(report.failed_pages, 0);
    assert_eq!(
        report.failed_pages,
        report.quarantined_pages + report.permanent_failures()
    );
}

/// A permanently dead URL pattern is quarantined after K page-level
/// attempts; healthy pages are unaffected.
#[test]
fn dead_urls_quarantined_after_k_attempts() {
    let urls = watch_urls(8);
    let partitions = vec![Partition {
        id: 0,
        urls: urls.clone(),
    }];
    let k = 3;
    // v=5 times out on every attempt — a transport-level dead host.
    let plan = FaultPlan::new(1).with_rule(FaultRule::matching("v=5", 1.0, Fault::Timeout));
    let mp = MpCrawler::new(
        vidshare(10) as Arc<dyn Server>,
        LatencyModel::thesis_default(7),
        CrawlConfig::ajax(),
    )
    .with_proc_lines(1)
    .with_fault_plan(plan)
    .with_quarantine_after(k);
    let report = mp.crawl(&partitions);
    let p = &report.partitions[0];
    assert_eq!(p.models.len(), urls.len() - 1, "healthy pages all crawled");
    assert_eq!(p.failures.len(), 1);
    let failure = &p.failures[0];
    assert!(failure.url.contains("v=5"));
    assert_eq!(failure.attempts, k, "exactly K page-level attempts");
    assert!(
        failure.quarantined,
        "persistent transient failure → quarantine"
    );
    assert!(matches!(
        failure.error,
        ajax_crawl::crawler::CrawlError::Timeout { .. }
    ));
    assert_eq!(report.quarantined_pages, 1);
    assert_eq!(report.page_retries, (k - 1) as u64);
    // The one abandoned page is both failed and quarantined: quarantine is a
    // subset of failure, not a disjoint bucket, so the identity
    // failed = quarantined + permanent must hold with permanent = 0 here.
    assert_eq!(report.failed_pages, 1);
    assert_eq!(report.permanent_failures(), 0);
    assert_eq!(
        report.failed_pages,
        report.quarantined_pages + report.permanent_failures()
    );
}

/// A 40 KB script nested 20 000 levels deep used to overflow the stack of
/// whatever thread parsed it and abort the process. It is a syntax error
/// like any other: counted, and the rest of the page crawled.
#[test]
fn runaway_script_nesting_is_a_script_error_not_an_abort() {
    use ajax_net::server::{FnServer, Request, Response};

    for (open, close) in [("(", ")"), ("[", "]"), ("{a:", "}"), ("- ", "")] {
        let bomb = format!("var x = {}1{};", open.repeat(20_000), close.repeat(20_000));
        let page = format!(
            "<html><head><script>{bomb}</script><script>\
             function fill() {{ document.getElementById('box').innerHTML = 'filled'; }}\
             </script></head><body>\
             <div id=\"box\" onclick=\"fill()\">empty</div>\
             </body></html>"
        );
        let server: Arc<dyn Server> = Arc::new(FnServer(move |req: &Request| {
            if req.url.path == "/page" {
                Response::html(page.clone())
            } else {
                Response::not_found()
            }
        }));
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let crawl = crawler
            .crawl_page(&Url::parse("http://x/page"))
            .expect("the page itself is fine");
        assert_eq!(crawl.stats.script_errors, 1, "{open}");
        assert_eq!(crawl.stats.js_errors, 1, "{open}");
        assert_eq!(crawl.model.state_count(), 2, "the sane script still ran");
    }
}
