//! Experiments beyond the paper, each a serial crawl of a small synthetic
//! site under a few crawl configurations:
//!
//! * **hot nodes** — the §7.3 conjecture that applications with more than
//!   one hot node benefit even more from the caching policy: the
//!   network-call reduction on VidShare (1 hot node, linear comment chain)
//!   against NewsShare (2 hot nodes, product-shaped state space);
//! * **event types** — which event types the crawler triggers (§3.2,
//!   "irrelevant events"): clicks only, the default set, and all user
//!   events, on coverage (states) and cost (events fired, crawl time);
//! * **state cap** — crawl cost and coverage as the additional-states cap
//!   (`SACR_NUM_OF_ADDITIONAL_STATES`) sweeps 1..11, the cost side of the
//!   §7.6 threshold;
//! * **focused** — a crawl focused on one topic against the full AJAX crawl
//!   (§7.2.2, ch. 10): cost against on-topic recall.

use crate::cli::Flags;
use crate::exp::{emit, Context};
use crate::util::{aggregate, crawl_serial, secs, watch_urls, TableFmt};
use ajax_crawl::crawler::{CrawlConfig, PageCrawl, PageStats};
use ajax_dom::EventType;
use ajax_index::invert::IndexBuilder;
use ajax_index::query::{search, Query, RankWeights};
use ajax_net::Server;
use ajax_webgen::{NewsShareServer, NewsSpec, VidShareServer, VidShareSpec};
use serde::Serialize;
use std::sync::Arc;

/// A synthetic site and the pages to crawl on it.
struct Site {
    server: Arc<dyn Server>,
    urls: Vec<String>,
}

impl Site {
    /// VidShare with `n` videos, every watch page.
    fn vidshare(n: u32) -> Self {
        let spec = VidShareSpec::small(n);
        let urls = watch_urls(&spec, n);
        Self {
            server: Arc::new(VidShareServer::new(spec)),
            urls,
        }
    }

    /// NewsShare with `n` pages, every one.
    fn news(n: u32) -> Self {
        let spec = NewsSpec::small(n);
        let urls = (0..n).map(|p| spec.page_url(p)).collect();
        Self {
            server: Arc::new(NewsShareServer::new(spec)),
            urls,
        }
    }

    /// Crawls every page serially with `config`, keeping `keep(page)`.
    fn crawl<T>(&self, config: CrawlConfig, keep: impl Fn(PageCrawl) -> T) -> Vec<T> {
        crawl_serial(Arc::clone(&self.server), &self.urls, config, keep)
    }

    /// Crawls every page serially with `config` and sums the pages' stats.
    fn crawl_total(&self, config: CrawlConfig) -> PageStats {
        aggregate(&self.crawl(config, |page| page.stats))
    }
}

// ---- hot nodes -------------------------------------------------------------

#[derive(Debug, Clone, Serialize)]
struct SiteRow {
    site: String,
    hot_nodes: u64,
    pages: u32,
    uncached_calls: u64,
    cached_calls: u64,
    reduction: f64,
    net_time_factor: f64,
}

fn measure(ctx: &mut Context, name: &str, site: Site, max_states: usize) -> SiteRow {
    let base = CrawlConfig::ajax().with_max_states(max_states);
    let cached = site.crawl_total(base.clone());
    let uncached = site.crawl_total(CrawlConfig {
        hot_node_policy: false,
        ..base
    });
    ctx.check(
        cached.states == uncached.states,
        &format!("{name}: the hot-node cache changed the states crawled"),
    );
    SiteRow {
        site: name.to_string(),
        hot_nodes: cached.hot_nodes,
        pages: site.urls.len() as u32,
        uncached_calls: uncached.ajax_network_calls,
        cached_calls: cached.ajax_network_calls,
        reduction: uncached.ajax_network_calls as f64 / cached.ajax_network_calls.max(1) as f64,
        net_time_factor: uncached.network_micros as f64 / cached.network_micros.max(1) as f64,
    }
}

/// Caching benefit against the number of hot nodes.
pub fn hotnodes(ctx: &mut Context, _: &Flags) {
    let n = 60u32;
    let vid = measure(ctx, "VidShare (comments)", Site::vidshare(n), 11);
    let news = measure(ctx, "NewsShare (tabs+stories)", Site::news(n), 20);

    let mut t = TableFmt::new(vec![
        "site",
        "hot nodes",
        "pages",
        "calls (no cache)",
        "calls (cached)",
        "reduction",
        "net-time factor",
    ]);
    for row in [&vid, &news] {
        t.row(vec![
            row.site.clone(),
            row.hot_nodes.to_string(),
            row.pages.to_string(),
            row.uncached_calls.to_string(),
            row.cached_calls.to_string(),
            format!("x{:.2}", row.reduction),
            format!("x{:.2}", row.net_time_factor),
        ]);
    }
    let text = format!(
        "Ablation — caching benefit vs number of hot nodes (§7.3 conjecture)\n{}\
         conjecture {}: multi-hot-node site reduction x{:.2} vs single x{:.2}\n",
        t.render(),
        if news.reduction >= vid.reduction {
            "SUPPORTED"
        } else {
            "NOT SUPPORTED"
        },
        news.reduction,
        vid.reduction
    );
    emit("ablation_hotnodes", &text, &vec![vid, news]);
}

// ---- event types -------------------------------------------------------------

#[derive(Debug, Clone, Serialize)]
struct EventsRow {
    config: String,
    events_fired: u64,
    states: u64,
    crawl_s: f64,
}

/// Coverage and cost of three event-type selections.
pub fn events(_: &mut Context, _: &Flags) {
    let site = Site::vidshare(80);
    let variants: Vec<(&str, Vec<EventType>)> = vec![
        ("clicks only", vec![EventType::Click]),
        (
            "click+dblclick+mouseover",
            vec![EventType::Click, EventType::DblClick, EventType::MouseOver],
        ),
        ("all user events", EventType::user_events().to_vec()),
    ];
    let rows: Vec<EventsRow> = variants
        .into_iter()
        .map(|(name, event_types)| {
            let config = CrawlConfig {
                event_types,
                ..CrawlConfig::ajax()
            };
            let total = site.crawl_total(config);
            EventsRow {
                config: name.to_string(),
                events_fired: total.events_fired,
                states: total.states,
                crawl_s: total.crawl_micros as f64 / 1e6,
            }
        })
        .collect();

    let mut t = TableFmt::new(vec!["event set", "events fired", "states", "crawl (s)"]);
    for r in &rows {
        t.row(vec![
            r.config.clone(),
            r.events_fired.to_string(),
            r.states.to_string(),
            format!("{:.1}", r.crawl_s),
        ]);
    }
    let text = format!(
        "Ablation — event-type selection (§3.2)\n{}\
         VidShare is click-driven: clicks alone already reach {} of {} states\n\
         (total crawl time {} vs {} s)\n",
        t.render(),
        rows[0].states,
        rows[2].states,
        secs((rows[0].crawl_s * 1e6) as u64),
        secs((rows[2].crawl_s * 1e6) as u64),
    );
    emit("ablation_events", &text, &rows);
}

// ---- state cap ---------------------------------------------------------------

#[derive(Debug, Clone, Serialize)]
struct CapRow {
    cap: usize,
    states: u64,
    network_calls: u64,
    crawl_s: f64,
}

/// Crawl cost and coverage as the state cap sweeps 1..11.
pub fn statecap(_: &mut Context, _: &Flags) {
    let site = Site::vidshare(80);
    let rows: Vec<CapRow> = [1usize, 2, 3, 4, 5, 7, 9, 11]
        .into_iter()
        .map(|cap| {
            let total = site.crawl_total(CrawlConfig::ajax().with_max_states(cap));
            CapRow {
                cap,
                states: total.states,
                network_calls: total.ajax_network_calls,
                crawl_s: total.crawl_micros as f64 / 1e6,
            }
        })
        .collect();

    let mut t = TableFmt::new(vec!["state cap", "states", "network calls", "crawl (s)"]);
    for r in &rows {
        t.row(vec![
            r.cap.to_string(),
            r.states.to_string(),
            r.network_calls.to_string(),
            format!("{:.1}", r.crawl_s),
        ]);
    }
    let text = format!(
        "Ablation — state cap sweep (crawl cost side of the §7.6 threshold)\n{}",
        t.render()
    );
    emit("ablation_statecap", &text, &rows);
}

// ---- focused -------------------------------------------------------------------

#[derive(Debug, Clone, Serialize)]
struct FocusedRow {
    config: String,
    states: u64,
    network_calls: u64,
    crawl_s: f64,
    on_topic_results: usize,
    off_topic_results: usize,
}

fn focused_row(site: &Site, config: CrawlConfig, name: &str) -> FocusedRow {
    let pages = site.crawl(config, |page| page);
    let stats = aggregate(pages.iter().map(|page| &page.stats));
    let mut b = IndexBuilder::new();
    for page in &pages {
        b.add_model(&page.model, None);
    }
    let index = b.build();
    let w = RankWeights::default();
    // On-topic: the focus keyword itself. Off-topic control: a generic term.
    FocusedRow {
        config: name.to_string(),
        states: stats.states,
        network_calls: stats.ajax_network_calls,
        crawl_s: stats.crawl_micros as f64 / 1e6,
        on_topic_results: search(&index, &Query::parse("dance"), &w).len(),
        off_topic_results: search(&index, &Query::parse("funny"), &w).len(),
    }
}

/// A crawl focused on 'dance' against the full AJAX crawl.
pub fn focused(_: &mut Context, _: &Flags) {
    let site = Site::vidshare(100);
    let full = focused_row(&site, CrawlConfig::ajax(), "full AJAX crawl");
    let focused = focused_row(
        &site,
        CrawlConfig::ajax().focused_on(["dance"]),
        "focused on 'dance'",
    );

    let mut t = TableFmt::new(vec![
        "config",
        "states",
        "network calls",
        "crawl (s)",
        "'dance' results",
        "'funny' results",
    ]);
    for r in [&full, &focused] {
        t.row(vec![
            r.config.clone(),
            r.states.to_string(),
            r.network_calls.to_string(),
            format!("{:.1}", r.crawl_s),
            r.on_topic_results.to_string(),
            r.off_topic_results.to_string(),
        ]);
    }
    let text = format!(
        "Focused crawling — cost vs on-topic recall (§7.2.2 / ch. 10)\n{}\
         focused crawl keeps {:.0}% of on-topic results at {:.0}% of the network cost\n",
        t.render(),
        focused.on_topic_results as f64 / full.on_topic_results.max(1) as f64 * 100.0,
        focused.network_calls as f64 / full.network_calls.max(1) as f64 * 100.0,
    );
    emit("focused", &text, &vec![full, focused]);
}
