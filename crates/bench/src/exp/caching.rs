//! Effects of caching (§7.3): Fig 7.5 (network calls with/without the
//! hot-node policy), Fig 7.6 (network time) and Fig 7.7 (state throughput).

use crate::scale::Scale;
use crate::util::{crawl_serial, watch_urls, TableFmt};
use ajax_crawl::crawler::{CrawlConfig, PageStats};
use serde::Serialize;

/// Per-page stats of the caching and non-caching crawls over the largest
/// cache subset.
pub struct CachingData {
    pub subsets: Vec<u32>,
    pub cached: Vec<PageStats>,
    pub uncached: Vec<PageStats>,
}

/// Crawls the largest subset once per policy; the subset series are prefix
/// sums.
pub fn collect(scale: &Scale) -> CachingData {
    let max = *scale.cache_subsets.iter().max().unwrap_or(&100);
    let spec = scale.spec();
    let server = crate::util::server(&spec);
    let urls = watch_urls(&spec, max);
    let crawl = |config| crawl_serial(server.clone(), &urls, config, |page| page.stats);
    eprintln!("[caching] crawling {max} videos WITH the hot-node policy…");
    let cached = crawl(CrawlConfig::ajax());
    eprintln!("[caching] crawling {max} videos WITHOUT the policy…");
    let uncached = crawl(CrawlConfig::ajax_no_cache());
    CachingData {
        subsets: scale.cache_subsets.clone(),
        cached,
        uncached,
    }
}

/// One cumulative sample per subset per policy.
#[derive(Debug, Clone, Serialize)]
pub struct CachingSeries {
    /// `(videos, without_policy, with_policy)`.
    pub rows: Vec<(u32, f64, f64)>,
    pub metric: String,
}

fn cumulative(data: &CachingData, metric: &str, f: impl Fn(&PageStats) -> f64) -> CachingSeries {
    let series =
        |stats: &[PageStats], n: u32| -> f64 { stats.iter().take(n as usize).map(&f).sum() };
    CachingSeries {
        rows: data
            .subsets
            .iter()
            .map(|&n| (n, series(&data.uncached, n), series(&data.cached, n)))
            .collect(),
        metric: metric.to_string(),
    }
}

/// Fig 7.5: number of AJAX events resulting in network calls.
pub fn fig7_5(data: &CachingData) -> CachingSeries {
    cumulative(data, "AJAX calls hitting the network", |p| {
        p.ajax_network_calls as f64
    })
}

/// Fig 7.6: network time.
pub fn fig7_6(data: &CachingData) -> CachingSeries {
    cumulative(data, "network time (s)", |p| p.network_micros as f64 / 1e6)
}

/// Fig 7.7: state throughput (states crawled per second of crawl time).
pub fn fig7_7(data: &CachingData) -> CachingSeries {
    let throughput = |stats: &[PageStats], n: u32| -> f64 {
        let prefix = &stats[..n as usize];
        let states: u64 = prefix.iter().map(|p| p.states).sum();
        let micros: u64 = prefix.iter().map(|p| p.crawl_micros).sum();
        states as f64 / (micros as f64 / 1e6).max(1e-9)
    };
    CachingSeries {
        rows: data
            .subsets
            .iter()
            .map(|&n| {
                (
                    n,
                    throughput(&data.uncached, n),
                    throughput(&data.cached, n),
                )
            })
            .collect(),
        metric: "state throughput (states/s)".to_string(),
    }
}

impl CachingSeries {
    /// Renders the two curves.
    pub fn render(&self, figure: &str, paper_note: &str) -> String {
        let mut t = TableFmt::new(vec!["videos", "no caching", "hot-node cache"]);
        for (n, without, with) in &self.rows {
            t.row(vec![
                n.to_string(),
                format!("{without:.2}"),
                format!("{with:.2}"),
            ]);
        }
        format!(
            "{figure} — {} with and without the hot-node policy\n{}\npaper reference: {paper_note}\n",
            self.metric,
            t.render()
        )
    }

    /// The improvement factor at the largest subset.
    pub fn final_factor(&self) -> f64 {
        match self.rows.last() {
            Some((_, without, with)) if *with > 0.0 => without / with,
            _ => 1.0,
        }
    }
}
