//! Crawling performance (§7.2): Table 7.2 (overhead of AJAX crawling),
//! Fig 7.3 (distribution of crawling times), Fig 7.4 (influence of the
//! number of states).

use crate::scale::Scale;
use crate::util::{aggregate, crawl_serial, secs, watch_urls, TableFmt};
use ajax_crawl::crawler::{CrawlConfig, PageStats};
use serde::Serialize;

/// Per-page stats of the two serial crawls everything in §7.1/§7.2 derives
/// from.
pub struct CrawlPerfData {
    pub trad: Vec<PageStats>,
    pub ajax: Vec<PageStats>,
}

/// Crawls `scale.crawl_pages` pages traditionally and with the full AJAX
/// (hot-node) crawler.
pub fn collect(scale: &Scale) -> CrawlPerfData {
    let spec = scale.spec();
    let server = crate::util::server(&spec);
    let urls = watch_urls(&spec, scale.crawl_pages);
    let crawl = |config| crawl_serial(server.clone(), &urls, config, |page| page.stats);
    eprintln!(
        "[crawl_perf] crawling {} pages traditionally…",
        scale.crawl_pages
    );
    let trad = crawl(CrawlConfig::traditional());
    eprintln!(
        "[crawl_perf] crawling {} pages with AJAX…",
        scale.crawl_pages
    );
    let ajax = crawl(CrawlConfig::ajax());
    CrawlPerfData { trad, ajax }
}

// ---- Table 7.2 ------------------------------------------------------------

/// Table 7.2: crawling times and overhead of AJAX crawling.
#[derive(Debug, Clone, Serialize)]
pub struct Table72 {
    pub pages: u32,
    pub trad_total_ms: f64,
    pub ajax_total_ms: f64,
    pub trad_mean_page_ms: f64,
    pub ajax_mean_page_ms: f64,
    pub ajax_mean_state_ms: f64,
    pub overhead_per_page: f64,
    pub overhead_per_state: f64,
}

/// Computes Table 7.2 from the collected data.
pub fn table7_2(data: &CrawlPerfData) -> Table72 {
    let trad = aggregate(&data.trad);
    let ajax = aggregate(&data.ajax);
    let pages = data.trad.len() as f64;
    let trad_total_ms = trad.crawl_micros as f64 / 1e3;
    let ajax_total_ms = ajax.crawl_micros as f64 / 1e3;
    let ajax_mean_state_ms = ajax_total_ms / ajax.states as f64;
    let trad_mean_page_ms = trad_total_ms / pages;
    Table72 {
        pages: data.trad.len() as u32,
        trad_total_ms,
        ajax_total_ms,
        trad_mean_page_ms,
        ajax_mean_page_ms: ajax_total_ms / pages,
        ajax_mean_state_ms,
        overhead_per_page: ajax_total_ms / trad_total_ms,
        overhead_per_state: ajax_mean_state_ms / trad_mean_page_ms,
    }
}

impl Table72 {
    /// Renders the paper's rows.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec!["", "Trad. (ms)", "AJAX (ms)", "AJAX/Trad"]);
        t.row(vec![
            "Total time".to_string(),
            format!("{:.0}", self.trad_total_ms),
            format!("{:.0}", self.ajax_total_ms),
            format!("x{:.2}", self.overhead_per_page),
        ]);
        t.row(vec![
            "Mean per page".to_string(),
            format!("{:.2}", self.trad_mean_page_ms),
            format!("{:.2}", self.ajax_mean_page_ms),
            format!("x{:.2}", self.overhead_per_page),
        ]);
        t.row(vec![
            "Mean per state".to_string(),
            format!("{:.2}", self.trad_mean_page_ms),
            format!("{:.2}", self.ajax_mean_state_ms),
            format!("x{:.2}", self.overhead_per_state),
        ]);
        format!(
            "Table 7.2 — Crawling Times and Overhead of AJAX Crawling ({} pages)\n{}\n\
             paper reference: x9.43 per page, x2.27 per state\n",
            self.pages,
            t.render()
        )
    }
}

// ---- Fig 7.3 ---------------------------------------------------------------

/// Fig 7.3: distribution of per-page AJAX crawling times.
#[derive(Debug, Clone, Serialize)]
pub struct Fig73 {
    /// Bucket upper bounds in seconds (last bucket is open-ended).
    pub bucket_bounds_s: Vec<f64>,
    pub counts: Vec<u32>,
}

/// Histograms per-page crawl times into 5-second-style buckets (scaled to
/// the virtual latency so the shape matches the paper's: most pages in the
/// first bucket).
pub fn fig7_3(data: &CrawlPerfData) -> Fig73 {
    // Buckets relative to the median traditional page time ⇒ scale-free.
    let bounds_s: Vec<f64> = vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0, f64::INFINITY];
    let mut counts = vec![0u32; bounds_s.len()];
    for page in &data.ajax {
        let s = page.crawl_micros as f64 / 1e6;
        let idx = bounds_s
            .iter()
            .position(|b| s <= *b)
            .unwrap_or(bounds_s.len() - 1);
        counts[idx] += 1;
    }
    Fig73 {
        bucket_bounds_s: bounds_s,
        counts,
    }
}

impl Fig73 {
    /// Renders the histogram.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec!["crawl time (s)", "pages"]);
        let mut lower = 0.0;
        for (bound, count) in self.bucket_bounds_s.iter().zip(self.counts.iter()) {
            let label = if bound.is_infinite() {
                format!("> {lower}")
            } else {
                format!("{lower} – {bound}")
            };
            t.row(vec![label, count.to_string()]);
            lower = *bound;
        }
        format!(
            "Fig 7.3 — Distribution of per-page AJAX crawling times\n{}\n\
             paper reference: most pages crawl quickly; only many-state pages are slow\n",
            t.render()
        )
    }
}

// ---- Fig 7.4 ---------------------------------------------------------------

/// Fig 7.4: crawl time vs number of states, with and without network time.
#[derive(Debug, Clone, Serialize)]
pub struct Fig74 {
    /// One row per state count: (states, pages, mean total s, mean CPU-only s).
    pub rows: Vec<(u64, u32, f64, f64)>,
}

/// Groups pages by state count and averages their total and network-deducted
/// crawl times.
pub fn fig7_4(data: &CrawlPerfData) -> Fig74 {
    let mut grouped: std::collections::BTreeMap<u64, (u32, u64, u64)> =
        std::collections::BTreeMap::new();
    for page in &data.ajax {
        let entry = grouped.entry(page.states).or_default();
        entry.0 += 1;
        entry.1 += page.crawl_micros;
        entry.2 += page.cpu_micros;
    }
    Fig74 {
        rows: grouped
            .into_iter()
            .map(|(states, (pages, total, cpu))| {
                (
                    states,
                    pages,
                    total as f64 / pages as f64 / 1e6,
                    cpu as f64 / pages as f64 / 1e6,
                )
            })
            .collect(),
    }
}

impl Fig74 {
    /// Renders the two series.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec![
            "states",
            "pages",
            "mean crawl (s)",
            "mean w/o network (s)",
        ]);
        for (states, pages, total, cpu) in &self.rows {
            t.row(vec![
                states.to_string(),
                pages.to_string(),
                format!("{total:.2}"),
                format!("{cpu:.2}"),
            ]);
        }
        format!(
            "Fig 7.4 — Crawling time vs number of crawled states\n{}\n\
             paper reference: both curves grow linearly with the state count\n",
            t.render()
        )
    }

    /// Least-squares slope sanity measure: Pearson correlation between state
    /// count and mean crawl time (should be strongly positive / linear).
    pub fn correlation(&self) -> f64 {
        let n = self.rows.len() as f64;
        if n < 2.0 {
            return 1.0;
        }
        let xs: Vec<f64> = self.rows.iter().map(|r| r.0 as f64).collect();
        let ys: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
    }
}

/// Short human summary line of `exp all`.
pub fn summary(data: &CrawlPerfData) -> String {
    let t = table7_2(data);
    format!(
        "AJAX overhead: x{:.2} per page, x{:.2} per state (paper: x9.43 / x2.27); total {} s vs {} s",
        t.overhead_per_page,
        t.overhead_per_state,
        secs((t.ajax_total_ms * 1e3) as u64),
        secs((t.trad_total_ms * 1e3) as u64),
    )
}
