//! Shared experiment plumbing: crawl helpers, table rendering, JSON dumps.

use ajax_crawl::crawler::{CrawlConfig, Crawler, PageCrawl, PageStats};
use ajax_net::{LatencyModel, Server, Url};
use ajax_webgen::{VidShareServer, VidShareSpec};
use serde::Serialize;
use std::sync::Arc;

/// The latency seed shared by all experiments (determinism).
pub const LATENCY_SEED: u64 = 42;

/// Builds the shared server for a spec.
pub fn server(spec: &VidShareSpec) -> Arc<VidShareServer> {
    Arc::new(VidShareServer::new(spec.clone()))
}

/// The standard latency model of the experiments.
pub fn latency() -> LatencyModel {
    LatencyModel::thesis_default(LATENCY_SEED)
}

/// The watch URLs of videos `0..n`.
pub fn watch_urls(spec: &VidShareSpec, n: u32) -> Vec<String> {
    (0..n).map(|v| spec.watch_url(v)).collect()
}

/// Crawls `urls` in order with one serial crawler and `config`, keeping
/// `keep(page)` of each page (its stats, say, so that thousands of models
/// need not stay alive). Failures panic: the synthetic sites always crawl.
pub fn crawl_serial<T>(
    server: Arc<dyn Server>,
    urls: &[String],
    config: CrawlConfig,
    keep: impl Fn(PageCrawl) -> T,
) -> Vec<T> {
    let mut crawler = Crawler::new(server, latency(), config);
    urls.iter()
        .map(|url| {
            let page = crawler
                .crawl_page(&Url::parse(url))
                .unwrap_or_else(|e| panic!("crawl of {url} failed: {e}"));
            keep(page)
        })
        .collect()
}

/// Sums per-page stats.
pub fn aggregate<'a>(stats: impl IntoIterator<Item = &'a PageStats>) -> PageStats {
    let mut total = PageStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

/// Formats microseconds as seconds with 2 decimals.
pub fn secs(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e6)
}

/// Formats microseconds as milliseconds with 2 decimals.
pub fn millis(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e3)
}

/// Writes an experiment's JSON dump to `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {path:?}: {e}");
            } else {
                eprintln!("(json dump: {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Renders a fixed-width table.
pub struct TableFmt {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableFmt {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |row: &[String]| {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:>width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableFmt::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["100", "20000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(1_500_000), "1.50");
        assert_eq!(millis(2_500), "2.50");
    }

    #[test]
    fn aggregate_sums() {
        let a = PageStats {
            events_fired: 2,
            states: 3,
            ..PageStats::default()
        };
        let total = aggregate(&[a.clone(), a]);
        assert_eq!(total.events_fired, 4);
        assert_eq!(total.states, 6);
    }
}
