//! Dataset statistics (§7.1): Table 7.1 (YouTube10000 statistics),
//! Fig 7.1 (distribution of videos by comment-page count) and Fig 7.2
//! (states/events growth with crawled videos).

use crate::exp::crawl_perf::CrawlPerfData;
use crate::scale::Scale;
use crate::util::{aggregate, TableFmt};
use ajax_crawl::crawler::PageStats;
use ajax_webgen::video_meta;
use serde::Serialize;

/// The events a crawl considered: those it fired plus those the crawl
/// planner skipped without firing (proven pure, or claimed barren by an
/// equivalence class or a commuting event). The thesis' crawler fired every
/// event, so its event counts compare with this sum. (In a verify mode the
/// skipped events fire too and would count twice; the experiments never
/// verify here.)
fn considered_events(s: &PageStats) -> u64 {
    s.events_fired + s.pruned_events + s.equiv_pruned_events + s.commute_pruned_events
}

// ---- Table 7.1 -------------------------------------------------------------

/// Table 7.1: statistics of the crawled dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Table71 {
    pub pages: u32,
    pub total_states: u64,
    pub total_events: u64,
    pub avg_events_per_page: f64,
    pub events_leading_to_network: u64,
    pub reduction_vs_all_events: f64,
}

/// Computes Table 7.1 from the AJAX crawl.
pub fn table7_1(data: &CrawlPerfData) -> Table71 {
    let ajax = aggregate(&data.ajax);
    let total_events = considered_events(&ajax);
    Table71 {
        pages: data.ajax.len() as u32,
        total_states: ajax.states,
        total_events,
        avg_events_per_page: total_events as f64 / data.ajax.len() as f64,
        events_leading_to_network: ajax.ajax_network_calls,
        reduction_vs_all_events: 1.0 - ajax.ajax_network_calls as f64 / total_events.max(1) as f64,
    }
}

impl Table71 {
    /// Renders the paper's rows.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec!["Parameter", "Value"]);
        t.row(vec!["Number of Pages".to_string(), self.pages.to_string()]);
        t.row(vec![
            "Total Number of States".to_string(),
            self.total_states.to_string(),
        ]);
        t.row(vec![
            "Total Number of Events".to_string(),
            self.total_events.to_string(),
        ]);
        t.row(vec![
            "Avg. Number of Events per Page".to_string(),
            format!("{:.3}", self.avg_events_per_page),
        ]);
        t.row(vec![
            "Events leading to Network Communication".to_string(),
            self.events_leading_to_network.to_string(),
        ]);
        format!(
            "Table 7.1 — Dataset statistics\n{}\n\
             paper reference: 10000 pages, 41572 states, 187980 events, 18.798 events/page,\n\
             37349 network events (~80% reduction; here {:.0}%)\n",
            t.render(),
            self.reduction_vs_all_events * 100.0
        )
    }
}

// ---- Fig 7.1 ---------------------------------------------------------------

/// Fig 7.1: distribution of videos over comment-page counts.
#[derive(Debug, Clone, Serialize)]
pub struct Fig71 {
    /// `counts[k-1]` = number of videos with `k` comment pages.
    pub counts: Vec<u32>,
}

/// Computes the distribution from the generator's ground truth (the paper's
/// figure is likewise a dataset statistic, not a crawler measurement).
pub fn fig7_1(scale: &Scale) -> Fig71 {
    let spec = scale.spec();
    let max = spec.max_comment_pages as usize;
    let mut counts = vec![0u32; max];
    for video in 0..scale.crawl_pages.min(spec.num_videos) {
        let pages = video_meta(&spec, video).comment_pages as usize;
        counts[pages - 1] += 1;
    }
    Fig71 { counts }
}

impl Fig71 {
    /// Renders the histogram with ASCII bars.
    pub fn render(&self) -> String {
        let total: u32 = self.counts.iter().sum();
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::from("Fig 7.1 — Videos per number of comment pages\n");
        for (i, count) in self.counts.iter().enumerate() {
            let bar = "#".repeat((count * 40 / peak) as usize);
            out.push_str(&format!("{:>3} pages  {:>6}  {}\n", i + 1, count, bar));
        }
        out.push_str(&format!(
            "total {total} videos; paper reference: mode at 1 page, long tail\n"
        ));
        out
    }
}

// ---- Fig 7.2 ---------------------------------------------------------------

/// Fig 7.2: cumulative states and events vs number of crawled videos.
#[derive(Debug, Clone, Serialize)]
pub struct Fig72 {
    /// `(videos, states, events)` at each subset boundary.
    pub rows: Vec<(u32, u64, u64)>,
}

/// Prefix-sums the AJAX per-page stats at the scale's growth subsets.
pub fn fig7_2(scale: &Scale, data: &CrawlPerfData) -> Fig72 {
    let mut rows = Vec::new();
    let mut states = 0u64;
    let mut events = 0u64;
    let mut boundaries = scale.growth_subsets.iter().peekable();
    for (i, page) in data.ajax.iter().enumerate() {
        states += page.states;
        events += considered_events(page);
        let n = (i + 1) as u32;
        if boundaries.peek() == Some(&&n) {
            rows.push((n, states, events));
            boundaries.next();
        }
    }
    Fig72 { rows }
}

impl Fig72 {
    /// Renders the growth series.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec!["videos", "states", "events"]);
        for (videos, states, events) in &self.rows {
            t.row(vec![
                videos.to_string(),
                states.to_string(),
                events.to_string(),
            ]);
        }
        format!(
            "Fig 7.2 — States and events vs crawled videos\n{}\n\
             paper reference: events grow faster than states\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page that fired 3 events, had the planner skip 4 more (2 pure, 1 by
    /// an equivalence class, 1 across a commuting event) and sent 2 calls.
    fn pruned_page() -> PageStats {
        PageStats {
            events_fired: 3,
            pruned_events: 2,
            equiv_pruned_events: 1,
            commute_pruned_events: 1,
            ajax_network_calls: 2,
            states: 2,
            ..PageStats::default()
        }
    }

    #[test]
    fn event_counts_include_the_events_the_planner_skipped() {
        let data = CrawlPerfData {
            trad: Vec::new(),
            ajax: vec![pruned_page(), pruned_page()],
        };
        let t = table7_1(&data);
        assert_eq!(t.total_events, 14);
        assert_eq!(t.avg_events_per_page, 7.0);
        assert_eq!(t.events_leading_to_network, 4);
        assert!((t.reduction_vs_all_events - (1.0 - 4.0 / 14.0)).abs() < 1e-12);

        let scale = Scale {
            growth_subsets: vec![1, 2],
            ..Scale::small()
        };
        assert_eq!(fig7_2(&scale, &data).rows, vec![(1, 2, 7), (2, 4, 14)]);
    }
}
