//! Query processing (§7.5): Table 7.4 (the query workload and its
//! cardinalities), Table 7.5 (query processing times) and Fig 7.9 (query
//! throughput, traditional vs AJAX).

use crate::scale::Scale;
use crate::util::{latency, TableFmt};
use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::model::AppModel;
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::partition_urls;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::{search, Query, RankWeights};
use ajax_net::Server;
use ajax_webgen::{ground_truth, query_workload, QuerySpec};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Crawled models + the two indexes the query experiments compare.
pub struct QueryData {
    pub models: Vec<AppModel>,
    /// 1 state/page (what traditional crawling indexes).
    pub trad_index: InvertedIndex,
    /// All crawled states.
    pub ajax_index: InvertedIndex,
    pub queries: Vec<QuerySpec>,
}

/// Crawls `scale.query_pages` pages once and builds both indexes.
pub fn collect(scale: &Scale) -> QueryData {
    let spec = scale.spec();
    let server = crate::util::server(&spec);
    let urls: Vec<String> = (0..scale.query_pages).map(|v| spec.watch_url(v)).collect();
    let partitions = partition_urls(&urls, 50);
    eprintln!("[queries] crawling {} pages…", urls.len());
    let mp = MpCrawler::new(
        Arc::clone(&server) as Arc<dyn Server>,
        latency(),
        CrawlConfig::ajax(),
    );
    let models = mp.crawl(&partitions).into_models();

    eprintln!("[queries] building the two indexes…");
    let build = |max_states: Option<usize>| -> InvertedIndex {
        let mut b = IndexBuilder::new();
        if let Some(m) = max_states {
            b = b.with_max_states(m);
        }
        for model in &models {
            b.add_model(model, None);
        }
        b.build()
    };
    QueryData {
        trad_index: build(Some(1)),
        ajax_index: build(None),
        models,
        queries: query_workload(),
    }
}

// ---- Table 7.4 -------------------------------------------------------------

/// Table 7.4: the sample queries with their occurrence counts.
#[derive(Debug, Clone, Serialize)]
pub struct Table74 {
    /// `(id, query, first-page videos, all-page comments)`.
    pub rows: Vec<(String, String, u32, u32)>,
}

/// Ground-truth occurrence counts for the paper's 11 sample queries.
pub fn table7_4(scale: &Scale) -> Table74 {
    let spec = scale.spec();
    let rows = query_workload()
        .iter()
        .take(11)
        .enumerate()
        .map(|(i, q)| {
            let truth = ground_truth(&spec, scale.query_pages, 11, q);
            (
                format!("Q{}", i + 1),
                q.text.clone(),
                truth.first_page_videos,
                truth.all_page_comments,
            )
        })
        .collect();
    Table74 { rows }
}

impl Table74 {
    /// Renders the paper's table.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec![
            "ID",
            "Query",
            "Occurrences First Page",
            "Occurrences All Pages",
        ]);
        for (id, query, first, all) in &self.rows {
            t.row(vec![
                id.clone(),
                query.clone(),
                first.to_string(),
                all.to_string(),
            ]);
        }
        format!(
            "Table 7.4 — Sample queries and occurrence counts\n{}\n\
             paper reference: all-page counts exceed first-page counts several-fold;\n\
             cardinality decreases with query rank\n",
            t.render()
        )
    }
}

// ---- Table 7.5 / Fig 7.9 ----------------------------------------------------

/// Per-query timing on both indexes.
#[derive(Debug, Clone, Serialize)]
pub struct QueryTimings {
    /// `(id, query, trad_ms, ajax_ms, trad_results, ajax_results)`.
    pub rows: Vec<(String, String, f64, f64, usize, usize)>,
}

/// Runs the 11 sample queries on both indexes, timing wall-clock latency
/// (median of `reps` runs).
pub fn table7_5(data: &QueryData) -> QueryTimings {
    let reps = 15;
    let weights = RankWeights::default();
    let time_query = |index: &InvertedIndex, q: &Query| -> (f64, usize) {
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                let results = search(index, q, &weights);
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(results.len());
                dt
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = times[times.len() / 2];
        let count = search(index, q, &weights).len();
        (median, count)
    };

    let rows = data
        .queries
        .iter()
        .take(11)
        .enumerate()
        .map(|(i, spec)| {
            let q = Query::parse(&spec.text);
            let (trad_ms, trad_n) = time_query(&data.trad_index, &q);
            let (ajax_ms, ajax_n) = time_query(&data.ajax_index, &q);
            (
                format!("Q{}", i + 1),
                spec.text.clone(),
                trad_ms,
                ajax_ms,
                trad_n,
                ajax_n,
            )
        })
        .collect();
    QueryTimings { rows }
}

impl QueryTimings {
    /// Renders Table 7.5.
    pub fn render_table7_5(&self) -> String {
        let mut t = TableFmt::new(vec![
            "ID",
            "Query",
            "Trad (ms)",
            "AJAX (ms)",
            "Trad results",
            "AJAX results",
        ]);
        for (id, q, tms, ams, tn, an) in &self.rows {
            t.row(vec![
                id.clone(),
                q.clone(),
                format!("{tms:.3}"),
                format!("{ams:.3}"),
                tn.to_string(),
                an.to_string(),
            ]);
        }
        format!(
            "Table 7.5 — Query processing times (wall clock, median of 15)\n{}\n\
             paper reference: AJAX query times exceed traditional, but return many more results\n",
            t.render()
        )
    }

    /// Renders Fig 7.9 (throughput = results per second).
    pub fn render_fig7_9(&self) -> String {
        let mut t = TableFmt::new(vec!["ID", "Trad (results/s)", "AJAX (results/s)"]);
        for (id, _q, tms, ams, tn, an) in &self.rows {
            let tput = |n: usize, ms: f64| {
                if ms <= 0.0 {
                    0.0
                } else {
                    n as f64 / (ms / 1e3)
                }
            };
            t.row(vec![
                id.clone(),
                format!("{:.0}", tput(*tn, *tms)),
                format!("{:.0}", tput(*an, *ams)),
            ]);
        }
        format!(
            "Fig 7.9 — Throughput of popular queries, traditional vs AJAX search\n{}\n\
             paper reference: traditional throughput is generally higher, for far fewer results\n",
            t.render()
        )
    }
}
