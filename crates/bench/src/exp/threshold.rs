//! Crawling thresholds (§7.6–7.7): Fig 7.10 (relative result throughput vs
//! number of indexed states) and Fig 7.11 (1 − RelRecall vs number of
//! indexed states).

use crate::exp::queries::QueryData;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::{search, Query, RankWeights};
use serde::Serialize;
use std::time::Instant;

/// One sample per index depth.
#[derive(Debug, Clone, Serialize)]
pub struct DepthSample {
    pub max_states: usize,
    pub indexed_states: u64,
    pub total_results: u64,
    pub total_query_ms: f64,
    /// Mean over queries of `1 − |R_1(q)| / |R_s(q)|`.
    pub one_minus_rel_recall: f64,
}

/// Fig 7.10 + Fig 7.11 data.
#[derive(Debug, Clone, Serialize)]
pub struct ThresholdData {
    pub samples: Vec<DepthSample>,
}

/// Builds one index per depth (1..=11 states) from the same crawled models
/// and evaluates the 100-query workload on each.
pub fn collect(data: &QueryData) -> ThresholdData {
    let weights = RankWeights::default();
    let queries: Vec<Query> = data.queries.iter().map(|q| Query::parse(&q.text)).collect();

    let build = |max_states: usize| -> InvertedIndex {
        let mut b = IndexBuilder::new().with_max_states(max_states);
        for model in &data.models {
            b.add_model(model, None);
        }
        b.build()
    };

    // Result counts on the depth-1 index (the traditional baseline of the
    // RelRecall definition, formula 7.1).
    let depth_one = build(1);
    let base_counts: Vec<usize> = queries
        .iter()
        .map(|q| search(&depth_one, q, &weights).len())
        .collect();

    let samples = (1..=11usize)
        .map(|depth| {
            let index = build(depth);
            let mut total_results = 0u64;
            let counts: Vec<usize> = queries
                .iter()
                .map(|q| search(&index, q, &weights).len())
                .collect();
            // Repeat the whole workload several times and take the fastest
            // pass: wall-clock noise would otherwise dominate the series.
            let total_query_ms = (0..7)
                .map(|_| {
                    let t0 = Instant::now();
                    for q in &queries {
                        std::hint::black_box(search(&index, q, &weights).len());
                    }
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            for &c in &counts {
                total_results += c as u64;
            }
            // Mean 1 − RelRecall over queries with any results at this depth.
            let mut rel_sum = 0.0;
            let mut rel_n = 0u32;
            for (base, now) in base_counts.iter().zip(counts.iter()) {
                if *now > 0 {
                    rel_sum += 1.0 - (*base as f64 / *now as f64);
                    rel_n += 1;
                }
            }
            DepthSample {
                max_states: depth,
                indexed_states: index.total_states,
                total_results,
                total_query_ms,
                one_minus_rel_recall: if rel_n == 0 {
                    0.0
                } else {
                    rel_sum / f64::from(rel_n)
                },
            }
        })
        .collect();
    ThresholdData { samples }
}

impl ThresholdData {
    /// Renders Fig 7.10: relative result throughput (AJAX at depth *s* vs
    /// the traditional depth-1 index).
    pub fn render_fig7_10(&self) -> String {
        let base = &self.samples[0];
        let base_tput = base.total_results as f64 / base.total_query_ms.max(1e-9);
        let mut t = crate::util::TableFmt::new(vec![
            "max states",
            "indexed states",
            "results",
            "throughput (results/ms)",
            "relative vs trad",
        ]);
        for s in &self.samples {
            let tput = s.total_results as f64 / s.total_query_ms.max(1e-9);
            t.row(vec![
                s.max_states.to_string(),
                s.indexed_states.to_string(),
                s.total_results.to_string(),
                format!("{tput:.1}"),
                format!("{:.2}", tput / base_tput.max(1e-9)),
            ]);
        }
        format!(
            "Fig 7.10 — Result throughput vs number of crawled states\n{}\n\
             paper reference: relative throughput decreases with indexed states;\n\
             a 0.4 threshold suggests crawling ~5 states\n",
            t.render()
        )
    }

    /// Renders Fig 7.11: the recall gain saturating with depth.
    pub fn render_fig7_11(&self) -> String {
        let mut t = crate::util::TableFmt::new(vec!["max states", "1 - RelRecall", "bar"]);
        for s in &self.samples {
            let bar = "#".repeat((s.one_minus_rel_recall * 40.0).round() as usize);
            t.row(vec![
                s.max_states.to_string(),
                format!("{:.3}", s.one_minus_rel_recall),
                bar,
            ]);
        }
        format!(
            "Fig 7.11 — 1 − RelRecall (traditional/AJAX) vs number of states\n{}\n\
             paper reference: grows with states, gradient decreases; a 0.7 threshold\n\
             suggests ~4 states suffice\n",
            t.render()
        )
    }
}
