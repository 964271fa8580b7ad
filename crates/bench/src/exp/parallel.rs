//! Parallelization (§7.4): Table 7.3 (parallel crawling times, traditional
//! vs AJAX) and Fig 7.8 (parallel vs non-parallel mean crawling time per
//! video).

use crate::scale::Scale;
use crate::util::{latency, TableFmt};
use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::partition_urls;
use ajax_net::Server;
use serde::Serialize;
use std::sync::Arc;

/// Timing results for one crawl flavour.
#[derive(Debug, Clone, Serialize)]
pub struct FlavourTiming {
    pub flavour: String,
    pub pages: u32,
    pub states: u64,
    /// Virtual serial time (1 process line).
    pub serial_micros: u64,
    /// Virtual makespan with `proc_lines` lines.
    pub parallel_micros: u64,
}

impl FlavourTiming {
    pub fn serial_mean_page_s(&self) -> f64 {
        self.serial_micros as f64 / 1e6 / self.pages as f64
    }
    pub fn parallel_mean_page_s(&self) -> f64 {
        self.parallel_micros as f64 / 1e6 / self.pages as f64
    }
    pub fn parallel_mean_state_s(&self) -> f64 {
        self.parallel_micros as f64 / 1e6 / self.states as f64
    }
}

/// Table 7.3 + Fig 7.8 data.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelData {
    pub proc_lines: usize,
    pub cores: usize,
    pub traditional: FlavourTiming,
    pub ajax: FlavourTiming,
}

/// Runs the parallel crawl (4 process lines, 2 cores — the thesis machine)
/// for both flavours.
pub fn collect(scale: &Scale) -> ParallelData {
    let (proc_lines, cores) = (4, 2);
    let spec = scale.spec();
    let server = crate::util::server(&spec);
    let urls = crate::util::watch_urls(&spec, scale.crawl_pages);
    let partitions = partition_urls(&urls, 50);

    let run = |config: CrawlConfig, flavour: &str| -> FlavourTiming {
        eprintln!(
            "[parallel] {flavour}: {} pages over {proc_lines} lines…",
            urls.len()
        );
        let mp = MpCrawler::new(Arc::clone(&server) as Arc<dyn Server>, latency(), config)
            .with_proc_lines(proc_lines)
            .with_cores(cores);
        let report = mp.crawl(&partitions);
        FlavourTiming {
            flavour: flavour.to_string(),
            pages: urls.len() as u32,
            states: report.aggregate.states,
            serial_micros: report.virtual_serial,
            parallel_micros: report.virtual_makespan,
        }
    };

    ParallelData {
        proc_lines,
        cores,
        traditional: run(CrawlConfig::traditional(), "traditional"),
        ajax: run(CrawlConfig::ajax(), "ajax"),
    }
}

impl ParallelData {
    /// Renders Table 7.3.
    pub fn render_table7_3(&self) -> String {
        let t = &self.traditional;
        let a = &self.ajax;
        let mut table = TableFmt::new(vec![
            "",
            "Parallel Trad. (s)",
            "Parallel AJAX (s)",
            "AJAX/Trad",
        ]);
        table.row(vec![
            "Total time".to_string(),
            format!("{:.0}", t.parallel_micros as f64 / 1e6),
            format!("{:.0}", a.parallel_micros as f64 / 1e6),
            format!(
                "x{:.2}",
                a.parallel_micros as f64 / t.parallel_micros as f64
            ),
        ]);
        table.row(vec![
            "Mean per page".to_string(),
            format!("{:.3}", t.parallel_mean_page_s()),
            format!("{:.3}", a.parallel_mean_page_s()),
            format!(
                "x{:.2}",
                a.parallel_mean_page_s() / t.parallel_mean_page_s()
            ),
        ]);
        table.row(vec![
            "Mean per state".to_string(),
            format!("{:.3}", t.parallel_mean_page_s()),
            format!("{:.3}", a.parallel_mean_state_s()),
            format!(
                "x{:.2}",
                a.parallel_mean_state_s() / t.parallel_mean_page_s()
            ),
        ]);
        format!(
            "Table 7.3 — Parallel crawling times ({} lines, {} cores)\n{}\n\
             paper reference: x8.80 per page, x2.11 per state\n",
            self.proc_lines,
            self.cores,
            table.render()
        )
    }

    /// Renders Fig 7.8.
    pub fn render_fig7_8(&self) -> String {
        let mut table = TableFmt::new(vec![
            "flavour",
            "non-parallel mean/video (s)",
            "parallel mean/video (s)",
            "speedup",
        ]);
        for f in [&self.traditional, &self.ajax] {
            table.row(vec![
                f.flavour.clone(),
                format!("{:.3}", f.serial_mean_page_s()),
                format!("{:.3}", f.parallel_mean_page_s()),
                format!("x{:.2}", f.serial_micros as f64 / f.parallel_micros as f64),
            ]);
        }
        format!(
            "Fig 7.8 — Effect of parallelization on mean crawling time per video\n{}\n\
             paper reference: 4 process lines cut crawl times consistently with the\n\
             degree of parallelization (network-bound ⇒ near-linear)\n",
            table.render()
        )
    }
}
