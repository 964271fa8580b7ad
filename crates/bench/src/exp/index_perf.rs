//! Index-layout performance (this repo's columnar index, not a thesis
//! figure): build throughput (states/sec, bytes/state with honest
//! capacities), query latency (p50/p95 over the 100-query webgen workload),
//! v4 bytes on disk and cold start — on both synthetic sites.
//!
//! The standalone binary additionally writes `BENCH_index.json` at the
//! working directory root, seeding the repo's perf-baseline trajectory.

use crate::util::{latency, TableFmt};
use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::model::AppModel;
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::partition_urls;
use ajax_index::invert::{build_index, InvertedIndex};
use ajax_index::query::{search, Query, RankWeights};
use ajax_index::{load_index, save_index};
use ajax_net::Server;
use ajax_webgen::{query_workload, NewsShareServer, NewsSpec, VidShareServer, VidShareSpec};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Timed query passes over the workload (each pass evaluates all 100
/// queries); latency percentiles come from the pooled per-query samples.
const QUERY_REPS: usize = 3;
/// Index-build repetitions; the reported time is the fastest (least noisy).
const BUILD_REPS: usize = 3;
/// Cold-start (open → first query) repetitions; the reported time is the
/// fastest. Repeats run against a warm page cache, so this times the open
/// checks and the first query's decode, not the disk.
const COLD_REPS: usize = 3;

/// The corpus scale the committed v4 on-disk ceilings were measured at —
/// the CI bench-smoke invocation (`exp_index_perf --pages 40`). The gate
/// only fires at this scale: bytes/state shifts with corpus size as the
/// dictionary amortizes.
const V4_BASELINE_PAGES: u32 = 40;
/// Committed v4 bytes/state ceilings per site at [`V4_BASELINE_PAGES`]
/// (measured value + ~25% headroom). A run at the baseline scale that
/// regresses above its ceiling aborts the bench, failing CI — encoder
/// bloat cannot land silently.
const V4_BYTES_PER_STATE_CEILING: &[(&str, f64)] = &[("vidshare", 1110.0), ("news", 737.0)];

/// One site's build + query measurements.
#[derive(Debug, Clone, Serialize)]
pub struct SitePerf {
    pub site: String,
    pub pages: usize,
    pub states: u64,
    pub terms: usize,
    /// Honest resident size: dictionary strings, posting columns, position
    /// arena, page tables — content bytes, identical across build paths.
    pub index_bytes: usize,
    pub bytes_per_state: f64,
    /// On-disk size persisted as the v4 compressed segment.
    pub v4_disk_bytes: u64,
    /// `v4_disk_bytes / states` — the number the committed CI ceiling
    /// ([`V4_BYTES_PER_STATE_CEILING`]) gates.
    pub v4_bytes_per_state: f64,
    /// Cold start, v4: open + mmap + first workload query (postings decode
    /// lazily, so this is near-constant in corpus size).
    pub cold_start_v4_micros: f64,
    /// Sequential single-threaded build, best of [`BUILD_REPS`].
    pub build_ms: f64,
    pub build_states_per_sec: f64,
    /// Pooled per-query wall latency over the 100-query workload.
    pub query_p50_micros: f64,
    pub query_p95_micros: f64,
    /// Total results across one pass of the workload (sanity anchor).
    pub total_results: u64,
}

/// The whole experiment: one row per site.
#[derive(Debug, Clone, Serialize)]
pub struct IndexPerfData {
    pub sites: Vec<SitePerf>,
}

fn crawl(server: Arc<dyn Server>, urls: &[String]) -> Vec<AppModel> {
    let partitions = partition_urls(urls, 50);
    let mp = MpCrawler::new(server, latency(), CrawlConfig::ajax());
    mp.crawl(&partitions).into_models()
}

/// `q`-quantile of pooled samples (nearest-rank on the sorted pool).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

/// Cold-start probe: persist `index` as a v4 segment, then time open →
/// first workload query. Before timing, the mmap-loaded index is checked
/// **bit-identical** to the in-memory build over the whole workload.
/// Returns `(disk bytes, micros)`.
fn measure_cold_start(
    site: &str,
    index: &InvertedIndex,
    queries: &[Query],
    weights: &RankWeights,
) -> (u64, f64) {
    let v4_path =
        std::env::temp_dir().join(format!("ajax-bench-{}-{site}.v4.ajx", std::process::id()));
    save_index(&v4_path, index).expect("persist v4 artifact");
    let v4_disk = std::fs::metadata(&v4_path).expect("v4 metadata").len();

    let mapped = load_index(&v4_path).expect("load v4 artifact");
    for q in queries {
        let mem = search(index, q, weights);
        let map = search(&mapped, q, weights);
        assert_eq!(
            mem.len(),
            map.len(),
            "{site}: result count for {:?}",
            q.terms
        );
        for (a, b) in mem.iter().zip(map.iter()) {
            assert_eq!(a.url, b.url, "{site}: url for {:?}", q.terms);
            assert_eq!(a.doc, b.doc, "{site}: doc for {:?}", q.terms);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{site}: score bits for {:?}",
                q.terms
            );
        }
    }
    drop(mapped);

    let probe = &queries[0];
    let expected = search(index, probe, weights).len();
    let mut best = f64::INFINITY;
    for _ in 0..COLD_REPS {
        let t0 = Instant::now();
        let loaded = load_index(&v4_path).expect("load persisted index");
        let results = search(&loaded, probe, weights);
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(results.len(), expected, "cold-start result drift ({site})");
        std::hint::black_box(results.len());
    }
    let _ = std::fs::remove_file(&v4_path);
    (v4_disk, best * 1e6)
}

fn measure_site(site: &str, models: &[AppModel], queries: &[Query]) -> SitePerf {
    // Build throughput: fastest of BUILD_REPS sequential builds.
    let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, None)).collect();
    let mut build_s = f64::INFINITY;
    for _ in 0..BUILD_REPS {
        let t0 = Instant::now();
        let index = build_index(&refs, None);
        build_s = build_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(index.total_states);
    }
    let index = build_index(&refs, None);

    // Query latency: pooled per-query samples across QUERY_REPS passes.
    let weights = RankWeights::default();
    let mut samples = Vec::with_capacity(queries.len() * QUERY_REPS);
    let mut total_results = 0u64;
    for rep in 0..QUERY_REPS {
        for q in queries {
            let t0 = Instant::now();
            let results = search(&index, q, &weights);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if rep == 0 {
                total_results += results.len() as u64;
            }
            std::hint::black_box(results.len());
        }
    }

    let states = index.total_states;
    let bytes = index.approx_bytes();
    let (v4_disk, cold_v4) = measure_cold_start(site, &index, queries, &weights);
    SitePerf {
        site: site.to_string(),
        pages: models.len(),
        states,
        terms: index.term_count(),
        index_bytes: bytes,
        bytes_per_state: bytes as f64 / states.max(1) as f64,
        v4_disk_bytes: v4_disk,
        v4_bytes_per_state: v4_disk as f64 / states.max(1) as f64,
        cold_start_v4_micros: cold_v4,
        build_ms: build_s * 1e3,
        build_states_per_sec: states as f64 / build_s.max(1e-12),
        query_p50_micros: percentile(&mut samples, 0.50),
        query_p95_micros: percentile(&mut samples, 0.95),
        total_results,
    }
}

/// Crawls `pages` pages of each site and measures everything.
pub fn collect(pages: u32) -> IndexPerfData {
    let queries: Vec<Query> = query_workload()
        .iter()
        .map(|spec| Query::parse(&spec.text))
        .collect();

    eprintln!("[index_perf] crawling {pages} vidshare pages…");
    let vid_spec = VidShareSpec::small(pages);
    let vid_urls: Vec<String> = (0..pages).map(|v| vid_spec.watch_url(v)).collect();
    let vid_models = crawl(Arc::new(VidShareServer::new(vid_spec)), &vid_urls);

    eprintln!("[index_perf] crawling {pages} news pages…");
    let news_spec = NewsSpec::small(pages);
    let news_urls: Vec<String> = (0..pages).map(|p| news_spec.page_url(p)).collect();
    let news_models = crawl(Arc::new(NewsShareServer::new(news_spec)), &news_urls);

    eprintln!("[index_perf] measuring builds and queries…");
    let sites = vec![
        measure_site("vidshare", &vid_models, &queries),
        measure_site("news", &news_models, &queries),
    ];
    if pages == V4_BASELINE_PAGES {
        enforce_v4_ceilings(&sites);
    }
    IndexPerfData { sites }
}

/// Aborts the bench when a site's v4 on-disk density regresses above its
/// committed ceiling. Only meaningful at [`V4_BASELINE_PAGES`]; `collect`
/// gates the call.
fn enforce_v4_ceilings(sites: &[SitePerf]) {
    for s in sites {
        let Some((_, ceiling)) = V4_BYTES_PER_STATE_CEILING
            .iter()
            .find(|(name, _)| *name == s.site)
        else {
            continue;
        };
        assert!(
            s.v4_bytes_per_state <= *ceiling,
            "v4 segment regression: {} packs {:.1} B/state on disk, above the \
             committed ceiling of {:.1} B/state at --pages {} — the encoder got \
             fatter; fix it or re-commit the baseline deliberately",
            s.site,
            s.v4_bytes_per_state,
            ceiling,
            V4_BASELINE_PAGES,
        );
        eprintln!(
            "[index_perf] v4 baseline ok: {} {:.1} B/state <= ceiling {:.1}",
            s.site, s.v4_bytes_per_state, ceiling
        );
    }
}

impl IndexPerfData {
    /// Renders the per-site table and one cold-start line per site.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec![
            "site",
            "pages",
            "states",
            "terms",
            "KiB",
            "B/state",
            "v4 KiB",
            "v4 B/st",
            "cold v4 µs",
            "build ms",
            "states/s",
            "q p50 µs",
            "q p95 µs",
            "results",
        ]);
        for s in &self.sites {
            t.row(vec![
                s.site.clone(),
                s.pages.to_string(),
                s.states.to_string(),
                s.terms.to_string(),
                format!("{:.1}", s.index_bytes as f64 / 1024.0),
                format!("{:.1}", s.bytes_per_state),
                format!("{:.1}", s.v4_disk_bytes as f64 / 1024.0),
                format!("{:.1}", s.v4_bytes_per_state),
                format!("{:.0}", s.cold_start_v4_micros),
                format!("{:.2}", s.build_ms),
                format!("{:.0}", s.build_states_per_sec),
                format!("{:.1}", s.query_p50_micros),
                format!("{:.1}", s.query_p95_micros),
                s.total_results.to_string(),
            ]);
        }
        let cold: String = self
            .sites
            .iter()
            .map(|s| {
                format!(
                    "cold start ({}): v4 mmap + first query {:.0} µs, {:.1} B/state on disk\n",
                    s.site, s.cold_start_v4_micros, s.v4_bytes_per_state,
                )
            })
            .collect();
        format!(
            "Index performance — columnar layout, 100-query workload (wall clock)\n{}\n{cold}",
            t.render(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.50), 3.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile([].as_mut_slice(), 0.5), 0.0);
    }

    #[test]
    fn tiny_run_produces_sane_numbers() {
        let data = collect(6);
        assert_eq!(data.sites.len(), 2);
        for s in &data.sites {
            assert_eq!(s.pages, 6);
            assert!(s.states >= s.pages as u64);
            assert!(s.terms > 0);
            assert!(s.index_bytes > 0);
            assert!(s.bytes_per_state > 0.0);
            assert!(s.build_states_per_sec > 0.0);
            assert!(s.query_p95_micros >= s.query_p50_micros);
            // On-disk + cold-start columns: the v4 segment must exist and
            // open in measurable time.
            assert!(s.v4_disk_bytes > 0);
            assert!(s.v4_bytes_per_state > 0.0);
            assert!(s.cold_start_v4_micros > 0.0);
        }
        assert!(data.render().contains("cold start"));
    }
}
