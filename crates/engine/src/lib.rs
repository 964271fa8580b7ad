//! # ajax-engine
//!
//! The end-to-end AJAX search engine of thesis ch. 5/6, assembled from the
//! workspace crates. [`AjaxSearchEngine::build`] runs the full pipeline of
//! Fig 6.1:
//!
//! 1. **Precrawling** — BFS over hyperlinks from a start URL, PageRank;
//! 2. **Partitioning** — the URL list is split into fixed-size partitions;
//! 3. **Crawling** — `proc_lines` parallel process lines build the AJAX
//!    application models (traditional / basic AJAX / hot-node AJAX per the
//!    crawl config);
//! 4. **Indexing** — one state-granular inverted file per partition;
//! 5. **Query processing** — query shipping + global-idf merge through a
//!    [`QueryBroker`];
//! 6. **Result aggregation** — state reconstruction by event replay
//!    (when the crawl stored DOMs).
//!
//! For long-lived serving, [`AjaxSearchEngine::into_server`] hands the
//! sharded index to `ajax-serve`'s concurrent [`ShardServer`] — per-shard
//! worker pools, an LRU result cache, and admission control.

pub mod analyze;
pub mod report;

use ajax_crawl::checkpoint::{self, CheckpointError, Checkpointer, ResumeState};
use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::model::AppModel;
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::partition_urls;
use ajax_crawl::precrawl::{LinkGraph, Precrawler};
use ajax_crawl::replay::{reconstruct_state, ReplayError};
use ajax_dom::Document;
use ajax_index::invert::build_index_parallel;
use ajax_index::query::{Query, RankWeights};
use ajax_index::shard::{BrokerResult, QueryBroker};
use ajax_net::{FaultPlan, LatencyModel, Server, Url};
use ajax_obs::{AttrValue, Recorder, SpanEvent};
use ajax_serve::{ServeConfig, ShardServer};
use std::sync::Arc;

pub use analyze::{analyze_site, PageReport, SiteAnalysis};
pub use report::BuildReport;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The crawl flavour (traditional / AJAX ± hot-node policy, state caps…).
    pub crawl: CrawlConfig,
    /// Latency model for all network clients.
    pub latency: LatencyModel,
    /// `NUM_OF_PAGES_TO_PRECRAWL`.
    pub precrawl_pages: usize,
    /// `PARTITION_SIZE`.
    pub partition_size: usize,
    /// `MP_CRAWLER_NUM_OF_PROC_LINES`.
    pub proc_lines: usize,
    /// CPU cores of the virtual machine model.
    pub cores: usize,
    /// Index at most this many states per page (`None` = all crawled).
    pub max_index_states: Option<usize>,
    /// Ranking weights (formula 5.3).
    pub weights: RankWeights,
    /// Keep the crawled models inside the engine (needed for result
    /// aggregation; costs memory on large corpora).
    pub keep_models: bool,
    /// Deterministic fault injection for every network client in the
    /// pipeline (`None` = fault-free).
    pub fault_plan: Option<FaultPlan>,
    /// Quarantine a page URL after this many failed page-level crawl
    /// attempts across re-crawl passes.
    pub quarantine_after: u32,
    /// Precrawl link filter: only follow hyperlinks whose path starts with
    /// this prefix (`None` follows everything). Defaults to `/watch`, the
    /// VidShare content path; a NewsShare site needs `/news`.
    pub path_filter: Option<String>,
    /// Record spans across precrawl → crawl → index; drained from
    /// [`AjaxSearchEngine::spans`] after the build.
    pub trace: bool,
    /// Directory for the crawl checkpoint journal (`None` = no
    /// checkpointing). Snapshot cadence is `crawl.checkpoint_every`.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume from an existing journal in `checkpoint_dir` (restoring the
    /// precrawl graph and every completed page) instead of starting fresh.
    pub resume: bool,
}

impl EngineConfig {
    /// A sensible default AJAX configuration for `n` pages.
    pub fn ajax(n: usize) -> Self {
        Self {
            crawl: CrawlConfig::ajax(),
            latency: LatencyModel::thesis_default(7),
            precrawl_pages: n,
            partition_size: 50.min(n.max(1)),
            proc_lines: 4,
            cores: 2,
            max_index_states: None,
            weights: RankWeights::default(),
            keep_models: false,
            fault_plan: None,
            quarantine_after: 3,
            path_filter: Some("/watch".to_string()),
            trace: false,
            checkpoint_dir: None,
            resume: false,
        }
    }

    /// The traditional baseline over the same site.
    pub fn traditional(n: usize) -> Self {
        Self {
            crawl: CrawlConfig::traditional(),
            ..Self::ajax(n)
        }
    }

    /// Enables result aggregation (stores DOMs and models).
    pub fn with_replay(mut self) -> Self {
        self.crawl.store_dom = true;
        self.keep_models = true;
        self
    }

    /// Injects deterministic faults into the precrawl and crawl phases.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the page-level quarantine threshold.
    pub fn with_quarantine_after(mut self, attempts: u32) -> Self {
        self.quarantine_after = attempts.max(1);
        self
    }

    /// Sets the precrawl link-path filter (`None` follows every link).
    pub fn with_path_filter(mut self, filter: Option<String>) -> Self {
        self.path_filter = filter;
        self
    }

    /// Enables span tracing for the build pipeline.
    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Journals crawl checkpoints under `dir` every
    /// `crawl.checkpoint_every` pages.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resumes from the journal in `checkpoint_dir` (no-op without one).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The fingerprint guarding a checkpoint journal against being resumed
    /// under a different pipeline configuration.
    fn checkpoint_fingerprint(&self, start: &Url) -> u64 {
        checkpoint::config_fingerprint(
            &self.crawl,
            &[
                &start.to_string(),
                &self.precrawl_pages.to_string(),
                &self.partition_size.to_string(),
                self.path_filter.as_deref().unwrap_or(""),
            ],
        )
    }
}

/// The assembled engine.
pub struct AjaxSearchEngine {
    /// Hyperlink graph + PageRank from the precrawl phase.
    pub graph: LinkGraph,
    /// The sharded index + broker.
    pub broker: QueryBroker,
    /// Crawled models (present when `keep_models`).
    pub models: Vec<AppModel>,
    /// Pipeline accounting.
    pub report: BuildReport,
    /// Spans from every phase on one virtual timeline (empty unless
    /// [`EngineConfig::trace`]): `precrawl.page` on track 0, crawl spans on
    /// their process-line tracks offset by the precrawl duration, and
    /// modeled `index.invert` spans after the crawl makespan.
    pub spans: Vec<SpanEvent>,
    weights: RankWeights,
}

impl AjaxSearchEngine {
    /// Runs the full pipeline against `server`, starting the precrawl from
    /// `start`. Panics on checkpoint I/O problems — use
    /// [`Self::build_with_checkpoints`] when a checkpoint directory is
    /// configured.
    pub fn build(server: Arc<dyn Server>, start: &Url, config: EngineConfig) -> Self {
        Self::build_with_checkpoints(server, start, config).expect("checkpoint journal")
    }

    /// Runs the full pipeline, journaling (and optionally resuming from)
    /// crash-safe checkpoints when [`EngineConfig::checkpoint_dir`] is set.
    /// Without a checkpoint directory this never fails.
    pub fn build_with_checkpoints(
        server: Arc<dyn Server>,
        start: &Url,
        config: EngineConfig,
    ) -> Result<Self, CheckpointError> {
        let wall_start = std::time::Instant::now();

        // Phase 0: open (or resume) the checkpoint journal.
        let mut restored_graph: Option<LinkGraph> = None;
        let mut restored_pages = std::collections::HashMap::new();
        let checkpointer: Option<Arc<Checkpointer>> = match &config.checkpoint_dir {
            None => None,
            Some(dir) => {
                let fingerprint = config.checkpoint_fingerprint(start);
                let every = config.crawl.checkpoint_every;
                let ckpt = if config.resume {
                    let (ckpt, state): (Checkpointer, ResumeState) =
                        Checkpointer::resume(dir, every, fingerprint)?;
                    restored_graph = state.graph;
                    restored_pages = state.pages;
                    ckpt
                } else {
                    Checkpointer::fresh(dir, every, fingerprint)?
                };
                Some(Arc::new(ckpt))
            }
        };

        // Phase 1: precrawl — skipped entirely when the journal already
        // holds the link graph (it is immutable once computed).
        let mut spans;
        let graph = match restored_graph {
            Some(graph) => {
                spans = Vec::new();
                graph
            }
            None => {
                let mut precrawler = Precrawler::new(Arc::clone(&server), config.latency.clone())
                    .with_retry(config.crawl.retry);
                precrawler.path_filter = config.path_filter.clone();
                if let Some(plan) = &config.fault_plan {
                    precrawler = precrawler.with_fault_plan(plan.clone());
                }
                if config.trace {
                    precrawler = precrawler.with_recorder(Recorder::enabled());
                }
                let graph = precrawler.run(start, config.precrawl_pages);
                // Precrawl spans sit at the head of the timeline on track 0.
                spans = precrawler.take_spans();
                if let Some(ckpt) = &checkpointer {
                    ckpt.record_graph(&graph);
                }
                graph
            }
        };

        // Phase 2: partition.
        let partitions = partition_urls(&graph.urls, config.partition_size);

        // Phase 3: parallel crawl.
        let mut mp = MpCrawler::new(
            Arc::clone(&server),
            config.latency.clone(),
            config.crawl.clone(),
        )
        .with_proc_lines(config.proc_lines)
        .with_cores(config.cores)
        .with_quarantine_after(config.quarantine_after)
        .with_tracing(config.trace);
        if let Some(plan) = &config.fault_plan {
            mp = mp.with_fault_plan(plan.clone());
        }
        if let Some(ckpt) = &checkpointer {
            mp = mp.with_checkpointing(Arc::clone(ckpt), restored_pages);
        }
        let mut crawl_report = mp.crawl(&partitions);
        // The crawl phase starts once the precrawl finishes: shift its spans
        // (already on per-line tracks) past the precrawl's virtual duration.
        for mut span in crawl_report.spans.drain(..) {
            span.start += graph.precrawl_micros;
            spans.push(span);
        }

        // Phase 4: one index per partition, each built as per-core sorted
        // segments merged into the canonical columnar layout (the merge is
        // order-insensitive, so parallelism cannot perturb the result).
        // Indexing has no virtual cost model of its own, so its spans are
        // *modeled*: sequential after the crawl makespan, charged per
        // indexed state.
        const INDEX_STATE_MICROS: ajax_net::Micros = 50;
        let mut index_cursor = graph.precrawl_micros + crawl_report.virtual_makespan;
        let mut shards = Vec::with_capacity(crawl_report.partitions.len());
        let mut kept_models = Vec::new();
        for partition in &crawl_report.partitions {
            let model_refs: Vec<(&AppModel, Option<f64>)> = partition
                .models
                .iter()
                .map(|model| (model, graph.pagerank.get(&model.url).copied()))
                .collect();
            let shard =
                build_index_parallel(&model_refs, config.max_index_states, config.cores.max(1));
            if config.trace {
                let cost = shard.total_states * INDEX_STATE_MICROS;
                spans.push(SpanEvent {
                    name: "index.invert",
                    track: 0,
                    start: index_cursor,
                    dur: cost,
                    args: vec![
                        ("partition", AttrValue::U64(partition.id as u64)),
                        ("states", AttrValue::U64(shard.total_states)),
                    ],
                });
                index_cursor += cost;
            }
            shards.push(shard);
            if config.keep_models {
                kept_models.extend(partition.models.iter().cloned());
            }
        }
        let mut broker = QueryBroker::new(shards);
        broker.weights = config.weights;

        let mut report = BuildReport::new(&graph, &crawl_report, &broker);
        if let Some(ckpt) = &checkpointer {
            // The final snapshot makes the journal cover the whole crawl;
            // any write error deferred during the crawl surfaces here.
            report.checkpoint = ckpt.flush()?;
            if config.trace {
                // Checkpoint writes happen on the wall clock, but the
                // exported trace is a virtual-time record that must stay
                // byte-identical across same-seed runs — so each write
                // becomes an instant marker sequenced after the crawl
                // (its args — seq, pages, bytes — are deterministic); the
                // wall cost lives in `report.checkpoint.write_wall_micros`.
                let t_base = spans.iter().map(|s| s.start + s.dur).max().unwrap_or(0);
                spans.extend(
                    ckpt.take_spans()
                        .into_iter()
                        .enumerate()
                        .map(|(i, mut span)| {
                            span.start = t_base + i as u64;
                            span.dur = 0;
                            span
                        }),
                );
            }
        }
        report.build_wall_micros = wall_start.elapsed().as_micros() as u64;
        Ok(Self {
            graph,
            broker,
            models: kept_models,
            report,
            spans,
            weights: config.weights,
        })
    }

    /// Phase 5: distributed query processing.
    pub fn search(&self, query_text: &str) -> Vec<BrokerResult> {
        self.broker.search(&Query::parse(query_text))
    }

    /// Turns the built engine into a long-lived concurrent query server:
    /// the broker's shards move onto `ajax-serve` worker pools (one pool per
    /// shard), gaining a result cache, admission control, and metrics.
    /// The link graph, models, and build report are dropped — serve from a
    /// separate engine instance if reconstruction is also needed.
    pub fn into_server(self, config: ServeConfig) -> ShardServer {
        ShardServer::new(self.broker, config)
    }

    /// The ranking weights in effect.
    pub fn weights(&self) -> RankWeights {
        self.weights
    }

    /// Phase 6: result aggregation — reconstructs the DOM of a search
    /// result's state by replaying its event path (requires
    /// [`EngineConfig::with_replay`]).
    pub fn reconstruct(&self, result: &BrokerResult) -> Result<Document, ReplayError> {
        let model = self
            .models
            .iter()
            .find(|m| *m.url == *result.url)
            .ok_or(ReplayError::NoPageHtml)?;
        reconstruct_state(model, result.doc.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};

    fn vidshare(n: u32) -> (Arc<VidShareServer>, Url) {
        let spec = VidShareSpec::small(n);
        let url = Url::parse(&spec.watch_url(0));
        (Arc::new(VidShareServer::new(spec)), url)
    }

    #[test]
    fn end_to_end_showcase_queries() {
        let (server, start) = vidshare(30);
        let engine = AjaxSearchEngine::build(server, &start, EngineConfig::ajax(30));

        // Q1: title search works.
        let q1 = engine.search("morcheeba enjoy the ride");
        assert!(!q1.is_empty(), "Q1 must find the showcase video");
        // The showcase video itself must be among the hits (pages linking to
        // it also match through their related-video anchor text — just like
        // real link text on YouTube).
        assert!(q1.iter().any(|r| r.url.ends_with("watch?v=0")));

        // Q2: needs AJAX content (page 2 comment).
        let q2 = engine.search("morcheeba mysterious video");
        assert!(!q2.is_empty(), "Q2 must be answerable with AJAX search");
        assert!(q2[0].doc.state.0 > 0, "hit must be a non-initial state");

        // Q3: band name (title, every state) + singer (page-2 comment).
        let q3 = engine.search("morcheeba singer");
        assert!(!q3.is_empty());
    }

    #[test]
    fn traditional_engine_misses_ajax_content() {
        let (server, start) = vidshare(30);
        let trad = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::traditional(30),
        );
        assert!(
            trad.search("morcheeba mysterious video").is_empty(),
            "traditional crawl must not see page-2 comments"
        );
        assert!(!trad.search("morcheeba enjoy the ride").is_empty());
    }

    #[test]
    fn ajax_returns_superset_of_traditional() {
        let (server, start) = vidshare(25);
        let ajax = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(25),
        );
        let trad = AjaxSearchEngine::build(server, &start, EngineConfig::traditional(25));
        for q in ["wow", "dance", "funny"] {
            let ajax_n = ajax.search(q).len();
            let trad_n = trad.search(q).len();
            assert!(
                ajax_n >= trad_n,
                "query {q:?}: AJAX {ajax_n} < traditional {trad_n}"
            );
        }
        // Overall the AJAX index must be strictly bigger.
        assert!(ajax.broker.total_states() > trad.broker.total_states());
    }

    #[test]
    fn reconstruction_of_search_hit() {
        let (server, start) = vidshare(15);
        let engine = AjaxSearchEngine::build(server, &start, EngineConfig::ajax(15).with_replay());
        let hits = engine.search("morcheeba mysterious video");
        assert!(!hits.is_empty());
        let doc = engine.reconstruct(&hits[0]).expect("replay");
        let text = doc.document_text();
        assert!(text.contains("mysterious"));
        assert!(
            text.contains("Morcheeba Enjoy the Ride"),
            "title visible in state"
        );
    }

    #[test]
    fn into_server_preserves_results() {
        let (server, start) = vidshare(25);
        let engine = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(25),
        );
        let reference: Vec<_> = ["wow", "dance", "morcheeba mysterious video"]
            .iter()
            .map(|q| engine.search(q))
            .collect();
        let shards = engine.broker.shard_count();
        let serve = engine.into_server(ServeConfig::default().with_workers_per_shard(2));
        assert_eq!(serve.shard_count(), shards);
        assert_eq!(serve.worker_count(), shards * 2);
        for (q, expected) in ["wow", "dance", "morcheeba mysterious video"]
            .iter()
            .zip(reference)
        {
            let got = serve.search(q).expect("admitted");
            assert!(!got.degraded);
            assert_eq!(got.results.len(), expected.len(), "query {q:?}");
            for (e, g) in expected.iter().zip(got.results.iter()) {
                assert_eq!(e.url, g.url);
                assert_eq!(e.score.to_bits(), g.score.to_bits(), "query {q:?}");
            }
        }
        assert_eq!(serve.metrics_snapshot().completed, 3);
    }

    #[test]
    fn report_is_coherent() {
        let (server, start) = vidshare(20);
        let engine = AjaxSearchEngine::build(server, &start, EngineConfig::ajax(20));
        let r = &engine.report;
        assert_eq!(r.pages_crawled, 20);
        assert!(r.total_states >= r.pages_crawled as u64);
        assert!(r.virtual_makespan > 0);
        assert!(r.virtual_makespan <= r.virtual_serial);
        assert_eq!(engine.broker.total_states(), r.total_states);
    }

    #[test]
    fn faulty_build_loses_no_pages_and_reports_recoveries() {
        let (server, start) = vidshare(20);
        let clean = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(20),
        );
        let faulty = AjaxSearchEngine::build(
            server,
            &start,
            EngineConfig::ajax(20).with_fault_plan(FaultPlan::transient_mix(11, 0.3)),
        );
        let r = &faulty.report;
        assert_eq!(r.pages_crawled, clean.report.pages_crawled);
        assert!(
            r.failures.is_empty(),
            "retries must absorb transient faults"
        );
        assert!(r.crawl.fetch_retries > 0, "30% faults must cost retries");
        assert_eq!(r.total_states, clean.report.total_states);
        // Same content reachable despite the faults.
        assert_eq!(
            faulty.search("morcheeba mysterious video").len(),
            clean.search("morcheeba mysterious video").len()
        );
    }

    #[test]
    fn traced_build_covers_all_phases_deterministically() {
        let (server, start) = vidshare(16);
        let build = || {
            AjaxSearchEngine::build(
                Arc::clone(&server) as Arc<dyn Server>,
                &start,
                EngineConfig::ajax(16).with_tracing(true),
            )
        };
        let a = build();
        let b = build();
        assert!(!a.spans.is_empty());
        assert_eq!(a.spans, b.spans, "same-seed builds must trace identically");
        let kinds: std::collections::BTreeSet<&str> = a.spans.iter().map(|s| s.name).collect();
        for kind in ["precrawl.page", "crawl.page", "crawl.event", "index.invert"] {
            assert!(kinds.contains(kind), "missing span kind {kind}");
        }
        // Phases sit in order on the virtual timeline.
        let phase_end = |name: &str| {
            a.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.start + s.dur)
                .max()
                .unwrap()
        };
        let phase_start = |name: &str| {
            a.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.start)
                .min()
                .unwrap()
        };
        assert!(phase_start("crawl.page") >= phase_end("precrawl.page"));
        assert!(phase_start("index.invert") >= a.graph.precrawl_micros + a.report.virtual_makespan);
        // Wall time is measured, and is a separate axis from virtual time.
        assert!(a.report.build_wall_micros > 0);

        let untraced = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(16),
        );
        assert!(untraced.spans.is_empty());
    }

    #[test]
    fn checkpointed_build_writes_journal_and_resumes_identically() {
        let (server, start) = vidshare(20);
        let mut dir = std::env::temp_dir();
        dir.push(format!("ajax_engine_ckpt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let plain = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(20),
        );
        let first = AjaxSearchEngine::build_with_checkpoints(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(20).with_checkpoint_dir(&dir),
        )
        .expect("fresh checkpointed build");
        assert!(first.report.checkpoint.writes > 0, "journal written");
        assert!(!first.report.checkpoint.resumed);
        assert_eq!(first.report.pages_crawled, plain.report.pages_crawled);

        // A "crashed-after-finishing" resume: every page restores, the
        // precrawl is skipped, and the index is reproduced exactly.
        let resumed = AjaxSearchEngine::build_with_checkpoints(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(20)
                .with_checkpoint_dir(&dir)
                .with_resume(true),
        )
        .expect("resumed build");
        assert!(resumed.report.checkpoint.resumed);
        assert_eq!(
            resumed.report.checkpoint.pages_restored as usize,
            plain.report.pages_crawled
        );
        assert_eq!(resumed.report.pages_crawled, plain.report.pages_crawled);
        assert_eq!(resumed.report.total_states, plain.report.total_states);
        assert_eq!(resumed.graph.pagerank, plain.graph.pagerank);
        for q in ["wow", "morcheeba mysterious video"] {
            let a = resumed.search(q);
            let b = plain.search(q);
            assert_eq!(a.len(), b.len(), "query {q:?}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.url, y.url);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }

        // Resuming under a different configuration must be refused.
        let err = AjaxSearchEngine::build_with_checkpoints(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(19)
                .with_checkpoint_dir(&dir)
                .with_resume(true),
        );
        assert!(
            matches!(err, Err(CheckpointError::ConfigMismatch { .. })),
            "config drift must be refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_index_states_caps_recall() {
        let (server, start) = vidshare(25);
        let full = AjaxSearchEngine::build(
            Arc::clone(&server) as Arc<dyn Server>,
            &start,
            EngineConfig::ajax(25),
        );
        let capped = AjaxSearchEngine::build(
            server,
            &start,
            EngineConfig {
                max_index_states: Some(1),
                ..EngineConfig::ajax(25)
            },
        );
        assert!(capped.broker.total_states() < full.broker.total_states());
        assert!(capped.search("wow").len() <= full.search("wow").len());
    }
}
