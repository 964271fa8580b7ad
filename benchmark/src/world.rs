//! The sites and the build pipeline, driven two ways: through the
//! `AjaxSearchEngine::build` facade exactly as `ajax-search build` does, and
//! phase by phase with a span around each call into a layer.

use crate::inputs::SplitMix64;
use crate::spans::{SpanBuf, NO_PARENT};
use crate::stats::Envelope;
use crate::tap::{attribute, TapEvent, TapServer, Timeline};
use ajax_crawl::crawler::{CrawlConfig, PageStats};
use ajax_crawl::model::AppModel;
use ajax_crawl::{partition_urls, MpCrawler, Precrawler};
use ajax_dom::Fnv64;
use ajax_engine::{AjaxSearchEngine, BuildReport, EngineConfig};
use ajax_index::{build_index_parallel, save_index, IndexBuilder, InvertedIndex, QueryBroker};
use ajax_net::{Server, Url};
use ajax_webgen::{video_meta, GalleryServer, GallerySpec, VidShareServer, VidShareSpec};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every VidShare video gets exactly this many comment pages (= states).
///
/// The stock spec draws the count from a Zipf law, so two site seeds differ
/// by ±10 % in total states and their page-cost quantiles land in different
/// classes of a discrete distribution; no percentile of that repeats across
/// seeds. Pinning the shape leaves the seed the texts and the link graph.
pub const COMMENT_PAGES: u32 = 4;

/// A synthetic site plus how to crawl it.
pub struct Site {
    pub server: Arc<dyn Server>,
    pub start: Url,
    /// Path of a page GET (`/watch`, `/album`); anything else is an XHR.
    pub page_path: &'static str,
    /// Precrawl page cap (= the number of pages the site has).
    pub pages: usize,
    pub crawl: CrawlConfig,
    /// Set for VidShare sites: the spec ground truth is recomputed from.
    pub vidshare: Option<VidShareSpec>,
}

impl Site {
    /// A VidShare site of `videos` pages. Site seeds are tried in the order
    /// of `seed`'s stream until one links every video to video 0, so that
    /// the crawl covers the whole site and the generator's ground truth
    /// (which scans every video) applies.
    pub fn vidshare(seed: u64, videos: u32) -> Self {
        let mut stream = SplitMix64::new(seed);
        let spec = loop {
            let spec = VidShareSpec {
                seed: stream.next_u64(),
                num_videos: videos,
                max_comment_pages: COMMENT_PAGES,
                // Zipf weight k^64: all mass on the largest count.
                page_count_skew: -64.0,
                ..VidShareSpec::default()
            };
            if reaches_every_video(&spec) {
                break spec;
            }
        };
        Self {
            start: Url::parse(&spec.watch_url(0)),
            server: Arc::new(VidShareServer::new(spec.clone())),
            page_path: "/watch",
            pages: videos as usize,
            crawl: CrawlConfig::ajax(),
            vidshare: Some(spec),
        }
    }

    pub fn gallery(seed: u64, albums: u32) -> Self {
        let spec = GallerySpec {
            seed,
            ..GallerySpec::small(albums)
        };
        Self {
            start: Url::parse(&spec.page_url(0)),
            server: Arc::new(GalleryServer::new(spec)),
            page_path: "/album",
            pages: albums as usize,
            crawl: CrawlConfig::ajax().with_equiv_prune(),
            vidshare: None,
        }
    }

    /// One process line on one core: the crawl is serial, so the tap can
    /// attribute time to pages, and the system stays within two busy threads.
    pub fn engine_config(&self, recorder: bool) -> EngineConfig {
        let mut config = EngineConfig::ajax(self.pages);
        config.crawl = self.crawl.clone();
        config.proc_lines = 1;
        config.cores = 1;
        config.keep_models = true;
        config.path_filter = Some(self.page_path.to_string());
        config.trace = recorder;
        config
    }
}

/// Whether following related-video links from video 0 visits every video.
fn reaches_every_video(spec: &VidShareSpec) -> bool {
    let mut seen = vec![false; spec.num_videos as usize];
    let mut stack = vec![0u32];
    seen[0] = true;
    let mut count = 1;
    while let Some(id) = stack.pop() {
        for next in video_meta(spec, id).related {
            if !std::mem::replace(&mut seen[next as usize], true) {
                count += 1;
                stack.push(next);
            }
        }
    }
    count == seen.len()
}

/// What one build pass produced and how long it took.
pub struct Pass {
    pub models: Vec<AppModel>,
    pub pagerank: HashMap<String, f64>,
    pub stats: PageStats,
    pub pages_failed: u64,
    /// The merged index that was saved.
    pub index: InvertedIndex,
    pub wall_ns: u64,
    /// `None` when the tap did not see exactly two GETs per page.
    pub timeline: Option<Timeline>,
    /// The tap's log (with bodies when the pass captured them).
    pub events: Vec<TapEvent>,
}

impl Pass {
    /// One hash over every model's transition-graph signature.
    pub fn signature(&self) -> u64 {
        let mut h = Fnv64::new();
        for m in &self.models {
            h.write_str(&m.url);
            h.write_u64(m.graph_signature());
        }
        h.finish()
    }
}

/// The `ajax-search build` sequence: facade build, merged `IndexBuilder`,
/// `save_index`. `recorder` turns `EngineConfig.trace` on.
pub fn build_facade(site: &Site, out: &Path, recorder: bool) -> Pass {
    let tap = Arc::new(TapServer::new(
        Arc::clone(&site.server),
        site.page_path,
        false,
    ));
    let t = Instant::now();
    let engine = AjaxSearchEngine::build(
        Arc::clone(&tap) as Arc<dyn Server>,
        &site.start,
        site.engine_config(recorder),
    );
    let mut builder = IndexBuilder::new();
    for model in &engine.models {
        builder.add_model(model, engine.graph.pagerank.get(&model.url).copied());
    }
    let index = builder.build();
    save_index(out, &index).expect("save the v4 segment");
    let wall_ns = t.elapsed().as_nanos() as u64;
    let events = tap.take();
    Pass {
        timeline: attribute(&events),
        events,
        stats: engine.report.crawl,
        pages_failed: engine.report.pages_failed as u64,
        models: engine.models,
        pagerank: engine.graph.pagerank,
        index,
        wall_ns,
    }
}

/// The same pipeline called one phase at a time, a span around each, the
/// tap's requests inserted as children. Captures every response body.
pub fn build_phased(site: &Site, out: &Path, spans: &mut SpanBuf) -> Pass {
    let tap = Arc::new(TapServer::new(
        Arc::clone(&site.server),
        site.page_path,
        true,
    ));
    let server = Arc::clone(&tap) as Arc<dyn Server>;
    let config = site.engine_config(false);
    let t = Instant::now();
    let root = spans.enter("engine.build", 0);

    let precrawl_span = spans.enter("crawl.precrawl", 0);
    let mut precrawler =
        Precrawler::new(Arc::clone(&server), config.latency.clone()).with_retry(config.crawl.retry);
    precrawler.path_filter = config.path_filter.clone();
    let graph = precrawler.run(&site.start, config.precrawl_pages);
    spans.exit(precrawl_span);

    let partitions = spans.scope("crawl.partition", 0, |_| {
        partition_urls(&graph.urls, config.partition_size)
    });

    let crawl_span = spans.enter("crawl.pages", 0);
    let crawl_report = MpCrawler::new(server, config.latency.clone(), config.crawl.clone())
        .with_proc_lines(config.proc_lines)
        .with_cores(config.cores)
        .with_quarantine_after(config.quarantine_after)
        .crawl(&partitions);
    spans.exit(crawl_span);

    let (models, report) = spans.scope("index.invert", 0, |_| {
        let mut shards = Vec::with_capacity(crawl_report.partitions.len());
        let mut models = Vec::new();
        for partition in &crawl_report.partitions {
            let refs: Vec<(&AppModel, Option<f64>)> = partition
                .models
                .iter()
                .map(|m| (m, graph.pagerank.get(&m.url).copied()))
                .collect();
            shards.push(build_index_parallel(
                &refs,
                config.max_index_states,
                config.cores,
            ));
            models.extend(partition.models.iter().cloned());
        }
        let broker = QueryBroker::new(shards);
        (models, BuildReport::new(&graph, &crawl_report, &broker))
    });

    let mut builder = IndexBuilder::new();
    for (i, model) in models.iter().enumerate() {
        spans.scope("index.add_model", i as u32, |_| {
            builder.add_model(model, graph.pagerank.get(&model.url).copied())
        });
    }
    let index = spans.scope("index.finish", 0, |_| builder.build());
    spans.scope("index.save", 0, |_| {
        save_index(out, &index).expect("save the v4 segment")
    });
    spans.exit(root);
    let wall_ns = t.elapsed().as_nanos() as u64;

    let events = tap.take();
    let timeline = attribute(&events);
    if let Some(tl) = &timeline {
        let shift = tap.epoch().duration_since(spans.epoch()).as_nanos() as u64;
        insert_tap_spans(spans, &events, tl, shift, precrawl_span, crawl_span);
    }
    Pass {
        timeline,
        events,
        stats: report.crawl,
        pages_failed: report.pages_failed as u64,
        models,
        pagerank: graph.pagerank,
        index,
        wall_ns,
    }
}

/// One `crawl.page` span per page under the crawl phase, and one
/// `webgen.handle` span per request under its page (or under the precrawl).
fn insert_tap_spans(
    spans: &mut SpanBuf,
    events: &[TapEvent],
    tl: &Timeline,
    shift: u64,
    precrawl_span: u32,
    crawl_span: u32,
) {
    let first_crawl_event = tl.crawl_page_events[0];
    for e in &events[..first_crawl_event] {
        spans.insert(
            "webgen.handle",
            0,
            e.start_ns + shift,
            e.end_ns + shift,
            precrawl_span,
        );
    }
    for (page, &first) in tl.crawl_page_events.iter().enumerate() {
        let start = events[first].start_ns + shift;
        let page_span = spans.insert(
            "crawl.page",
            page as u32,
            start,
            start + tl.page_ns[page],
            crawl_span,
        );
        let end = tl
            .crawl_page_events
            .get(page + 1)
            .copied()
            .unwrap_or(events.len());
        for e in &events[first..end] {
            let parent = if page_span == NO_PARENT {
                crawl_span
            } else {
                page_span
            };
            spans.insert(
                "webgen.handle",
                page as u32,
                e.start_ns + shift,
                e.end_ns + shift,
                parent,
            );
        }
    }
}

/// Rounds of one kind of build pass, folded into a per-page envelope whose
/// remainder is everything a round did besides crawling pages (precrawl,
/// invert, save).
pub struct BuildRounds {
    pub pages: Envelope,
    /// Passes that failed a check (failed pages, other models, bad tap).
    pub bad_passes: u64,
}

impl BuildRounds {
    pub fn new(keep_rounds: bool) -> Self {
        Self {
            pages: Envelope::new(keep_rounds),
            bad_passes: 0,
        }
    }

    /// Folds a pass in and checks it: no failed page, two GETs per page, and
    /// the same models as every other pass over this site (`expect` holds
    /// the first pass's signature).
    pub fn add(&mut self, pass: &Pass, expect: &mut Option<u64>) {
        let signature = pass.signature();
        let same_models = *expect.get_or_insert(signature) == signature;
        match &pass.timeline {
            Some(tl) if pass.pages_failed == 0 && same_models => {
                let paged: u64 = tl.page_ns.iter().sum();
                self.pages.add_round(&tl.page_ns, pass.wall_ns - paged);
            }
            _ => self.bad_passes += 1,
        }
    }
}
