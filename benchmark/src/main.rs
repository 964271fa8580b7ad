//! The repo's benchmark. One run = one workload in one process:
//!
//! ```text
//! ajax-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! ```
//!
//! builds the workload's inputs from the seed, sets the system up (timed as
//! `setup_s`), replays one deterministic op sequence round after round for
//! `S` seconds, checks every output, and prints every metric by name with
//! its unit, then one JSON object as the last line. Without `--workload`
//! (or with `--repeat` / `--selfcheck`) it runs the workloads as child
//! processes and summarises them — see `suite.rs` and `README.md`.

mod inputs;
mod layers;
mod query;
mod rounds;
mod schema;
mod spans;
mod stats;
mod suite;
mod tap;
mod world;

use inputs::{query_pool, shuffled_blocks, sub_seed, zipf_sequence};
use layers::{replay_substrates, replay_wire, Bodies};
use query::{launch_dist, launch_serve, measure, Direct, Expected, Measured};
use rounds::{run_rounds, Plan};
use schema::{Workload, END_TO_END, PER_LAYER};
use spans::{scoped, write_chrome_trace, LayerTable, Span, SpanBuf, TraceSink};
use stats::{p50, p50_and, samples_beyond, Envelope};
use world::{build_facade, build_phased, BuildRounds, Pass, Site, COMMENT_PAGES};

use ajax_crawl::model::AppModel;
use ajax_dist::partition_models;
use ajax_index::{load_index, save_index, IndexBuilder, InvertedIndex, Query, QueryBroker};
use ajax_webgen::{ground_truth_all, query_workload};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The first query a freshly opened segment answers.
const FIRST_QUERY: &str = "wow";
const POOL_LARGE: usize = 2_000;
const POOL_SMALL: usize = 300;
const ZIPF_S: f64 = 1.0;
const SHARDS: usize = 2;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

/// How big a run is. `quick` keeps every code path and check at a tenth of
/// the work; its numbers mean nothing.
struct Sizes {
    vidshare_pages: u32,
    gallery_pages: u32,
    corpus_pages: u32,
    /// `query-direct` replays this many shuffled copies of `pool-300`.
    direct_blocks: usize,
    /// `dist-2shard` replays the first this many of them.
    dist_blocks: usize,
    zipf_ops: usize,
    /// Ops of a tier that is not the workload's own, in a traced run.
    probe_ops: usize,
    setup_passes: usize,
    cold_opens: usize,
}

impl Sizes {
    fn of(quick: bool) -> Self {
        if quick {
            Self {
                vidshare_pages: 40,
                gallery_pages: 120,
                corpus_pages: 50,
                direct_blocks: 7,
                dist_blocks: 1,
                zipf_ops: 2_000,
                probe_ops: 300,
                setup_passes: 1,
                cold_opens: 3,
            }
        } else {
            Self {
                vidshare_pages: 200,
                gallery_pages: 300,
                corpus_pages: 400,
                direct_blocks: 67,
                dist_blocks: 5,
                zipf_ops: 20_000,
                probe_ops: 1_500,
                setup_passes: 2,
                cold_opens: 40,
            }
        }
    }
}

/// Span buffer, layer table and the spans kept for the Chrome file.
struct Tracer {
    buf: SpanBuf,
    table: LayerTable,
    kept: Vec<(&'static str, Vec<Span>)>,
}

impl Tracer {
    fn sink(&mut self, section: &'static str) -> TraceSink<'_> {
        self.kept.push((section, Vec::new()));
        let (_, kept) = self.kept.last_mut().expect("just pushed");
        TraceSink {
            buf: &mut self.buf,
            table: &mut self.table,
            kept,
        }
    }
}

/// The workload's own ops, as the end-to-end metrics read them.
struct HomeOps {
    /// The untraced rounds.
    env: Envelope,
    /// Undisturbed round time with the benchmark's spans on, when traced.
    traced_total_ns: Option<u64>,
}

/// Counters and values of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    layer: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// One check outside the timed intervals.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    fn ops(&mut self, m: &Measured, what: &str) {
        self.attempted += m.attempted;
        self.failed += m.failed;
        if m.failed > 0 {
            eprintln!(
                "CHECK FAILED: {} of {} {what} ops were shed, degraded or wrong",
                m.failed, m.attempted
            );
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- build ---

/// Every build pass of a run, by kind.
struct Builds {
    /// Unmeasured facade passes before the first measured op (trace 0).
    setup: BuildRounds,
    facade: BuildRounds,
    /// Phase by phase, spans on, bodies captured (trace 1).
    phased: BuildRounds,
    /// Facade with `EngineConfig.trace` on (trace 1).
    recorder: BuildRounds,
    /// The most recent pass: the corpus every later section uses.
    last: Pass,
    /// The crawl-phase bodies of the first phased pass.
    bodies: Option<Bodies>,
}

fn build_section(
    args: &RunArgs,
    sizes: &Sizes,
    site: &Site,
    seg: &Path,
    tracer: &mut Option<Tracer>,
    tally: &mut Tally,
) -> Builds {
    let home = args.workload.is_build();
    let mut signature = None;
    let mut setup = BuildRounds::new(false);
    let mut facade = BuildRounds::new(args.trace);
    let mut phased = BuildRounds::new(false);
    let mut recorder = BuildRounds::new(false);
    let mut bodies = None;
    let mut last = None;

    match tracer {
        None => {
            for _ in 0..sizes.setup_passes {
                let pass = build_facade(site, seg, false);
                setup.add(&pass, &mut signature);
                last = Some(pass);
            }
            let started = Instant::now();
            while home
                && (facade.pages.rounds() < 2 || started.elapsed().as_secs_f64() < args.seconds)
            {
                let pass = build_facade(site, seg, false);
                facade.add(&pass, &mut signature);
                last = Some(pass);
            }
        }
        Some(tracer) => {
            let mut sink = tracer.sink("build");
            let started = Instant::now();
            loop {
                facade.add(&build_facade(site, seg, false), &mut signature);
                recorder.add(&build_facade(site, seg, true), &mut signature);
                let mut pass = build_phased(site, seg, sink.buf);
                sink.end_round();
                phased.add(&pass, &mut signature);
                if bodies.is_none() {
                    if let Some(tl) = &pass.timeline {
                        bodies = Some(Bodies::take(&mut pass.events, tl.crawl_page_events[0]));
                    }
                }
                last = Some(pass);
                let enough = !home
                    || (facade.pages.rounds() >= 2
                        && started.elapsed().as_secs_f64() >= args.seconds);
                if enough {
                    break;
                }
            }
        }
    }

    for (kind, rounds) in [
        ("set-up", &setup),
        ("facade", &facade),
        ("phased", &phased),
        ("recorder", &recorder),
    ] {
        tally.check(
            &format!("{kind} passes: no failed page, same models, two GETs per page"),
            rounds.bad_passes == 0,
        );
    }
    Builds {
        setup,
        facade,
        phased,
        recorder,
        last: last.expect("at least one pass"),
        bodies,
    }
}

/// Per-layer metrics of the build pipeline, from the phased passes.
fn build_layer_metrics(b: &Builds, table: &LayerTable, tail: f64, tally: &mut Tally) {
    let tl = b.last.timeline.as_ref();
    tally.set("webgen.handle_ms", table.total_ms("webgen.handle"));
    tally.set("webgen.page_gets", tl.map_or(0.0, |t| t.page_gets as f64));
    tally.set("webgen.xhr_gets", tl.map_or(0.0, |t| t.xhr_gets as f64));

    let pages_ms = table.total_ms("crawl.page") + table.self_ms("crawl.pages");
    let (page_p50, page_tail) = p50_and(table.ops("crawl.page"), tail);
    tally.set("crawl.precrawl_ms", table.total_ms("crawl.precrawl"));
    tally.set("crawl.pages_ms", pages_ms);
    tally.set("crawl.page_p50_us", us(page_p50));
    tally.set("crawl.page_tail_us", us(page_tail));

    let s = &b.last.stats;
    let pruned = s.pruned_events + s.equiv_pruned_events + s.commute_pruned_events;
    tally.set("crawl.states", s.states as f64);
    tally.set("crawl.events_fired", s.events_fired as f64);
    tally.set("crawl.events_pruned", pruned as f64);
    tally.set(
        "crawl.prune_ratio",
        ratio(pruned as f64, (pruned + s.events_fired) as f64),
    );
    tally.set(
        "crawl.xhr_cache_hit_ratio",
        ratio(
            s.cache_hits as f64,
            (s.cache_hits + s.ajax_network_calls) as f64,
        ),
    );
    tally.set(
        "crawl.us_per_event",
        ratio(pages_ms * 1e3, s.events_fired as f64),
    );
    tally.set(
        "crawl.virtual_cpu_ratio",
        ratio(s.cpu_micros as f64, pages_ms * 1e3),
    );

    let states = b.last.index.total_states as f64;
    let invert_ms = table.total_ms("index.invert");
    tally.set("index.invert_ms", invert_ms);
    tally.set("index.invert_states_per_s", ratio(states, invert_ms / 1e3));
    tally.set(
        "index.resident_bytes_per_state",
        ratio(b.last.index.approx_bytes() as f64, states),
    );

    let facade_ms = ms(b.facade.pages.total_ns());
    let phases_ms = pages_ms
        + [
            "crawl.precrawl",
            "crawl.partition",
            "index.invert",
            "index.add_model",
            "index.finish",
            "index.save",
        ]
        .iter()
        .map(|name| table.total_ms(name))
        .sum::<f64>();
    tally.set("engine.facade_ms", facade_ms);
    tally.set(
        "engine.unattributed_share",
        ratio(facade_ms - phases_ms, facade_ms),
    );
    tally.set(
        "obs.recorder_overhead_share",
        ratio(ms(b.recorder.pages.total_ns()), facade_ms) - 1.0,
    );
}

// -------------------------------------------------------------- rebuild ---

/// `index-rebuild`: `add_model` per page is the op; `build()` + `save_index`
/// is the remainder. Every round's index must equal the corpus index.
fn rebuild_section(
    args: &RunArgs,
    corpus: &Pass,
    seg: &Path,
    sink: Option<TraceSink<'_>>,
    tally: &mut Tally,
) -> HomeOps {
    let mut all_equal = true;
    let plan = Plan::home(args.seconds, args.trace);
    let rounds = run_rounds(plan, corpus.models.len(), sink, |latencies, mut spans| {
        let mut builder = IndexBuilder::new();
        for (i, model) in corpus.models.iter().enumerate() {
            let pagerank = corpus.pagerank.get(&model.url).copied();
            let t = Instant::now();
            scoped(spans.as_deref_mut(), "index.add_model", i as u32, || {
                builder.add_model(model, pagerank)
            });
            latencies[i] = t.elapsed().as_nanos() as u64;
        }
        let t = Instant::now();
        let index = scoped(spans.as_deref_mut(), "index.finish", 0, || builder.build());
        scoped(spans, "index.save", 0, || {
            save_index(seg, &index).expect("save the v4 segment")
        });
        let rest_ns = t.elapsed().as_nanos() as u64;
        all_equal &= index == corpus.index;
        rest_ns
    });
    let total_rounds = rounds.env.rounds() + rounds.traced.rounds();
    tally.attempted += (total_rounds * corpus.models.len()) as u64;
    tally.check("every rebuilt index equals the corpus index", all_equal);
    HomeOps {
        traced_total_ns: args.trace.then(|| rounds.traced.total_ns()),
        env: rounds.env,
    }
}

// ----------------------------------------------------------------- open ---

/// `load_index` of the saved segment + the first query, `cold_opens` times;
/// returns the quietest open+query in ns and the last opened index.
fn open_section(
    seg: &Path,
    cold_opens: usize,
    mut sink: Option<TraceSink<'_>>,
) -> (u64, InvertedIndex) {
    let query = Query::parse(FIRST_QUERY);
    let mut best = u64::MAX;
    let mut opened = None;
    for _ in 0..cold_opens {
        let mut spans = sink.as_mut().map(|s| &mut *s.buf);
        let t = Instant::now();
        let index = scoped(spans.as_deref_mut(), "index.open", 0, || {
            load_index(seg).expect("reopen the saved segment")
        });
        scoped(spans, "index.first_query", 0, || {
            std::hint::black_box(ajax_index::search(&index, &query, &Default::default()))
        });
        best = best.min(t.elapsed().as_nanos() as u64);
        if let Some(s) = &mut sink {
            s.end_round();
        }
        opened = Some(index);
    }
    (best, opened.expect("at least one open"))
}

// ---------------------------------------------------------------- query ---

fn two_shards(models: &[AppModel], pagerank: &HashMap<String, f64>) -> Vec<InvertedIndex> {
    partition_models(models, |url| pagerank.get(url).copied(), SHARDS, None)
}

/// Launches a tier `times` times (dropping all but the last) and returns it
/// with the quietest launch in ns.
fn launch<T>(times: usize, mut make: impl FnMut() -> T) -> (T, u64) {
    let mut best = u64::MAX;
    let mut tier = None;
    for _ in 0..times.max(1) {
        drop(tier.take());
        let t = Instant::now();
        tier = Some(make());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    (tier.expect("launched at least once"), best)
}

struct QueryInputs {
    pool: Vec<String>,
    expected: Expected,
    direct_seq: Vec<u32>,
    serve_seq: Vec<u32>,
    dist_seq: Vec<u32>,
}

impl QueryInputs {
    fn new(seed: u64, sizes: &Sizes, reference: &QueryBroker) -> Self {
        let pool = query_pool(POOL_LARGE);
        let expected = Expected::compute(reference, &pool);
        let order = sub_seed(seed, "order");
        let direct_seq = shuffled_blocks(order, POOL_SMALL, sizes.direct_blocks);
        Self {
            serve_seq: zipf_sequence(order, POOL_LARGE, ZIPF_S, sizes.zipf_ops),
            dist_seq: direct_seq[..sizes.dist_blocks * POOL_SMALL].to_vec(),
            direct_seq,
            pool,
            expected,
        }
    }
}

/// What a tier replays and for how long: its whole sequence for `seconds`
/// when it is the workload's own, two traced rounds over a prefix otherwise.
fn tier_plan<'a>(args: &RunArgs, sizes: &Sizes, home: bool, seq: &'a [u32]) -> (&'a [u32], Plan) {
    if home {
        (seq, Plan::home(args.seconds, args.trace))
    } else {
        (&seq[..sizes.probe_ops.min(seq.len())], Plan::probe(2))
    }
}

fn home_ops(m: Measured, trace: bool) -> HomeOps {
    HomeOps {
        traced_total_ns: trace.then(|| m.rounds.traced.total_ns()),
        env: m.rounds.env,
    }
}

/// Median of `ops[i] − reference[seq[i]]` over the ops `keep` selects, in µs.
fn overhead_p50_us(
    ops: &[u64],
    seq: &[u32],
    reference: &[u64],
    keep: impl Fn(usize) -> bool,
) -> f64 {
    let mut diffs: Vec<i64> = (0..ops.len().min(seq.len()))
        .filter(|&i| keep(i))
        .filter_map(|i| Some(ops[i] as i64 - *reference.get(seq[i] as usize)? as i64))
        .collect();
    diffs.sort_unstable();
    diffs.get(diffs.len() / 2).map_or(0.0, |&d| d as f64 / 1e3)
}

// ------------------------------------------------------------------ run ---

struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn run(args: &RunArgs) -> Report {
    let w = args.workload;
    let sizes = Sizes::of(args.quick);
    let mut tally = Tally::default();
    let mut tracer = args.trace.then(|| Tracer {
        buf: SpanBuf::with_capacity(1 << 20),
        table: LayerTable::default(),
        kept: Vec::new(),
    });
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let seg = args
        .out
        .join(format!("{}-{}.seg", w.name(), std::process::id()));

    let site_seed = sub_seed(args.seed, "site");
    let site = match w {
        Workload::BuildVidshare => Site::vidshare(site_seed, sizes.vidshare_pages),
        Workload::BuildGallery => Site::gallery(site_seed, sizes.gallery_pages),
        _ => Site::vidshare(site_seed, sizes.corpus_pages),
    };

    // Build: the measured rounds of `build-*`, the corpus set-up of the rest.
    let builds = build_section(args, &sizes, &site, &seg, &mut tracer, &mut tally);
    let corpus = &builds.last;
    let states = corpus.index.total_states;
    let mut setup_ns = builds.setup.pages.total_ns();
    let mut home: Option<HomeOps> = w.is_build().then(|| {
        let pages = &builds.facade.pages;
        tally.attempted += (pages.rounds() * pages.min.len()) as u64;
        HomeOps {
            env: pages.clone(),
            traced_total_ns: args.trace.then(|| builds.phased.pages.total_ns()),
        }
    });

    if w == Workload::IndexRebuild {
        let sink = tracer.as_mut().map(|t| t.sink("rebuild"));
        home = Some(rebuild_section(args, corpus, &seg, sink, &mut tally));
    }

    // Open: the saved segment is the index that was built.
    let segment_bytes = std::fs::metadata(&seg).map_or(0, |m| m.len());
    let sink = tracer.as_mut().map(|t| t.sink("open"));
    let (cold_open_ns, reopened) = open_section(&seg, sizes.cold_opens, sink);
    tally.check(
        "the reopened segment equals the built index",
        reopened == corpus.index,
    );

    // Harness-side preparation: the reference broker and ground truth.
    let prep = Instant::now();
    let reference = QueryBroker::new(vec![corpus.index.clone()]);
    if let Some(spec) = &site.vidshare {
        let phrases = query_workload();
        let truth = ground_truth_all(spec, spec.num_videos, COMMENT_PAGES, &phrases);
        let wrong = phrases
            .iter()
            .zip(&truth)
            .filter(|(q, t)| {
                let found = reference.search(&Query::parse(&q.text)).len();
                found != t.state_matches_by_depth[COMMENT_PAGES as usize - 1] as usize
            })
            .count();
        tally.check(
            &format!(
                "{wrong} of the 100 workload phrases disagree with the generator's ground truth"
            ),
            wrong == 0,
        );
    }
    let is_query = matches!(
        w,
        Workload::QueryDirect | Workload::ServeZipf | Workload::Dist2Shard
    );
    let inputs = (is_query || args.trace).then(|| QueryInputs::new(args.seed, &sizes, &reference));
    tally.set("load.check_prep_s", prep.elapsed().as_secs_f64());

    // Query tiers: the workload's own for `--seconds`; in a traced run the
    // other two as short probes, so every layer row is measured.
    if let Some(inputs) = &inputs {
        let launches = if args.trace { 1 } else { sizes.setup_passes };
        if w == Workload::QueryDirect || args.trace {
            let is_home = w == Workload::QueryDirect;
            let (mut tier, launch_ns) = launch(launches, || Direct {
                broker: QueryBroker::new(vec![load_index(&seg).expect("reopen the saved segment")]),
                baseline: false,
            });
            let (seq, plan) = tier_plan(args, &sizes, is_home, &inputs.direct_seq);
            let sink = tracer.as_mut().map(|t| t.sink("direct"));
            let m = measure(&mut tier, seq, &inputs.pool, &inputs.expected, plan, sink);
            tally.ops(&m, "query-direct");
            if let Some(t) = &tracer {
                let (eval_p50, eval_tail) = p50_and(t.table.ops("index.eval"), 99.0);
                let results: u64 = inputs.direct_seq[..m.rounds.env.min.len()]
                    .iter()
                    .map(|&q| u64::from(inputs.expected.result_counts[q as usize]))
                    .sum();
                tally.set("index.parse_us", us(p50(t.table.ops("index.parse"))));
                tally.set("index.eval_p50_us", us(eval_p50));
                tally.set("index.eval_tail_us", us(eval_tail));
                tally.set("index.merge_p50_us", us(p50(t.table.ops("index.merge"))));
                tally.set(
                    "index.results_per_query",
                    ratio(results as f64, m.rounds.env.min.len() as f64),
                );
            }
            if is_home {
                setup_ns += launch_ns;
                home = Some(home_ops(m, args.trace));
            }
        }

        // Baseline for the two tiers below: the same two partitions behind
        // an in-process `QueryBroker`, once per distinct query text.
        let mut reference_by_query = Vec::new();
        if let Some(t) = &mut tracer {
            let mut baseline = Direct {
                broker: QueryBroker::new(two_shards(&corpus.models, &corpus.pagerank)),
                baseline: true,
            };
            let every_query: Vec<u32> = (0..inputs.pool.len() as u32).collect();
            let m = measure(
                &mut baseline,
                &every_query,
                &inputs.pool,
                &inputs.expected,
                Plan::probe(3),
                Some(t.sink("baseline")),
            );
            tally.ops(&m, "2-shard broker");
            reference_by_query = t.table.ops("ref.broker").to_vec();
        }

        if w == Workload::ServeZipf || args.trace {
            let is_home = w == Workload::ServeZipf;
            let (mut tier, launch_ns) = launch(launches, || {
                launch_serve(two_shards(&corpus.models, &corpus.pagerank))
            });
            let (seq, plan) = tier_plan(args, &sizes, is_home, &inputs.serve_seq);
            let sink = tracer.as_mut().map(|t| t.sink("serve"));
            let m = measure(&mut tier, seq, &inputs.pool, &inputs.expected, plan, sink);
            tally.ops(&m, "serve-zipf");
            if let Some(t) = &tracer {
                let ops = t.table.ops("serve.search");
                let rounds = (m.rounds.env.rounds() + m.rounds.traced.rounds()) as f64;
                let snapshot = tier.0.metrics_snapshot();
                let hits = m.from_cache.iter().filter(|&&h| h).count();
                let by_hit = |hit: bool| -> Vec<u64> {
                    ops.iter()
                        .zip(&m.from_cache)
                        .filter(|(_, &h)| h == hit)
                        .map(|(&ns, _)| ns)
                        .collect()
                };
                tally.set("serve.hit_ratio", ratio(hits as f64, ops.len() as f64));
                tally.set("serve.hit_p50_us", us(p50(&by_hit(true))));
                tally.set("serve.miss_p50_us", us(p50(&by_hit(false))));
                tally.set(
                    "serve.miss_overhead_us",
                    overhead_p50_us(ops, &inputs.serve_seq, &reference_by_query, |i| {
                        !m.from_cache[i]
                    }),
                );
                tally.set(
                    "serve.evictions",
                    ratio(snapshot.cache_evictions as f64, rounds),
                );
                tally.set("serve.shed", snapshot.shed as f64);
                tally.set("serve.degraded", snapshot.degraded as f64);
            }
            tier.0.shutdown();
            if is_home {
                setup_ns += launch_ns;
                home = Some(home_ops(m, args.trace));
            }
        }

        if w == Workload::Dist2Shard || args.trace {
            let is_home = w == Workload::Dist2Shard;
            let (mut tier, launch_ns) = launch(launches, || {
                launch_dist(two_shards(&corpus.models, &corpus.pagerank))
            });
            let (seq, plan) = tier_plan(args, &sizes, is_home, &inputs.dist_seq);
            let sink = tracer.as_mut().map(|t| t.sink("dist"));
            let m = measure(&mut tier, seq, &inputs.pool, &inputs.expected, plan, sink);
            tally.ops(&m, "dist-2shard");
            if let Some(t) = &mut tracer {
                tally.set(
                    "dist.rpc_overhead_p50_us",
                    overhead_p50_us(
                        t.table.ops("dist.search"),
                        &inputs.dist_seq,
                        &reference_by_query,
                        |_| true,
                    ),
                );
                tally.set("dist.hedges", tier.0.hedges_fired() as f64);
                tally.set(
                    "dist.degraded",
                    tier.0.server.metrics_snapshot().degraded as f64,
                );
                let probe = &inputs.dist_seq[..sizes.probe_ops.min(inputs.dist_seq.len())];
                let shards = two_shards(&corpus.models, &corpus.pagerank);
                let bytes = replay_wire(&shards, probe, &inputs.pool, 2, &mut t.sink("wire"));
                let n = probe.len() as f64;
                tally.set("dist.reply_bytes_per_query", ratio(bytes.reply as f64, n));
                tally.set(
                    "dist.request_bytes_per_query",
                    ratio(bytes.request as f64, n),
                );
            }
            tier.0.shutdown();
            if is_home {
                setup_ns += launch_ns;
                home = Some(home_ops(m, args.trace));
            }
        }
    }

    let home = home.expect("every workload measures its own ops");
    let tail = w.tail_percentile();
    if !args.quick {
        assert!(
            samples_beyond(home.env.min.len(), tail) >= 10,
            "p{tail} of {} ops has fewer than ten samples beyond it",
            home.env.min.len()
        );
    }

    let mut metrics = Vec::new();
    if let Some(t) = &mut tracer {
        if let Some(bodies) = &builds.bodies {
            replay_substrates(&site, bodies, 2, &mut t.sink("replay"));
        }
        let table = &t.table;
        build_layer_metrics(&builds, table, tail, &mut tally);
        for (metric, span) in [
            ("dom.parse_ms", "dom.parse"),
            ("dom.hash_ms", "dom.hash"),
            ("dom.clone_ms", "dom.clone"),
            ("js.parse_ms", "js.parse"),
            ("crawl.load_ms", "crawl.load"),
            ("crawl.analysis_ms", "crawl.analysis"),
            ("index.finish_ms", "index.finish"),
            ("index.save_ms", "index.save"),
            ("index.open_ms", "index.open"),
            ("index.first_query_ms", "index.first_query"),
            ("dist.encode_ms", "dist.encode"),
            ("dist.decode_ms", "dist.decode"),
            ("dist.shard_eval_ms", "dist.shard_eval"),
            ("dist.merge_ms", "dist.merge"),
        ] {
            tally.set(metric, table.total_ms(span));
        }
        tally.set(
            "index.add_model_p50_us",
            us(p50(table.ops("index.add_model"))),
        );
        tally.set("index.save_bytes", segment_bytes as f64);
        tally.set(
            "obs.bench_trace_overhead_share",
            ratio(
                home.traced_total_ns.unwrap_or(0) as f64,
                home.env.total_ns() as f64,
            ) - 1.0,
        );
        tally.set("load.round_spread", home.env.round_spread());
        tally.set("load.disturbed_share", home.env.disturbed_share());

        let trace_path = args.out.join(format!("trace-{}.json", w.name()));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&trace_path).expect("create the trace file"),
        );
        write_chrome_trace(&mut file, &t.kept).expect("write the trace file");
        file.flush().expect("flush the trace file");
        if t.buf.dropped > 0 {
            eprintln!("note: {} spans did not fit the buffer", t.buf.dropped);
        }
        print_layer_table(table);

        for (name, unit, _) in PER_LAYER {
            let value = *tally
                .layer
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            metrics.push((name, value, unit));
        }
    } else {
        let (p50_ns, tail_ns) = p50_and(&home.env.min, tail);
        let values = [
            ("setup_s", setup_ns as f64 / 1e9),
            (
                "ops_per_s",
                ratio(home.env.min.len() as f64, home.env.total_ns() as f64 / 1e9),
            ),
            ("op_p50_us", us(p50_ns)),
            ("op_tail_us", us(tail_ns)),
            ("cold_open_ms", ms(cold_open_ns)),
            ("peak_rss_mib", peak_rss_mib()),
            (
                "index_bytes_per_state",
                ratio(segment_bytes as f64, states as f64),
            ),
        ];
        for (m, (name, value)) in END_TO_END.iter().zip(values) {
            assert_eq!(m.name, name, "END_TO_END order");
            metrics.push((m.name, value, m.unit));
        }
        // Next to the metric, what a window statistic would have reported.
        let median_round_ns = home.env.median_round_ns();
        eprintln!(
            "{}: {} rounds of {} ops, round spread {:.3}, round-median ops/s {:.1}",
            w.name(),
            home.env.rounds(),
            home.env.min.len(),
            home.env.round_spread(),
            ratio(home.env.min.len() as f64, median_round_ns as f64 / 1e9),
        );
    }
    std::fs::remove_file(&seg).ok();
    Report {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// The layer table of a traced run: envelope totals and self times.
fn print_layer_table(table: &LayerTable) {
    eprintln!(
        "{:<22} {:>8} {:>12} {:>12}",
        "span", "ops", "total_ms", "self_ms"
    );
    for (name, env) in &table.total {
        eprintln!(
            "{:<22} {:>8} {:>12.3} {:>12.3}",
            name,
            env.min.len(),
            table.total_ms(name),
            table.self_ms(name)
        );
    }
}

/// Prints `metric <name> <value> <unit>` per metric, then the result object
/// the driver reads as the last line of standard output.
fn print_report(report: &Report) {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ajax-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
         [--repeat K] [--selfcheck] [--quick] [--out DIR] | schema\n  workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("schema") {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(cli) = suite::Cli::parse(&argv) else {
        return usage();
    };
    match cli.single_run() {
        Some(args) => {
            let report = run(&args);
            print_report(&report);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => suite::run(&cli),
    }
}
