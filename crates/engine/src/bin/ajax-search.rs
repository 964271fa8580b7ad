//! `ajax-search` — the command-line counterpart of the thesis' setup
//! application (ch. 8): build an index over a synthetic site, save/load it,
//! and process queries.
//!
//! ```sh
//! # Build an AJAX index over 200 VidShare videos and save it:
//! ajax-search build --videos 200 --out /tmp/ajax.idx
//!
//! # Build the traditional baseline instead:
//! ajax-search build --videos 200 --traditional --out /tmp/trad.idx
//!
//! # Build under 10% injected transient faults and dump the JSON report:
//! ajax-search build --videos 200 --fault-plan "seed=7,transient=0.1" \
//!     --retries 4 --quarantine-after 3 --report-json /tmp/report.json \
//!     --out /tmp/ajax.idx
//!
//! # Query a saved index:
//! ajax-search query --index /tmp/ajax.idx "morcheeba mysterious video"
//!
//! # One-shot demo (build in memory, run sample queries):
//! ajax-search demo
//!
//! # Build in memory and serve queries concurrently (stdin or a workload
//! # file, one query per line); prints a metrics snapshot at EOF:
//! ajax-search serve --videos 60 --workers 2 --workload queries.txt
//!
//! # Distributed serving: fork 2 shard processes, run the Table 7.4 query
//! # workload through the coordinator, and verify every response is
//! # bit-identical to single-process evaluation:
//! ajax-search serve --videos 40 --distributed 2 --table74 --verify-single
//! ```

use ajax_crawl::crawler::RetryPolicy;
use ajax_dist::{partition_models, ClusterConfig, DistCluster};
use ajax_engine::{analyze_site, AjaxSearchEngine, BuildReport, EngineConfig};
use ajax_index::invert::InvertedIndex;
use ajax_index::persist::{load_index, save_index};
use ajax_index::query::{search, Query, RankWeights};
use ajax_index::BrokerResult;
use ajax_net::{FaultPlan, Server, Url};
use ajax_obs::{chrome_trace_json_named, ProfileRollup};
use ajax_serve::ServeConfig;
use ajax_webgen::{
    query_workload, GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer,
    VidShareSpec,
};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// What a command returns. Only a write to stdout returns a bare
/// `io::Error` here; every other failure is a message. A write that fails
/// with `BrokenPipe` (`ajax-search query … | head -1`) ends the command,
/// and `main` reports success: nobody is left to read the rest.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..], &mut out),
        Some("demo") => cmd_demo(&mut out),
        Some("serve") => cmd_serve(&args[1..], &mut out),
        Some("shard") => cmd_shard(&args[1..], &mut out),
        Some("analyze") => cmd_analyze(&args[1..], &mut out),
        Some("fsck") => cmd_fsck(&args[1..], &mut out),
        _ => {
            eprintln!(
                "usage: ajax-search build --videos N [--site vidshare|news|gallery] [--traditional]\n\
                 \u{20}                  [--max-states N] [--fault-plan SPEC] [--retries N]\n\
                 \u{20}                  [--quarantine-after K] [--report-json FILE]\n\
                 \u{20}                  [--no-static-prune] [--verify-prune]\n\
                 \u{20}                  [--equiv-prune] [--verify-equiv]\n\
                 \u{20}                  [--checkpoint-dir DIR] [--resume] [--checkpoint-every N]\n\
                 \u{20}                  [--trace-out FILE] [--profile] --out FILE\n\
                 \u{20}      ajax-search query --index FILE \"query terms\"\n\
                 \u{20}      ajax-search demo\n\
                 \u{20}      ajax-search serve [--videos N] [--workers W] [--cache N] \
                 [--max-in-flight N] [--deadline-ms N] [--workload FILE]\n\
                 \u{20}                  [--distributed N] [--port BASE] [--hedge-ms N]\n\
                 \u{20}                  [--table74] [--verify-single]\n\
                 \u{20}      ajax-search shard --index FILE [--shard-id I] [--port N]\n\
                 \u{20}      ajax-search analyze [--videos N] [--site vidshare|news|gallery]\n\
                 \u{20}                  [--json] [--effects]\n\
                 \u{20}      ajax-search fsck FILE|DIR"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fetches the value following `--flag`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Applies the shared resilience flags (`--fault-plan`, `--retries`,
/// `--quarantine-after`) to an engine configuration.
fn apply_resilience_flags(args: &[String], config: &mut EngineConfig) -> Result<(), String> {
    if let Some(spec) = flag_value(args, "--fault-plan") {
        config.fault_plan =
            Some(FaultPlan::from_spec(spec).map_err(|e| format!("--fault-plan: {e}"))?);
    }
    if let Some(n) = flag_value(args, "--retries") {
        let n: u32 = n
            .parse()
            .map_err(|_| "--retries must be a number".to_string())?;
        config.crawl.retry = RetryPolicy::default().with_max_attempts(n.max(1));
    }
    if let Some(k) = flag_value(args, "--quarantine-after") {
        let k: u32 = k
            .parse()
            .map_err(|_| "--quarantine-after must be a number".to_string())?;
        config.quarantine_after = k.max(1);
    }
    Ok(())
}

/// Prints what the crawl survived: retries, recoveries, partial states,
/// and every page it ultimately gave up on.
fn print_resilience(report: &BuildReport) {
    if report.crawl.fetch_retries > 0 || report.page_retries > 0 || report.pages_failed > 0 {
        eprintln!(
            "resilience: {} fetch retries, {} page re-crawls, {} pages recovered, \
             {} partial states, {} failed XHR",
            report.crawl.fetch_retries,
            report.page_retries,
            report.pages_recovered,
            report.crawl.partial_states,
            report.crawl.failed_xhr,
        );
    }
    if !report.failures.is_empty() {
        eprintln!(
            "gave up on {} pages ({} quarantined):",
            report.pages_failed, report.pages_quarantined
        );
        for f in &report.failures {
            eprintln!(
                "  [partition {}] {} — {} after {} attempts{}",
                f.partition,
                f.url,
                f.error,
                f.attempts,
                if f.quarantined { " (quarantined)" } else { "" }
            );
        }
    }
}

/// Writes the build report as pretty JSON when `--report-json` is given.
fn write_report_json(args: &[String], report: &BuildReport) -> Result<(), String> {
    if let Some(path) = flag_value(args, "--report-json") {
        let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote build report to {path}");
    }
    Ok(())
}

/// Writes the Chrome trace (`--trace-out`) and prints the per-phase profile
/// rollup (`--profile`) from a traced build.
fn write_trace(
    trace_out: Option<&str>,
    profile: bool,
    spans: &[ajax_obs::SpanEvent],
) -> Result<(), String> {
    if let Some(path) = trace_out {
        let tracks: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.track).collect();
        let names: Vec<(u32, String)> = tracks
            .into_iter()
            .map(|t| {
                let name = if t == 0 {
                    "line 0 (precrawl, index)".to_string()
                } else {
                    format!("line {t}")
                };
                (t, name)
            })
            .collect();
        let named: Vec<(u32, &str)> = names.iter().map(|(t, n)| (*t, n.as_str())).collect();
        let json = chrome_trace_json_named(spans, &named);
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote {} spans to {path} (open in chrome://tracing or Perfetto)",
            spans.len()
        );
    }
    if profile {
        eprintln!("{}", ProfileRollup::from_events(spans).render());
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> CmdResult {
    let videos: u32 = flag_value(args, "--videos")
        .unwrap_or("100")
        .parse()
        .map_err(|_| "--videos must be a number".to_string())?;
    let out = flag_value(args, "--out").ok_or("--out FILE is required")?;
    let traditional = has_flag(args, "--traditional");
    let site = flag_value(args, "--site").unwrap_or("vidshare");
    let trace_out = flag_value(args, "--trace-out");
    let profile = has_flag(args, "--profile");
    let max_states: Option<usize> = flag_value(args, "--max-states")
        .map(|v| {
            v.parse()
                .map_err(|_| "--max-states must be a number".to_string())
        })
        .transpose()?;

    // `--videos N` doubles as the page count for `--site news`.
    let (server, start, path_filter): (Arc<dyn Server>, Url, &str) = match site {
        "vidshare" => {
            let spec = VidShareSpec::small(videos);
            let start = Url::parse(&spec.watch_url(0));
            (Arc::new(VidShareServer::new(spec)), start, "/watch")
        }
        "news" => {
            let spec = NewsSpec::small(videos);
            let start = Url::parse(&spec.page_url(0));
            (Arc::new(NewsShareServer::new(spec)), start, "/news")
        }
        "gallery" => {
            let spec = GallerySpec::small(videos);
            let start = Url::parse(&spec.page_url(0));
            (Arc::new(GalleryServer::new(spec)), start, "/album")
        }
        other => {
            return Err(format!("--site must be vidshare, news or gallery, got {other:?}").into())
        }
    };
    let mut config = if traditional {
        EngineConfig::traditional(videos as usize)
    } else {
        EngineConfig::ajax(videos as usize)
    };
    config.max_index_states = max_states;
    config.path_filter = Some(path_filter.to_string());
    config.trace = trace_out.is_some() || profile;
    apply_resilience_flags(args, &mut config)?;
    if let Some(dir) = flag_value(args, "--checkpoint-dir") {
        config = config
            .with_checkpoint_dir(dir)
            .with_resume(has_flag(args, "--resume"));
    } else if has_flag(args, "--resume") {
        return Err("--resume requires --checkpoint-dir DIR".into());
    }
    if let Some(n) = flag_value(args, "--checkpoint-every") {
        let n: usize = n
            .parse()
            .map_err(|_| "--checkpoint-every must be a number".to_string())?;
        config.crawl = config.crawl.with_checkpoint_every(n);
    }
    if has_flag(args, "--no-static-prune") {
        config.crawl = config.crawl.without_static_prune();
    }
    let verify_prune = has_flag(args, "--verify-prune");
    if verify_prune {
        config.crawl = config.crawl.verifying_prune();
    }
    if has_flag(args, "--equiv-prune") {
        config.crawl = config.crawl.with_equiv_prune();
    }
    let verify_equiv = has_flag(args, "--verify-equiv");
    if verify_equiv {
        config.crawl = config.crawl.verifying_equiv();
    }

    eprintln!(
        "building {} index over {videos} {site} pages…",
        if traditional { "traditional" } else { "AJAX" }
    );
    let mut engine =
        AjaxSearchEngine::build_with_checkpoints(server, &start, config).map_err(|e| {
            format!("{e} (pass a fresh --checkpoint-dir, or drop --resume to start over)")
        })?;
    let r = &engine.report;
    // Two time axes, labeled: virtual_ms is simulated network/CPU time,
    // wall_ms is how long the build really took on this machine.
    eprintln!(
        "crawled {} pages / {} states; {} AJAX calls ({} cached); \
         virtual_ms {:.1} (simulated), wall_ms {:.1} (host); \
         index {:.1} KiB over {} shards",
        r.pages_crawled,
        r.total_states,
        r.crawl.ajax_network_calls,
        r.crawl.cache_hits,
        r.virtual_makespan as f64 / 1e3,
        r.build_wall_micros as f64 / 1e3,
        r.index_bytes as f64 / 1024.0,
        r.shards,
    );
    if r.crawl.pruned_events > 0 || r.crawl.script_errors > 0 {
        eprintln!(
            "static analysis: {} events pruned, {} script errors{}",
            r.crawl.pruned_events,
            r.crawl.script_errors,
            if verify_prune {
                format!(", {} verify mismatches", r.crawl.prune_mismatches)
            } else {
                String::new()
            },
        );
    }
    if verify_prune && r.crawl.prune_mismatches > 0 {
        return Err(format!(
            "--verify-prune found {} soundness mismatches: statically-pruned \
             events changed application state",
            r.crawl.prune_mismatches
        )
        .into());
    }
    if r.crawl.equiv_pruned_events > 0 || r.crawl.commute_pruned_events > 0 {
        eprintln!(
            "equivalence pruning: {} events claimed by class verdicts, {} by \
             commutativity{}",
            r.crawl.equiv_pruned_events,
            r.crawl.commute_pruned_events,
            if verify_equiv {
                format!(", {} verify mismatches", r.crawl.equiv_mismatches)
            } else {
                String::new()
            },
        );
    }
    if verify_equiv && r.crawl.equiv_mismatches > 0 {
        return Err(format!(
            "--verify-equiv found {} mismatches: events claimed barren by \
             equivalence/commutativity actually changed application state",
            r.crawl.equiv_mismatches
        )
        .into());
    }
    if r.checkpoint.writes > 0 || r.checkpoint.resumed {
        eprintln!(
            "checkpoints: {} snapshots ({:.1} ms wall){}",
            r.checkpoint.writes,
            r.checkpoint.write_wall_micros as f64 / 1e3,
            if r.checkpoint.resumed {
                format!(
                    ", resumed with {} pages restored",
                    r.checkpoint.pages_restored
                )
            } else {
                String::new()
            },
        );
    }
    print_resilience(r);
    write_report_json(args, r)?;

    // Persist the engine's own partitions, merged in order, as one file.
    let (partitions, _) = engine.broker.into_parts();
    let index = InvertedIndex::try_merge_segments(partitions).map_err(|e| e.to_string())?;
    let t_save = std::time::Instant::now();
    save_index(out, &index).map_err(|e| e.to_string())?;
    let save_wall = t_save.elapsed();
    if trace_out.is_some() || profile {
        // The atomic commit runs on the wall clock, but the exported trace
        // is a virtual-time record that must be byte-identical across
        // same-seed runs — so the span is an instant marker after
        // everything on the timeline (deterministic args only); the wall
        // cost is printed on the `saved …` line below instead.
        let t_base = engine
            .spans
            .iter()
            .map(|s| s.start + s.dur)
            .max()
            .unwrap_or(0);
        engine.spans.push(ajax_obs::SpanEvent {
            name: "persist.commit",
            track: 0,
            start: t_base,
            dur: 0,
            args: vec![
                (
                    "bytes",
                    ajax_obs::AttrValue::U64(index.approx_bytes() as u64),
                ),
                ("states", ajax_obs::AttrValue::U64(index.total_states)),
            ],
        });
    }
    write_trace(trace_out, profile, &engine.spans)?;
    let on_disk = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "saved {} terms / {} states ({:.1} KiB resident, {:.1} KiB on disk as a v4 segment) \
         to {out} (commit {:.1} ms wall)",
        index.term_count(),
        index.total_states,
        index.approx_bytes() as f64 / 1024.0,
        on_disk as f64 / 1024.0,
        save_wall.as_micros() as f64 / 1e3,
    );
    Ok(())
}

fn cmd_query(args: &[String], out: &mut impl Write) -> CmdResult {
    let path = flag_value(args, "--index").ok_or("--index FILE is required")?;
    // The query text is every argument but `--index FILE`, in order.
    let mut words = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--index" {
            rest.next();
        } else {
            words.push(arg.as_str());
        }
    }
    let text = words.join(" ");
    if text.trim().is_empty() {
        return Err("missing query text".into());
    }

    let index = load_index(path).map_err(|e| e.to_string())?;
    let query = Query::parse(&text);
    let t0 = std::time::Instant::now();
    let results = search(&index, &query, &RankWeights::default());
    let elapsed = t0.elapsed();

    // Query evaluation happens on the host, so this is *wall* time — unlike
    // the build phase's virtual_ms, which comes from the simulated clock.
    writeln!(
        out,
        "{} results for {text:?} in wall_ms {:.3}",
        results.len(),
        elapsed.as_secs_f64() * 1e3
    )?;
    for (rank, r) in results.iter().take(10).enumerate() {
        writeln!(
            out,
            "{:>3}. {:.4}  {}  state {}",
            rank + 1,
            r.score,
            r.url,
            r.doc.state
        )?;
    }
    Ok(())
}

/// Builds an in-memory index and serves queries through `ajax-serve`:
/// one line per query from `--workload FILE` or stdin, top-3 results each,
/// and a JSON metrics snapshot once the input is exhausted.
fn cmd_serve(args: &[String], out: &mut impl Write) -> CmdResult {
    use std::io::BufRead;

    let videos: u32 = flag_value(args, "--videos")
        .unwrap_or("60")
        .parse()
        .map_err(|_| "--videos must be a number".to_string())?;
    let workers: usize = flag_value(args, "--workers")
        .unwrap_or("2")
        .parse()
        .map_err(|_| "--workers must be a number".to_string())?;
    let cache: usize = flag_value(args, "--cache")
        .unwrap_or("256")
        .parse()
        .map_err(|_| "--cache must be a number".to_string())?;
    let max_in_flight: usize = flag_value(args, "--max-in-flight")
        .unwrap_or("64")
        .parse()
        .map_err(|_| "--max-in-flight must be a number".to_string())?;
    let deadline_ms: Option<u64> = flag_value(args, "--deadline-ms")
        .map(|v| {
            v.parse()
                .map_err(|_| "--deadline-ms must be a number".to_string())
        })
        .transpose()?;

    let distributed: Option<usize> = flag_value(args, "--distributed")
        .map(|v| {
            v.parse()
                .map_err(|_| "--distributed must be a number".to_string())
        })
        .transpose()?;
    if distributed == Some(0) {
        return Err("--distributed needs at least 1 shard".into());
    }

    let spec = VidShareSpec::small(videos);
    let start = Url::parse(&spec.watch_url(0));
    let site = Arc::new(VidShareServer::new(spec));
    eprintln!("building AJAX index over {videos} videos…");
    let mut engine_config = EngineConfig::ajax(videos as usize);
    // Distributed mode re-partitions the crawled models itself, so keep them.
    engine_config.keep_models = distributed.is_some();
    let engine = AjaxSearchEngine::build(site, &start, engine_config);

    let serve_config = ServeConfig::default()
        .with_workers_per_shard(workers)
        .with_cache_capacity(cache)
        .with_max_in_flight(max_in_flight)
        .with_deadline_micros(deadline_ms.map(|ms| ms * 1_000));

    if let Some(shards) = distributed {
        return serve_distributed(args, engine, shards, serve_config, out);
    }

    eprintln!(
        "serving {} states over {} shards ({} workers, cache {cache}, max in-flight {max_in_flight})",
        engine.report.total_states, engine.report.shards, engine.report.shards * workers,
    );
    let server = engine.into_server(serve_config);

    let input: Box<dyn BufRead> = match flag_value(args, "--workload") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    for line in input.lines() {
        let line = line.map_err(|e| e.to_string())?;
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        print_response(&server, text, None, out)?;
    }

    writeln!(out, "{}", server.metrics_json())?;
    Ok(())
}

/// Runs one query through `server`, printing the top-3; when `single` is
/// given (a retained in-process engine), additionally verifies the response
/// is bit-identical to single-process evaluation.
fn print_response(
    server: &ajax_serve::ShardServer,
    text: &str,
    single: Option<&AjaxSearchEngine>,
    out: &mut impl Write,
) -> CmdResult {
    match server.search(text) {
        Ok(resp) => {
            let tag = if resp.from_cache {
                " [cached]"
            } else if resp.degraded {
                " [degraded]"
            } else {
                ""
            };
            writeln!(
                out,
                "{} results for {text:?} in {:.3} ms{tag}",
                resp.results.len(),
                resp.latency_micros as f64 / 1e3
            )?;
            for (rank, r) in resp.results.iter().take(3).enumerate() {
                writeln!(
                    out,
                    "{:>3}. {:.4}  {}  state {}",
                    rank + 1,
                    r.score,
                    r.url,
                    r.doc.state
                )?;
            }
            if let Some(engine) = single {
                let reference = engine.search(text);
                if let Some(diff) = diff_results(&resp.results, &reference) {
                    return Err(format!(
                        "--verify-single: {text:?} diverges from single-process \
                         evaluation: {diff}"
                    )
                    .into());
                }
            }
        }
        Err(e) => writeln!(out, "shed {text:?}: {e}")?,
    }
    Ok(())
}

/// Compares a distributed response against single-process results:
/// bit-identical means same documents, same order, same score bits. The
/// `shard` field and `doc.page` (an index into the owning partition's page
/// table) are partition-relative provenance and legitimately differ between
/// partitionings; the partition-invariant document identity is
/// `(url, doc.state)`.
fn diff_results(got: &[BrokerResult], want: &[BrokerResult]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} results vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if g.url != w.url || g.doc.state != w.doc.state {
            return Some(format!(
                "rank {i}: {} state {} vs {} state {}",
                g.url, g.doc.state, w.url, w.doc.state
            ));
        }
        if g.score.to_bits() != w.score.to_bits() {
            return Some(format!(
                "rank {i}: score bits differ ({:.17e} vs {:.17e})",
                g.score, w.score
            ));
        }
    }
    None
}

/// The `serve --distributed N` path: re-partition the crawled models into
/// `shards` contiguous chunks, fork one `ajax-search shard` child per chunk,
/// and coordinate queries over TCP. The engine stays alive for
/// `--verify-single` comparisons.
fn serve_distributed(
    args: &[String],
    engine: AjaxSearchEngine,
    shards: usize,
    serve_config: ServeConfig,
    out: &mut impl Write,
) -> CmdResult {
    use std::io::BufRead;

    let base_port: Option<u16> = flag_value(args, "--port")
        .map(|v| {
            v.parse()
                .map_err(|_| "--port must be a port number".to_string())
        })
        .transpose()?;
    let hedge_after_micros: Option<u64> = flag_value(args, "--hedge-ms")
        .map(|v| {
            v.parse::<u64>()
                .map(|ms| ms * 1_000)
                .map_err(|_| "--hedge-ms must be a number".to_string())
        })
        .transpose()?;
    let verify_single = has_flag(args, "--verify-single");

    let partitions = partition_models(
        &engine.models,
        |url| engine.graph.pagerank.get(url).copied(),
        shards,
        None,
    );
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    eprintln!(
        "forking {shards} shard processes ({} states total)…",
        engine.report.total_states
    );
    let mut cluster = DistCluster::launch_processes(
        &exe,
        partitions,
        engine.weights(),
        ClusterConfig {
            serve: serve_config,
            hedge_after_micros,
            chaos: None,
        },
        base_port,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "coordinator up: {} shards, {} states via transport",
        cluster.shard_count(),
        cluster.server.total_states(),
    );

    let single = verify_single.then_some(&engine);
    let mut queries = 0usize;
    if has_flag(args, "--table74") {
        // The thesis' Table 7.4 workload: 100 queries over the synthetic
        // sites' phrase pool.
        for spec in query_workload() {
            print_response(&cluster.server, &spec.text, single, out)?;
            queries += 1;
        }
    } else {
        let input: Box<dyn BufRead> = match flag_value(args, "--workload") {
            Some(path) => Box::new(std::io::BufReader::new(
                std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?,
            )),
            None => Box::new(std::io::BufReader::new(std::io::stdin())),
        };
        for line in input.lines() {
            let line = line.map_err(|e| e.to_string())?;
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            print_response(&cluster.server, text, single, out)?;
            queries += 1;
        }
    }

    writeln!(out, "{}", cluster.server.metrics_json())?;
    if verify_single {
        eprintln!("verified {queries} responses bit-identical to single-process serve");
    }
    cluster.shutdown();
    Ok(())
}

/// Process-mode shard server: load one index partition and answer queries
/// over the wire until killed. Prints `LISTENING <addr>` on stdout once
/// bound — the coordinator parses this to learn ephemeral ports.
fn cmd_shard(args: &[String], out: &mut impl Write) -> CmdResult {
    let path = flag_value(args, "--index").ok_or("--index FILE is required")?;
    let shard_id: usize = flag_value(args, "--shard-id")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "--shard-id must be a number".to_string())?;
    let port: u16 = flag_value(args, "--port")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "--port must be a port number".to_string())?;

    let index = load_index(path).map_err(|e| e.to_string())?;
    let listener = ajax_dist::bind_shard("127.0.0.1", port).map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("shard listener address: {e}"))?;
    writeln!(out, "LISTENING {addr}")?;
    out.flush().map_err(|e| format!("flush banner: {e}"))?;
    eprintln!(
        "shard {shard_id}: {} states / {} terms on {addr}",
        index.total_states,
        index.term_count()
    );
    ajax_dist::serve_shard(listener, Arc::new(index), shard_id);
    Ok(())
}

/// Static analysis without a crawl: fetch every page's initial document,
/// run the effect/diagnostics pass, and print the findings. Exits nonzero
/// when any error-severity diagnostic fires (the CI analyze-smoke gate).
fn cmd_analyze(args: &[String], out: &mut impl Write) -> CmdResult {
    let videos: u32 = flag_value(args, "--videos")
        .unwrap_or("20")
        .parse()
        .map_err(|_| "--videos must be a number".to_string())?;
    let site = flag_value(args, "--site").unwrap_or("vidshare");
    let json = has_flag(args, "--json");
    let effects = has_flag(args, "--effects");

    let (server, urls): (Arc<dyn Server>, Vec<String>) = match site {
        "vidshare" => {
            let spec = VidShareSpec::small(videos);
            let urls = (0..videos).map(|v| spec.watch_url(v)).collect();
            (Arc::new(VidShareServer::new(spec)), urls)
        }
        "news" => {
            let spec = NewsSpec::small(videos);
            let urls = (0..videos).map(|p| spec.page_url(p)).collect();
            (Arc::new(NewsShareServer::new(spec)), urls)
        }
        "gallery" => {
            let spec = GallerySpec::small(videos);
            let urls = (0..videos).map(|a| spec.page_url(a)).collect();
            (Arc::new(GalleryServer::new(spec)), urls)
        }
        other => {
            return Err(format!("--site must be vidshare, news or gallery, got {other:?}").into())
        }
    };

    let analysis = analyze_site(server.as_ref(), &urls);
    if json {
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&analysis).map_err(|e| e.to_string())?
        )?;
    } else {
        for page in &analysis.pages {
            writeln!(
                out,
                "{}: {} functions, {} bindings ({} prunable), {} script errors",
                page.url, page.functions, page.bindings, page.pure_bindings, page.script_errors
            )?;
            for d in &page.diagnostics {
                writeln!(
                    out,
                    "  {}[{}] {}: {}",
                    d.severity, d.code, d.subject, d.message
                )?;
            }
            if effects {
                for b in &page.binding_reports {
                    let class = b
                        .class
                        .map(|c| format!("class {c}"))
                        .unwrap_or_else(|| "unparsed".to_string());
                    writeln!(
                        out,
                        "  effects {:?} [{class}]: writes {{{}}} reads {{{}}} xhr {{{}}} \
                         globals r{{{}}} w{{{}}}",
                        b.code,
                        b.writes.join(", "),
                        b.reads.join(", "),
                        b.xhr_urls.join(", "),
                        b.globals_read.join(", "),
                        b.globals_written.join(", "),
                    )?;
                }
                for c in &page.equiv_classes {
                    writeln!(
                        out,
                        "  class {}: {} members, signature {}",
                        c.id,
                        c.members.len(),
                        c.signature
                    )?;
                }
                writeln!(out, "  commutativity ('+' = provably order-independent):")?;
                for (code, row) in page.commute.codes.iter().zip(&page.commute.rows) {
                    writeln!(out, "    {row}  {code:?}")?;
                }
            }
        }
        writeln!(
            out,
            "{} pages: {} errors, {} warnings, {} infos",
            analysis.pages.len(),
            analysis.errors,
            analysis.warnings,
            analysis.infos
        )?;
    }
    if analysis.has_errors() {
        return Err(format!(
            "static analysis found {} error-severity diagnostics",
            analysis.errors
        )
        .into());
    }
    Ok(())
}

/// `ajax-search fsck FILE|DIR` — validate persisted artifacts (indexes,
/// model files, checkpoint journals) without loading them into an engine.
/// Reports, per file: OK, legacy (unframed, no checksum), repairable damage
/// (a stale `.tmp` from an interrupted commit, or a torn checkpoint
/// superseded by a valid older snapshot), or fatal damage, which includes
/// an index of any format but v4.
/// Exits nonzero only on fatal damage.
fn cmd_fsck(args: &[String], out: &mut impl Write) -> CmdResult {
    use ajax_crawl::durable::{self, Inspection};
    use std::path::{Path, PathBuf};

    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("fsck needs a FILE or DIR to check")?;
    let target = Path::new(target);
    let files: Vec<PathBuf> = if target.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(target)
            .map_err(|e| format!("read {}: {e}", target.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        entries.sort();
        entries
    } else if target.is_file() {
        vec![target.to_path_buf()]
    } else {
        return Err(format!("{}: no such file or directory", target.display()).into());
    };

    let is_checkpoint = |p: &Path| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ajx"))
    };
    // A torn checkpoint is only fatal if no *other* snapshot in the same
    // journal is intact — the journal keeps the previous generation around
    // precisely so resume can fall back to it.
    let valid_checkpoints = files
        .iter()
        .filter(|p| is_checkpoint(p))
        .filter(|p| matches!(durable::inspect(p), Ok(Inspection::Ok { .. })))
        .count();

    let (mut ok, mut legacy, mut repairable, mut fatal) = (0u32, 0u32, 0u32, 0u32);
    for path in &files {
        let name = path.display();
        if path.extension().is_some_and(|e| e == "tmp") {
            writeln!(
                out,
                "REPAIRABLE {name}: stale temp file from an interrupted commit — delete it"
            )?;
            repairable += 1;
            continue;
        }
        match durable::inspect(path) {
            Ok(Inspection::Ok {
                magic,
                version,
                payload_len,
            }) => {
                // Frame-valid index files are further classified by format
                // version: this build reads the v4 segment and nothing else.
                if magic == ajax_index::INDEX_MAGIC {
                    if version == ajax_index::INDEX_FORMAT_VERSION {
                        writeln!(
                            out,
                            "OK         {name}: {magic} v{version} (mmap-able segment), \
                             {payload_len} payload bytes, checksum verified"
                        )?;
                        ok += 1;
                    } else {
                        writeln!(
                            out,
                            "FATAL      {name}: {magic} v{version} is not readable by this \
                             build (reads v{}) — rebuild with `ajax-search build`",
                            ajax_index::INDEX_FORMAT_VERSION
                        )?;
                        fatal += 1;
                    }
                } else {
                    writeln!(out, "OK         {name}: {magic} v{version}, {payload_len} payload bytes, checksum verified")?;
                    ok += 1;
                }
            }
            Ok(Inspection::Legacy { bytes }) => {
                writeln!(
                    out,
                    "LEGACY     {name}: unframed ({bytes} bytes), no checksum — a bare model \
                     array still loads, an index must be rebuilt with `ajax-search build`"
                )?;
                legacy += 1;
            }
            Err(e) => {
                if is_checkpoint(path) && valid_checkpoints > 0 {
                    writeln!(
                        out,
                        "REPAIRABLE {name}: {e} — an intact snapshot exists, resume will \
                         fall back to it"
                    )?;
                    repairable += 1;
                } else {
                    writeln!(out, "FATAL      {name}: {e}")?;
                    fatal += 1;
                }
            }
        }
    }
    writeln!(
        out,
        "{} files: {ok} ok, {legacy} legacy, {repairable} repairable, {fatal} fatal",
        files.len()
    )?;
    if fatal > 0 {
        return Err(format!(
            "{fatal} file(s) fatally damaged — rebuild them with `ajax-search build`"
        )
        .into());
    }
    Ok(())
}

fn cmd_demo(out: &mut impl Write) -> CmdResult {
    let spec = VidShareSpec::small(60);
    let start = Url::parse(&spec.watch_url(0));
    let server = Arc::new(VidShareServer::new(spec));
    let engine = AjaxSearchEngine::build(server, &start, EngineConfig::ajax(60));
    writeln!(
        out,
        "demo index: {} pages, {} states, {} shards",
        engine.report.pages_crawled, engine.report.total_states, engine.report.shards
    )?;
    for q in ["wow", "our song", "morcheeba mysterious video"] {
        let results = engine.search(q);
        writeln!(out, "\n{q:?} → {} results", results.len())?;
        for r in results.iter().take(3) {
            writeln!(out, "   {:.4}  {}  state {}", r.score, r.url, r.doc.state)?;
        }
    }
    Ok(())
}
