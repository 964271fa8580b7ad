//! The experiments of the `exp` command: one module per evaluation
//! experiment (thesis ch. 7) or subsystem, and [`EXPERIMENTS`], the table of
//! named experiments.
//!
//! An experiment prints one block, the same whether it runs alone or under
//! `all`, and dumps its data to `target/experiments/<name>.json`. The four
//! datasets several experiments share (`crawl_perf`, `caching`, `parallel`,
//! `queries`) are collected at most once per [`Context`]. A failed invariant
//! prints `FAIL: …` and fails the run; it never panics.

pub mod ablations;
pub mod caching;
pub mod crawl_perf;
pub mod dataset;
pub mod distributed;
pub mod durability;
pub mod faults;
pub mod parallel;
pub mod pruning;
pub mod queries;
pub mod serving;
pub mod threshold;

use crate::cli::Flags;
use crate::{util, Scale};
use caching::CachingData;
use crawl_perf::CrawlPerfData;
use distributed::DistributedData;
use parallel::ParallelData;
use queries::{QueryData, QueryTimings};
use serde::Serialize;
use serving::ServingData;
use threshold::ThresholdData;

/// One run: its scale, the shared datasets collected so far, and whether
/// an invariant failed.
pub struct Context {
    /// The scale every experiment sizes itself by.
    pub scale: Scale,
    crawl_perf: Option<CrawlPerfData>,
    caching: Option<CachingData>,
    parallel: Option<ParallelData>,
    queries: Option<QueryData>,
    /// Derived from `queries`; kept so that Table 7.5 and Fig 7.9 print one
    /// measurement, and Figs 7.10 and 7.11 one sweep.
    timings: Option<QueryTimings>,
    thresholds: Option<ThresholdData>,
    collected: Vec<&'static str>,
    failed: bool,
}

/// Fills `slot` by `collect` unless it is full, logging `name` when it runs.
fn once<'a, T>(
    slot: &'a mut Option<T>,
    collected: &mut Vec<&'static str>,
    name: &'static str,
    collect: impl FnOnce() -> T,
) -> &'a T {
    slot.get_or_insert_with(|| {
        collected.push(name);
        collect()
    })
}

impl Context {
    /// A run at `scale` that has collected nothing yet.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            crawl_perf: None,
            caching: None,
            parallel: None,
            queries: None,
            timings: None,
            thresholds: None,
            collected: Vec::new(),
            failed: false,
        }
    }

    /// The shared datasets collected so far, in order.
    pub fn collected(&self) -> &[&'static str] {
        &self.collected
    }

    /// True once an invariant has failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// States an invariant: when it does not `hold`, prints `FAIL: what`
    /// and fails the run.
    pub fn check(&mut self, holds: bool, what: &str) {
        if !holds {
            eprintln!("FAIL: {what}");
            self.failed = true;
        }
    }

    /// The two serial crawls of §7.1/§7.2.
    pub fn crawl_perf(&mut self) -> &CrawlPerfData {
        let scale = &self.scale;
        once(
            &mut self.crawl_perf,
            &mut self.collected,
            "crawl_perf",
            || crawl_perf::collect(scale),
        )
    }

    /// The cached and uncached crawls of §7.3.
    pub fn caching(&mut self) -> &CachingData {
        let scale = &self.scale;
        once(&mut self.caching, &mut self.collected, "caching", || {
            caching::collect(scale)
        })
    }

    /// The parallel crawls of §7.4.
    pub fn parallel(&mut self) -> &ParallelData {
        let scale = &self.scale;
        once(&mut self.parallel, &mut self.collected, "parallel", || {
            parallel::collect(scale)
        })
    }

    /// The 11 sample queries timed on both indexes of §7.5.
    pub fn timings(&mut self) -> &QueryTimings {
        let Self {
            scale,
            queries: data,
            timings,
            collected,
            ..
        } = self;
        timings.get_or_insert_with(|| {
            queries::table7_5(once(data, collected, "queries", || queries::collect(scale)))
        })
    }

    /// The index-depth sweep of §7.6–7.7.
    pub fn thresholds(&mut self) -> &ThresholdData {
        let Self {
            scale,
            queries: data,
            thresholds,
            collected,
            ..
        } = self;
        thresholds.get_or_insert_with(|| {
            threshold::collect(once(data, collected, "queries", || queries::collect(scale)))
        })
    }
}

/// Runs an experiment in a context with the flags given.
pub type Run = fn(&mut Context, &Flags);

/// A named experiment.
pub struct Experiment {
    pub name: &'static str,
    /// The flags it takes; the rest of [`Flags`] must be unset.
    pub flags: &'static [&'static str],
    pub run: Run,
}

const fn exp(name: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        flags: &[],
        run,
    }
}

/// Every experiment `exp` knows: the 16 tables and figures of the thesis'
/// evaluation, the subsystem experiments, the ablations, and `all`.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table7_1", table7_1),
    exp("table7_2", table7_2),
    exp("table7_3", table7_3),
    exp("table7_4", table7_4),
    exp("table7_5", table7_5),
    exp("fig7_1", fig7_1),
    exp("fig7_2", fig7_2),
    exp("fig7_3", fig7_3),
    exp("fig7_4", fig7_4),
    exp("fig7_5", fig7_5),
    exp("fig7_6", fig7_6),
    exp("fig7_7", fig7_7),
    exp("fig7_8", fig7_8),
    exp("fig7_9", fig7_9),
    exp("fig7_10", fig7_10),
    exp("fig7_11", fig7_11),
    exp("serving", serving),
    Experiment {
        name: "distributed",
        flags: &["--videos"],
        run: distributed,
    },
    Experiment {
        name: "static_prune",
        flags: &["--videos", "--pages", "--albums"],
        run: static_prune,
    },
    Experiment {
        name: "fault_sweep",
        flags: &["--videos", "--seeds", "--rates"],
        run: fault_sweep,
    },
    Experiment {
        name: "durability",
        flags: &["--videos", "--every", "--repeats"],
        run: durability,
    },
    exp("ablation_hotnodes", ablations::hotnodes),
    exp("ablation_events", ablations::events),
    exp("ablation_statecap", ablations::statecap),
    exp("focused", ablations::focused),
    exp("all", all),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Prints a block and dumps its data as `target/experiments/<name>.json`.
pub(crate) fn emit<T: Serialize>(name: &str, block: &str, data: &T) {
    println!("{block}");
    util::write_json(name, data);
}

// ---- the thesis' tables and figures -----------------------------------------

fn table7_1(ctx: &mut Context, _: &Flags) {
    let t = dataset::table7_1(ctx.crawl_perf());
    emit("table7_1", &t.render(), &t);
}

fn fig7_1(ctx: &mut Context, _: &Flags) {
    let f = dataset::fig7_1(&ctx.scale);
    emit("fig7_1", &f.render(), &f);
}

fn fig7_2(ctx: &mut Context, _: &Flags) {
    let scale = ctx.scale.clone();
    let f = dataset::fig7_2(&scale, ctx.crawl_perf());
    emit("fig7_2", &f.render(), &f);
}

fn table7_2(ctx: &mut Context, _: &Flags) {
    let t = crawl_perf::table7_2(ctx.crawl_perf());
    emit("table7_2", &t.render(), &t);
}

fn fig7_3(ctx: &mut Context, _: &Flags) {
    let f = crawl_perf::fig7_3(ctx.crawl_perf());
    emit("fig7_3", &f.render(), &f);
}

fn fig7_4(ctx: &mut Context, _: &Flags) {
    let f = crawl_perf::fig7_4(ctx.crawl_perf());
    let block = format!(
        "{}linearity (Pearson r): {:.4}\n",
        f.render(),
        f.correlation()
    );
    emit("fig7_4", &block, &f);
}

fn fig7_5(ctx: &mut Context, _: &Flags) {
    let f = caching::fig7_5(ctx.caching());
    let block = format!(
        "{}reduction factor at largest subset: {:.2}x\n",
        f.render("Fig 7.5", "caching reduces calls ~5x"),
        f.final_factor()
    );
    emit("fig7_5", &block, &f);
}

fn fig7_6(ctx: &mut Context, _: &Flags) {
    let f = caching::fig7_6(ctx.caching());
    emit(
        "fig7_6",
        &f.render("Fig 7.6", "network time reduced to ~0.37x"),
        &f,
    );
}

fn fig7_7(ctx: &mut Context, _: &Flags) {
    let f = caching::fig7_7(ctx.caching());
    emit(
        "fig7_7",
        &f.render("Fig 7.7", "throughput improves ~1.6x"),
        &f,
    );
}

fn table7_3(ctx: &mut Context, _: &Flags) {
    let p = ctx.parallel();
    emit("table7_3", &p.render_table7_3(), p);
}

fn fig7_8(ctx: &mut Context, _: &Flags) {
    let p = ctx.parallel();
    emit("fig7_8", &p.render_fig7_8(), p);
}

fn table7_4(ctx: &mut Context, _: &Flags) {
    let t = queries::table7_4(&ctx.scale);
    emit("table7_4", &t.render(), &t);
}

fn table7_5(ctx: &mut Context, _: &Flags) {
    let t = ctx.timings();
    emit("table7_5", &t.render_table7_5(), t);
}

fn fig7_9(ctx: &mut Context, _: &Flags) {
    let t = ctx.timings();
    emit("fig7_9", &t.render_fig7_9(), t);
}

fn fig7_10(ctx: &mut Context, _: &Flags) {
    let t = ctx.thresholds();
    emit("fig7_10", &t.render_fig7_10(), t);
}

fn fig7_11(ctx: &mut Context, _: &Flags) {
    let t = ctx.thresholds();
    emit("fig7_11", &t.render_fig7_11(), t);
}

// ---- the subsystems ---------------------------------------------------------

fn serving(ctx: &mut Context, _: &Flags) {
    serving_block(&ctx.scale);
}

/// Worker-pool throughput, cache and admission control (`ajax-serve`).
fn serving_block(scale: &Scale) -> ServingData {
    let data = serving::collect(scale);
    emit("serving", &data.render(), &data);
    data
}

fn distributed(ctx: &mut Context, flags: &Flags) {
    let videos = flags.videos.unwrap_or(ctx.scale.query_pages);
    distributed_block(ctx, videos);
}

/// QPS scaling, slow-shard hedging and determinism across launches
/// (`ajax-dist`) over `videos` pages.
fn distributed_block(ctx: &mut Context, videos: u32) -> DistributedData {
    let data = distributed::collect(videos);
    emit("distributed", &data.render(), &data);
    ctx.check(
        data.all_consistent(),
        "distributed results diverged from single-process serving or across launches",
    );
    data
}

fn static_prune(ctx: &mut Context, flags: &Flags) {
    prune_block(ctx, flags.videos.unwrap_or(12), flags.pages.unwrap_or(6));
    let equiv = pruning::collect_equiv(flags.albums.unwrap_or(6));
    emit("equiv_prune", &equiv.render(), &equiv);
    ctx.check(equiv.all_sound(), "equivalence-pruning soundness violated");
    ctx.check(
        equiv.meets_target(),
        "equivalence pruning saved less than 40% of fired events",
    );
}

/// The static crawl planner on, off and verifying, over `videos` VidShare
/// and `pages` NewsShare pages.
fn prune_block(ctx: &mut Context, videos: u32, pages: u32) {
    let report = pruning::collect(videos, pages);
    emit("static_prune", &report.render(), &report);
    ctx.check(
        report.all_sound() && report.any_pruned(),
        "prune soundness violated or nothing pruned",
    );
}

fn fault_sweep(ctx: &mut Context, flags: &Flags) {
    let sweep = faults::collect(
        flags.videos.unwrap_or(12),
        flags.seeds.as_deref().unwrap_or(&[1, 2]),
        flags.rates.as_deref().unwrap_or(&[0.0, 0.1, 0.3]),
    );
    emit("fault_sweep", &sweep.render(), &sweep);
    ctx.check(
        sweep.all_resilient(),
        "lost pages or non-deterministic cells in the sweep",
    );
}

fn durability(ctx: &mut Context, flags: &Flags) {
    // Cell 0 must be the checkpointing-off baseline the others compare to.
    let mut cadences = flags.every.clone().unwrap_or_else(|| vec![0, 1, 8, 64]);
    if cadences.first() != Some(&0) {
        cadences.insert(0, 0);
    }
    let sweep = durability::collect(
        flags.videos.unwrap_or(64),
        &cadences,
        flags.repeats.unwrap_or(3),
    );
    emit("durability", &sweep.render(), &sweep);
    ctx.check(
        sweep.no_output_drift(),
        "checkpointing changed the crawled models",
    );
}

// ---- all ----------------------------------------------------------------------

/// Every thesis experiment, serving, distributed serving and the static
/// planner, sharing the expensive crawls, then a summary.
fn all(ctx: &mut Context, flags: &Flags) {
    println!(
        "=== AJAX Crawl evaluation — scale '{}' ===\n",
        ctx.scale.name
    );
    let paper: [Run; 14] = [
        table7_1, fig7_1, fig7_2, table7_2, fig7_3, fig7_4, fig7_5, fig7_6, fig7_7, table7_3,
        fig7_8, table7_4, table7_5, fig7_9,
    ];
    for run in paper {
        run(ctx, flags);
    }
    let srv = serving_block(&ctx.scale);
    // Distributed serving and the static planner run on small fixed sites:
    // their invariants, not the scale, are the point here.
    let videos = ctx.scale.query_pages.min(40);
    let dist = distributed_block(ctx, videos);
    prune_block(ctx, 12, 6);
    fig7_10(ctx, flags);
    fig7_11(ctx, flags);

    println!("=== summary ===");
    println!("{}", crawl_perf::summary(ctx.crawl_perf()));
    let cache = ctx.caching();
    println!(
        "caching: calls x{:.2} fewer, net time x{:.2} less, throughput x{:.2} more",
        caching::fig7_5(cache).final_factor(),
        caching::fig7_6(cache).final_factor(),
        1.0 / caching::fig7_7(cache).final_factor().max(1e-9),
    );
    let par = ctx.parallel();
    println!(
        "parallel ({} lines): AJAX speedup x{:.2}",
        par.proc_lines,
        par.ajax.serial_micros as f64 / par.ajax.parallel_micros as f64
    );
    println!(
        "recall gain at 11 states: {:.3}",
        ctx.thresholds()
            .samples
            .last()
            .map(|s| s.one_minus_rel_recall)
            .unwrap_or(0.0)
    );
    println!(
        "serving ({} workers): virtual speedup x{:.2}, cache hit rate {:.0}%, {} lost",
        srv.workers,
        srv.virtual_speedup,
        srv.repeat_hit_rate * 100.0,
        srv.burst_lost
    );
    println!(
        "distributed: QPS {} at 1/2/4 shards, slow-shard p99 {:.1} → {:.1} ms \
         with hedging ({} hedges), deterministic: {}",
        dist.scaling
            .iter()
            .map(|s| format!("{:.0}", s.qps))
            .collect::<Vec<_>>()
            .join("/"),
        dist.fault.p99_hedge_off_micros / 1e3,
        dist.fault.p99_hedge_on_micros / 1e3,
        dist.fault.hedges_fired,
        dist.deterministic,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names DESIGN.md's experiment index gives the thesis' tables and
    /// figures, as `(row label, name)`.
    fn design_rows() -> Vec<(String, String)> {
        include_str!("../../../../DESIGN.md")
            .lines()
            .filter(|l| l.starts_with("| Table 7.") || l.starts_with("| Fig 7."))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let last = cells[cells.len() - 2];
                let name = last
                    .strip_prefix("`exp ")
                    .and_then(|s| s.strip_suffix('`'))
                    .unwrap_or(last);
                (cells[1].to_string(), name.to_string())
            })
            .collect()
    }

    #[test]
    fn every_paper_table_and_figure_resolves_to_an_experiment() {
        let rows = design_rows();
        assert_eq!(rows.len(), 16, "{rows:?}");
        for (label, name) in rows {
            let expected = label.to_lowercase().replace(' ', "").replace('.', "_");
            assert_eq!(name, expected, "DESIGN.md row {label}");
            assert!(find(&name).is_some(), "no experiment {name}");
        }
    }

    #[test]
    fn experiments_sharing_a_dataset_collect_it_once() {
        let mut ctx = Context::new(Scale {
            crawl_pages: 8,
            ..Scale::small()
        });
        for name in ["fig7_3", "table7_2"] {
            let e = find(name).expect("a paper experiment");
            (e.run)(&mut ctx, &Flags::default());
        }
        assert_eq!(ctx.collected(), ["crawl_perf"]);
        assert!(!ctx.failed());
    }
}
