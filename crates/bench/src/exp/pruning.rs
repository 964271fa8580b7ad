//! Static-prune experiment: what does the static crawl planner buy, and is
//! it sound?
//!
//! For each site (VidShare and NewsShare) the whole site is crawled three
//! ways — planner on (the default), planner off (`--prune off`
//! semantics), and verify mode (pruned events fire anyway and any state
//! change counts as a soundness mismatch). A cell reports events fired,
//! events pruned, virtual makespan, and the two properties the planner
//! must preserve:
//!
//! * **sound** — verify mode observed zero mismatches, and
//! * **model-identical** — the pruned and unpruned crawls produced the same
//!   transition graphs (compared by [`AppModel::graph_signature`], which
//!   ignores timing).
//!
//! [`AppModel::graph_signature`]: ajax_crawl::model::AppModel::graph_signature

use crate::util::{latency, TableFmt};
use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::parallel::{MpCrawler, MpReport};
use ajax_crawl::partition::{partition_urls, Partition};
use ajax_dom::hash::Fnv64;
use ajax_net::Server;
use ajax_webgen::{
    GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer, VidShareSpec,
};
use serde::Serialize;
use std::sync::Arc;

/// One site × three crawl modes.
#[derive(Debug, Clone, Serialize)]
pub struct PruneCell {
    pub site: String,
    pub pages: usize,
    /// Events fired with the planner on / off.
    pub events_pruned_on: u64,
    pub events_no_prune: u64,
    /// Events the planner skipped (planner-on crawl).
    pub pruned_events: u64,
    /// Soundness mismatches observed in verify mode (must be 0).
    pub verify_mismatches: u64,
    /// Virtual makespan with the planner on / off.
    pub makespan_on: u64,
    pub makespan_off: u64,
    /// Transition graphs identical across all three modes.
    pub model_identical: bool,
}

impl PruneCell {
    /// The planner is sound and useful in this cell: nothing diverged and
    /// (when the site has prunable handlers) events were actually saved.
    pub fn sound(&self) -> bool {
        self.verify_mismatches == 0
            && self.model_identical
            && self.events_pruned_on + self.pruned_events == self.events_no_prune
    }
}

/// The full experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PruneReport {
    pub cells: Vec<PruneCell>,
}

fn run(server: Arc<dyn Server>, partitions: &[Partition], config: CrawlConfig) -> MpReport {
    MpCrawler::new(server, latency(), config)
        .with_proc_lines(4)
        .crawl(partitions)
}

/// Timing-independent signature over every crawled page graph
/// (order-independent across partitions).
fn signature(report: &MpReport) -> u64 {
    report
        .partitions
        .iter()
        .flat_map(|p| &p.models)
        .map(|m| {
            let mut h = Fnv64::new();
            h.write_str(&m.url);
            h.write_u64(m.graph_signature());
            h.finish()
        })
        .fold(0u64, |acc, s| acc ^ s)
}

fn collect_site(site: &str, server: Arc<dyn Server>, urls: &[String]) -> PruneCell {
    let partitions = partition_urls(urls, 50);
    eprintln!("[pruning] {site}: planner on…");
    let on = run(Arc::clone(&server), &partitions, CrawlConfig::ajax());
    eprintln!("[pruning] {site}: planner off…");
    let off = run(
        Arc::clone(&server),
        &partitions,
        CrawlConfig::ajax().without_static_prune(),
    );
    eprintln!("[pruning] {site}: verify mode…");
    let verify = run(server, &partitions, CrawlConfig::ajax().verifying());

    PruneCell {
        site: site.to_string(),
        pages: urls.len(),
        events_pruned_on: on.aggregate.events_fired,
        events_no_prune: off.aggregate.events_fired,
        pruned_events: on.aggregate.pruned_events,
        verify_mismatches: verify.aggregate.prune_mismatches,
        makespan_on: on.virtual_makespan,
        makespan_off: off.virtual_makespan,
        model_identical: signature(&on) == signature(&off) && signature(&off) == signature(&verify),
    }
}

/// Runs the experiment over a `videos`-page VidShare site and a
/// `pages`-page NewsShare site.
pub fn collect(videos: u32, pages: u32) -> PruneReport {
    let vid_spec = VidShareSpec::small(videos);
    let vid_urls: Vec<String> = (0..videos).map(|v| vid_spec.watch_url(v)).collect();
    let vid = collect_site(
        "vidshare",
        Arc::new(VidShareServer::new(vid_spec)),
        &vid_urls,
    );

    let news_spec = NewsSpec::small(pages);
    let news_urls: Vec<String> = (0..pages).map(|p| news_spec.page_url(p)).collect();
    let news = collect_site(
        "news",
        Arc::new(NewsShareServer::new(news_spec)),
        &news_urls,
    );

    PruneReport {
        cells: vec![vid, news],
    }
}

impl PruneReport {
    /// Renders the experiment as a table.
    pub fn render(&self) -> String {
        let mut table = TableFmt::new(vec![
            "site",
            "pages",
            "events (prune)",
            "events (no prune)",
            "pruned",
            "mismatches",
            "makespan on (s)",
            "makespan off (s)",
            "model identical",
        ]);
        for c in &self.cells {
            table.row(vec![
                c.site.clone(),
                c.pages.to_string(),
                c.events_pruned_on.to_string(),
                c.events_no_prune.to_string(),
                c.pruned_events.to_string(),
                c.verify_mismatches.to_string(),
                format!("{:.1}", c.makespan_on as f64 / 1e6),
                format!("{:.1}", c.makespan_off as f64 / 1e6),
                if c.model_identical { "yes" } else { "NO" }.to_string(),
            ]);
        }
        format!(
            "Static crawl planner — events saved, soundness verified\n{}",
            table.render()
        )
    }

    /// True when every cell is sound (zero mismatches, identical models,
    /// pruned + fired = baseline).
    pub fn all_sound(&self) -> bool {
        self.cells.iter().all(PruneCell::sound)
    }

    /// True when at least one site actually had prunable events — guards
    /// against the experiment silently degenerating into a no-op.
    pub fn any_pruned(&self) -> bool {
        self.cells.iter().any(|c| c.pruned_events > 0)
    }
}

/// One site × three crawl modes for the **equivalence/commutativity**
/// planner (`--prune equiv` semantics): heuristic off (the baseline),
/// heuristic on, and verify mode (claimed-barren events fire anyway and
/// state changes count as mismatches).
#[derive(Debug, Clone, Serialize)]
pub struct EquivCell {
    pub site: String,
    pub pages: usize,
    /// Events fired with the heuristic on / off.
    pub events_on: u64,
    pub events_off: u64,
    /// Events claimed barren by a class representative's verdict.
    pub equiv_pruned: u64,
    /// Barren verdicts carried across commuting transitions.
    pub commute_pruned: u64,
    /// Claims contradicted in verify mode (must be 0 on the gallery site).
    pub verify_mismatches: u64,
    /// States discovered with the heuristic on / off (must agree).
    pub states_on: usize,
    pub states_off: usize,
    /// Virtual makespan with the heuristic on / off.
    pub makespan_on: u64,
    pub makespan_off: u64,
    /// Transition graphs identical across all three modes.
    pub model_identical: bool,
}

impl EquivCell {
    /// Fraction of baseline events the heuristic skipped, in percent.
    pub fn reduction_pct(&self) -> f64 {
        if self.events_off == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.events_on as f64 / self.events_off as f64)
    }

    /// The heuristic is sound on this cell: verify observed zero
    /// mismatches, the models agree, and every skipped event is accounted
    /// for by exactly one claim.
    pub fn sound(&self) -> bool {
        self.verify_mismatches == 0
            && self.model_identical
            && self.states_on == self.states_off
            && self.events_on + self.equiv_pruned + self.commute_pruned == self.events_off
    }

    /// The acceptance bar: ≥ 40% fewer fired events.
    pub fn meets_target(&self) -> bool {
        self.reduction_pct() >= 40.0
    }
}

fn states(report: &MpReport) -> usize {
    report
        .partitions
        .iter()
        .flat_map(|p| &p.models)
        .map(|m| m.states.len())
        .sum()
}

fn collect_equiv_site(site: &str, server: Arc<dyn Server>, urls: &[String]) -> EquivCell {
    let partitions = partition_urls(urls, 50);
    eprintln!("[equiv] {site}: heuristic off…");
    let off = run(Arc::clone(&server), &partitions, CrawlConfig::ajax());
    eprintln!("[equiv] {site}: heuristic on…");
    let on = run(
        Arc::clone(&server),
        &partitions,
        CrawlConfig::ajax().with_equiv_prune(),
    );
    eprintln!("[equiv] {site}: verify mode…");
    let verify = run(
        server,
        &partitions,
        CrawlConfig::ajax().with_equiv_prune().verifying(),
    );

    EquivCell {
        site: site.to_string(),
        pages: urls.len(),
        events_on: on.aggregate.events_fired,
        events_off: off.aggregate.events_fired,
        equiv_pruned: on.aggregate.equiv_pruned_events,
        commute_pruned: on.aggregate.commute_pruned_events,
        verify_mismatches: verify.aggregate.equiv_mismatches,
        states_on: states(&on),
        states_off: states(&off),
        makespan_on: on.virtual_makespan,
        makespan_off: off.virtual_makespan,
        model_identical: signature(&on) == signature(&off) && signature(&off) == signature(&verify),
    }
}

/// The equivalence-pruning experiment: the redundant-handler Gallery site
/// crawled off / on / verify.
#[derive(Debug, Clone, Serialize)]
pub struct EquivReport {
    pub cells: Vec<EquivCell>,
}

/// Runs the equivalence experiment over an `albums`-page Gallery site.
pub fn collect_equiv(albums: u32) -> EquivReport {
    let spec = GallerySpec::small(albums);
    let urls: Vec<String> = (0..albums).map(|a| spec.page_url(a)).collect();
    let gallery = collect_equiv_site("gallery", Arc::new(GalleryServer::new(spec)), &urls);
    EquivReport {
        cells: vec![gallery],
    }
}

impl EquivReport {
    /// Renders the experiment as a table.
    pub fn render(&self) -> String {
        let mut table = TableFmt::new(vec![
            "site",
            "pages",
            "events (equiv)",
            "events (off)",
            "class claims",
            "commute claims",
            "reduction",
            "mismatches",
            "makespan on (s)",
            "makespan off (s)",
            "model identical",
        ]);
        for c in &self.cells {
            table.row(vec![
                c.site.clone(),
                c.pages.to_string(),
                c.events_on.to_string(),
                c.events_off.to_string(),
                c.equiv_pruned.to_string(),
                c.commute_pruned.to_string(),
                format!("{:.1}%", c.reduction_pct()),
                c.verify_mismatches.to_string(),
                format!("{:.1}", c.makespan_on as f64 / 1e6),
                format!("{:.1}", c.makespan_off as f64 / 1e6),
                if c.model_identical { "yes" } else { "NO" }.to_string(),
            ]);
        }
        format!(
            "Handler equivalence classes + commutativity — events saved, soundness verified\n{}",
            table.render()
        )
    }

    /// True when every cell is sound.
    pub fn all_sound(&self) -> bool {
        self.cells.iter().all(EquivCell::sound)
    }

    /// True when every cell clears the ≥ 40% reduction bar.
    pub fn meets_target(&self) -> bool {
        self.cells.iter().all(EquivCell::meets_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_sound() {
        let report = collect(6, 3);
        assert!(report.all_sound(), "{}", report.render());
        assert!(report.any_pruned(), "vidshare must have prunable hovers");
        let vid = &report.cells[0];
        assert!(
            vid.events_pruned_on < vid.events_no_prune,
            "pruning must cut fired events on vidshare"
        );
    }

    #[test]
    fn equiv_sweep_is_sound_and_meets_target() {
        let report = collect_equiv(3);
        assert!(report.all_sound(), "{}", report.render());
        assert!(report.meets_target(), "{}", report.render());
        let cell = &report.cells[0];
        assert!(cell.equiv_pruned > 0, "class claims expected");
        assert!(cell.commute_pruned > 0, "commute claims expected");
    }
}
