//! Static page analysis: the JavaScript invocation graph of a fetched page
//! (thesis §4.1), assembled from all its `<script>` blocks, together with
//! the page's event bindings — everything Tables 4.1–4.3 tabulate, derived
//! before any event is fired — plus the interprocedural effect summaries
//! and diagnostics the static crawl planner consumes (`crawler.rs`,
//! `docs/static-analysis.md`).

use ajax_dom::events::{collect_event_bindings, EventBinding};
use ajax_dom::{parse_document, Document, EventType, NodeId};
use ajax_js::ast::Program;
use ajax_js::callgraph::InvocationGraph;
use ajax_js::effects::{graph_diagnostics, EffectAnalysis, EffectSummary};
use ajax_js::{parse_program, AbsLoc, JsError, LocSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

// Downstream layers (engine CLI, bench) consume diagnostics through this
// module; re-export the catalogue so they need not depend on `ajax-js`.
pub use ajax_js::effects::{Diagnostic, Lint, Severity};

/// The cached effect verdict for one handler snippet, computed once at
/// [`analyze_page`] time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BindingVerdict {
    /// Transitive effects of running the snippet at top level.
    pub summary: EffectSummary,
    /// False when the snippet failed to parse (verdicts are then
    /// worst-case: impure, no provable network reach).
    pub parsed: bool,
}

impl BindingVerdict {
    /// True when firing the handler provably cannot change application
    /// state — the static-prune criterion.
    pub fn is_pure(&self) -> bool {
        self.parsed && self.summary.is_pure()
    }

    /// True when the handler can cause server traffic.
    pub(crate) fn reaches_network(&self) -> bool {
        self.parsed && self.summary.reaches_network()
    }
}

/// Result of statically analyzing a page.
#[derive(Debug, Clone)]
pub struct PageAnalysis {
    /// The merged invocation graph of all scripts.
    pub graph: InvocationGraph,
    /// All event bindings in the initial DOM.
    pub bindings: Vec<EventBinding>,
    /// Scripts that failed to parse (analysis is best-effort).
    pub script_errors: usize,
    /// Per-function effect summaries (fixpoint over the graph).
    pub effects: EffectAnalysis,
    /// Every `id` attribute present in the initial document.
    pub dom_ids: BTreeSet<String>,
    /// Effect verdicts per distinct handler snippet, keyed by source text.
    verdicts: BTreeMap<String, BindingVerdict>,
    /// For every element id in the initial document, the set of element
    /// ids on its ancestor path. Refines string-level location overlap
    /// into document containment: an `innerHTML` write to an ancestor
    /// destroys every descendant, so `#box` conflicts with `#inner` when
    /// `inner` sits inside `box` even though the id strings are disjoint.
    id_ancestors: BTreeMap<String, BTreeSet<String>>,
    /// Lazily-computed, memoized diagnostics — the analyze subcommand and
    /// the crawl planner both ask; the lint pass runs at most once.
    diagnostics: OnceLock<Vec<Diagnostic>>,
}

impl PageAnalysis {
    /// True when `binding` can cause server traffic (its handler calls,
    /// directly or transitively, a hot node). O(1): verdicts are computed
    /// once at analysis time, not re-derived per query.
    pub fn binding_reaches_network(&self, binding: &EventBinding) -> bool {
        self.verdicts
            .get(&binding.code)
            .is_some_and(BindingVerdict::reaches_network)
    }

    /// The bindings that can cause server traffic — the events a
    /// network-conscious crawler would prioritize.
    #[cfg(test)]
    pub(crate) fn network_bindings(&self) -> Vec<&EventBinding> {
        self.bindings
            .iter()
            .filter(|b| self.binding_reaches_network(b))
            .collect()
    }

    /// The cached verdict for a handler snippet seen in the initial DOM.
    pub fn verdict(&self, code: &str) -> Option<&BindingVerdict> {
        self.verdicts.get(code)
    }

    /// The diagnostics of this page, sorted most severe first: graph-level
    /// lints (undefined calls, redefinitions, dynamic hot calls, dead
    /// writes, self-races, unbounded write sets) plus page-level lints
    /// that need the document — parse failures, dead functions, DOM writes
    /// to ids absent from the initial document, write-set conflicts
    /// between co-bound handlers, stateless handlers, and handlers whose
    /// termination is unprovable. The pass is memoized: the first call
    /// computes, every later call returns the same slice.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        self.diagnostics.get_or_init(|| self.compute_diagnostics())
    }

    fn compute_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for _ in 0..self.script_errors {
            out.push(Diagnostic::new(
                Lint::ScriptParseError,
                "script",
                "a <script> block failed to parse; analysis of it was skipped",
            ));
        }
        out.extend(graph_diagnostics(&self.graph, &self.effects));

        // Dead functions: unreachable from top-level code or any handler.
        let mut live: BTreeSet<String> = self.graph.top_level_calls.iter().cloned().collect();
        let mut frontier: Vec<String> = live.iter().cloned().collect();
        for code in self.verdicts.keys() {
            if let Ok(program) = ajax_js::parse_program(code) {
                let snippet = ajax_js::effects::local_effects_of_snippet(&program.body);
                for site in snippet.call_sites {
                    if live.insert(site.callee.clone()) {
                        frontier.push(site.callee);
                    }
                }
            }
        }
        while let Some(name) = frontier.pop() {
            if let Some(f) = self.graph.function(&name) {
                for callee in &f.calls {
                    if live.insert(callee.clone()) {
                        frontier.push(callee.clone());
                    }
                }
            }
        }
        for f in self.graph.functions() {
            if !live.contains(f.name.as_str()) {
                out.push(Diagnostic::new(
                    Lint::DeadFunction,
                    f.name.clone(),
                    "declared but unreachable from any handler or top-level call",
                ));
            }
        }

        // Constant DOM-write targets that do not exist in the document.
        for (name, sum) in self.effects.summaries() {
            for id in &sum.dom_write_ids {
                if !self.dom_ids.contains(id) {
                    out.push(Diagnostic::new(
                        Lint::DomWriteUnknownId,
                        name,
                        format!("writes to element id `{id}`, absent from the document"),
                    ));
                }
            }
        }

        // SA009: two handlers bound on one element whose DOM write sets
        // may touch the same location — the firing order is observable.
        let mut by_node: BTreeMap<NodeId, Vec<&EventBinding>> = BTreeMap::new();
        for b in &self.bindings {
            by_node.entry(b.node).or_default().push(b);
        }
        for bound in by_node.values().filter(|bs| bs.len() >= 2) {
            for (i, a) in bound.iter().enumerate() {
                for b in &bound[i + 1..] {
                    if a.code == b.code {
                        continue;
                    }
                    let (Some(va), Some(vb)) =
                        (self.verdicts.get(&a.code), self.verdicts.get(&b.code))
                    else {
                        continue;
                    };
                    if !va.parsed || !vb.parsed {
                        continue;
                    }
                    let (wa, wb) = (va.summary.write_locs(), vb.summary.write_locs());
                    if !wa.is_empty() && !wb.is_empty() && self.locs_conflict(&wa, &wb) {
                        out.push(Diagnostic::new(
                            Lint::WriteSetConflict,
                            a.source.clone(),
                            format!(
                                "`{}` ({}) and `{}` ({}) write overlapping DOM locations; the firing order is observable",
                                a.code, a.event_type, b.code, b.event_type
                            ),
                        ));
                    }
                }
            }
        }

        // Per-snippet verdicts: stateless and possibly-non-terminating.
        for (code, verdict) in &self.verdicts {
            if verdict.is_pure() {
                out.push(Diagnostic::new(
                    Lint::StatelessHandler,
                    code.clone(),
                    "handler is provably stateless; the crawler can skip firing it",
                ));
            }
            if verdict.parsed && verdict.summary.may_not_terminate {
                out.push(Diagnostic::new(
                    Lint::NonTerminating,
                    code.clone(),
                    "handler reaches a loop or call cycle; termination is not provable",
                ));
            }
        }

        out.sort_by(|a, b| {
            b.severity()
                .cmp(&a.severity())
                .then_with(|| a.lint.code().cmp(b.lint.code()))
                .then_with(|| a.subject.cmp(&b.subject))
        });
        out
    }

    /// The highest severity present, if any diagnostic fired.
    #[cfg(test)]
    pub(crate) fn max_severity(&self) -> Option<ajax_js::effects::Severity> {
        self.diagnostics().iter().map(|d| d.severity()).max()
    }

    /// The canonical equivalence signature of a handler snippet, or `None`
    /// when the snippet failed to parse (unparsed handlers carry
    /// worst-case verdicts and never share a class).
    #[cfg(test)]
    pub(crate) fn equiv_signature(&self, code: &str) -> Option<String> {
        self.verdicts
            .get(code)
            .filter(|v| v.parsed)
            .map(|v| canonical_signature(&v.summary))
    }

    /// Handler equivalence classes over the page's parsed handler
    /// snippets: two handlers land in one class iff their effect
    /// summaries are isomorphic up to a renaming of symbols
    /// ([`canonical_signature`]). Classes are numbered deterministically
    /// by their lexicographically smallest member.
    ///
    /// Equivalence is a *heuristic* crawl fact, not a semantic proof —
    /// summaries abstract away written values and control flow, so two
    /// same-class handlers may still behave differently on a concrete
    /// state (docs/static-analysis.md). The planner therefore only lets
    /// class members inherit a representative's **barren** verdict, and
    /// `--verify` cross-checks every inherited verdict at runtime.
    pub fn equiv_classes(&self) -> Vec<EquivClass> {
        let mut by_sig: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (code, v) in &self.verdicts {
            if v.parsed {
                by_sig
                    .entry(canonical_signature(&v.summary))
                    .or_default()
                    .push(code.clone());
            }
        }
        let mut classes: Vec<(String, Vec<String>)> = by_sig.into_iter().collect();
        classes.sort_by(|a, b| a.1[0].cmp(&b.1[0]));
        classes
            .into_iter()
            .enumerate()
            .map(|(i, (signature, members))| EquivClass {
                id: i as u32,
                signature,
                members,
            })
            .collect()
    }

    /// True when the two handler snippets provably commute: firing A then
    /// B reaches the same state as B then A, so the planner may skip one
    /// interleaving order. Requires both snippets parsed; delegates to
    /// [`PageAnalysis::summaries_commute`].
    pub fn commutes(&self, a: &str, b: &str) -> bool {
        match (self.verdicts.get(a), self.verdicts.get(b)) {
            (Some(va), Some(vb)) if va.parsed && vb.parsed => {
                self.summaries_commute(&va.summary, &vb.summary)
            }
            _ => false,
        }
    }

    /// Commutativity over effect summaries: `A` and `B` commute when
    /// neither is opaque or calls undefined functions, their global
    /// write sets are disjoint from the other's read+write sets, and
    /// their DOM write sets are disjoint (under [`Self::locs_conflict`],
    /// which includes document containment) from the other's DOM
    /// read+write sets. XHR effects are ignored: the modeled servers are
    /// stateless and deterministic, so requests cannot interfere.
    pub fn summaries_commute(&self, a: &EffectSummary, b: &EffectSummary) -> bool {
        if a.opaque || b.opaque || !a.calls_undefined.is_empty() || !b.calls_undefined.is_empty() {
            return false;
        }
        let globals_race = a
            .writes_globals
            .iter()
            .any(|g| b.writes_globals.contains(g) || b.reads_globals.contains(g))
            || b.writes_globals.iter().any(|g| a.reads_globals.contains(g));
        if globals_race {
            return false;
        }
        // read_locs() already includes write targets, so one check per
        // direction covers write/write, write/read and read/write pairs.
        !self.locs_conflict(&a.write_locs(), &b.read_locs())
            && !self.locs_conflict(&b.write_locs(), &a.read_locs())
    }

    /// True when a location of `a` and a location of `b` may denote the
    /// same element (string-level overlap) **or** elements in an
    /// ancestor/descendant relation in the initial document (an
    /// `innerHTML` write to an ancestor replaces every descendant).
    ///
    /// Caveat: the ancestry relation is computed from the *initial*
    /// document; elements created dynamically by handlers are invisible
    /// to it (docs/static-analysis.md).
    pub fn locs_conflict(&self, a: &LocSet, b: &LocSet) -> bool {
        if a.overlaps(b) {
            return true;
        }
        let (ea, eb) = (self.expand_locs(a), self.expand_locs(b));
        ea.iter().any(|x| {
            eb.iter().any(|y| {
                self.id_ancestors.get(x).is_some_and(|anc| anc.contains(y))
                    || self.id_ancestors.get(y).is_some_and(|anc| anc.contains(x))
            })
        })
    }

    /// Expands a location set to the concrete document ids it may denote.
    fn expand_locs(&self, s: &LocSet) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for loc in s.iter() {
            match loc {
                AbsLoc::Id(x) => {
                    out.insert(x.clone());
                }
                AbsLoc::Prefix(p) => {
                    out.extend(
                        self.dom_ids
                            .iter()
                            .filter(|i| i.starts_with(p.as_str()))
                            .cloned(),
                    );
                }
                AbsLoc::Any => out.extend(self.dom_ids.iter().cloned()),
            }
        }
        out
    }
}

/// One handler-equivalence class (see [`PageAnalysis::equiv_classes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivClass {
    /// Dense class id, deterministic across runs.
    pub id: u32,
    /// The canonical (symbol-renamed) summary signature all members share.
    pub signature: String,
    /// Member handler codes, lexicographically sorted.
    pub members: Vec<String>,
}

/// Renders an effect summary with every symbol replaced by a
/// first-occurrence index in its namespace, so two summaries get equal
/// strings iff they are isomorphic up to a renaming of DOM ids/prefixes
/// (`k`), XHR URLs (`u`), global names (`g`) and undefined callees (`f`).
/// Namespaces are separate and channel kinds are kept apart, so a
/// concrete-id write never matches a prefix write.
pub fn canonical_signature(sum: &EffectSummary) -> String {
    struct Renamer {
        prefix: char,
        seen: Vec<String>,
    }
    impl Renamer {
        fn new(prefix: char) -> Self {
            Renamer {
                prefix,
                seen: Vec::new(),
            }
        }
        fn rename(&mut self, sym: &str) -> String {
            let idx = self.seen.iter().position(|s| s == sym).unwrap_or_else(|| {
                self.seen.push(sym.to_string());
                self.seen.len() - 1
            });
            format!("{}{idx}", self.prefix)
        }
        fn set(&mut self, syms: &BTreeSet<String>) -> String {
            syms.iter()
                .map(|s| self.rename(s))
                .collect::<Vec<_>>()
                .join(",")
        }
    }
    fn nums(set: &BTreeSet<usize>) -> String {
        set.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
    let mut dom = Renamer::new('k');
    let mut url = Renamer::new('u');
    let mut glo = Renamer::new('g');
    let mut cal = Renamer::new('f');
    format!(
        "wi[{}];wp[{}];wq[{}];wd{};ri[{}];rp[{}];rq[{}];rd{};uc[{}];up[{}];uq[{}];ud{};gr[{}];gw[{}];cu[{}];nt{};op{}",
        dom.set(&sum.dom_write_ids),
        dom.set(&sum.dom_write_prefixes),
        nums(&sum.dom_write_params),
        u8::from(sum.dom_write_dynamic),
        dom.set(&sum.dom_read_ids),
        dom.set(&sum.dom_read_prefixes),
        nums(&sum.dom_read_params),
        u8::from(sum.dom_read_dynamic),
        url.set(&sum.xhr_const_urls),
        url.set(&sum.xhr_url_prefixes),
        nums(&sum.xhr_url_params),
        u8::from(sum.xhr_dynamic),
        glo.set(&sum.reads_globals),
        glo.set(&sum.writes_globals),
        cal.set(&sum.calls_undefined),
        u8::from(sum.may_not_terminate),
        u8::from(sum.opaque),
    )
}

/// A fetched page as parsed, before any of it ran: what the browser
/// executes and the static analyses read, so a page load parses once.
#[derive(Debug)]
pub struct ParsedPage {
    /// The document as the server sent it.
    pub doc: Document,
    /// Every non-blank `<script>` body in document order, parsed.
    pub scripts: Vec<Result<Program, JsError>>,
}

impl ParsedPage {
    /// Parses `html` and the scripts it carries.
    pub fn parse(html: &str) -> Self {
        let doc = parse_document(html);
        let scripts = doc
            .script_sources()
            .iter()
            .map(|src| parse_program(src))
            .collect();
        Self { doc, scripts }
    }

    /// The merged invocation graph of the scripts that parsed, and how
    /// many did not.
    pub(crate) fn invocation_graph(&self) -> (InvocationGraph, usize) {
        let mut graph = InvocationGraph::default();
        let mut script_errors = 0;
        for script in &self.scripts {
            match script {
                Ok(program) => graph.merge(InvocationGraph::from_program(program)),
                Err(_) => script_errors += 1,
            }
        }
        (graph, script_errors)
    }
}

/// Analyzes a page's HTML statically.
pub fn analyze_page(html: &str) -> PageAnalysis {
    let page = ParsedPage::parse(html);
    let (graph, script_errors) = page.invocation_graph();
    let doc = page.doc;
    let bindings = collect_event_bindings(&doc, EventType::all());
    let dom_ids: BTreeSet<String> = doc
        .walk()
        .filter_map(|id| doc.attr(id, "id").map(str::to_string))
        .collect();
    let mut id_ancestors = BTreeMap::new();
    collect_id_ancestors(&doc, doc.root(), &mut Vec::new(), &mut id_ancestors);
    let effects = EffectAnalysis::of(&graph);
    let mut verdicts = BTreeMap::new();
    for b in &bindings {
        verdicts.entry(b.code.clone()).or_insert_with(|| {
            match effects.snippet_summary_src(&b.code) {
                Ok(summary) => BindingVerdict {
                    summary,
                    parsed: true,
                },
                Err(_) => BindingVerdict::default(),
            }
        });
    }
    PageAnalysis {
        graph,
        bindings,
        script_errors,
        effects,
        dom_ids,
        verdicts,
        id_ancestors,
        diagnostics: OnceLock::new(),
    }
}

/// DFS from `node` carrying the stack of enclosing element ids; records,
/// for every element with an `id`, the set of ids on its ancestor path.
fn collect_id_ancestors(
    doc: &Document,
    node: NodeId,
    stack: &mut Vec<String>,
    out: &mut BTreeMap<String, BTreeSet<String>>,
) {
    let own_id = doc.attr(node, "id").map(str::to_string);
    if let Some(id) = &own_id {
        out.insert(id.clone(), stack.iter().cloned().collect());
        stack.push(id.clone());
    }
    let children: Vec<NodeId> = doc.children(node).collect();
    for child in children {
        collect_id_ancestors(doc, child, stack, out);
    }
    if own_id.is_some() {
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_js::effects::Severity;
    use ajax_net::server::{Request, Server};
    use ajax_webgen::{NewsShareServer, NewsSpec, VidShareServer, VidShareSpec};

    #[test]
    fn vidshare_static_analysis_matches_thesis_structure() {
        let server = VidShareServer::new(VidShareSpec::small(20));
        let spec = VidShareSpec::small(20);
        let video = (0..20)
            .find(|&v| ajax_webgen::video_meta(&spec, v).comment_pages >= 3)
            .unwrap();
        let html = server
            .handle(&Request::get(format!("/watch?v={video}").as_str()))
            .body;
        let analysis = analyze_page(&html);

        assert_eq!(analysis.script_errors, 0);
        // One hot node, like YouTube (Table 4.2's function A).
        assert_eq!(
            analysis.graph.hot_nodes(),
            vec!["getUrlXMLResponseAndFillDiv"]
        );
        // gotoPage/nextPage/prevPage reach it; trackers and loaders do not.
        let reach = analysis.graph.reaches_network();
        for f in ["gotoPage", "nextPage", "prevPage"] {
            assert!(reach.contains(f), "{f} must reach the network");
        }
        for f in ["urchinTracker", "showLoading", "initPage", "highlightTitle"] {
            assert!(!reach.contains(f), "{f} must not reach the network");
        }

        // Event classification: nav clicks are network events, the title
        // mouseover is not.
        let network: Vec<&str> = analysis
            .network_bindings()
            .iter()
            .map(|b| b.code.as_str())
            .collect();
        assert!(network.iter().all(|c| c.contains("Page")));
        assert!(network.len() >= 3, "next/prev/jumps: {network:?}");
        let mouseover = analysis
            .bindings
            .iter()
            .find(|b| b.event_type == ajax_dom::EventType::MouseOver)
            .expect("title hover binding");
        assert!(!analysis.binding_reaches_network(mouseover));
    }

    #[test]
    fn newsshare_has_two_hot_nodes() {
        let server = NewsShareServer::new(NewsSpec::small(10));
        let html = server.handle(&Request::get("/news?p=1")).body;
        let analysis = analyze_page(&html);
        assert_eq!(
            analysis.graph.hot_nodes(),
            vec!["fetchSection", "fetchStories"]
        );
        let reach = analysis.graph.reaches_network();
        assert!(reach.contains("loadSection"));
        assert!(reach.contains("moreStories"));
        assert!(!reach.contains("initNews"));
    }

    #[test]
    fn static_analysis_agrees_with_runtime_detection() {
        // The runtime hot-node registry (stack inspection during a crawl)
        // must be a subset of the statically reachable hot-node set, keyed
        // by the innermost frame at send() time.
        use crate::crawler::{CrawlConfig, Crawler};
        use ajax_net::{LatencyModel, Url};
        use std::sync::Arc;

        let spec = NewsSpec::small(10);
        let url = Url::parse(&spec.page_url(1));
        let server = Arc::new(NewsShareServer::new(spec));
        let html = server.handle(&Request::get("/news?p=1")).body;
        let static_hot: std::collections::BTreeSet<String> = analyze_page(&html)
            .graph
            .hot_nodes()
            .into_iter()
            .map(str::to_string)
            .collect();

        let mut crawler = Crawler::new(
            server as Arc<dyn ajax_net::Server>,
            LatencyModel::Zero,
            CrawlConfig::ajax().with_max_states(20),
        );
        let crawl = crawler.crawl_page(&url).unwrap();
        assert_eq!(crawl.stats.hot_nodes as usize, static_hot.len());
    }

    #[test]
    fn malformed_scripts_counted_not_fatal() {
        let analysis = analyze_page(
            "<script>function broken( {</script><script>function ok() { x.send(0); }</script>",
        );
        assert_eq!(analysis.script_errors, 1);
        assert_eq!(analysis.graph.hot_nodes(), vec!["ok"]);
        assert!(analysis
            .diagnostics()
            .iter()
            .any(|d| d.lint == Lint::ScriptParseError));
    }

    #[test]
    fn page_without_scripts() {
        let analysis = analyze_page("<p>plain old web</p>");
        assert!(analysis.graph.hot_nodes().is_empty());
        assert!(analysis.bindings.is_empty());
        assert!(analysis.diagnostics().is_empty());
        assert_eq!(analysis.max_severity(), None);
    }

    #[test]
    fn verdicts_cached_per_snippet() {
        let server = VidShareServer::new(VidShareSpec::small(20));
        let html = server.handle(&Request::get("/watch?v=0")).body;
        let analysis = analyze_page(&html);
        // The mouseover handler is pure; nav handlers are not.
        let hover = analysis.verdict("highlightTitle()").expect("hover verdict");
        assert!(hover.is_pure() && !hover.reaches_network());
        let next = analysis.verdict("nextPage()").expect("next verdict");
        assert!(!next.is_pure() && next.reaches_network());
        // Every binding has a verdict (onload included).
        for b in &analysis.bindings {
            assert!(
                analysis.verdict(&b.code).is_some(),
                "no verdict: {}",
                b.code
            );
        }
    }

    #[test]
    fn generated_sites_are_lint_clean_at_error_level() {
        let vid = VidShareServer::new(VidShareSpec::small(20));
        let news = NewsShareServer::new(NewsSpec::small(10));
        for html in [
            vid.handle(&Request::get("/watch?v=0")).body,
            news.handle(&Request::get("/news?p=1")).body,
        ] {
            let analysis = analyze_page(&html);
            let worst = analysis.max_severity();
            assert!(
                worst.is_none() || worst < Some(Severity::Error),
                "unexpected error diagnostics: {:?}",
                analysis.diagnostics()
            );
        }
    }

    #[test]
    fn vidshare_flags_stateless_hover_handler() {
        let server = VidShareServer::new(VidShareSpec::small(20));
        let html = server.handle(&Request::get("/watch?v=0")).body;
        let analysis = analyze_page(&html);
        let diags = analysis.diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| d.lint == Lint::StatelessHandler && d.subject == "highlightTitle()"),
            "{diags:?}"
        );
        // The only "dead" function is prevPage: the initial DOM renders no
        // "previous" arrow (you start on comment page 1), so it is only
        // reachable from server-injected fragments — the static-analysis
        // blind spot docs/static-analysis.md calls out.
        let dead: Vec<&str> = diags
            .iter()
            .filter(|d| d.lint == Lint::DeadFunction)
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(dead, vec!["prevPage"]);
    }

    #[test]
    fn dead_function_and_unknown_id_linted() {
        let analysis = analyze_page(
            "<script>
                function used() { document.getElementById('ghost').innerHTML = 'x'; }
                function orphan() { return 1; }
             </script>
             <div id=\"real\" onclick=\"used()\">go</div>",
        );
        let diags = analysis.diagnostics();
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::DeadFunction && d.subject == "orphan"));
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::DomWriteUnknownId && d.subject == "used"));
        assert_eq!(analysis.max_severity(), Some(Severity::Warning));
    }

    #[test]
    fn diagnostics_sorted_most_severe_first() {
        let analysis = analyze_page(
            "<script>function bad() { ghost(); }</script>
             <div onclick=\"bad()\">x</div>
             <div onmouseover=\"1 + 1\">y</div>",
        );
        let diags = analysis.diagnostics();
        assert!(diags.len() >= 2);
        for pair in diags.windows(2) {
            assert!(pair[0].severity() >= pair[1].severity());
        }
        assert_eq!(diags[0].severity(), Severity::Error);
    }

    #[test]
    fn diagnostics_memoized_single_computation() {
        let server = VidShareServer::new(VidShareSpec::small(20));
        let html = server.handle(&Request::get("/watch?v=0")).body;
        let analysis = analyze_page(&html);
        let first = analysis.diagnostics();
        let (ptr, len) = (first.as_ptr(), first.len());
        assert!(len > 0, "vidshare has at least the SA003/SA004 lints");
        // The second call must return the very same buffer, not a re-run
        // of the lint pass.
        let second = analysis.diagnostics();
        assert_eq!(second.as_ptr(), ptr);
        assert_eq!(second.len(), len);
        // max_severity goes through the same cache.
        assert!(analysis.max_severity().is_some());
        assert_eq!(analysis.diagnostics().as_ptr(), ptr);
    }

    #[test]
    fn redefined_handler_keys_equivalence_on_winning_definition() {
        // `h` is redefined mid-page: the first definition only writes the
        // DOM, the winning (last) one also writes a global — the same
        // shape as `g`. The equivalence class must be keyed on the
        // winner: h() groups with g(), not with f() (which matches the
        // losing definition's write set).
        let analysis = analyze_page(
            "<script>
                function h() { document.getElementById('x').innerHTML = 'a'; }
                function f() { document.getElementById('x').innerHTML = 'a'; }
                function g() { document.getElementById('x').innerHTML = 'a'; log = 1; }
             </script>
             <script>
                function h() { document.getElementById('x').innerHTML = 'a'; log = 1; }
             </script>
             <div id=\"x\">t</div>
             <span onclick=\"h()\">h</span>
             <span onclick=\"g()\">g</span>
             <span onclick=\"f()\">f</span>",
        );
        // The fixpoint itself already reflects the winner.
        let h = analysis.verdict("h()").expect("verdict for h()");
        assert!(h.summary.writes_globals.contains("log"), "{h:?}");
        // And so does the class structure.
        assert_eq!(
            analysis.equiv_signature("h()"),
            analysis.equiv_signature("g()")
        );
        assert_ne!(
            analysis.equiv_signature("h()"),
            analysis.equiv_signature("f()")
        );
        let classes = analysis.equiv_classes();
        let hg = classes
            .iter()
            .find(|c| c.members.contains(&"h()".to_string()))
            .unwrap();
        assert_eq!(hg.members, vec!["g()".to_string(), "h()".to_string()]);
        // The redefinition itself is still linted.
        assert!(analysis
            .diagnostics()
            .iter()
            .any(|d| d.lint == Lint::HandlerRedefinition));
    }

    #[test]
    fn row_handlers_collapse_into_one_class_up_to_renaming() {
        // Two per-row handler families with *different* id prefixes and
        // different globals: isomorphic up to renaming, hence one class.
        // The hero loader has a different shape and stays separate.
        let analysis = analyze_page(
            "<script>
                function showCaption(i) { document.getElementById('cap_' + i).innerHTML = caps; }
                function showTag(i) { document.getElementById('tag_' + i).innerHTML = tags; }
                function loadHero(i) {
                    var xhr = new XMLHttpRequest();
                    xhr.open('GET', '/photo?i=' + i, false);
                    xhr.send(null);
                    document.getElementById('hero').innerHTML = xhr.responseText;
                }
             </script>
             <div id=\"hero\" onclick=\"loadHero(1)\">photo</div>
             <div id=\"cap_0\" onclick=\"showCaption(0)\">c0</div>
             <div id=\"cap_1\" onclick=\"showCaption(1)\">c1</div>
             <div id=\"tag_0\" onclick=\"showTag(0)\">t0</div>",
        );
        let classes = analysis.equiv_classes();
        let rows = classes
            .iter()
            .find(|c| c.members.contains(&"showCaption(0)".to_string()))
            .expect("row class");
        assert_eq!(
            rows.members.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["showCaption(0)", "showCaption(1)", "showTag(0)"],
            "renaming makes cap_/tag_ families isomorphic"
        );
        let hero = classes
            .iter()
            .find(|c| c.members.contains(&"loadHero(1)".to_string()))
            .expect("hero class");
        assert_ne!(hero.signature, rows.signature);
        // Unparsed snippets never get a signature.
        assert_eq!(analysis.equiv_signature("syntax error ("), None);
    }

    #[test]
    fn commutativity_disjoint_regions_yes_shared_or_nested_no() {
        let analysis = analyze_page(
            "<script>
                function setHero() { document.getElementById('hero').innerHTML = 'x'; }
                function setCap() { document.getElementById('cap_3').innerHTML = 'y'; }
                function wipeBox() { document.getElementById('box').innerHTML = ''; }
                function readInner() { var t = document.getElementById('inner').innerHTML; return t; }
                function bumpShared() { n = n + 1; document.getElementById('hero').innerHTML = n; }
             </script>
             <div id=\"hero\" onclick=\"setHero()\">h</div>
             <div id=\"cap_3\" onclick=\"setCap()\">c</div>
             <div id=\"box\" onclick=\"wipeBox()\"><p><span id=\"inner\" onclick=\"readInner()\">i</span></p></div>
             <div onmouseover=\"bumpShared()\">n</div>",
        );
        // Disjoint DOM regions commute.
        assert!(analysis.commutes("setHero()", "setCap()"));
        // Symmetry.
        assert!(analysis.commutes("setCap()", "setHero()"));
        // Writing an ancestor destroys the descendant the other handler
        // reads — string-disjoint ids, but containment forbids reordering.
        assert!(!analysis.commutes("wipeBox()", "readInner()"));
        assert!(!analysis.commutes("readInner()", "wipeBox()"));
        // Write/write on one id never commutes.
        assert!(!analysis.commutes("setHero()", "bumpShared()"));
        // Global read-modify-write races with itself.
        assert!(!analysis.commutes("bumpShared()", "bumpShared()"));
        // Unknown snippets are never proven commuting.
        assert!(!analysis.commutes("setHero()", "nope()"));
    }

    #[test]
    fn sa009_write_set_conflict_on_co_bound_handlers() {
        let conflicted = analyze_page(
            "<script>
                function a() { document.getElementById('x').innerHTML = '1'; }
                function b() { document.getElementById('x').innerHTML = '2'; }
             </script>
             <div id=\"x\">t</div>
             <div onclick=\"a()\" onmouseover=\"b()\">both</div>",
        );
        let diags = conflicted.diagnostics();
        let conflict = diags
            .iter()
            .find(|d| d.lint == Lint::WriteSetConflict)
            .expect("SA009 fires for co-bound overlapping writes");
        assert!(conflict.message.contains("a()") && conflict.message.contains("b()"));
        assert_eq!(conflict.severity(), Severity::Warning);

        // Same handlers on *different* elements: no conflict.
        let separate = analyze_page(
            "<script>
                function a() { document.getElementById('x').innerHTML = '1'; }
                function b() { document.getElementById('x').innerHTML = '2'; }
             </script>
             <div id=\"x\">t</div>
             <div onclick=\"a()\">one</div><div onclick=\"b()\">two</div>",
        );
        assert!(!separate
            .diagnostics()
            .iter()
            .any(|d| d.lint == Lint::WriteSetConflict));

        // Co-bound but disjoint write sets: no conflict.
        let disjoint = analyze_page(
            "<script>
                function a() { document.getElementById('x').innerHTML = '1'; }
                function c() { document.getElementById('y').innerHTML = '2'; }
             </script>
             <div id=\"x\">t</div><div id=\"y\">u</div>
             <div onclick=\"a()\" onmouseover=\"c()\">both</div>",
        );
        assert!(!disjoint
            .diagnostics()
            .iter()
            .any(|d| d.lint == Lint::WriteSetConflict));
    }
}
