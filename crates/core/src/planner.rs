//! The per-page static crawl planner (docs/static-analysis.md).
//!
//! The page is effect-analyzed once, from the parse the browser loaded it
//! with. Every distinct handler source the crawl meets — in the initial
//! DOM or in a fragment the server injects later — is interned into a
//! [`SnippetId`] the first time it shows, and everything the crawler asks
//! per event is a lookup by that id: purity, equivalence class, and
//! whether two handlers commute.
//!
//! Commutativity is [`PageAnalysis::summaries_commute`] computed another
//! way: per handler a [`Footprint`] is worked out once, with its DOM
//! locations expanded to the page's interned element ids and closed under
//! the initial document's ancestor/descendant relation, so that one pair
//! costs two location-set overlaps and two id-set intersections.
//! `crates/core/tests/planner_spec.rs` holds the two to each other.
//!
//! Every reason not to fire an event goes through one
//! [`EventPlanner`] per page: the avoid list, the previous session's
//! barren events, and the three claims of the static analysis (purity,
//! equivalence class, commutativity). Its [`Skip`] names the rule.
//!
//! [`PageAnalysis::summaries_commute`]: crate::analysis::PageAnalysis::summaries_commute

use crate::analysis::{canonical_signature, ParsedPage};
use crate::browser::CrawlEnv;
use crate::crawler::{CrawlConfig, PageStats};
use crate::model::StateId;
use crate::recrawl::EventHistory;
use ajax_dom::events::{collect_event_bindings, EventBinding};
use ajax_dom::{Document, EventType};
use ajax_js::{AbsLoc, EffectAnalysis, EffectSummary, LocSet};
use ajax_obs::AttrValue;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One distinct handler source text of a page, numbered from 0 in the
/// order the crawl met them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnippetId(u32);

impl SnippetId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of a page's interned element ids: one word while the page has at
/// most 64 of them, a sorted list beyond. All sets of one page have the
/// same shape.
#[derive(Debug)]
enum IdSet {
    Bits(u64),
    Sorted(Vec<u32>),
}

impl Default for IdSet {
    fn default() -> Self {
        IdSet::Bits(0)
    }
}

impl IdSet {
    /// The set of `members`, all below `universe`.
    fn collect(universe: usize, members: impl Iterator<Item = u32>) -> Self {
        if universe <= 64 {
            IdSet::Bits(members.fold(0, |bits, id| bits | 1 << id))
        } else {
            let mut sorted: Vec<u32> = members.collect();
            sorted.sort_unstable();
            sorted.dedup();
            IdSet::Sorted(sorted)
        }
    }

    fn intersects(&self, other: &IdSet) -> bool {
        match (self, other) {
            (IdSet::Bits(a), IdSet::Bits(b)) => a & b != 0,
            (IdSet::Sorted(a), IdSet::Sorted(b)) => {
                let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
                while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                    match x.cmp(y) {
                        std::cmp::Ordering::Less => a.next(),
                        std::cmp::Ordering::Greater => b.next(),
                        std::cmp::Ordering::Equal => return true,
                    };
                }
                false
            }
            _ => unreachable!("id sets of two different pages"),
        }
    }
}

/// The element ids of a page's initial document, interned, each with the
/// ids it stands in an ancestor/descendant relation with: an `innerHTML`
/// write to an ancestor replaces every descendant, so `#box` conflicts
/// with `#inner` inside it although the id strings are disjoint. Elements
/// a handler creates later are invisible here (docs/static-analysis.md).
#[derive(Debug)]
pub struct DomIds {
    /// The distinct ids, sorted: an id's index is its interned number, and
    /// the ids under one prefix are a contiguous range.
    names: Vec<String>,
    /// Per id, sorted: every id on the ancestor path of the last element
    /// carrying it, and every id that has it on its own path.
    related: Vec<Vec<u32>>,
}

impl DomIds {
    /// Interns the ids of `doc` and records their ancestry.
    pub fn of(doc: &Document) -> Self {
        let mut names: Vec<&str> = doc.walk().filter_map(|n| doc.attr(n, "id")).collect();
        names.sort_unstable();
        names.dedup();
        let number = |id: &str| names.binary_search(&id).expect("collected above") as u32;

        // Depth-first with the stack on the heap. Per open node: its
        // remaining children, and whether it pushed an id on `enclosing`.
        let mut ancestors: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
        let mut enclosing: Vec<u32> = Vec::new();
        let mut open = vec![(doc.children(doc.root()), false)];
        while let Some((children, has_id)) = open.last_mut() {
            let Some(child) = children.next() else {
                if *has_id {
                    enclosing.pop();
                }
                open.pop();
                continue;
            };
            let own = doc.attr(child, "id").map(number);
            if let Some(id) = own {
                // A later element with the same id overwrites an earlier.
                ancestors[id as usize].clone_from(&enclosing);
                enclosing.push(id);
            }
            open.push((doc.children(child), own.is_some()));
        }

        let mut related: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
        for (id, above) in ancestors.iter().enumerate() {
            for &ancestor in above {
                related[id].push(ancestor);
                related[ancestor as usize].push(id as u32);
            }
        }
        for ids in &mut related {
            ids.sort_unstable();
            ids.dedup();
        }
        Self {
            names: names.into_iter().map(str::to_string).collect(),
            related,
        }
    }

    /// The ids of this document `locs` may denote. An id that is not in
    /// the document has no relatives and is left out.
    fn denoted(&self, locs: &LocSet) -> Vec<u32> {
        let mut out = Vec::new();
        for loc in locs.iter() {
            match loc {
                AbsLoc::Id(id) => {
                    if let Ok(i) = self.names.binary_search_by(|n| n.as_str().cmp(id)) {
                        out.push(i as u32);
                    }
                }
                AbsLoc::Prefix(p) => {
                    let start = self.names.partition_point(|n| n.as_str() < p.as_str());
                    let under = self.names[start..]
                        .iter()
                        .take_while(|n| n.starts_with(p.as_str()));
                    out.extend((start as u32..).zip(under).map(|(i, _)| i));
                }
                AbsLoc::Any => out.extend(0..self.names.len() as u32),
            }
        }
        out
    }

    /// What commutativity needs to know of a handler with effects `sum`.
    pub fn footprint(&self, sum: &EffectSummary) -> Footprint {
        if sum.opaque || !sum.calls_undefined.is_empty() {
            return Footprint::default();
        }
        let (writes, reads) = (sum.write_locs(), sum.read_locs());
        let universe = self.names.len();
        let write_related = IdSet::collect(
            universe,
            self.denoted(&writes)
                .into_iter()
                .flat_map(|id| self.related[id as usize].iter().copied()),
        );
        let read_ids = IdSet::collect(universe, self.denoted(&reads).into_iter());
        Footprint {
            may_commute: true,
            reads_globals: sum.reads_globals.clone(),
            writes_globals: sum.writes_globals.clone(),
            writes,
            reads,
            write_related,
            read_ids,
        }
    }
}

/// The part of a handler's [`EffectSummary`] that decides commutativity,
/// against one document ([`DomIds::footprint`]). The default footprint is
/// that of a handler that commutes with nothing.
#[derive(Debug, Default)]
pub struct Footprint {
    /// False for an opaque handler or one calling undefined functions.
    may_commute: bool,
    reads_globals: BTreeSet<String>,
    writes_globals: BTreeSet<String>,
    /// DOM locations written.
    writes: LocSet,
    /// DOM locations read, write targets included.
    reads: LocSet,
    /// The ids related to one `writes` may denote.
    write_related: IdSet,
    /// The ids `reads` may denote.
    read_ids: IdSet,
}

impl Footprint {
    /// True when firing the two handlers in either order provably reaches
    /// the same state: `summaries_commute` of the summaries both were
    /// made from.
    pub fn commutes(&self, other: &Footprint) -> bool {
        let races = |a: &Footprint, b: &Footprint| {
            a.writes_globals
                .iter()
                .any(|g| b.writes_globals.contains(g) || b.reads_globals.contains(g))
        };
        self.may_commute
            && other.may_commute
            && !races(self, other)
            && !races(other, self)
            && !self.clobbers(other)
            && !other.clobbers(self)
    }

    /// True when a write of `self` may land on, above or below something
    /// `other` reads or writes.
    fn clobbers(&self, other: &Footprint) -> bool {
        self.writes.overlaps(&other.reads) || self.write_related.intersects(&other.read_ids)
    }
}

/// The planner of one page crawl.
pub struct Planner {
    effects: EffectAnalysis,
    /// The page as the server sent it: ids and ancestry are those of the
    /// document before any script ran.
    doc: Document,
    /// Made from `doc` at the first commutativity question.
    dom: Option<DomIds>,
    ids: HashMap<String, SnippetId>,
    // Indexed by `SnippetId`:
    /// `None` for a snippet that does not parse: impure, in no class,
    /// commuting with nothing.
    summaries: Vec<Option<EffectSummary>>,
    /// Outer `None`: not asked yet.
    classes: Vec<Option<Option<u32>>>,
    footprints: Vec<Option<Footprint>>,
    /// Verdicts for the pair `(hi, lo)`, `hi >= lo`, at `[hi][lo]`.
    commute_memo: Vec<Vec<Option<bool>>>,
    /// Canonical signature → class id, in order of first appearance.
    sig_classes: HashMap<String, u32>,
    /// Functions the page's scripts define.
    functions: usize,
    /// Event bindings of every type in the document as sent.
    bindings: usize,
    /// `<script>` blocks that failed to parse.
    pub(crate) script_errors: usize,
}

impl Planner {
    /// Analyzes `page` and interns the handlers of its document.
    pub fn new(page: ParsedPage) -> Self {
        let (graph, script_errors) = page.invocation_graph();
        let bindings = collect_event_bindings(&page.doc, EventType::all());
        let mut planner = Planner {
            effects: EffectAnalysis::of(&graph),
            doc: page.doc,
            dom: None,
            ids: HashMap::new(),
            summaries: Vec::new(),
            classes: Vec::new(),
            footprints: Vec::new(),
            commute_memo: Vec::new(),
            sig_classes: HashMap::new(),
            functions: graph.functions().count(),
            bindings: bindings.len(),
            script_errors,
        };
        for binding in &bindings {
            planner.intern(&binding.code);
        }
        planner
    }

    /// [`Self::new`] inside a crawl: the analysis is charged like the
    /// parse of the `body_len` bytes it used to repeat, so the virtual
    /// clock reads as it always has, and leaves an `analysis.page` span.
    pub(crate) fn for_page(page: ParsedPage, body_len: usize, env: &mut CrawlEnv<'_>) -> Self {
        let start = env.net.now();
        env.charge_cpu(env.costs.parse_cost(body_len));
        let planner = Planner::new(page);
        if env.rec.is_on() {
            let count = |n: usize| AttrValue::U64(n as u64);
            env.rec.push(
                "analysis.page",
                start,
                env.net.now(),
                vec![
                    ("functions", count(planner.functions)),
                    ("bindings", count(planner.bindings)),
                    ("pure_snippets", count(planner.pure_snippets())),
                    ("script_errors", count(planner.script_errors)),
                ],
            );
        }
        planner
    }

    /// The id of handler source `code`, summarizing it if it is new.
    pub fn intern(&mut self, code: &str) -> SnippetId {
        if let Some(&id) = self.ids.get(code) {
            return id;
        }
        let id = SnippetId(self.summaries.len() as u32);
        self.summaries
            .push(self.effects.snippet_summary_src(code).ok());
        self.classes.push(None);
        self.footprints.push(None);
        self.commute_memo.push(vec![None; id.index() + 1]);
        self.ids.insert(code.to_string(), id);
        id
    }

    /// True when firing the handler provably cannot change application
    /// state.
    pub fn is_pure(&self, id: SnippetId) -> bool {
        self.summaries[id.index()]
            .as_ref()
            .is_some_and(EffectSummary::is_pure)
    }

    /// Handlers interned so far that are pure.
    fn pure_snippets(&self) -> usize {
        (0..self.summaries.len() as u32)
            .filter(|&id| self.is_pure(SnippetId(id)))
            .count()
    }

    /// The equivalence class of a handler: two handlers share one iff
    /// their summaries have one [`canonical_signature`]. `None` when the
    /// handler does not parse. Numbers are handed out in the order classes
    /// are first asked for.
    pub fn class_of(&mut self, id: SnippetId) -> Option<u32> {
        if let Some(class) = self.classes[id.index()] {
            return class;
        }
        let class = self.summaries[id.index()].as_ref().map(|sum| {
            let next = self.sig_classes.len() as u32;
            *self
                .sig_classes
                .entry(canonical_signature(sum))
                .or_insert(next)
        });
        self.classes[id.index()] = Some(class);
        class
    }

    /// True when the two handlers provably commute (symmetric).
    pub fn commutes(&mut self, a: SnippetId, b: SnippetId) -> bool {
        let (hi, lo) = (a.max(b).index(), a.min(b).index());
        if let Some(verdict) = self.commute_memo[hi][lo] {
            return verdict;
        }
        self.ensure_footprint(a);
        self.ensure_footprint(b);
        let made = |id: SnippetId| self.footprints[id.index()].as_ref().expect("made above");
        let verdict = made(a).commutes(made(b));
        self.commute_memo[hi][lo] = Some(verdict);
        verdict
    }

    fn ensure_footprint(&mut self, id: SnippetId) {
        if self.footprints[id.index()].is_none() {
            let dom = self.dom.get_or_insert_with(|| DomIds::of(&self.doc));
            self.footprints[id.index()] = Some(match &self.summaries[id.index()] {
                Some(sum) => dom.footprint(sum),
                None => Footprint::default(),
            });
        }
    }
}

/// The bookkeeping of equivalence/commutativity pruning over one page
/// crawl: which handlers are known (or claimed) barren in which state.
pub(crate) struct BarrenLedger {
    /// Per state, sorted.
    state_barren: Vec<Vec<SnippetId>>,
    /// Per state, the (parent state, action) edge that created it.
    parent_action: Vec<Option<(usize, SnippetId)>>,
    /// Of the state being expanded, by class id: was the first fired
    /// member barren?
    class_outcome: Vec<Option<bool>>,
}

impl BarrenLedger {
    /// A ledger holding the initial state.
    pub(crate) fn new() -> Self {
        Self {
            state_barren: vec![Vec::new()],
            parent_action: vec![None],
            class_outcome: Vec::new(),
        }
    }

    /// Adds the state that firing `action` in state `parent` created.
    pub(crate) fn push_state(&mut self, parent: usize, action: SnippetId) {
        self.state_barren.push(Vec::new());
        self.parent_action.push(Some((parent, action)));
    }

    /// Starts expanding `state`. A handler barren at the parent state
    /// stays barren here when the event that created this state provably
    /// commutes with it: firing order is irrelevant, so its outcome is
    /// unchanged. Breadth-first order guarantees the parent finished
    /// expanding before any child starts, so its barren set is complete.
    pub(crate) fn enter_state(&mut self, state: usize, planner: &mut Planner) {
        self.class_outcome.clear();
        if let Some((parent, action)) = self.parent_action[state] {
            let inherited: Vec<SnippetId> = self.state_barren[parent]
                .iter()
                .copied()
                .filter(|&barren| planner.commutes(action, barren))
                .collect();
            // Nothing is recorded for a state before it is expanded.
            debug_assert!(self.state_barren[state].is_empty());
            self.state_barren[state] = inherited;
        }
    }

    /// The rule, if any, that claims `snippet` barren in `state`.
    pub(crate) fn claim(
        &self,
        state: usize,
        snippet: SnippetId,
        planner: &mut Planner,
    ) -> Option<Skip> {
        if self.state_barren[state].binary_search(&snippet).is_ok() {
            return Some(Skip::Commute);
        }
        let class = planner.class_of(snippet)? as usize;
        (self.class_outcome.get(class) == Some(&Some(true))).then_some(Skip::Equiv)
    }

    /// Records `snippet` as barren in `state`.
    pub(crate) fn mark_barren(&mut self, state: usize, snippet: SnippetId) {
        let barren = &mut self.state_barren[state];
        if let Err(at) = barren.binary_search(&snippet) {
            barren.insert(at, snippet);
        }
    }

    /// Records that `snippet` was fired in `state` and whether that left
    /// the state unchanged. The first fired member of a class stays its
    /// representative for the state.
    pub(crate) fn record_firing(
        &mut self,
        state: usize,
        snippet: SnippetId,
        barren: bool,
        planner: &mut Planner,
    ) {
        if barren {
            self.mark_barren(state, snippet);
        }
        if let Some(class) = planner.class_of(snippet) {
            let class = class as usize;
            if self.class_outcome.len() <= class {
                self.class_outcome.resize(class + 1, None);
            }
            self.class_outcome[class].get_or_insert(barren);
        }
    }
}

/// How far the planner may go in claiming events barren without firing
/// them. The levels are ordered: equivalence needs the purity analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Prune {
    /// Every event fires, as in the plain Alg. 3.1.1 loop.
    Off,
    /// Events whose handlers are statically proven pure are skipped.
    Pure,
    /// Also handler equivalence classes and commutativity: a heuristic,
    /// since summaries abstract away written values.
    Equiv,
}

/// The rule that claims an event need not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Skip {
    /// The handler matches an avoid pattern: the "no update events" guard
    /// of §4.3.
    Avoided,
    /// The previous session saw the event barren (thesis ch. 10).
    KnownBarren,
    /// The handler is statically proven pure.
    Pure,
    /// The handler was barren in the parent state (or earlier in this
    /// one), and the event that led here commutes with it.
    Commute,
    /// The first fired member of the handler's class was barren here.
    Equiv,
}

/// What firing an event did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fired {
    /// The handler threw.
    JsError,
    /// An XHR exhausted its retries: the state is not materialized.
    Partial,
    /// The state did not change.
    Unchanged,
    /// The event led to an already-known state.
    Duplicate,
    /// The event led to this new state.
    NewState(StateId),
    /// The event led to a new state past the state cap.
    StateCap,
}

impl Fired {
    /// The `result` attribute of the `crawl.event` span.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Fired::JsError => "js_error",
            Fired::Partial => "partial",
            Fired::Unchanged => "unchanged",
            Fired::Duplicate | Fired::NewState(_) => "transition",
            Fired::StateCap => "state_cap",
        }
    }
}

/// Every reason not to fire an event of one page crawl: one question per
/// binding ([`Self::decide`]) and one record of the answer
/// ([`Self::record`]).
pub(crate) struct EventPlanner<'c> {
    config: &'c CrawlConfig,
    /// The previous session's outcomes.
    history: Option<&'c EventHistory>,
    /// This session's outcomes, for the next one.
    new_history: EventHistory,
    /// From `Prune::Pure` on.
    planner: Option<Planner>,
    /// At `Prune::Equiv`.
    ledger: Option<BarrenLedger>,
    /// The handler of each binding of the state being expanded.
    snippets: Vec<SnippetId>,
}

impl<'c> EventPlanner<'c> {
    /// The planner of one page, analyzing `page` unless `config` prunes
    /// nothing.
    pub(crate) fn new(
        config: &'c CrawlConfig,
        page: ParsedPage,
        body_len: usize,
        env: &mut CrawlEnv<'_>,
        history: Option<&'c EventHistory>,
    ) -> Self {
        Self {
            config,
            history,
            new_history: EventHistory::default(),
            planner: (config.prune >= Prune::Pure).then(|| Planner::for_page(page, body_len, env)),
            ledger: (config.prune >= Prune::Equiv).then(BarrenLedger::new),
            snippets: Vec::new(),
        }
    }

    /// Starts expanding `state`, whose events are `bindings`.
    pub(crate) fn enter_state(&mut self, state: usize, bindings: &[EventBinding]) {
        self.snippets.clear();
        if let Some(planner) = &mut self.planner {
            self.snippets
                .extend(bindings.iter().map(|b| planner.intern(&b.code)));
            if let Some(ledger) = &mut self.ledger {
                ledger.enter_state(state, planner);
            }
        }
    }

    /// The rule, if any, that claims `binding` — the `at`-th of `state` —
    /// need not fire.
    pub(crate) fn decide(
        &mut self,
        state: usize,
        at: usize,
        binding: &EventBinding,
    ) -> Option<Skip> {
        let code = binding.code.as_str();
        if self
            .config
            .avoid_actions
            .iter()
            .any(|pattern| contains_ignore_case(code, pattern))
        {
            return Some(Skip::Avoided);
        }
        if self
            .history
            .is_some_and(|h| h.is_barren(&binding.source, binding.event_type, code))
        {
            return Some(Skip::KnownBarren);
        }
        let (planner, &snippet) = (self.planner.as_mut()?, self.snippets.get(at)?);
        if planner.is_pure(snippet) {
            return Some(Skip::Pure);
        }
        self.ledger.as_ref()?.claim(state, snippet, planner)
    }

    /// Whether an event with this claim fires: an unclaimed one always,
    /// a claim of the static analysis only in verify mode.
    pub(crate) fn fires(&self, claim: Option<Skip>) -> bool {
        match claim {
            None => true,
            Some(Skip::Avoided | Skip::KnownBarren) => false,
            Some(Skip::Pure | Skip::Commute | Skip::Equiv) => self.config.verify,
        }
    }

    /// Records what became of `binding`, the `at`-th of `state`, and counts
    /// its claim in `stats`: skipped under `claim` (`fired` is `None`), or
    /// fired. A skipped event counts as barren, except an avoided one,
    /// which was never observed. A firing that changed the state against a
    /// claim is a mismatch of the claiming rule.
    pub(crate) fn record(
        &mut self,
        stats: &mut PageStats,
        state: usize,
        at: usize,
        binding: &EventBinding,
        claim: Option<Skip>,
        fired: Option<Fired>,
    ) {
        match claim {
            Some(Skip::Avoided | Skip::KnownBarren) => stats.events_skipped += 1,
            Some(Skip::Pure) => stats.pruned_events += 1,
            Some(Skip::Commute) => stats.commute_pruned_events += 1,
            Some(Skip::Equiv) => stats.equiv_pruned_events += 1,
            None => {}
        }
        let snippet = self.snippets.get(at).copied();
        let changed = match fired {
            None if claim == Some(Skip::Avoided) => return,
            None => {
                if let (Some(ledger), Some(s), Some(Skip::Commute | Skip::Equiv)) =
                    (&mut self.ledger, snippet, claim)
                {
                    ledger.mark_barren(state, s);
                }
                false
            }
            Some(fired) => {
                if let (Some(ledger), Some(planner), Some(s)) =
                    (&mut self.ledger, &mut self.planner, snippet)
                {
                    if let Fired::NewState(_) = fired {
                        ledger.push_state(state, s);
                    }
                    // For later members of its class and for barren
                    // inheritance into child states.
                    ledger.record_firing(state, s, fired == Fired::Unchanged, planner);
                }
                match fired {
                    Fired::JsError | Fired::Partial => return,
                    Fired::Unchanged => false,
                    Fired::Duplicate | Fired::NewState(_) | Fired::StateCap => {
                        match claim {
                            Some(Skip::Pure) => stats.prune_mismatches += 1,
                            Some(Skip::Commute | Skip::Equiv) => stats.equiv_mismatches += 1,
                            _ => {}
                        }
                        true
                    }
                }
            }
        };
        self.new_history
            .record(&binding.source, binding.event_type, &binding.code, changed);
    }

    /// Counts the page's script errors in `stats` and hands over the
    /// history for the next session.
    pub(crate) fn finish(self, stats: &mut PageStats) -> EventHistory {
        if let Some(planner) = &self.planner {
            stats.script_errors = planner.script_errors as u64;
        }
        self.new_history
    }
}

/// Case-insensitive ASCII substring test (an empty needle is in nothing).
/// Allocates nothing: the guards run it per binding and pattern.
pub(crate) fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
    !needle.is_empty()
        && haystack
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle))
}
