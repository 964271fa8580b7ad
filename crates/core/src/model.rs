//! The AJAX application model (thesis ch. 2).
//!
//! An AJAX page is modelled as a **transition graph**: nodes are application
//! states (DOM trees, identified by a content hash), edges are transitions
//! annotated with the triggering event (source element, trigger type, action
//! and modified targets). An AJAX *web site* adds the traditional hyperlink
//! graph between pages.

use ajax_dom::EventType;
use ajax_net::Micros;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a state inside one [`AppModel`]. State 0 is always the
/// initial state (the page as loaded + `onload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StateId(pub u32);

impl StateId {
    /// The initial state of every page.
    pub(crate) const INITIAL: StateId = StateId(0);

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One application state: a snapshot of the user-visible document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct State {
    pub id: StateId,
    /// FNV-64 hash of the normalized DOM: the name the state is stored
    /// under (model files, the index, replay's divergence check). The
    /// crawler tells states apart by the normalized DOM itself.
    pub hash: u64,
    /// Extracted text content (what the indexer consumes).
    pub text: String,
    /// Full serialized DOM, kept only when the crawl config asks for it
    /// (needed by result aggregation / replay; heavy for bulk crawls).
    pub dom_html: Option<String>,
}

/// A transition: `from --event--> to`, annotated as in Table 2.1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    pub from: StateId,
    pub to: StateId,
    /// Stable description of the source element (`span#nextArrow`).
    pub source: String,
    /// The trigger (click, mouseover, …).
    pub event: EventType,
    /// The handler code — the *action* that caused the transition; replaying
    /// it from `from` reproduces `to` (result aggregation, §5.4).
    pub action: String,
    /// The modified target elements (Table 2.1's "Target(s)" column, e.g.
    /// `div#recent_comments`), computed by DOM diff between the two states.
    pub targets: Vec<String>,
}

/// One `(url, body)` pair fetched from the server during the crawl; stored so
/// that replay (result aggregation) can run fully offline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FetchRecord {
    pub url: String,
    pub body: String,
}

/// The application model of one AJAX page: the transition graph plus the
/// replay data and crawl accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    /// The page URL (all states share it — that is the crux of the problem).
    pub url: String,
    pub states: Vec<State>,
    pub transitions: Vec<Transition>,
    /// The raw page HTML, kept when replay support is enabled.
    pub page_html: Option<String>,
    /// XHR bodies fetched during crawling, for offline replay.
    pub fetches: Vec<FetchRecord>,
    /// Virtual time the page crawl took.
    pub crawl_micros: Micros,
    /// Events whose XHR exhausted all retries: the resulting DOM state could
    /// not be materialized, so the transition graph is missing edges here
    /// (graceful degradation — the page is still indexed, just incompletely).
    pub partial_states: u32,
}

impl AppModel {
    /// Creates an empty model for `url`.
    pub fn new(url: impl Into<String>) -> Self {
        Self {
            url: url.into(),
            states: Vec::new(),
            transitions: Vec::new(),
            page_html: None,
            fetches: Vec::new(),
            crawl_micros: 0,
            partial_states: 0,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Looks a state up by id.
    pub(crate) fn state(&self, id: StateId) -> Option<&State> {
        self.states.get(id.index())
    }

    /// Duplicate detection (§3.2): the state whose normalized DOM is
    /// exactly `text`, given the normalized DOM of every state in order
    /// (the model stores only its hash; the crawler holds the texts).
    /// Identity is the text. [`State::hash`] is the name a text is stored
    /// under and is not consulted: two texts that collide under FNV stay
    /// two states.
    pub(crate) fn state_by_text<'t>(
        &self,
        texts: impl IntoIterator<Item = &'t str>,
        text: &str,
    ) -> Option<&State> {
        let at = texts.into_iter().position(|known| known == text)?;
        self.states.get(at)
    }

    /// Adds a state and returns its id. The caller must have checked for
    /// duplicates via [`Self::state_by_text`] first.
    pub fn add_state(&mut self, hash: u64, text: String, dom_html: Option<String>) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State {
            id,
            hash,
            text,
            dom_html,
        });
        id
    }

    /// Adds a transition (idempotent: duplicate edges are dropped).
    pub fn add_transition(&mut self, transition: Transition) {
        if !self.transitions.iter().any(|t| {
            t.from == transition.from
                && t.to == transition.to
                && t.source == transition.source
                && t.event == transition.event
        }) {
            self.transitions.push(transition);
        }
    }

    /// Outgoing transitions of `state`.
    pub(crate) fn outgoing(&self, state: StateId) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// The shortest event path from the initial state to `target` — the path
    /// result aggregation replays (§5.4, step 1).
    pub fn event_path(&self, target: StateId) -> Option<Vec<&Transition>> {
        if target == StateId::INITIAL {
            return Some(Vec::new());
        }
        if target.index() >= self.states.len() {
            return None;
        }
        // BFS over transitions.
        let mut pred: HashMap<StateId, &Transition> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([StateId::INITIAL]);
        while let Some(s) = queue.pop_front() {
            for t in self.outgoing(s) {
                if t.to != StateId::INITIAL && !pred.contains_key(&t.to) {
                    pred.insert(t.to, t);
                    if t.to == target {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = target;
                        while cur != StateId::INITIAL {
                            let t = pred[&cur];
                            path.push(t);
                            cur = t.from;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(t.to);
                }
            }
        }
        None
    }

    /// Adjacency lists over states (for AJAXRank).
    pub fn state_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.states.len()];
        for t in &self.transitions {
            adj[t.from.index()].push(t.to.index());
        }
        adj
    }

    /// A stable FNV-64 signature of the transition graph: state hashes plus
    /// `(from, to, source, event, action)` per transition, ignoring timing
    /// and replay payloads. Two crawls explored the same application iff
    /// their signatures agree — the cheap equality the static-prune
    /// soundness checks (bench experiment, `--verify`) rely on.
    pub fn graph_signature(&self) -> u64 {
        let mut h = ajax_dom::hash::Fnv64::new();
        for s in &self.states {
            h.write_u64(s.hash);
        }
        for t in &self.transitions {
            h.write_u64(t.from.0 as u64);
            h.write_u64(t.to.0 as u64);
            h.write_str(&t.source);
            h.write_str(t.event.attr_name());
            h.write_str(&t.action);
        }
        h.finish()
    }
}

/// The model of a whole AJAX web site: the page models plus the traditional
/// hyperlink graph (Fig. 2.3).
/// Nothing outside the tests builds one.
#[cfg(test)]
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SiteModel {
    pub pages: Vec<AppModel>,
    /// `url -> outbound urls` (hyperlinks, not AJAX transitions).
    pub hyperlinks: HashMap<String, Vec<String>>,
    /// `url -> PageRank` from the precrawl phase.
    pub pagerank: HashMap<String, f64>,
}

#[cfg(test)]
impl SiteModel {
    /// Total number of states over all pages.
    pub(crate) fn total_states(&self) -> usize {
        self.pages.iter().map(AppModel::state_count).sum()
    }

    /// Finds a page model by URL.
    pub(crate) fn page(&self, url: &str) -> Option<&AppModel> {
        self.pages.iter().find(|p| p.url == url)
    }

    /// Order-independent signature over all page graphs (see
    /// [`AppModel::graph_signature`]): page signatures are combined by
    /// XOR keyed on URL, so partition order does not matter.
    pub(crate) fn graph_signature(&self) -> u64 {
        self.pages
            .iter()
            .map(|p| {
                let mut h = ajax_dom::hash::Fnv64::new();
                h.write_str(&p.url);
                h.write_u64(p.graph_signature());
                h.finish()
            })
            .fold(0u64, |acc, s| acc ^ s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_chain() -> AppModel {
        // s0 -> s1 -> s2, plus a shortcut s0 -> s2.
        let mut m = AppModel::new("http://x/watch?v=1");
        let s0 = m.add_state(10, "zero".into(), None);
        let s1 = m.add_state(11, "one".into(), None);
        let s2 = m.add_state(12, "two".into(), None);
        assert_eq!(s0, StateId::INITIAL);
        m.add_transition(Transition {
            from: s0,
            to: s1,
            source: "span#next".into(),
            event: EventType::Click,
            action: "nextPage()".into(),
            targets: vec!["div#recent_comments".into()],
        });
        m.add_transition(Transition {
            from: s1,
            to: s2,
            source: "span#next".into(),
            event: EventType::Click,
            action: "nextPage()".into(),
            targets: vec!["div#recent_comments".into()],
        });
        m.add_transition(Transition {
            from: s0,
            to: s2,
            source: "span.pagelink".into(),
            event: EventType::Click,
            action: "gotoPage(3)".into(),
            targets: vec!["div#recent_comments".into()],
        });
        m
    }

    #[test]
    fn duplicate_detection_by_text_whatever_the_hashes() {
        // Stored hashes that lie: all three states carry the FNV of "<p>c</p>".
        let mut m = model_with_chain();
        let texts = ["<p>a</p>", "<p>b</p>", "<p>c</p>"];
        for state in &mut m.states {
            state.hash = ajax_dom::fnv64_str(texts[2]);
        }
        let found = |text: &str| m.state_by_text(texts, text).map(|s| s.id);
        assert_eq!(found("<p>a</p>"), Some(StateId(0)));
        assert_eq!(found("<p>c</p>"), Some(StateId(2)));
        assert_eq!(found("<p>d</p>"), None, "a new text is a new state");
        // A state the crawl has not kept a text for yet is not a match.
        assert_eq!(
            m.state_by_text(texts[..1].iter().copied(), "<p>b</p>"),
            None
        );
    }

    #[test]
    fn duplicate_transitions_dropped() {
        let mut m = model_with_chain();
        let before = m.transitions.len();
        m.add_transition(Transition {
            from: StateId(0),
            to: StateId(1),
            source: "span#next".into(),
            event: EventType::Click,
            action: "nextPage()".into(),
            targets: Vec::new(),
        });
        assert_eq!(m.transitions.len(), before);
    }

    #[test]
    fn event_path_finds_shortest() {
        let m = model_with_chain();
        let path = m.event_path(StateId(2)).unwrap();
        assert_eq!(path.len(), 1, "shortcut s0->s2 must win over s0->s1->s2");
        assert_eq!(path[0].action, "gotoPage(3)");
        let path1 = m.event_path(StateId(1)).unwrap();
        assert_eq!(path1.len(), 1);
        assert!(m.event_path(StateId::INITIAL).unwrap().is_empty());
        assert!(m.event_path(StateId(77)).is_none());
    }

    #[test]
    fn unreachable_state_has_no_path() {
        let mut m = model_with_chain();
        let lonely = m.add_state(99, "lonely".into(), None);
        assert!(m.event_path(lonely).is_none());
    }

    #[test]
    fn adjacency() {
        let m = model_with_chain();
        let adj = m.state_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![2]);
        assert!(adj[2].is_empty());
    }

    #[test]
    fn site_model_totals() {
        let mut site = SiteModel::default();
        site.pages.push(model_with_chain());
        site.pages.push(AppModel::new("http://x/watch?v=2"));
        assert_eq!(site.total_states(), 3);
        assert!(site.page("http://x/watch?v=1").is_some());
        assert!(site.page("http://x/watch?v=9").is_none());
    }

    #[test]
    fn graph_signature_ignores_timing_but_not_structure() {
        let mut a = model_with_chain();
        let mut b = model_with_chain();
        a.crawl_micros = 1;
        b.crawl_micros = 999_999;
        b.fetches.push(FetchRecord {
            url: "http://x/frag".into(),
            body: "cached".into(),
        });
        assert_eq!(a.graph_signature(), b.graph_signature());

        b.add_transition(Transition {
            from: StateId(2),
            to: StateId(0),
            source: "span#back".into(),
            event: EventType::Click,
            action: "gotoPage(1)".into(),
            targets: Vec::new(),
        });
        assert_ne!(a.graph_signature(), b.graph_signature());
    }

    #[test]
    fn site_signature_is_partition_order_independent() {
        let mut forward = SiteModel::default();
        forward.pages.push(model_with_chain());
        forward.pages.push(AppModel::new("http://x/watch?v=2"));
        let mut reversed = SiteModel::default();
        reversed.pages.push(AppModel::new("http://x/watch?v=2"));
        reversed.pages.push(model_with_chain());
        assert_eq!(forward.graph_signature(), reversed.graph_signature());
        let empty = SiteModel::default();
        assert_ne!(forward.graph_signature(), empty.graph_signature());
    }
}
