//! The crawling algorithms (thesis ch. 3 and 4).
//!
//! Three flavours, all driven by [`CrawlConfig`]:
//!
//! * **Traditional** — JavaScript disabled, "not even the `onload` event":
//!   fetch + parse, one state per page (the thesis' baseline, §7.1.2).
//! * **Basic AJAX** (Alg. 3.1.1) — breadth-first event invocation with
//!   rollback and duplicate detection by content hash, every AJAX call going
//!   to the network.
//! * **Heuristic AJAX** (Alg. 4.2.1) — same, plus the hot-node cache
//!   intercepting repeated server calls, keyed by URL (`hotnode.rs`).

use crate::analysis::ParsedPage;
use crate::browser::{Browser, BrowserSnapshot, CrawlEnv};
use crate::hotnode::HotNodeCache;
use crate::model::{AppModel, StateId, Transition};
use crate::planner::{contains_ignore_case, EventPlanner, Fired, Prune};
use crate::recrawl::EventHistory;
use ajax_dom::events::{collect_event_bindings, EventBinding};
use ajax_dom::{parse_document, EventType};
use ajax_net::fault::FaultPlan;
use ajax_net::sched::Task;
use ajax_net::{LatencyModel, Micros, NetClient, Response, Server, Url};
use ajax_obs::{AttrValue, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Virtual CPU cost model. The defaults are calibrated so the VidShare
/// workload reproduces the thesis' overhead *shape*: AJAX ≈ an order of
/// magnitude per page over traditional crawling but only ~2× per state
/// (Table 7.2), with model maintenance — not JavaScript — dominating the
/// non-network cost (§7.2.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuCostModel {
    /// Nanoseconds per parsed HTML byte.
    pub parse_nanos_per_byte: u64,
    /// Nanoseconds per interpreter step.
    pub js_nanos_per_step: u64,
    /// Nanoseconds per hashed byte (duplicate detection).
    pub hash_nanos_per_byte: u64,
    /// Microseconds per rollback (snapshot restore before each event).
    pub rollback_micros: u64,
    /// Microseconds of model maintenance per new state.
    pub state_micros: u64,
    /// Microseconds per recorded transition.
    pub transition_micros: u64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        Self::thesis_default()
    }
}

impl CpuCostModel {
    /// The calibrated default (see module docs).
    pub(crate) fn thesis_default() -> Self {
        Self {
            parse_nanos_per_byte: 150,
            js_nanos_per_step: 2_000,
            hash_nanos_per_byte: 600,
            rollback_micros: 10_000,
            state_micros: 4_000,
            transition_micros: 1_000,
        }
    }

    /// A zero-cost model (unit tests that only care about structure).
    pub(crate) fn free() -> Self {
        Self {
            parse_nanos_per_byte: 0,
            js_nanos_per_step: 0,
            hash_nanos_per_byte: 0,
            rollback_micros: 0,
            state_micros: 0,
            transition_micros: 0,
        }
    }

    /// Cost of parsing `bytes` of HTML.
    pub(crate) fn parse_cost(&self, bytes: usize) -> Micros {
        (bytes as u64 * self.parse_nanos_per_byte) / 1_000
    }

    /// Cost of `steps` interpreter steps.
    pub(crate) fn js_cost(&self, steps: u64) -> Micros {
        (steps * self.js_nanos_per_step) / 1_000
    }

    /// Cost of hashing `bytes`.
    pub(crate) fn hash_cost(&self, bytes: usize) -> Micros {
        (bytes as u64 * self.hash_nanos_per_byte) / 1_000
    }
}

/// Per-request resilience knobs, all in *virtual* microseconds so degraded
/// crawls stay deterministic. Applied to page fetches and in-event XHR
/// fetches alike.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per request, counting the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_micros: Micros,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_factor: f64,
    /// Hard cap on a single backoff sleep.
    pub max_backoff_micros: Micros,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter/2, 1 + jitter/2]` derived from
    /// the URL and attempt number (no shared RNG state — reproducible under
    /// any thread schedule).
    pub jitter: f64,
    /// Per-request virtual time budget across all attempts (0 = unlimited).
    /// Once exceeded, no further retry is attempted.
    pub budget_micros: Micros,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_micros: 100_000,
            backoff_factor: 2.0,
            max_backoff_micros: 5_000_000,
            jitter: 0.5,
            budget_micros: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries at all — the pre-resilience behavior.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Returns a copy with a different attempt cap.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Whether `status` is worth retrying: server-side errors (5xx), request
    /// timeout (408) and throttling (429). Client errors like 404 are
    /// permanent.
    pub(crate) fn retry_status(&self, status: u16) -> bool {
        status >= 500 || status == 408 || status == 429
    }

    /// The virtual backoff before retry number `attempt` (1-based: the wait
    /// after the first failed attempt is `backoff(url, 1)`). Exponential
    /// with a deterministic per-(url, attempt) jitter.
    pub(crate) fn backoff(&self, url: &str, attempt: u32) -> Micros {
        if self.base_backoff_micros == 0 {
            return 0;
        }
        let exp = self
            .backoff_factor
            .max(1.0)
            .powi(attempt.saturating_sub(1) as i32);
        let nominal = (self.base_backoff_micros as f64 * exp)
            .min(self.max_backoff_micros.max(self.base_backoff_micros) as f64);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let roll = {
            let h = ajax_dom::fnv64_str(&format!("backoff|{url}|{attempt}"));
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let factor = 1.0 + jitter * (roll - 0.5);
        (nominal * factor).round() as Micros
    }
}

/// Crawl configuration — the `AJAXConfig` of thesis ch. 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// `TRADITIONAL_CRAWLING`: when true, JavaScript is disabled entirely.
    pub traditional: bool,
    /// `USE_DEBUGGER`: the hot-node caching policy (ch. 4).
    pub hot_node_policy: bool,
    /// Maximum states per page, counting the initial one
    /// (`SACR_NUM_OF_ADDITIONAL_STATES + 1`).
    pub max_states: usize,
    /// Hard cap on events fired per page (guards infinite event invocation,
    /// §3.2).
    pub max_events_per_page: usize,
    /// Which user events to trigger (§3.2: "focus on the most important").
    pub event_types: Vec<EventType>,
    /// Interpreter fuel per page (guards infinite loops, §3.2).
    pub js_fuel: u64,
    /// Keep serialized DOMs + page HTML for state reconstruction (§5.4).
    pub store_dom: bool,
    /// Handlers containing any of these (case-insensitive) substrings are
    /// never fired — the "no update events" guard of §4.3 (e.g. a crawler
    /// must not click Delete buttons in a mail client).
    pub avoid_actions: Vec<String>,
    /// Focused crawling (§7.2.2, ch. 10): when non-empty, only states whose
    /// text contains at least one of these keywords (case-insensitive) are
    /// *expanded* (their events fired). An off-topic page stops after its
    /// initial state — indexed like a traditional page — saving its whole
    /// AJAX budget for relevant content.
    pub focus_keywords: Vec<String>,
    /// Virtual CPU cost model.
    pub costs: CpuCostModel,
    /// Retry policy for page GETs and in-event XHR fetches.
    pub retry: RetryPolicy,
    /// How far the crawl planner (docs/static-analysis.md) may go in
    /// skipping events without firing them: the page is effect-analyzed
    /// once, and an event whose handler is proven pure ([`Prune::Pure`]),
    /// or claimed barren by an equivalence class or across a commuting
    /// event ([`Prune::Equiv`]), is skipped and counted in
    /// [`PageStats::pruned_events`], [`PageStats::equiv_pruned_events`] or
    /// [`PageStats::commute_pruned_events`].
    pub prune: Prune,
    /// Soundness cross-check for the planner: every pure, class or
    /// commutativity claim fires anyway, and a state change counts as a
    /// mismatch of the rule that made the claim
    /// ([`PageStats::prune_mismatches`] or [`PageStats::equiv_mismatches`]).
    pub verify: bool,
    /// Crawl checkpoint cadence (docs/robustness.md): when a
    /// [`Checkpointer`](crate::checkpoint::Checkpointer) is attached, a
    /// durable snapshot is committed after every this-many newly crawled
    /// pages. Ignored when no checkpointer is attached.
    pub checkpoint_every: usize,
}

impl CrawlConfig {
    /// The full AJAX crawler with the hot-node policy (Alg. 4.2.1) — the
    /// configuration the thesis used for YouTube10000.
    pub fn ajax() -> Self {
        Self {
            traditional: false,
            hot_node_policy: true,
            max_states: 11,
            max_events_per_page: 400,
            event_types: EventType::user_events().to_vec(),
            js_fuel: 2_000_000,
            store_dom: false,
            avoid_actions: ["delete", "remove", "destroy", "logout"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            focus_keywords: Vec::new(),
            costs: CpuCostModel::thesis_default(),
            retry: RetryPolicy::default(),
            prune: Prune::Pure,
            verify: false,
            checkpoint_every: 64,
        }
    }

    /// The basic AJAX crawler without caching (Alg. 3.1.1) — the baseline of
    /// the caching experiments (Figs. 7.5–7.7).
    pub fn ajax_no_cache() -> Self {
        Self {
            hot_node_policy: false,
            ..Self::ajax()
        }
    }

    /// Traditional crawling: JS disabled, first state only.
    pub fn traditional() -> Self {
        Self {
            traditional: true,
            ..Self::ajax()
        }
    }

    /// Returns a copy with a different additional-state cap.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states.max(1);
        self
    }

    /// Returns a copy that stores DOM snapshots for replay.
    pub fn storing_dom(mut self) -> Self {
        self.store_dom = true;
        self
    }

    /// Returns a focused-crawling copy (§7.2.2): only states mentioning one
    /// of `keywords` are expanded.
    pub fn focused_on<I: IntoIterator<Item = S>, S: Into<String>>(mut self, keywords: I) -> Self {
        self.focus_keywords = keywords.into_iter().map(Into::into).collect();
        self
    }

    /// Returns a copy with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with the static crawl planner disabled (every event
    /// fires, as in the plain Alg. 3.1.1 loop).
    pub fn without_static_prune(mut self) -> Self {
        self.prune = Prune::Off;
        self
    }

    /// Returns a copy with handler-equivalence + commutativity pruning
    /// enabled ([`Prune::Equiv`]).
    pub fn with_equiv_prune(mut self) -> Self {
        self.prune = Prune::Equiv;
        self
    }

    /// Returns a copy in verify mode: every event the planner claims fires
    /// anyway, and a state change counts as a soundness mismatch.
    pub fn verifying(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Returns a copy with a different checkpoint cadence (min 1 page).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }
}

/// Per-page crawl accounting (raw material of the ch. 7 experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageStats {
    /// Events fired (Alg. 3.1.1's loop iterations).
    pub events_fired: u64,
    /// Events whose handler attempted at least one AJAX call — the thesis'
    /// "events leading to network communication" before caching.
    pub events_with_ajax: u64,
    /// AJAX calls that reached the network (excluding the initial page GET).
    pub ajax_network_calls: u64,
    /// AJAX calls served by the hot-node cache.
    pub cache_hits: u64,
    /// Distinct hot nodes (server-fetching functions) identified on the page.
    pub hot_nodes: u64,
    /// Names of the functions behind `hot_nodes`; merged by set union so
    /// cross-page / cross-partition aggregates count each distinct function
    /// once.
    pub hot_functions: std::collections::BTreeSet<String>,
    /// Events skipped (update-event guard or barren-event history).
    pub events_skipped: u64,
    /// Events whose handler was statically proven pure by the crawl
    /// planner: skipped without firing, or — in verify mode — fired and
    /// cross-checked (docs/static-analysis.md).
    pub pruned_events: u64,
    /// Verify-mode soundness failures of the purity claim: a statically
    /// "pure" handler changed the state when fired. Anything non-zero is
    /// an analysis bug.
    pub prune_mismatches: u64,
    /// Events skipped because an equivalence-class sibling was observed
    /// barren in the same state (or — in verify mode — fired and
    /// cross-checked anyway).
    pub equiv_pruned_events: u64,
    /// Events skipped because their barren verdict was carried into this
    /// state from the parent state across a provably commuting event.
    pub commute_pruned_events: u64,
    /// Verify-mode failures of the class and commutativity claims: an
    /// event claimed barren by either changed the state when fired. Unlike
    /// `prune_mismatches`, a non-zero count here is an *expected* outcome
    /// on pages where the heuristic overreaches — it is why
    /// [`Prune::Equiv`] is not the default.
    pub equiv_mismatches: u64,
    /// `<script>` blocks the static analysis failed to parse (best-effort;
    /// zero when the planner is disabled).
    pub script_errors: u64,
    /// States left unexpanded by the focused-crawling filter.
    pub states_not_expanded: u64,
    /// Events that produced an already-known state (duplicates detected).
    pub duplicates: u64,
    /// JS errors swallowed during crawling.
    pub js_errors: u64,
    /// States discovered (incl. initial).
    pub states: u64,
    /// Transitions recorded.
    pub transitions: u64,
    /// In-event (and load-time) XHR fetches that completed with a non-2xx
    /// status or exhausted their retries.
    pub failed_xhr: u64,
    /// Events abandoned because an XHR exhausted every retry — the resulting
    /// DOM state was not materialized (see `AppModel::partial_states`).
    pub partial_states: u64,
    /// Fetch attempts beyond the first (page GETs and XHRs).
    pub fetch_retries: u64,
    /// Total virtual crawl time for the page.
    pub crawl_micros: Micros,
    /// Portion spent on the network.
    pub network_micros: Micros,
    /// Portion spent sleeping between retries (backoff).
    pub backoff_micros: Micros,
    /// Portion spent on CPU (parse, JS, hashing, model maintenance).
    pub cpu_micros: Micros,
}

impl PageStats {
    /// Merges another page's stats into an aggregate.
    pub fn merge(&mut self, other: &PageStats) {
        self.events_fired += other.events_fired;
        self.events_with_ajax += other.events_with_ajax;
        self.ajax_network_calls += other.ajax_network_calls;
        self.cache_hits += other.cache_hits;
        // Union the hot-function names: `max` undercounted whenever two
        // pages/partitions discovered different hot nodes, and a plain sum
        // double-counts functions shared across pages of the same app.
        self.hot_functions
            .extend(other.hot_functions.iter().cloned());
        self.hot_nodes = if self.hot_functions.is_empty() {
            self.hot_nodes + other.hot_nodes
        } else {
            self.hot_functions.len() as u64
        };
        self.events_skipped += other.events_skipped;
        self.pruned_events += other.pruned_events;
        self.prune_mismatches += other.prune_mismatches;
        self.equiv_pruned_events += other.equiv_pruned_events;
        self.commute_pruned_events += other.commute_pruned_events;
        self.equiv_mismatches += other.equiv_mismatches;
        self.script_errors += other.script_errors;
        self.states_not_expanded += other.states_not_expanded;
        self.duplicates += other.duplicates;
        self.js_errors += other.js_errors;
        self.states += other.states;
        self.transitions += other.transitions;
        self.failed_xhr += other.failed_xhr;
        self.partial_states += other.partial_states;
        self.fetch_retries += other.fetch_retries;
        self.crawl_micros += other.crawl_micros;
        self.network_micros += other.network_micros;
        self.backoff_micros += other.backoff_micros;
        self.cpu_micros += other.cpu_micros;
    }
}

/// The result of crawling one page.
#[derive(Debug, Clone)]
pub struct PageCrawl {
    pub model: AppModel,
    pub stats: PageStats,
    /// The CPU/network segment trace, consumed by the parallel scheduler.
    pub trace: Task,
}

/// The terminal condition of the last failed attempt of a retried fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LastError {
    /// A retryable HTTP status (5xx / 408 / 429).
    Http(u16),
    /// The request timed out.
    Timeout,
    /// The connection dropped mid-transfer.
    Dropped,
}

/// Why a retried fetch ultimately failed — the low-level counterpart of
/// [`CrawlError`], used by the in-event XHR path (which degrades instead of
/// aborting the page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FetchFailure {
    /// A non-retryable status (e.g. 404): the response is handed back so XHR
    /// callers can deliver it to the script, browser-style.
    Http { response: Response, attempts: u32 },
    /// Every attempt failed with a retryable condition.
    Exhausted {
        url: String,
        attempts: u32,
        last: LastError,
    },
}

/// Crawl failures. JS errors are *not* failures (they are recorded in the
/// stats and the crawl continues); only transport-level problems on the
/// page's own GET are. The taxonomy drives the transient/permanent
/// classification of the parallel crawler's re-enqueue + quarantine logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrawlError {
    /// Non-retryable, non-2xx response for the page itself (e.g. 404) —
    /// permanent: retrying cannot help.
    Http {
        url: String,
        status: u16,
        attempts: u32,
    },
    /// Every attempt timed out — transient: the host may come back.
    Timeout { url: String, attempts: u32 },
    /// Every attempt's connection dropped mid-transfer — transient.
    Truncated { url: String, attempts: u32 },
    /// Every attempt drew a retryable HTTP error (5xx / 408 / 429) —
    /// transient (the server may recover), but quarantined after enough
    /// page-level re-crawls.
    Exhausted {
        url: String,
        status: u16,
        attempts: u32,
    },
}

impl CrawlError {
    /// Builds the page-level error from a failed (retried) page GET.
    pub(crate) fn from_fetch(url: &Url, failure: FetchFailure) -> Self {
        match failure {
            FetchFailure::Http { response, attempts } => CrawlError::Http {
                url: url.to_string(),
                status: response.status,
                attempts,
            },
            FetchFailure::Exhausted {
                url,
                attempts,
                last,
            } => match last {
                LastError::Timeout => CrawlError::Timeout { url, attempts },
                LastError::Dropped => CrawlError::Truncated { url, attempts },
                LastError::Http(status) => CrawlError::Exhausted {
                    url,
                    status,
                    attempts,
                },
            },
        }
    }

    /// Transient errors are worth re-enqueuing at the end of the partition;
    /// permanent ones (client errors) are not.
    pub(crate) fn is_transient(&self) -> bool {
        !matches!(self, CrawlError::Http { .. })
    }
}

// Hand-written serde impls (the vendored derive handles unit-variant enums
// only): a tagged object `{"kind": ..., "url": ..., "status"?, "attempts"}`
// so checkpoint files can carry the failure taxonomy across a crash.
impl Serialize for CrawlError {
    fn serialize(&self) -> serde::Value {
        let mut map = serde::Map::new();
        let (kind, url, status, attempts) = match self {
            CrawlError::Http {
                url,
                status,
                attempts,
            } => ("http", url, Some(*status), *attempts),
            CrawlError::Timeout { url, attempts } => ("timeout", url, None, *attempts),
            CrawlError::Truncated { url, attempts } => ("truncated", url, None, *attempts),
            CrawlError::Exhausted {
                url,
                status,
                attempts,
            } => ("exhausted", url, Some(*status), *attempts),
        };
        map.insert("kind".to_string(), serde::Value::Str(kind.to_string()));
        map.insert("url".to_string(), serde::Value::Str(url.clone()));
        if let Some(status) = status {
            map.insert("status".to_string(), serde::Value::U64(status as u64));
        }
        map.insert("attempts".to_string(), serde::Value::U64(attempts as u64));
        serde::Value::Object(map)
    }
}

impl Deserialize for CrawlError {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        let bad = |what: &str| serde::DeError::new(format!("CrawlError: {what}"));
        let obj = value.as_object().ok_or_else(|| bad("expected object"))?;
        let field = |name: &str| obj.get(name).ok_or_else(|| bad(&format!("missing {name}")));
        let kind = field("kind")?.as_str().ok_or_else(|| bad("kind"))?;
        let url = field("url")?
            .as_str()
            .ok_or_else(|| bad("url"))?
            .to_string();
        let attempts: u32 = match field("attempts")? {
            serde::Value::U64(v) => *v as u32,
            _ => return Err(bad("attempts")),
        };
        let status = || -> Result<u16, serde::DeError> {
            match field("status")? {
                serde::Value::U64(v) => Ok(*v as u16),
                _ => Err(bad("status")),
            }
        };
        match kind {
            "http" => Ok(CrawlError::Http {
                url,
                status: status()?,
                attempts,
            }),
            "timeout" => Ok(CrawlError::Timeout { url, attempts }),
            "truncated" => Ok(CrawlError::Truncated { url, attempts }),
            "exhausted" => Ok(CrawlError::Exhausted {
                url,
                status: status()?,
                attempts,
            }),
            other => Err(bad(&format!("unknown kind {other:?}"))),
        }
    }
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Http { url, status, .. } => write!(f, "HTTP {status} fetching {url}"),
            CrawlError::Timeout { url, attempts } => {
                write!(f, "timeout fetching {url} ({attempts} attempts)")
            }
            CrawlError::Truncated { url, attempts } => {
                write!(f, "connection dropped fetching {url} ({attempts} attempts)")
            }
            CrawlError::Exhausted {
                url,
                status,
                attempts,
            } => write!(
                f,
                "retries exhausted fetching {url} (last HTTP {status}, {attempts} attempts)"
            ),
        }
    }
}

impl std::error::Error for CrawlError {}

/// The `SimpleAjaxCrawler`: crawls pages one at a time over its own network
/// client.
pub struct Crawler {
    net: NetClient,
    config: CrawlConfig,
    recorder: Recorder,
}

impl Crawler {
    /// Creates a crawler against `server` with the given latency model.
    pub fn new(server: Arc<dyn Server>, latency: LatencyModel, config: CrawlConfig) -> Self {
        Self {
            net: NetClient::new(server, latency),
            config,
            recorder: Recorder::Off,
        }
    }

    /// Attaches a deterministic fault plan to the crawler's network client.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.net = self.net.with_fault_plan(plan);
        self
    }

    /// Attaches a span recorder; pass [`Recorder::enabled()`] to trace the
    /// crawl on the virtual clock (`Recorder::Off` is the zero-cost default).
    pub(crate) fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Drains the spans recorded so far (empty when tracing is disabled).
    pub(crate) fn take_spans(&mut self) -> Vec<ajax_obs::SpanEvent> {
        self.recorder.take()
    }

    /// The crawler's network client (for reading aggregate statistics).
    pub(crate) fn net(&self) -> &NetClient {
        &self.net
    }

    /// Crawls one page, building its application model (Alg. 3.1.1 /
    /// Alg. 4.2.1 depending on the configuration).
    pub fn crawl_page(&mut self, url: &Url) -> Result<PageCrawl, CrawlError> {
        self.crawl_page_with_history(url, None)
            .map(|(crawl, _)| crawl)
    }

    /// Like [`Self::crawl_page`], additionally consuming the previous
    /// session's [`EventHistory`] (events known barren are skipped — the
    /// repetitive-crawling optimization of thesis ch. 10) and producing the
    /// updated history for the next session.
    pub(crate) fn crawl_page_with_history(
        &mut self,
        url: &Url,
        history: Option<&EventHistory>,
    ) -> Result<(PageCrawl, EventHistory), CrawlError> {
        let start_time = self.net.now();
        let start_net = self.net.stats().network_micros;
        let start_wait = self.net.stats().wait_micros;
        let mut stats = PageStats::default();
        let mut trace_segments = Vec::new();
        let mut cache = HotNodeCache::new();

        let mut model = AppModel::new(url.to_string());

        let new_history = {
            let mut env = CrawlEnv::new(
                &mut self.net,
                &mut cache,
                self.config.hot_node_policy,
                &self.config.costs,
                self.config.retry,
                &mut trace_segments,
                &mut self.recorder,
            );

            let response = match env.fetch_with_retry(url) {
                Ok((response, _attempts)) => response,
                Err(failure) => return Err(CrawlError::from_fetch(url, failure)),
            };
            if self.config.store_dom {
                model.page_html = Some(response.body.clone());
            }

            let new_history = if self.config.traditional {
                Self::crawl_traditional(&self.config, &response.body, &mut model, &mut env);
                EventHistory::default()
            } else {
                Self::crawl_ajax(
                    &self.config,
                    url,
                    &response.body,
                    &mut model,
                    &mut stats,
                    &mut env,
                    history,
                )
            };
            env.flush_trace();
            stats.fetch_retries = env.fetch_retries;
            new_history
        };

        let hot_stats = cache.stats();
        stats.ajax_network_calls = hot_stats.network_calls;
        stats.cache_hits = hot_stats.cache_hits;
        stats.hot_nodes = hot_stats.hot_nodes;
        stats.hot_functions = hot_stats.hot_functions.clone();
        stats.states = model.state_count() as u64;
        stats.transitions = model.transitions.len() as u64;
        stats.crawl_micros = self.net.now() - start_time;
        stats.network_micros = self.net.stats().network_micros - start_net;
        stats.backoff_micros = self.net.stats().wait_micros - start_wait;
        stats.cpu_micros = stats.crawl_micros - stats.network_micros - stats.backoff_micros;
        model.partial_states = stats.partial_states as u32;
        model.crawl_micros = stats.crawl_micros;
        model.fetches = cache
            .fetch_records()
            .into_iter()
            .map(|(url, body)| crate::model::FetchRecord { url, body })
            .collect();

        if self.recorder.is_on() {
            self.recorder.push(
                "crawl.page",
                start_time,
                self.net.now(),
                vec![
                    ("url", AttrValue::str(url.to_string())),
                    ("states", AttrValue::U64(stats.states)),
                    ("events", AttrValue::U64(stats.events_fired)),
                    ("cache_hits", AttrValue::U64(stats.cache_hits)),
                ],
            );
        }

        Ok((
            PageCrawl {
                model,
                stats,
                trace: Task::new(trace_segments),
            },
            new_history,
        ))
    }

    /// Traditional crawling: parse only; "Javascript is disabled, i.e. no
    /// events are triggered, not even the onload event of the body tag"
    /// (thesis ch. 8, `TRADITIONAL_CRAWLING`).
    fn crawl_traditional(
        config: &CrawlConfig,
        body: &str,
        model: &mut AppModel,
        env: &mut CrawlEnv<'_>,
    ) {
        env.charge_cpu(config.costs.parse_cost(body.len()));
        let doc = parse_document(body);
        let normalized = doc.normalized();
        env.charge_cpu(config.costs.hash_cost(normalized.len()));
        let hash = ajax_dom::fnv64_str(&normalized);
        let text = doc.document_text();
        env.charge_cpu(config.costs.state_micros);
        let dom_html = config.store_dom.then(|| doc.to_html());
        model.add_state(hash, text, dom_html);
    }

    /// Breadth-first AJAX crawling with rollback and duplicate elimination
    /// (Alg. 3.1.1). Which events fire is the [`EventPlanner`]'s answer;
    /// the history it kept is returned for the next session.
    fn crawl_ajax(
        config: &CrawlConfig,
        url: &Url,
        body: &str,
        model: &mut AppModel,
        stats: &mut PageStats,
        env: &mut CrawlEnv<'_>,
        history: Option<&EventHistory>,
    ) -> EventHistory {
        let load_start = env.net.now();
        env.charge_cpu(config.costs.parse_cost(body.len()));
        let page = ParsedPage::parse(body);
        let (mut browser, load_errors, load_outcome) = Browser::load_parsed(
            url.clone(),
            page.doc.clone(),
            &page.scripts,
            config.js_fuel,
            env,
        );
        stats.js_errors += load_errors.len() as u64;
        stats.failed_xhr += load_outcome.failed_xhr as u64;
        if load_outcome.exhausted_xhr > 0 {
            // A load-time XHR exhausted its retries: the page starts in a
            // partial state. It is still materialized (there is nothing to
            // roll back to), but flagged.
            stats.partial_states += 1;
        }

        // Initial state (after scripts + onload).
        let initial_hash = browser.state_hash(env);
        let initial_text = browser.doc().document_text();
        env.charge_cpu(config.costs.state_micros);
        let dom_html = config.store_dom.then(|| browser.doc().to_html());
        model.add_state(initial_hash, initial_text, dom_html);
        env.rec.push0("crawl.load", load_start, env.net.now());

        let mut plan = EventPlanner::new(config, page, body.len(), env, history);
        let mut session = Session {
            snapshots: vec![browser.snapshot()],
            browser,
        };
        let mut queue = VecDeque::from([StateId::INITIAL]);

        'bfs: while let Some(state_id) = queue.pop_front() {
            // Focused crawling: expand only relevant states. An off-topic
            // *page* (initial state) gets no AJAX crawling at all — its
            // single state is still indexed, like traditional crawling.
            let (text, focus) = (&model.states[state_id.index()].text, &config.focus_keywords);
            if !focus.is_empty() && !focus.iter().any(|k| contains_ignore_case(text, k)) {
                stats.states_not_expanded += 1;
                continue;
            }
            // Restore the state's snapshot to enumerate its events.
            session.rollback(state_id, env);
            let bindings = collect_event_bindings(session.browser.doc(), &config.event_types);
            let state = state_id.index();
            plan.enter_state(state, &bindings);

            for (at, binding) in bindings.iter().enumerate() {
                if stats.events_fired >= config.max_events_per_page as u64 {
                    break 'bfs;
                }
                let claim = plan.decide(state, at, binding);
                if !plan.fires(claim) {
                    plan.record(stats, state, at, binding, claim, None);
                    continue;
                }
                let ev_start = env.net.now();
                let fired = session.fire(config, model, stats, env, state_id, binding);
                if let Fired::NewState(id) = fired {
                    queue.push_back(id);
                }
                plan.record(stats, state, at, binding, claim, Some(fired));
                if env.rec.is_on() {
                    env.rec.push(
                        "crawl.event",
                        ev_start,
                        env.net.now(),
                        vec![
                            ("source", AttrValue::str(binding.source.as_str())),
                            ("result", AttrValue::str(fired.label())),
                        ],
                    );
                }
            }
        }
        plan.finish(stats)
    }
}

/// The loaded page of one AJAX crawl and a rollback snapshot per state it
/// has discovered, indexed by [`StateId`].
struct Session {
    browser: Browser,
    snapshots: Vec<BrowserSnapshot>,
}

impl Session {
    /// Restores `state`'s DOM and JS globals (Alg. 3.1.1 line 17).
    fn rollback(&mut self, state: StateId, env: &mut CrawlEnv<'_>) {
        let rb_start = env.net.now();
        self.browser.restore(&self.snapshots[state.index()]);
        env.charge_cpu(env.costs.rollback_micros);
        env.rec.push0("crawl.rollback", rb_start, env.net.now());
    }

    /// Rolls back to `state`, fires `binding` there and adds what it led
    /// to to `model`.
    fn fire(
        &mut self,
        config: &CrawlConfig,
        model: &mut AppModel,
        stats: &mut PageStats,
        env: &mut CrawlEnv<'_>,
        state: StateId,
        binding: &EventBinding,
    ) -> Fired {
        self.rollback(state, env);
        let outcome = self.browser.fire_event(&binding.code, env);
        stats.events_fired += 1;
        if outcome.attempted_ajax() {
            stats.events_with_ajax += 1;
        }
        stats.failed_xhr += outcome.failed_xhr as u64;
        if outcome.js_error.is_some() {
            stats.js_errors += 1;
            return Fired::JsError;
        }
        if outcome.exhausted_xhr > 0 {
            // An XHR exhausted every retry mid-event: whatever DOM the
            // handler left behind is built on a failed fetch. Record a
            // partial state and move on without materializing it —
            // graceful degradation means missing edges, never corrupt
            // states. The event is also left out of the history (its
            // productivity is unknown).
            stats.partial_states += 1;
            return Fired::Partial;
        }

        // Duplicate detection (§3.2) on the normalized text itself; only a
        // state that is kept gets hashed.
        let view = self.browser.normalize(env);
        let texts = self.snapshots.iter().map(|s| s.view().text());
        let known = model.state_by_text(texts, view.text()).map(|s| s.id);
        if known == Some(state) {
            return Fired::Unchanged; // DOM unchanged: no transition.
        }

        let (target, fired) = if let Some(existing) = known {
            stats.duplicates += 1;
            (existing, Fired::Duplicate)
        } else if model.state_count() < config.max_states {
            let text = self.browser.doc().document_text();
            env.charge_cpu(config.costs.state_micros);
            let dom_html = config.store_dom.then(|| self.browser.doc().to_html());
            let id = model.add_state(view.hash(), text, dom_html);
            self.snapshots.push(self.browser.snapshot());
            (id, Fired::NewState(id))
        } else {
            // State cap reached (infinite-expansion guard): the transition
            // target is not materialized.
            return Fired::StateCap;
        };

        env.charge_cpu(config.costs.transition_micros);
        // Annotate the transition with its modified targets (Table 2.1) by
        // diffing the source-state DOM against the current one.
        let source = &self.snapshots[state.index()];
        let targets =
            ajax_dom::diff::changed_roots(source.doc(), source.view(), self.browser.doc(), &view)
                .into_iter()
                .map(|t| t.element)
                .collect();
        model.add_transition(Transition {
            from: state,
            to: target,
            source: binding.source.clone(),
            event: binding.event_type,
            action: binding.code.clone(),
            targets,
        });
        fired
    }
}

// The unit tests live in their own file; `include!` keeps their module
// paths (`crawler::tests`, `crawler::equiv_tests`, …).
#[cfg(test)]
include!("crawler_tests.rs");
