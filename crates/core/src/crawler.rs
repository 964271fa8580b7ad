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
//!   intercepting repeated `(function, args)` server calls.

use crate::analysis::ParsedPage;
use crate::browser::{Browser, CrawlEnv};
use crate::checkpoint::{Checkpointer, FailureRecord, PageRecord};
use crate::hotnode::HotNodeCache;
use crate::model::{AppModel, StateId, Transition};
use crate::planner::{BarrenClaim, BarrenLedger, Planner};
use crate::recrawl::EventHistory;
use ajax_dom::events::collect_event_bindings;
use ajax_dom::{parse_document, EventType};
use ajax_net::fault::FaultPlan;
use ajax_net::sched::Task;
use ajax_net::{LatencyModel, Micros, NetClient, Response, Server, Url};
use ajax_obs::{AttrValue, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
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
    pub fn thesis_default() -> Self {
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
    pub fn free() -> Self {
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
    pub fn parse_cost(&self, bytes: usize) -> Micros {
        (bytes as u64 * self.parse_nanos_per_byte) / 1_000
    }

    /// Cost of `steps` interpreter steps.
    pub fn js_cost(&self, steps: u64) -> Micros {
        (steps * self.js_nanos_per_step) / 1_000
    }

    /// Cost of hashing `bytes`.
    pub fn hash_cost(&self, bytes: usize) -> Micros {
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

    /// Whether `status` is worth retrying: server-side errors (5xx, incl.
    /// the synthetic 598 timeout / 597 drop statuses), request timeout (408)
    /// and throttling (429). Client errors like 404 are permanent.
    pub fn retry_status(&self, status: u16) -> bool {
        status >= 500 || status == 408 || status == 429
    }

    /// The virtual backoff before retry number `attempt` (1-based: the wait
    /// after the first failed attempt is `backoff(url, 1)`). Exponential
    /// with a deterministic per-(url, attempt) jitter.
    pub fn backoff(&self, url: &str, attempt: u32) -> Micros {
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
    /// Static crawl planner (docs/static-analysis.md): effect-analyze the
    /// page once and skip firing events whose handlers are statically
    /// proven pure, counting them in [`PageStats::pruned_events`].
    pub static_prune: bool,
    /// Soundness cross-check for the planner: fire statically-pruned
    /// events anyway; a state change counts as a
    /// [`PageStats::prune_mismatches`] instead of a skip.
    pub verify_prune: bool,
    /// Handler-equivalence + commutativity pruning (docs/static-analysis.md):
    /// fire one representative per equivalence class per state, letting the
    /// other members inherit a *barren* verdict, and carry barren verdicts
    /// into successor states created by provably commuting events. This is
    /// a heuristic (summaries abstract away written values), so it defaults
    /// to off; `verify_equiv` cross-checks it at full firing cost.
    pub equiv_prune: bool,
    /// Soundness cross-check for equivalence/commutativity pruning: fire
    /// claimed-barren events anyway; a state change counts as a
    /// [`PageStats::equiv_mismatches`] instead of a skip.
    pub verify_equiv: bool,
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
            static_prune: true,
            verify_prune: false,
            equiv_prune: false,
            verify_equiv: false,
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
        self.static_prune = false;
        self
    }

    /// Returns a copy in prune-verify mode: statically-pruned events fire
    /// anyway and any state change is counted as a soundness mismatch.
    pub fn verifying_prune(mut self) -> Self {
        self.static_prune = true;
        self.verify_prune = true;
        self
    }

    /// Returns a copy with handler-equivalence + commutativity pruning
    /// enabled (requires the static planner, so it implies `static_prune`).
    pub fn with_equiv_prune(mut self) -> Self {
        self.static_prune = true;
        self.equiv_prune = true;
        self
    }

    /// Returns a copy in equivalence-verify mode: claimed-barren events
    /// fire anyway and any state change is counted as an
    /// [`PageStats::equiv_mismatches`].
    pub fn verifying_equiv(mut self) -> Self {
        self = self.with_equiv_prune();
        self.verify_equiv = true;
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
    /// once (see [`HotNodeStats::merge`](crate::hotnode::HotNodeStats)).
    pub hot_functions: std::collections::BTreeSet<String>,
    /// Events skipped (update-event guard or barren-event history).
    pub events_skipped: u64,
    /// Events whose handler was statically proven pure by the crawl
    /// planner: skipped without firing, or — in verify mode — fired and
    /// cross-checked (docs/static-analysis.md).
    pub pruned_events: u64,
    /// Verify-prune soundness failures: a statically "pure" handler
    /// changed the state when fired. Anything non-zero is an analysis bug.
    pub prune_mismatches: u64,
    /// Events skipped because an equivalence-class sibling was observed
    /// barren in the same state (or — in verify mode — fired and
    /// cross-checked anyway).
    pub equiv_pruned_events: u64,
    /// Events skipped because their barren verdict was carried into this
    /// state from the parent state across a provably commuting event.
    pub commute_pruned_events: u64,
    /// Verify-equiv failures: an event claimed barren by equivalence or
    /// commutativity changed the state when fired. Unlike
    /// `prune_mismatches`, a non-zero count here is an *expected* outcome
    /// on pages where the heuristic overreaches — it is why `equiv_prune`
    /// defaults to off.
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
pub enum LastError {
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
pub enum FetchFailure {
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
    pub fn from_fetch(url: &Url, failure: FetchFailure) -> Self {
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

    /// The URL that failed.
    pub fn url(&self) -> &str {
        match self {
            CrawlError::Http { url, .. }
            | CrawlError::Timeout { url, .. }
            | CrawlError::Truncated { url, .. }
            | CrawlError::Exhausted { url, .. } => url,
        }
    }

    /// Fetch attempts burned before giving up.
    pub fn attempts(&self) -> u32 {
        match self {
            CrawlError::Http { attempts, .. }
            | CrawlError::Timeout { attempts, .. }
            | CrawlError::Truncated { attempts, .. }
            | CrawlError::Exhausted { attempts, .. } => *attempts,
        }
    }

    /// Transient errors are worth re-enqueuing at the end of the partition;
    /// permanent ones (client errors) are not.
    pub fn is_transient(&self) -> bool {
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
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Drains the spans recorded so far (empty when tracing is disabled).
    pub fn take_spans(&mut self) -> Vec<ajax_obs::SpanEvent> {
        self.recorder.take()
    }

    /// The crawler's network client (for reading aggregate statistics).
    pub fn net(&self) -> &NetClient {
        &self.net
    }

    /// The active configuration.
    pub fn config(&self) -> &CrawlConfig {
        &self.config
    }

    /// Crawls one page, building its application model (Alg. 3.1.1 /
    /// Alg. 4.2.1 depending on the configuration).
    pub fn crawl_page(&mut self, url: &Url) -> Result<PageCrawl, CrawlError> {
        self.crawl_page_with_history(url, None)
            .map(|(crawl, _)| crawl)
    }

    /// Crawls `urls` serially with durable-checkpoint support: pages found
    /// in `restored` (a previous process's checkpoint, see
    /// [`crate::checkpoint::ResumeState`]) are emitted without re-crawling,
    /// and each newly completed page is recorded into `checkpointer`, which
    /// commits an atomic snapshot every [`CrawlConfig::checkpoint_every`]
    /// pages. Failed URLs are returned (and recorded) but never abort the
    /// sweep — the serial counterpart of `MpCrawler`'s resumable partition
    /// crawl.
    pub fn crawl_pages(
        &mut self,
        urls: &[String],
        checkpointer: Option<&Checkpointer>,
        restored: &HashMap<String, PageRecord>,
    ) -> (Vec<AppModel>, PageStats, Vec<CrawlError>) {
        let mut models = Vec::with_capacity(urls.len());
        let mut stats = PageStats::default();
        let mut errors = Vec::new();
        for url in urls {
            if let Some(record) = restored.get(url) {
                stats.merge(&record.stats);
                models.push(record.model.clone());
                continue;
            }
            match self.crawl_page_with_history(&Url::parse(url), None) {
                Ok((page, history)) => {
                    stats.merge(&page.stats);
                    if let Some(checkpointer) = checkpointer {
                        checkpointer.record_page(PageRecord {
                            url: url.clone(),
                            model: page.model.clone(),
                            stats: page.stats.clone(),
                            attempts: 1,
                            history,
                        });
                    }
                    models.push(page.model);
                }
                Err(e) => {
                    if let Some(checkpointer) = checkpointer {
                        checkpointer.record_failure(FailureRecord {
                            url: url.clone(),
                            error: e.clone(),
                            attempts: 1,
                            quarantined: false,
                        });
                    }
                    errors.push(e);
                }
            }
        }
        (models, stats, errors)
    }

    /// Like [`Self::crawl_page`], additionally consuming the previous
    /// session's [`EventHistory`] (events known barren are skipped — the
    /// repetitive-crawling optimization of thesis ch. 10) and producing the
    /// updated history for the next session.
    pub fn crawl_page_with_history(
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
        let mut new_history = EventHistory::default();

        let mut model = AppModel::new(url.to_string());

        {
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

            if self.config.traditional {
                Self::crawl_traditional(&self.config, &response.body, &mut model, &mut env);
            } else {
                Self::crawl_ajax(
                    &self.config,
                    url,
                    &response.body,
                    &mut model,
                    &mut stats,
                    &mut env,
                    history,
                    &mut new_history,
                )?;
            }
            env.flush_trace();
            stats.fetch_retries = env.fetch_retries;
        }

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

    /// Breadth-first AJAX crawling with rollback and duplicate elimination.
    #[allow(clippy::too_many_arguments)]
    fn crawl_ajax(
        config: &CrawlConfig,
        url: &Url,
        body: &str,
        model: &mut AppModel,
        stats: &mut PageStats,
        env: &mut CrawlEnv<'_>,
        history: Option<&EventHistory>,
        new_history: &mut EventHistory,
    ) -> Result<(), CrawlError> {
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

        // Static crawl planner: analyze once, then skip events whose
        // handlers are proven pure (or fire-and-check in verify mode).
        let mut planner = config
            .static_prune
            .then(|| Planner::for_page(page, body.len(), env));
        if let Some(p) = &planner {
            stats.script_errors = p.script_errors as u64;
        }
        // Equivalence/commutativity pruning (docs/static-analysis.md).
        let mut ledger = (config.equiv_prune && planner.is_some()).then(BarrenLedger::new);

        let mut snapshots = vec![browser.snapshot()];
        let mut queue = VecDeque::from([StateId::INITIAL]);

        'bfs: while let Some(state_id) = queue.pop_front() {
            // Focused crawling: expand only relevant states. An off-topic
            // *page* (initial state) gets no AJAX crawling at all — its
            // single state is still indexed, like traditional crawling.
            if !config.focus_keywords.is_empty() {
                let text = &model.states[state_id.index()].text;
                if !config
                    .focus_keywords
                    .iter()
                    .any(|k| contains_ignore_case(text, k))
                {
                    stats.states_not_expanded += 1;
                    continue;
                }
            }
            // Restore the state's snapshot to enumerate its events.
            let rb_start = env.net.now();
            browser.restore(&snapshots[state_id.index()]);
            env.charge_cpu(config.costs.rollback_micros);
            env.rec.push0("crawl.rollback", rb_start, env.net.now());
            let bindings = collect_event_bindings(browser.doc(), &config.event_types);
            // From here on the planner knows a handler by its number
            // (`snippets` runs parallel to `bindings`, empty without one).
            let snippets: Vec<_> = match &mut planner {
                Some(p) => bindings.iter().map(|b| p.intern(&b.code)).collect(),
                None => Vec::new(),
            };
            if let (Some(ledger), Some(p)) = (&mut ledger, &mut planner) {
                ledger.enter_state(state_id.index(), p);
            }

            for (at, binding) in bindings.into_iter().enumerate() {
                let snippet = snippets.get(at).copied();
                if stats.events_fired >= config.max_events_per_page as u64 {
                    break 'bfs;
                }
                // The "no update events" guard (§4.3).
                if config
                    .avoid_actions
                    .iter()
                    .any(|pattern| contains_ignore_case(&binding.code, pattern))
                {
                    stats.events_skipped += 1;
                    continue;
                }
                // Repetitive crawling (ch. 10): skip events known barren.
                if let Some(history) = history {
                    if history.is_barren(&binding.source, binding.event_type, &binding.code) {
                        stats.events_skipped += 1;
                        continue;
                    }
                }
                // Static pruning: a handler proven stateless cannot create
                // a transition, so firing it is pure waste. In verify mode
                // it fires anyway and a state change is a soundness bug.
                let pruned = planner
                    .as_ref()
                    .zip(snippet)
                    .is_some_and(|(p, s)| p.is_pure(s));
                if pruned {
                    stats.pruned_events += 1;
                    if !config.verify_prune {
                        // A pure handler cannot change the DOM, so the event
                        // is barren by construction; recording it keeps the
                        // recrawl history as complete as an unpruned crawl's.
                        new_history.record(
                            &binding.source,
                            binding.event_type,
                            &binding.code,
                            false,
                        );
                        continue;
                    }
                }
                // Equivalence/commutativity claims (docs/static-analysis.md):
                // a handler inherited barren from the parent state, or whose
                // class representative was already observed barren here, is
                // skipped — or fired and cross-checked in verify mode.
                let mut claimed_barren = false;
                if let (Some(ledger), Some(p), Some(s)) = (&mut ledger, &mut planner, snippet) {
                    let claim = if pruned {
                        None
                    } else {
                        ledger.claim(state_id.index(), s, p)
                    };
                    match claim {
                        Some(BarrenClaim::Commute) => stats.commute_pruned_events += 1,
                        Some(BarrenClaim::Equiv) => stats.equiv_pruned_events += 1,
                        None => {}
                    }
                    claimed_barren = claim.is_some();
                    if claimed_barren && !config.verify_equiv {
                        ledger.mark_barren(state_id.index(), s);
                        new_history.record(
                            &binding.source,
                            binding.event_type,
                            &binding.code,
                            false,
                        );
                        continue;
                    }
                }
                // The event body runs in a closure returning what became of
                // the firing, so the `crawl.event` span can label its result
                // without a push on every early exit.
                let ev_start = env.net.now();
                let result: &'static str = (|| {
                    // Rollback to the source state before every event
                    // (Alg. 3.1.1 line 17): both the DOM and the JS globals.
                    let rb_start = env.net.now();
                    browser.restore(&snapshots[state_id.index()]);
                    env.charge_cpu(config.costs.rollback_micros);
                    env.rec.push0("crawl.rollback", rb_start, env.net.now());

                    let outcome = browser.fire_event(&binding.code, env);
                    stats.events_fired += 1;
                    if outcome.attempted_ajax() {
                        stats.events_with_ajax += 1;
                    }
                    stats.failed_xhr += outcome.failed_xhr as u64;
                    if outcome.js_error.is_some() {
                        stats.js_errors += 1;
                        return "js_error";
                    }
                    if outcome.exhausted_xhr > 0 {
                        // An XHR exhausted every retry mid-event: whatever DOM
                        // the handler left behind is built on a failed fetch.
                        // Record a partial state and move on without
                        // materializing it — graceful degradation means missing
                        // edges, never corrupt states. The event is also left
                        // out of the history (its productivity is unknown).
                        stats.partial_states += 1;
                        return "partial";
                    }

                    // Duplicate detection (§3.2) on the normalized text
                    // itself; only a state that is kept gets hashed.
                    let view = browser.normalize(env);
                    let texts = snapshots.iter().map(|s| s.view().text());
                    let known = model.state_by_text(texts, view.text()).map(|s| s.id);
                    let changed = known != Some(state_id);
                    new_history.record(&binding.source, binding.event_type, &binding.code, changed);
                    if !changed {
                        return "unchanged"; // DOM unchanged: no transition.
                    }

                    let target = if let Some(existing) = known {
                        stats.duplicates += 1;
                        existing
                    } else if model.state_count() < config.max_states {
                        let text = browser.doc().document_text();
                        env.charge_cpu(config.costs.state_micros);
                        let dom_html = config.store_dom.then(|| browser.doc().to_html());
                        let id = model.add_state(view.hash(), text, dom_html);
                        snapshots.push(browser.snapshot());
                        if let (Some(ledger), Some(s)) = (&mut ledger, snippet) {
                            ledger.push_state(state_id.index(), s);
                        }
                        queue.push_back(id);
                        id
                    } else {
                        // State cap reached (infinite-expansion guard): the
                        // transition target is not materialized.
                        return "state_cap";
                    };

                    env.charge_cpu(config.costs.transition_micros);
                    // Annotate the transition with its modified targets
                    // (Table 2.1) by diffing the source-state DOM against the
                    // current one.
                    let source = &snapshots[state_id.index()];
                    let targets = ajax_dom::diff::changed_roots(
                        source.doc(),
                        source.view(),
                        browser.doc(),
                        &view,
                    )
                    .into_iter()
                    .map(|t| t.element)
                    .collect();
                    model.add_transition(Transition {
                        from: state_id,
                        to: target,
                        source: binding.source.clone(),
                        event: binding.event_type,
                        action: binding.code.clone(),
                        targets,
                    });
                    "transition"
                })();
                if pruned && matches!(result, "transition" | "state_cap") {
                    stats.prune_mismatches += 1;
                }
                if let (Some(ledger), Some(p), Some(s)) = (&mut ledger, &mut planner, snippet) {
                    // Record this firing for later members of its class and
                    // for barren inheritance into child states.
                    ledger.record_firing(state_id.index(), s, result == "unchanged", p);
                    if claimed_barren && matches!(result, "transition" | "state_cap") {
                        stats.equiv_mismatches += 1;
                    }
                }
                if env.rec.is_on() {
                    env.rec.push(
                        "crawl.event",
                        ev_start,
                        env.net.now(),
                        vec![
                            ("source", AttrValue::str(binding.source.as_str())),
                            ("result", AttrValue::str(result)),
                        ],
                    );
                }
            }
        }
        Ok(())
    }
}

/// Case-insensitive ASCII substring test (an empty needle is in nothing).
/// Allocates nothing: the guards below run it per binding and pattern.
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
    !needle.is_empty()
        && haystack
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};

    fn vidshare(n: u32) -> Arc<VidShareServer> {
        Arc::new(VidShareServer::new(VidShareSpec::small(n)))
    }

    fn crawl(config: CrawlConfig, video: u32) -> PageCrawl {
        let server = vidshare(50);
        let mut crawler = Crawler::new(server, LatencyModel::Fixed(10_000), config);
        crawler
            .crawl_page(&Url::parse(&format!(
                "http://vidshare.example/watch?v={video}"
            )))
            .expect("crawl must succeed")
    }

    /// A multi-page video under the default small(50) spec.
    fn multi_page_video() -> (u32, u32) {
        let spec = VidShareSpec::small(50);
        for v in 0..50 {
            let pages = ajax_webgen::video_meta(&spec, v).comment_pages;
            if (3..=6).contains(&pages) {
                return (v, pages);
            }
        }
        panic!("no 3..6-page video in the first 50");
    }

    #[test]
    fn traditional_crawl_single_state() {
        let crawl = crawl(CrawlConfig::traditional(), 3);
        assert_eq!(crawl.model.state_count(), 1);
        assert_eq!(crawl.stats.events_fired, 0);
        assert_eq!(crawl.stats.ajax_network_calls, 0);
        assert!(crawl.stats.crawl_micros > 0);
        assert!(!crawl.model.states[0].text.is_empty());
    }

    #[test]
    fn ajax_crawl_discovers_all_comment_pages() {
        let (video, pages) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(
            result.model.state_count(),
            pages as usize,
            "one state per comment page"
        );
        // All states reachable from the initial one.
        for s in 1..result.model.state_count() {
            assert!(
                result.model.event_path(StateId(s as u32)).is_some(),
                "state {s} unreachable"
            );
        }
    }

    #[test]
    fn state_texts_contain_the_right_comments() {
        let (video, pages) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        let spec = VidShareSpec::small(50);
        // Every comment page's first comment appears in exactly the states
        // that show that page.
        for page in 1..=pages {
            let comment = ajax_webgen::text::comment_text(&spec, video, page, 0);
            assert!(
                result
                    .model
                    .states
                    .iter()
                    .any(|s| s.text.contains(&comment)),
                "comment of page {page} not found in any state"
            );
        }
    }

    #[test]
    fn hot_node_cache_reduces_network_calls() {
        let (video, _pages) = multi_page_video();
        let cached = crawl(CrawlConfig::ajax(), video);
        let uncached = crawl(CrawlConfig::ajax_no_cache(), video);

        // Same states either way (the cache must not change the model)...
        assert_eq!(cached.model.state_count(), uncached.model.state_count());
        let cached_hashes: Vec<u64> = cached.model.states.iter().map(|s| s.hash).collect();
        let uncached_hashes: Vec<u64> = uncached.model.states.iter().map(|s| s.hash).collect();
        assert_eq!(cached_hashes, uncached_hashes);

        // ...but strictly fewer network calls with the policy on.
        assert!(
            cached.stats.ajax_network_calls < uncached.stats.ajax_network_calls,
            "cached {} !< uncached {}",
            cached.stats.ajax_network_calls,
            uncached.stats.ajax_network_calls
        );
        assert!(cached.stats.cache_hits > 0);
        assert_eq!(uncached.stats.cache_hits, 0);
        // With one hot node per page, each distinct comment page is fetched
        // at most once: pages 2..=N plus possibly page 1 (reached via `prev`,
        // whose inline copy never went through the hot node).
        let states = cached.model.state_count() as u64;
        assert!(
            (states - 1..=states).contains(&cached.stats.ajax_network_calls),
            "expected {}..={} calls, got {}",
            states - 1,
            states,
            cached.stats.ajax_network_calls
        );
    }

    #[test]
    fn crawl_time_cached_faster() {
        let (video, _) = multi_page_video();
        let cached = crawl(CrawlConfig::ajax(), video);
        let uncached = crawl(CrawlConfig::ajax_no_cache(), video);
        assert!(
            cached.stats.network_micros < uncached.stats.network_micros,
            "caching must reduce network time"
        );
    }

    #[test]
    fn max_states_cap_respected() {
        let (video, pages) = multi_page_video();
        assert!(pages >= 3);
        let result = crawl(CrawlConfig::ajax().with_max_states(2), video);
        assert_eq!(result.model.state_count(), 2);
    }

    #[test]
    fn ajax_overhead_vs_traditional_shape() {
        // Aggregate over several pages: the per-page overhead factor must be
        // substantially above 1 and per-state overhead around 2 (Table 7.2).
        let server = vidshare(50);
        let mut trad = Crawler::new(
            Arc::clone(&server) as Arc<dyn Server>,
            LatencyModel::thesis_default(1),
            CrawlConfig::traditional(),
        );
        let mut ajax = Crawler::new(server, LatencyModel::thesis_default(1), CrawlConfig::ajax());
        let mut trad_total = 0u64;
        let mut ajax_total = 0u64;
        let mut states = 0u64;
        for v in 0..20 {
            let url = Url::parse(&format!("http://vidshare.example/watch?v={v}"));
            trad_total += trad.crawl_page(&url).unwrap().stats.crawl_micros;
            let pc = ajax.crawl_page(&url).unwrap();
            ajax_total += pc.stats.crawl_micros;
            states += pc.stats.states;
        }
        let per_page = ajax_total as f64 / trad_total as f64;
        let per_state = (ajax_total as f64 / states as f64) / (trad_total as f64 / 20.0);
        assert!(
            per_page > 3.0,
            "AJAX must cost much more per page (got {per_page:.2})"
        );
        assert!(
            (1.2..=5.0).contains(&per_state),
            "per-state overhead should be moderate (got {per_state:.2})"
        );
    }

    #[test]
    fn http_error_is_reported() {
        let server = vidshare(5);
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let err = crawler
            .crawl_page(&Url::parse("http://vidshare.example/watch?v=99999"))
            .unwrap_err();
        assert!(matches!(err, CrawlError::Http { status: 404, .. }));
    }

    #[test]
    fn store_dom_keeps_replay_data() {
        let (video, _) = multi_page_video();
        let result = crawl(CrawlConfig::ajax().storing_dom(), video);
        assert!(result.model.page_html.is_some());
        assert!(result.model.states.iter().all(|s| s.dom_html.is_some()));
        assert!(!result.model.fetches.is_empty());
    }

    #[test]
    fn trace_matches_stats() {
        let (video, _) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(
            result.trace.net_total(),
            result.stats.network_micros,
            "trace network total must equal measured network time"
        );
        assert_eq!(
            result.trace.duration(),
            result.stats.crawl_micros,
            "trace duration must equal crawl time"
        );
    }

    #[test]
    fn crawl_is_deterministic() {
        let (video, _) = multi_page_video();
        let a = crawl(CrawlConfig::ajax(), video);
        let b = crawl(CrawlConfig::ajax(), video);
        assert_eq!(a.model, b.model);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn static_prune_cuts_events_without_changing_the_model() {
        let (video, _) = multi_page_video();
        let pruned = crawl(CrawlConfig::ajax(), video);
        let unpruned = crawl(CrawlConfig::ajax().without_static_prune(), video);
        // The title-hover handler is proven stateless once per state.
        assert!(pruned.stats.pruned_events > 0, "hover must be pruned");
        assert_eq!(unpruned.stats.pruned_events, 0);
        assert!(
            pruned.stats.events_fired < unpruned.stats.events_fired,
            "pruning must fire fewer events: {} !< {}",
            pruned.stats.events_fired,
            unpruned.stats.events_fired
        );
        // Soundness: the discovered application model is identical.
        assert_eq!(pruned.model.states, unpruned.model.states);
        assert_eq!(pruned.model.transitions, unpruned.model.transitions);
    }

    #[test]
    fn verify_prune_finds_no_mismatches() {
        let (video, _) = multi_page_video();
        let verified = crawl(CrawlConfig::ajax().verifying_prune(), video);
        assert!(verified.stats.pruned_events > 0, "candidates exist");
        assert_eq!(verified.stats.prune_mismatches, 0, "analysis is sound");
        // Verify mode fires everything, so it matches the no-prune crawl.
        let baseline = crawl(CrawlConfig::ajax().without_static_prune(), video);
        assert_eq!(verified.stats.events_fired, baseline.stats.events_fired);
        assert_eq!(verified.model.states, baseline.model.states);
        assert_eq!(verified.model.transitions, baseline.model.transitions);
    }

    #[test]
    fn single_page_video_has_one_state() {
        let spec = VidShareSpec::small(50);
        let video = (0..50)
            .find(|&v| ajax_webgen::video_meta(&spec, v).comment_pages == 1)
            .expect("some single-page video");
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(result.model.state_count(), 1);
        assert_eq!(result.stats.ajax_network_calls, 0);
    }
}

#[cfg(test)]
mod guard_and_recrawl_tests {
    use super::*;
    use ajax_net::server::{FnServer, Request, Response};
    use ajax_webgen::{VidShareServer, VidShareSpec};
    use std::sync::Arc;

    /// A page with a destructive handler among the navigation.
    fn destructive_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                     var items = ['a', 'b'];\
                     function deleteItem() { items.pop(); poisonTheWell(); }\
                     function fetchMore(p) {\
                       var xhr = new XMLHttpRequest();\
                       xhr.open('GET', '/more?p=' + p, false);\
                       xhr.send(null);\
                       document.getElementById('box').innerHTML = xhr.responseText;\
                     }\
                     </script></head><body>\
                     <span id=\"kill\" onclick=\"deleteItem()\">Delete</span>\
                     <span id=\"more\" onclick=\"fetchMore(2)\">more</span>\
                     <div id=\"box\">first</div>\
                     </body></html>",
            ),
            "/more" => Response::html("<p>second batch</p>"),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn update_events_never_fired() {
        let mut crawler = Crawler::new(
            destructive_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax(),
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        // deleteItem calls an undefined function; had it run, js_errors > 0.
        assert_eq!(crawl.stats.js_errors, 0, "Delete handler must not run");
        // The Delete control exists in both discovered states, so it is
        // skipped once per state.
        assert_eq!(crawl.stats.events_skipped, 2);
        assert_eq!(crawl.model.state_count(), 2, "fetchMore still crawled");
    }

    #[test]
    fn guard_patterns_match_in_any_case_anywhere() {
        for (code, pattern, hit) in [
            ("doDELETE(3)", "delete", true),
            ("logout()", "LogOut", true),
            ("del", "delete", false), // pattern longer than the code
            ("remov e()", "remove", false),
            ("anything", "", false), // an empty pattern guards nothing
            ("", "", false),
            // Bytes, not characters: a window may start inside one.
            ("löschen('é') // DÉLETE delete", "delete", true),
            ("naïve", "ïV", true),
            ("日本語", "delete", false),
        ] {
            assert_eq!(
                contains_ignore_case(code, pattern),
                hit,
                "{code:?} {pattern:?}"
            );
        }
    }

    #[test]
    fn guard_disabled_fires_everything() {
        let mut crawler = Crawler::new(
            destructive_server(),
            LatencyModel::Zero,
            CrawlConfig {
                avoid_actions: Vec::new(),
                ..CrawlConfig::ajax()
            },
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert!(crawl.stats.js_errors > 0, "destructive handler ran");
    }

    /// A page whose pure handler arrives only in a server-injected
    /// fragment — it is absent from the initial DOM, so the planner must
    /// summarize and memoize it mid-crawl.
    fn injected_handler_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                     function noop(tag) { var t = tag; return t; }\
                     function fetchMore(p) {\
                       var xhr = new XMLHttpRequest();\
                       xhr.open('GET', '/more?p=' + p, false);\
                       xhr.send(null);\
                       document.getElementById('box').innerHTML = xhr.responseText;\
                     }\
                     </script></head><body>\
                     <span id=\"more\" onclick=\"fetchMore(2)\">more</span>\
                     <div id=\"box\">first</div>\
                     </body></html>",
            ),
            "/more" => Response::html("<p onmouseover=\"noop('late')\">second batch</p>"),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn planner_memoizes_handlers_injected_mid_crawl() {
        let mut crawler = Crawler::new(
            injected_handler_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax(),
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert_eq!(crawl.model.state_count(), 2);
        // noop('late') exists only in the injected fragment, yet it is
        // proven pure and pruned on the second state.
        assert!(crawl.stats.pruned_events > 0, "injected handler pruned");

        let unpruned = Crawler::new(
            injected_handler_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax().without_static_prune(),
        )
        .crawl_page(&Url::parse("http://x/page"))
        .unwrap();
        assert_eq!(crawl.model.states, unpruned.model.states);
        assert_eq!(crawl.model.transitions, unpruned.model.transitions);
        assert!(crawl.stats.events_fired < unpruned.stats.events_fired);
    }

    #[test]
    fn script_parse_failures_surface_in_stats() {
        let server: Arc<dyn Server> = Arc::new(FnServer(|req: &Request| {
            if req.url.path == "/page" {
                Response::html(
                    "<html><head><script>function broken( {</script></head>\
                     <body><div id=\"box\">x</div></body></html>",
                )
            } else {
                Response::not_found()
            }
        }));
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert_eq!(crawl.stats.script_errors, 1);
    }

    #[test]
    fn recrawl_with_history_skips_barren_events() {
        let spec = VidShareSpec::small(50);
        let video = (0..50)
            .find(|&v| (3..=6).contains(&ajax_webgen::video_meta(&spec, v).comment_pages))
            .unwrap();
        let url = Url::parse(&spec.watch_url(video));
        let server = Arc::new(VidShareServer::new(spec));
        // Static pruning already removes the statically-provable barren
        // events (the title mouseover); disable it so this test isolates
        // the *runtime* history mechanism, which also catches events that
        // are barren for dynamic reasons the analysis cannot see.
        let mut crawler = Crawler::new(
            server,
            LatencyModel::Fixed(1_000),
            CrawlConfig::ajax().without_static_prune(),
        );

        let (first, history) = crawler.crawl_page_with_history(&url, None).unwrap();
        let (barren, productive) = history.counts();
        assert!(barren > 0, "the title mouseover is barren");
        assert!(productive > 0);

        let (second, _) = crawler
            .crawl_page_with_history(&url, Some(&history))
            .unwrap();
        // Timing differs (fewer events, different jitter sequence); the
        // *content* must not.
        assert_eq!(first.model.states, second.model.states);
        assert_eq!(first.model.transitions, second.model.transitions);
        assert!(
            second.stats.events_fired < first.stats.events_fired,
            "history must cut events: {} !< {}",
            second.stats.events_fired,
            first.stats.events_fired
        );
        assert!(second.stats.events_skipped > 0);
        assert!(
            second.stats.crawl_micros < first.stats.crawl_micros,
            "skipping events must save time"
        );
    }

    #[test]
    fn history_roundtrip_stable() {
        // Crawling with the produced history and collecting a new history
        // must reach a fixpoint (barren keys stay known via carry-over).
        let spec = VidShareSpec::small(50);
        let url = Url::parse(&spec.watch_url(3));
        let server = Arc::new(VidShareServer::new(spec));
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let (_, h1) = crawler.crawl_page_with_history(&url, None).unwrap();
        let (m2, h2) = crawler.crawl_page_with_history(&url, Some(&h1)).unwrap();
        // Productive sets agree.
        assert_eq!(h1.counts().1, h2.counts().1);
        let (m3, _) = crawler.crawl_page_with_history(&url, Some(&h2)).unwrap();
        assert_eq!(m2.model.states, m3.model.states);
        assert_eq!(m2.model.transitions, m3.model.transitions);
    }
}

#[cfg(test)]
mod equiv_tests {
    use super::*;
    use ajax_net::server::{FnServer, Request, Response};
    use std::sync::Arc;

    fn crawl_with(server: Arc<dyn Server>, config: CrawlConfig) -> PageCrawl {
        let mut crawler = Crawler::new(server, LatencyModel::Zero, config);
        crawler.crawl_page(&Url::parse("http://x/page")).unwrap()
    }

    /// The photo-viewer fragment for photo `i` of 3: hero content plus the
    /// prev/next controls (constant-argument handlers, like VidShare's
    /// comment nav — the current photo is never linked, so hero events are
    /// productive in every state).
    fn photo_fragment(i: u32) -> String {
        let mut html = format!("<p>photo {i}</p>");
        if i > 0 {
            html.push_str(&format!(
                "<span class=\"nav\" onclick=\"loadPhoto({})\">prev</span>",
                i - 1
            ));
        }
        if i < 2 {
            html.push_str(&format!(
                "<span class=\"nav\" onclick=\"loadPhoto({})\">next</span>",
                i + 1
            ));
        }
        html
    }

    /// A gallery-style page: one AJAX hero region (productive nav events)
    /// plus redundant per-row caption handlers that are barren everywhere
    /// (each caption div is pre-filled with exactly what its handler
    /// writes) and live in one equivalence class.
    fn gallery_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| {
            match req.url.path.as_str() {
            "/page" => Response::html(format!(
                "<html><head><script>\
                 function loadPhoto(i) {{\
                   var xhr = new XMLHttpRequest();\
                   xhr.open('GET', '/photo?i=' + i, false);\
                   xhr.send(null);\
                   document.getElementById('hero').innerHTML = xhr.responseText;\
                 }}\
                 function showCaption(i) {{ document.getElementById('cap_' + i).innerHTML = 'caption ' + i; }}\
                 </script></head><body>\
                 <div id=\"hero\">{}</div>\
                 <div id=\"caps\">\
                 <div id=\"cap_0\" onclick=\"showCaption(0)\">caption 0</div>\
                 <div id=\"cap_1\" onclick=\"showCaption(1)\">caption 1</div>\
                 <div id=\"cap_2\" onclick=\"showCaption(2)\">caption 2</div>\
                 </div></body></html>",
                photo_fragment(0)
            )),
            "/photo" => match req.url.param("i").and_then(|i| i.parse::<u32>().ok()) {
                Some(i) if i < 3 => Response::html(photo_fragment(i)),
                _ => Response::not_found(),
            },
            _ => Response::not_found(),
        }
        }))
    }

    #[test]
    fn equiv_and_commute_pruning_cut_events_without_changing_the_model() {
        let off = crawl_with(gallery_server(), CrawlConfig::ajax());
        let on = crawl_with(gallery_server(), CrawlConfig::ajax().with_equiv_prune());

        // One caption representative fires in the initial state; its class
        // siblings inherit the barren verdict there, and all captions are
        // carried barren into the photo states across the commuting hero
        // events.
        assert!(on.stats.equiv_pruned_events > 0, "{:?}", on.stats);
        assert!(on.stats.commute_pruned_events > 0, "{:?}", on.stats);
        // Every skipped event is an event the baseline fired.
        assert_eq!(
            on.stats.events_fired + on.stats.equiv_pruned_events + on.stats.commute_pruned_events,
            off.stats.events_fired
        );
        // The acceptance bar: ≥ 40% fewer fired events.
        assert!(
            on.stats.events_fired * 5 <= off.stats.events_fired * 3,
            "expected >=40% reduction: {} vs {}",
            on.stats.events_fired,
            off.stats.events_fired
        );
        // Soundness on this site: the discovered model is identical.
        assert_eq!(on.model.states, off.model.states);
        assert_eq!(on.model.transitions, off.model.transitions);

        // Verify mode fires everything and confirms every claim.
        let verify = crawl_with(gallery_server(), CrawlConfig::ajax().verifying_equiv());
        assert_eq!(verify.stats.equiv_mismatches, 0);
        assert_eq!(verify.stats.events_fired, off.stats.events_fired);
        assert!(verify.stats.equiv_pruned_events + verify.stats.commute_pruned_events > 0);
        assert_eq!(verify.model.states, off.model.states);
        assert_eq!(verify.model.transitions, off.model.transitions);
    }

    /// Two handlers with isomorphic summaries but different runtime
    /// behavior: `setA` rewrites its slot with the content it already has
    /// (barren), `setB` actually changes its slot. The class heuristic
    /// wrongly collapses them — which is exactly why `equiv_prune`
    /// defaults to off and `--verify-equiv` exists.
    fn twin_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                 function setA() { document.getElementById('slot_a').innerHTML = 'alpha'; }\
                 function setB() { document.getElementById('slot_b').innerHTML = 'beta'; }\
                 </script></head><body>\
                 <div id=\"slot_a\" onclick=\"setA()\">alpha</div>\
                 <div id=\"slot_b\" onclick=\"setB()\">other</div>\
                 </body></html>",
            ),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn verify_equiv_counts_mismatches_on_unsound_classes() {
        let off = crawl_with(twin_server(), CrawlConfig::ajax());
        assert_eq!(off.model.state_count(), 2, "setB is productive");

        // Blind pruning loses the state — the documented failure mode.
        let on = crawl_with(twin_server(), CrawlConfig::ajax().with_equiv_prune());
        assert!(on.stats.equiv_pruned_events > 0);
        assert_eq!(on.model.state_count(), 1, "heuristic overreach");

        // Verify mode counts the overreach and keeps the model intact.
        let verify = crawl_with(twin_server(), CrawlConfig::ajax().verifying_equiv());
        assert_eq!(verify.stats.equiv_mismatches, 1, "{:?}", verify.stats);
        assert_eq!(verify.model.states, off.model.states);
        assert_eq!(verify.model.transitions, off.model.transitions);
    }

    /// The list fragment: version `i` of the wrapper content. The rows are
    /// byte-identical across versions (their handlers are barren
    /// everywhere); only the header paragraph changes.
    fn list_fragment(i: u32) -> String {
        format!(
            "<p>list {i}</p>\
             <div id=\"row_0\" onclick=\"touchRow(0)\">row 0</div>\
             <div id=\"row_1\" onclick=\"touchRow(1)\">row 1</div>\
             <span onclick=\"swapList({})\">flip</span>",
            1 - i
        )
    }

    /// A page whose productive event rewrites the *ancestor* of the barren
    /// rows: `swapList` writes `#wrap`, which contains `#row_*`. String
    /// overlap alone would call them disjoint; the document-containment
    /// refinement must block barren inheritance across the swap.
    fn nested_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| {
            match req.url.path.as_str() {
            "/page" => Response::html(format!(
                "<html><head><script>\
                 function swapList(i) {{\
                   var xhr = new XMLHttpRequest();\
                   xhr.open('GET', '/list?i=' + i, false);\
                   xhr.send(null);\
                   document.getElementById('wrap').innerHTML = xhr.responseText;\
                 }}\
                 function touchRow(i) {{ document.getElementById('row_' + i).innerHTML = 'row ' + i; }}\
                 </script></head><body>\
                 <div id=\"wrap\">{}</div>\
                 </body></html>",
                list_fragment(1)
            )),
            "/list" => match req.url.param("i").and_then(|i| i.parse::<u32>().ok()) {
                Some(i) if i < 2 => Response::html(list_fragment(i)),
                _ => Response::not_found(),
            },
            _ => Response::not_found(),
        }
        }))
    }

    #[test]
    fn ancestor_write_blocks_commute_inheritance() {
        let off = crawl_with(nested_server(), CrawlConfig::ajax());
        let on = crawl_with(nested_server(), CrawlConfig::ajax().with_equiv_prune());
        // The row verdicts must NOT ride across the wrap rewrite: each new
        // state re-fires a row representative instead of inheriting.
        assert_eq!(on.stats.commute_pruned_events, 0, "{:?}", on.stats);
        // Within each state the class still collapses the second row.
        assert_eq!(on.stats.equiv_pruned_events, 2, "{:?}", on.stats);
        assert_eq!(on.model.states, off.model.states);
        assert_eq!(on.model.transitions, off.model.transitions);
        let verify = crawl_with(nested_server(), CrawlConfig::ajax().verifying_equiv());
        assert_eq!(verify.stats.equiv_mismatches, 0);
    }
}

#[cfg(test)]
mod focused_tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};
    use std::sync::Arc;

    fn crawl_many(config: CrawlConfig, n: u32) -> PageStats {
        let server = Arc::new(VidShareServer::new(VidShareSpec::small(n)));
        let mut crawler = Crawler::new(server, LatencyModel::Fixed(1_000), config);
        let mut total = PageStats::default();
        for v in 0..n {
            let url = Url::parse(&format!("http://vidshare.example/watch?v={v}"));
            total.merge(&crawler.crawl_page(&url).unwrap().stats);
        }
        total
    }

    #[test]
    fn focused_crawl_saves_work() {
        let full = crawl_many(CrawlConfig::ajax(), 30);
        // "unknown" appears only in the showcase video's description —
        // unlike title words, it never leaks into other pages via
        // related-link anchor text — so every other page is off-topic.
        let focused = crawl_many(CrawlConfig::ajax().focused_on(["unknown"]), 30);
        assert!(
            focused.ajax_network_calls < full.ajax_network_calls / 3,
            "focused {} vs full {}",
            focused.ajax_network_calls,
            full.ajax_network_calls
        );
        assert!(focused.states_not_expanded > 0);
        assert!(focused.crawl_micros < full.crawl_micros);
        assert!(focused.states <= full.states);
    }

    #[test]
    fn focused_crawl_keeps_relevant_states() {
        // The showcase video mentions morcheeba in every state (title), so a
        // morcheeba-focused crawl must discover all of its comment pages.
        let spec = VidShareSpec::small(30);
        let pages = ajax_webgen::video_meta(&spec, 0).comment_pages;
        let server = Arc::new(VidShareServer::new(spec));
        let mut crawler = Crawler::new(
            server,
            LatencyModel::Zero,
            CrawlConfig::ajax().focused_on(["morcheeba"]),
        );
        let crawl = crawler
            .crawl_page(&Url::parse("http://vidshare.example/watch?v=0"))
            .unwrap();
        assert_eq!(crawl.model.state_count(), pages as usize);
        assert_eq!(crawl.stats.states_not_expanded, 0);
    }

    #[test]
    fn unfocused_config_expands_everything() {
        let stats = crawl_many(CrawlConfig::ajax(), 10);
        assert_eq!(stats.states_not_expanded, 0);
    }
}
