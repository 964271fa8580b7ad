//! The embedded "browser": one loaded page = an `ajax-dom` document plus an
//! `ajax-js` interpreter, wired together by a page host that provides the
//! `document` API and an `XMLHttpRequest` whose `send()` is the hot-node
//! interception point of thesis §4.4.

use crate::analysis::ParsedPage;
use crate::crawler::{CpuCostModel, FetchFailure, LastError, RetryPolicy};
use crate::hotnode::HotNodeCache;
use ajax_dom::hash::FnvHashMap;
use ajax_dom::{Document, Fragment, NodeId, NormalizedView};
use ajax_js::ast::Program;
use ajax_js::{GlobalsSnapshot, Host, HostCtx, Interpreter, JsError, ObjId, Value};
use ajax_net::fault::NetError;
use ajax_net::sched::Segment;
use ajax_net::{Micros, NetClient, Url};
use ajax_obs::{AttrValue, Recorder};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Everything an event invocation may touch besides the page itself:
/// network, hot-node cache, cost model, retry policy, the CPU/network
/// trace being recorded for the parallel scheduler, and the span recorder.
pub struct CrawlEnv<'a> {
    pub net: &'a mut NetClient,
    pub cache: &'a mut HotNodeCache,
    /// Whether the hot-node policy is active (Alg. 4.2.1 vs Alg. 3.1.1).
    pub caching_enabled: bool,
    pub costs: &'a CpuCostModel,
    /// Retry policy applied to every fetch issued through this environment.
    pub retry: RetryPolicy,
    /// Alternating CPU/network segments of the page crawl.
    pub trace: &'a mut Vec<Segment>,
    /// Span recorder stamped on the virtual clock (no-op when tracing is
    /// disabled).
    pub rec: &'a mut Recorder,
    /// CPU time accrued since the last network segment.
    cpu_pending: Micros,
    /// Fetch attempts beyond the first (retries), page-wide.
    pub fetch_retries: u64,
}

impl<'a> CrawlEnv<'a> {
    /// Creates an environment around a client, cache, trace buffer and span
    /// recorder.
    pub fn new(
        net: &'a mut NetClient,
        cache: &'a mut HotNodeCache,
        caching_enabled: bool,
        costs: &'a CpuCostModel,
        retry: RetryPolicy,
        trace: &'a mut Vec<Segment>,
        rec: &'a mut Recorder,
    ) -> Self {
        Self {
            net,
            cache,
            caching_enabled,
            costs,
            retry,
            trace,
            rec,
            cpu_pending: 0,
            fetch_retries: 0,
        }
    }

    /// Charges CPU microseconds (virtual) to the clock and the trace.
    pub(crate) fn charge_cpu(&mut self, micros: Micros) {
        self.net.charge_cpu(micros);
        self.cpu_pending += micros;
    }

    /// Charges a pure wait (retry backoff): it occupies the process line
    /// like a network segment but transfers nothing.
    fn wait(&mut self, micros: Micros) {
        if micros == 0 {
            return;
        }
        if self.cpu_pending > 0 {
            self.trace.push(Segment::Cpu(self.cpu_pending));
            self.cpu_pending = 0;
        }
        self.net.charge_wait(micros);
        self.trace.push(Segment::Net(micros));
    }

    /// One fallible fetch: like [`Self::fetch`] but transport faults are
    /// surfaced as [`NetError`] instead of synthetic statuses. The burned
    /// virtual time is recorded in the trace either way.
    pub(crate) fn try_fetch(
        &mut self,
        url: &Url,
    ) -> Result<(ajax_net::Response, Micros), NetError> {
        if self.cpu_pending > 0 {
            self.trace.push(Segment::Cpu(self.cpu_pending));
            self.cpu_pending = 0;
        }
        match self.net.try_fetch_timed(url) {
            Ok((resp, cost)) => {
                self.trace.push(Segment::Net(cost));
                Ok((resp, cost))
            }
            Err(e) => {
                self.trace.push(Segment::Net(e.cost()));
                Err(e)
            }
        }
    }

    /// The resilient fetch: retries transport faults and retryable statuses
    /// under the environment's [`RetryPolicy`], sleeping the deterministic
    /// backoff (virtual micros) between attempts. `Ok` carries a 2xx
    /// response; a non-retryable status returns immediately as
    /// [`FetchFailure::Http`]; running out of attempts (or timeout budget)
    /// returns [`FetchFailure::Exhausted`].
    pub(crate) fn fetch_with_retry(
        &mut self,
        url: &Url,
    ) -> Result<(ajax_net::Response, u32), FetchFailure> {
        let policy = self.retry;
        let budget_start = self.net.now();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let last = match self.try_fetch(url) {
                Ok((resp, _cost)) => {
                    if resp.is_ok() {
                        return Ok((resp, attempt));
                    }
                    if !policy.retry_status(resp.status) {
                        return Err(FetchFailure::Http {
                            response: resp,
                            attempts: attempt,
                        });
                    }
                    LastError::Http(resp.status)
                }
                Err(NetError::Timeout { .. }) => LastError::Timeout,
                Err(NetError::Dropped { .. }) => LastError::Dropped,
            };
            let out_of_budget =
                policy.budget_micros > 0 && self.net.now() - budget_start >= policy.budget_micros;
            if attempt >= policy.max_attempts.max(1) || out_of_budget {
                return Err(FetchFailure::Exhausted {
                    url: url.to_string(),
                    attempts: attempt,
                    last,
                });
            }
            self.fetch_retries += 1;
            self.wait(policy.backoff(&url.to_string(), attempt));
        }
    }

    /// Flushes any pending CPU time into the trace (call at page end).
    pub(crate) fn flush_trace(&mut self) {
        if self.cpu_pending > 0 {
            self.trace.push(Segment::Cpu(self.cpu_pending));
            self.cpu_pending = 0;
        }
    }
}

/// Per-event accounting, reported by [`Browser::fire_event`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct EventOutcome {
    /// JS error raised by the handler, if any (the crawl continues).
    pub js_error: Option<JsError>,
    /// Interpreter steps the handler burned.
    pub js_steps: u64,
    /// AJAX calls that reached the network during this event.
    pub network_calls: u32,
    /// AJAX calls served from the hot-node cache during this event.
    pub cache_hits: u32,
    /// AJAX calls that completed with a non-2xx status (delivered to the
    /// script, which may or may not cope).
    pub failed_xhr: u32,
    /// AJAX calls that exhausted every retry: the script saw status 0 and an
    /// empty body, so the resulting DOM is a *partial* state.
    pub exhausted_xhr: u32,
}

impl EventOutcome {
    /// True when the event attempted at least one AJAX call.
    pub(crate) fn attempted_ajax(&self) -> bool {
        self.network_calls + self.cache_hits > 0
    }
}

/// Host objects live for the duration of one event invocation.
enum HostObj {
    Document,
    Element(NodeId),
    Xhr {
        url: Option<Url>,
        status: u16,
        response: String,
    },
}

/// The `ajax_js::Host` implementation giving page scripts their `document`
/// and `XMLHttpRequest`. Its `send()` implements Step 3 of the heuristic
/// policy (§4.2): intercept, look up the hot-node cache by the URL the
/// request fetches, and only go to the network on a miss.
struct PageHost<'a, 'b> {
    doc: &'a mut Document,
    fragments: &'a mut FragmentMemo,
    base_url: &'a Url,
    env: &'a mut CrawlEnv<'b>,
    objects: FnvHashMap<u32, HostObj>,
    next_obj: u32,
    outcome: &'a mut EventOutcome,
}

const DOC_OBJ: u32 = 0;

impl<'a, 'b> PageHost<'a, 'b> {
    fn new(
        doc: &'a mut Document,
        fragments: &'a mut FragmentMemo,
        base_url: &'a Url,
        env: &'a mut CrawlEnv<'b>,
        outcome: &'a mut EventOutcome,
    ) -> Self {
        let mut objects = FnvHashMap::default();
        objects.insert(DOC_OBJ, HostObj::Document);
        Self {
            doc,
            fragments,
            base_url,
            env,
            objects,
            next_obj: 1,
            outcome,
        }
    }

    fn alloc(&mut self, obj: HostObj) -> ObjId {
        let id = self.next_obj;
        self.next_obj += 1;
        self.objects.insert(id, obj);
        ObjId(id)
    }

    fn xhr_send(&mut self, obj: u32, ctx: &HostCtx<'_>) -> Result<Value, JsError> {
        let url = match self.objects.get(&obj) {
            Some(HostObj::Xhr { url: Some(url), .. }) => url.clone(),
            Some(HostObj::Xhr { url: None, .. }) => {
                return Err(JsError::host("XMLHttpRequest.send() before open()"))
            }
            _ => return Err(JsError::type_error("send() on a non-XHR object")),
        };

        // StackInfo: the topmost user function is the hot node (thesis
        // §4.4.1). The request is keyed by its URL, the whole of what this
        // host sends (`hotnode.rs` says why not by the function's arguments).
        let function = ctx.top_function().unwrap_or("<inline>");
        let key = url.to_string();

        let cached = self
            .env
            .caching_enabled
            .then(|| self.env.cache.lookup(function, &key))
            .flatten();
        let (status, body) = if let Some(cached) = cached {
            self.outcome.cache_hits += 1;
            if self.env.rec.is_on() {
                let now = self.env.net.now();
                self.env.rec.push(
                    "hotnode.hit",
                    now,
                    now,
                    vec![("function", AttrValue::str(function))],
                );
            }
            (200, cached)
        } else {
            // One *logical* network call; retries under the policy are
            // accounted separately (`fetch_retries`).
            self.outcome.network_calls += 1;
            let fetch_start = self.env.net.now();
            let (status, body) = match self.env.fetch_with_retry(&url) {
                Ok((resp, _attempts)) => {
                    if self.env.caching_enabled {
                        self.env.cache.insert(function, key, resp.body.clone());
                    } else {
                        self.env.cache.record_uncached_call();
                    }
                    (resp.status, resp.body)
                }
                Err(FetchFailure::Http { response, .. }) => {
                    // Non-retryable error (e.g. 404): delivered to the
                    // script as a browser would, never cached.
                    self.outcome.failed_xhr += 1;
                    self.env.cache.record_uncached_call();
                    (response.status, response.body)
                }
                Err(FetchFailure::Exhausted { .. }) => {
                    // All retries burned: the script sees what a browser
                    // reports for a network-level failure — status 0, empty
                    // body. The caller flags the resulting state partial.
                    self.outcome.failed_xhr += 1;
                    self.outcome.exhausted_xhr += 1;
                    self.env.cache.record_uncached_call();
                    (0, String::new())
                }
            };
            if self.env.rec.is_on() {
                let end = self.env.net.now();
                self.env.rec.push(
                    "xhr.fetch",
                    fetch_start,
                    end,
                    vec![
                        ("url", AttrValue::str(url.to_string())),
                        ("status", AttrValue::U64(status as u64)),
                    ],
                );
            }
            (status, body)
        };

        if let Some(HostObj::Xhr {
            status: s,
            response,
            ..
        }) = self.objects.get_mut(&obj)
        {
            *s = status;
            *response = body;
        }
        Ok(Value::Undefined)
    }
}

impl Host for PageHost<'_, '_> {
    fn get_global(&mut self, name: &str) -> Option<Value> {
        (name == "document").then_some(Value::Object(ObjId(DOC_OBJ)))
    }

    fn construct(&mut self, class: &str, _args: &[Value]) -> Result<Value, JsError> {
        match class {
            "XMLHttpRequest" => Ok(Value::Object(self.alloc(HostObj::Xhr {
                url: None,
                status: 0,
                response: String::new(),
            }))),
            other => Err(JsError::reference(format!("{other} is not a constructor"))),
        }
    }

    fn call_method(
        &mut self,
        obj: ObjId,
        method: &str,
        args: &[Value],
        ctx: &HostCtx<'_>,
    ) -> Result<Value, JsError> {
        match self.objects.get(&obj.0) {
            Some(HostObj::Document) => match method {
                "getElementById" => {
                    let id = args.first().map(Value::to_string_value).unwrap_or_default();
                    match self.doc.get_element_by_id(&id) {
                        Some(node) => Ok(Value::Object(self.alloc(HostObj::Element(node)))),
                        None => Ok(Value::Null),
                    }
                }
                other => Err(JsError::type_error(format!(
                    "document.{other} is not a function"
                ))),
            },
            Some(HostObj::Xhr { .. }) => match method {
                "open" => {
                    let url_arg = args
                        .get(1)
                        .map(Value::to_string_value)
                        .ok_or_else(|| JsError::host("open() needs a URL"))?;
                    let resolved = self.base_url.resolve(&url_arg);
                    if let Some(HostObj::Xhr { url, .. }) = self.objects.get_mut(&obj.0) {
                        *url = Some(resolved);
                    }
                    Ok(Value::Undefined)
                }
                "send" => self.xhr_send(obj.0, ctx),
                "setRequestHeader" | "abort" => Ok(Value::Undefined),
                other => Err(JsError::type_error(format!(
                    "xhr.{other} is not a function"
                ))),
            },
            Some(HostObj::Element(_)) => match method {
                "getAttribute" => {
                    let Some(HostObj::Element(node)) = self.objects.get(&obj.0) else {
                        unreachable!("matched element above")
                    };
                    let name = args.first().map(Value::to_string_value).unwrap_or_default();
                    Ok(self
                        .doc
                        .attr(*node, &name)
                        .map(Value::str)
                        .unwrap_or(Value::Null))
                }
                other => Err(JsError::type_error(format!(
                    "element.{other} is not a function"
                ))),
            },
            None => Err(JsError::type_error("method call on a stale object")),
        }
    }

    fn get_property(&mut self, obj: ObjId, prop: &str) -> Result<Value, JsError> {
        match self.objects.get(&obj.0) {
            Some(HostObj::Xhr {
                status, response, ..
            }) => Ok(match prop {
                "responseText" => Value::str(response.clone()),
                "status" => Value::Num(f64::from(*status)),
                "readyState" => Value::Num(4.0),
                _ => Value::Undefined,
            }),
            Some(HostObj::Element(node)) => Ok(match prop {
                "innerHTML" => Value::str(self.doc.inner_html(*node)),
                "id" => self
                    .doc
                    .attr(*node, "id")
                    .map(Value::str)
                    .unwrap_or(Value::Undefined),
                "tagName" => self
                    .doc
                    .tag_name(*node)
                    .map(|t| Value::str(t.to_uppercase()))
                    .unwrap_or(Value::Undefined),
                _ => Value::Undefined,
            }),
            Some(HostObj::Document) => Ok(Value::Undefined),
            None => Err(JsError::type_error("property read on a stale object")),
        }
    }

    fn set_property(&mut self, obj: ObjId, prop: &str, value: Value) -> Result<(), JsError> {
        match (self.objects.get(&obj.0), prop) {
            (Some(HostObj::Element(node)), "innerHTML") => {
                let node = *node;
                let html = value.to_string_value();
                // Re-parsing the fragment is CPU work (incremental model
                // maintenance is the thesis' main non-network cost, §7.2.3),
                // charged per refill though a text is parsed once per page.
                self.env.charge_cpu(self.env.costs.parse_cost(html.len()));
                // One hash of the text when it is known, as it mostly is.
                let fragment = match self.fragments.get(html.as_str()) {
                    Some(parsed) => Arc::clone(parsed),
                    None => {
                        let parsed = Arc::new(Fragment::parse(&html));
                        self.fragments.insert(html.into(), Arc::clone(&parsed));
                        parsed
                    }
                };
                self.doc.set_inner_fragment(node, &fragment);
                Ok(())
            }
            (Some(_), _) => Ok(()), // Setting other props is a tolerated no-op.
            (None, _) => Err(JsError::type_error("property write on a stale object")),
        }
    }
}

/// The `innerHTML` texts a page has assigned so far, parsed and
/// normalized. A crawl assigns few distinct texts many times over (a
/// placeholder, the same cached response after every rollback); refilling
/// from the parse shares its payloads instead of tokenizing again, and the
/// page's next view copies the fragment's normalized text instead of
/// walking the new nodes. Lives and dies with the page.
type FragmentMemo = HashMap<Box<str>, Arc<Fragment>>;

/// A snapshot of the browser: DOM + JS globals, plus the normalized view
/// the state was hashed from. Cloned per discovered state and restored
/// before each event — the rollback of Alg. 3.1.1, line 17.
#[derive(Clone)]
pub(crate) struct BrowserSnapshot {
    doc: Document,
    view: Rc<NormalizedView>,
    globals: GlobalsSnapshot,
}

impl BrowserSnapshot {
    /// The snapshotted DOM (used for transition-target diffing).
    pub(crate) fn doc(&self) -> &Document {
        &self.doc
    }

    /// The normalized view of [`Self::doc`].
    pub(crate) fn view(&self) -> &NormalizedView {
        &self.view
    }
}

/// The loaded page: document + interpreter.
pub struct Browser {
    url: Url,
    doc: Document,
    interp: Interpreter,
    /// The normalized view `doc` had when its mutation log was last
    /// started: set by [`Self::view`] and [`Self::restore`]. What scripts
    /// do to the page since is in the log, and the next view is this one
    /// with those changes spliced in; [`Self::doc_mut`] hands the document
    /// out and drops it.
    view: Option<Rc<NormalizedView>>,
    fragments: FragmentMemo,
}

impl Browser {
    /// Loads a page: parses `html`, runs its `<script>` bodies, and fires
    /// `body.onload` (the AJAX-specific init of Alg. 3.1.1, line 3).
    /// Script errors are collected, not fatal.
    pub fn load(
        url: Url,
        html: &str,
        js_fuel: u64,
        env: &mut CrawlEnv<'_>,
    ) -> (Self, Vec<JsError>) {
        let (browser, errors, _outcome) = Self::load_with_outcome(url, html, js_fuel, env);
        (browser, errors)
    }

    /// Like [`Self::load`], also returning the aggregate [`EventOutcome`] of
    /// the load-time scripts and `onload` handler (XHR accounting: a page
    /// whose load-time XHR exhausts its retries starts in a partial state).
    pub(crate) fn load_with_outcome(
        url: Url,
        html: &str,
        js_fuel: u64,
        env: &mut CrawlEnv<'_>,
    ) -> (Self, Vec<JsError>, EventOutcome) {
        env.charge_cpu(env.costs.parse_cost(html.len()));
        let page = ParsedPage::parse(html);
        Self::load_parsed(url, page.doc, &page.scripts, js_fuel, env)
    }

    /// [`Self::load_with_outcome`] for a page the caller has parsed (and
    /// charged the parse of): `doc` as the server sent it, and its
    /// `<script>` bodies in document order. A script that did not parse
    /// reports its error where it would have run.
    pub(crate) fn load_parsed(
        url: Url,
        doc: Document,
        scripts: &[Result<Program, JsError>],
        js_fuel: u64,
        env: &mut CrawlEnv<'_>,
    ) -> (Self, Vec<JsError>, EventOutcome) {
        let mut browser = Self {
            url,
            doc,
            interp: Interpreter::with_fuel(js_fuel),
            view: None,
            fragments: FragmentMemo::new(),
        };
        let mut errors = Vec::new();
        let mut outcome = EventOutcome::default();

        for script in scripts {
            let ran = match script {
                Ok(program) => browser.run_js(Code::Program(program), env, &mut outcome),
                Err(e) => Err(e.clone()),
            };
            errors.extend(ran.err());
        }
        if let Some(onload) = ajax_dom::events::body_onload(&browser.doc) {
            errors.extend(
                browser
                    .run_js(Code::Snippet(&onload), env, &mut outcome)
                    .err(),
            );
        }
        (browser, errors, outcome)
    }

    /// The current DOM.
    pub(crate) fn doc(&self) -> &Document {
        &self.doc
    }

    /// Mutable DOM access (tests and replay tooling).
    #[cfg(test)]
    pub(crate) fn doc_mut(&mut self) -> &mut Document {
        self.view = None;
        &mut self.doc
    }

    /// The interpreter (for inspecting globals in tests).
    #[cfg(test)]
    pub(crate) fn interp(&self) -> &Interpreter {
        &self.interp
    }

    /// Fires one event handler snippet against the current state.
    pub(crate) fn fire_event(&mut self, code: &str, env: &mut CrawlEnv<'_>) -> EventOutcome {
        let mut outcome = EventOutcome::default();
        if let Err(e) = self.run_js(Code::Snippet(code), env, &mut outcome) {
            outcome.js_error = Some(e);
        }
        outcome
    }

    fn run_js(
        &mut self,
        code: Code<'_>,
        env: &mut CrawlEnv<'_>,
        outcome: &mut EventOutcome,
    ) -> Result<(), JsError> {
        let steps_before = self.interp.steps();
        let mut host = PageHost::new(&mut self.doc, &mut self.fragments, &self.url, env, outcome);
        let result = match code {
            Code::Program(program) => self.interp.run_program(program, &mut host),
            Code::Snippet(src) => self.interp.eval(src, &mut host).map(|_| ()),
        };
        let steps = self.interp.steps() - steps_before;
        outcome.js_steps += steps;
        env.charge_cpu(env.costs.js_cost(steps));
        result
    }

    /// Snapshots the browser (DOM + JS globals) for later rollback. The
    /// snapshot keeps the view of the page as it stands, so diffing
    /// against it later serializes nothing.
    pub(crate) fn snapshot(&mut self) -> BrowserSnapshot {
        // Index the live page first: the snapshot, its restores and the
        // page itself (whose first restore keeps its DOM) then share one.
        self.doc.ensure_id_index();
        let view = self.view();
        BrowserSnapshot {
            doc: self.doc.clone(),
            view,
            globals: self.interp.snapshot_globals(),
        }
    }

    /// Restores a snapshot taken earlier on this page.
    pub(crate) fn restore(&mut self, snapshot: &BrowserSnapshot) {
        // Holding the snapshot's own view with nothing logged since means
        // nothing touched the page since this snapshot was taken or last
        // restored: the DOM already equals it. The globals are copied back
        // regardless — a snapshot holds each global as its own deep copy,
        // so restoring also unshares objects that two globals of the live
        // page still alias.
        let dom_intact = !self.doc.changed_since_view()
            && self
                .view
                .as_ref()
                .is_some_and(|view| Rc::ptr_eq(view, &snapshot.view));
        if !dom_intact {
            self.doc = snapshot.doc.clone();
            self.view = Some(Rc::clone(&snapshot.view));
        }
        self.interp.restore_globals(&snapshot.globals);
    }

    /// Content hash of the current DOM: FNV-64 of [`Self::normalize`]'s
    /// text, the name the state is stored under.
    pub(crate) fn state_hash(&mut self, env: &mut CrawlEnv<'_>) -> u64 {
        self.normalize(env).hash()
    }

    /// The one normalization of a fired event, charged as hashing the
    /// state: [`Self::view`], which a following [`Self::snapshot`] reuses.
    pub(crate) fn normalize(&mut self, env: &mut CrawlEnv<'_>) -> Rc<NormalizedView> {
        let view = self.view();
        env.charge_cpu(env.costs.hash_cost(view.text().len()));
        view
    }

    /// The normalized view of the current DOM: the one held, when nothing
    /// touched the page since it was taken; otherwise that one with what
    /// the page's mutation log names spliced in (a full walk the first
    /// time, and after [`Self::doc_mut`]).
    pub(crate) fn view(&mut self) -> Rc<NormalizedView> {
        match &self.view {
            Some(view) if !self.doc.changed_since_view() => Rc::clone(view),
            base => {
                let view = Rc::new(self.doc.take_view(base.as_deref()));
                self.view = Some(Rc::clone(&view));
                view
            }
        }
    }
}

/// What [`Browser::run_js`] runs: a parsed `<script>` body, or the source
/// of a handler attribute (the interpreter keeps those parsed itself).
enum Code<'a> {
    Program(&'a Program),
    Snippet(&'a str),
}
