//! Interprocedural effect analysis over the invocation graph.
//!
//! The invocation graph (`callgraph.rs`) answers *who calls whom*; this
//! module answers *what actually happens* when a function runs. Each
//! function gets a [`LocalEffects`] record collected syntactically from its
//! body, and [`EffectAnalysis`] folds those records bottom-up over the SCC
//! condensation of the call graph into per-function [`EffectSummary`]s:
//! which DOM ids are written (constant-propagated through parameters),
//! whether an XHR is reachable and how its URL is formed (predicting
//! hot-node cache hitability), which globals are read or written, which
//! called functions do not exist, and whether the function may fail to
//! terminate.
//!
//! The analysis is deliberately *conservative in one direction*: a handler
//! is reported pure only when every effect channel the interpreter exposes
//! (element `innerHTML` writes, `XMLHttpRequest` traffic, global bindings,
//! shared-array mutation, host dispatch) is provably absent. Anything the
//! collector cannot classify marks the function opaque and therefore
//! impure. That one-sidedness is what lets the crawler skip firing events
//! bound to pure handlers without changing the discovered state machine —
//! and the `--verify` mode in `ajax-crawl` cross-checks the claim at
//! runtime.

use crate::ast::{AssignOp, AssignTarget, BinOp, Binding, Expr, FunctionDecl, Program, Stmt, UnOp};
use crate::callgraph::InvocationGraph;
use crate::parser::parse_program;
use crate::value::format_number;
use crate::JsError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Where a value handed to an effectful operation comes from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ValueSource {
    /// A compile-time constant (literals and foldable concatenations),
    /// rendered as the string the interpreter would produce.
    Const(String),
    /// A string known to *start* with this constant prefix, with a
    /// parameter-shaped tail (`'row_' + i` id construction, `'/c?p=' + p`
    /// URL templates). Concatenations whose tail is computed from mutable
    /// state stay [`ValueSource::Dynamic`].
    ConstPrefix(String),
    /// The caller's n-th argument, verbatim.
    Param(usize),
    /// Anything else: globals, computed values, branch-dependent state.
    Dynamic,
}

/// One syntactic call site inside a function body, with its arguments
/// classified so the interprocedural pass can substitute them into the
/// callee's parameter-relative effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub callee: String,
    pub(crate) args: Vec<ValueSource>,
    pub(crate) line: u32,
}

/// Syntactic (intraprocedural) effects of one function body. Stored on
/// [`crate::callgraph::FunctionNode`] so a graph carries everything the
/// fixpoint needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalEffects {
    /// Element ids written via `innerHTML` where the id is a constant.
    pub(crate) dom_write_ids: BTreeSet<String>,
    /// `innerHTML` writes whose target id starts with a constant prefix
    /// (`'row_' + i` construction with a parameter-shaped tail).
    pub(crate) dom_write_prefixes: BTreeSet<String>,
    /// `innerHTML` writes whose target id is the n-th parameter.
    pub(crate) dom_write_params: BTreeSet<usize>,
    /// `innerHTML` write to a target the analysis cannot name.
    pub(crate) dom_write_dynamic: bool,
    /// Element ids looked up via `getElementById` with a constant id —
    /// the read half of the read/write-set abstraction. A write target is
    /// also a read (the element is located before it is mutated).
    pub(crate) dom_read_ids: BTreeSet<String>,
    /// Constant-prefix `getElementById` lookups.
    pub(crate) dom_read_prefixes: BTreeSet<String>,
    /// `getElementById` lookups whose id is the n-th parameter.
    pub(crate) dom_read_params: BTreeSet<usize>,
    /// A `getElementById` the analysis cannot name.
    pub(crate) dom_read_dynamic: bool,
    /// XHR URLs sent that are compile-time constants.
    pub(crate) xhr_const_urls: BTreeSet<String>,
    /// XHR URL templates: a constant prefix with a parameter-shaped tail.
    pub(crate) xhr_url_prefixes: BTreeSet<String>,
    /// XHRs whose URL is the n-th parameter, verbatim.
    pub(crate) xhr_url_params: BTreeSet<usize>,
    /// An XHR whose URL is computed (or an `open`/`send` on an object the
    /// analysis cannot prove is not an XHR).
    pub(crate) xhr_dynamic: bool,
    /// Global variables read.
    pub(crate) reads_globals: BTreeSet<String>,
    /// Global variables written (including shared arrays/objects mutated
    /// through method calls, and nested function declarations, which the
    /// interpreter hoists into the global function table).
    pub(crate) writes_globals: BTreeSet<String>,
    /// Contains a `while`/`for` loop.
    pub(crate) has_loop: bool,
    /// The body does something outside the modeled effect space.
    pub(crate) opaque: bool,
    /// Constant ids written twice in straight-line code with no
    /// intervening read or call — the earlier write is dead (SA010).
    pub(crate) overwritten_ids: BTreeSet<String>,
    /// Outgoing calls with classified arguments.
    pub call_sites: Vec<CallSite>,
}

/// How a function's outgoing XHR URLs are formed — a static prediction of
/// hot-node cache hitability. Constant URLs re-hit the crawler's hot-node
/// cache on every invocation; parameter-derived URLs re-hit whenever the
/// handler's arguments build a URL already fetched; dynamic URLs (derived
/// from mutable globals or computed state) may never re-hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum XhrClass {
    /// No XHR reachable.
    None,
    /// All reachable XHR URLs are compile-time constants.
    Constant,
    /// URLs flow in through parameters (cacheable per distinct URL).
    ParamDerived,
    /// At least one URL is computed from non-constant state.
    Dynamic,
}

/// Transitive effects of calling a function, the fixpoint of
/// [`LocalEffects`] over the call graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    pub dom_write_ids: BTreeSet<String>,
    pub dom_write_prefixes: BTreeSet<String>,
    pub dom_write_params: BTreeSet<usize>,
    pub dom_write_dynamic: bool,
    pub dom_read_ids: BTreeSet<String>,
    pub dom_read_prefixes: BTreeSet<String>,
    pub dom_read_params: BTreeSet<usize>,
    pub dom_read_dynamic: bool,
    pub xhr_const_urls: BTreeSet<String>,
    pub xhr_url_prefixes: BTreeSet<String>,
    pub xhr_url_params: BTreeSet<usize>,
    pub xhr_dynamic: bool,
    pub reads_globals: BTreeSet<String>,
    pub writes_globals: BTreeSet<String>,
    /// Called names that are neither user functions nor known builtins —
    /// guaranteed `ReferenceError`s if the call site executes.
    pub calls_undefined: BTreeSet<String>,
    /// Loops or call-graph cycles reachable: termination not provable.
    pub may_not_terminate: bool,
    /// Something un-modeled is reachable; all purity bets are off.
    pub opaque: bool,
}

/// Widening cap for the per-channel location sets: a set that outgrows
/// this many members collapses to the dynamic/`Any` flag. The program's
/// constant pool is finite, so this is a backstop, not the usual exit.
pub(crate) const WIDEN_CAP: usize = 32;

impl EffectSummary {
    /// True when running this code can mutate the DOM.
    pub(crate) fn writes_dom(&self) -> bool {
        !self.dom_write_ids.is_empty()
            || !self.dom_write_prefixes.is_empty()
            || !self.dom_write_params.is_empty()
            || self.dom_write_dynamic
    }

    /// True when running this code can cause server traffic.
    pub fn reaches_network(&self) -> bool {
        !self.xhr_const_urls.is_empty()
            || !self.xhr_url_prefixes.is_empty()
            || !self.xhr_url_params.is_empty()
            || self.xhr_dynamic
    }

    /// The DOM locations this code may write, as an abstract-location set.
    /// Parameter-indexed writes that survived into the summary (a snippet
    /// has no parameters to substitute) degrade to `Any`.
    pub fn write_locs(&self) -> crate::absdom::LocSet {
        locs_of(
            &self.dom_write_ids,
            &self.dom_write_prefixes,
            self.dom_write_dynamic || !self.dom_write_params.is_empty(),
        )
    }

    /// The DOM locations this code may read. Write targets are included —
    /// the element is located before it is mutated.
    pub fn read_locs(&self) -> crate::absdom::LocSet {
        let mut locs = locs_of(
            &self.dom_read_ids,
            &self.dom_read_prefixes,
            self.dom_read_dynamic || !self.dom_read_params.is_empty(),
        );
        locs.union(&self.write_locs());
        locs
    }

    /// Widens every location set past [`WIDEN_CAP`] into its dynamic
    /// flag, bounding the lattice height of the interprocedural fixpoint.
    fn widen(&mut self) {
        widen_channel(
            &mut self.dom_write_ids,
            &mut self.dom_write_prefixes,
            &mut self.dom_write_dynamic,
        );
        widen_channel(
            &mut self.dom_read_ids,
            &mut self.dom_read_prefixes,
            &mut self.dom_read_dynamic,
        );
        widen_channel(
            &mut self.xhr_const_urls,
            &mut self.xhr_url_prefixes,
            &mut self.xhr_dynamic,
        );
    }

    /// True when the code provably cannot change application state: no DOM
    /// writes, no network, no global writes, no calls to undefined
    /// functions (which the interpreter would still tolerate, but which
    /// mean the analysis mis-modeled the page), and nothing opaque.
    /// Global *reads* and possible non-termination are allowed — a looping
    /// handler burns fuel and errors out without mutating anything.
    pub fn is_pure(&self) -> bool {
        !self.writes_dom()
            && !self.reaches_network()
            && self.writes_globals.is_empty()
            && self.calls_undefined.is_empty()
            && !self.opaque
    }

    /// Classifies the reachable XHR traffic for cache-hitability. URL
    /// templates (constant prefix + parameter tail) re-hit per distinct
    /// URL, exactly like verbatim parameter URLs.
    pub(crate) fn xhr_class(&self) -> XhrClass {
        if self.xhr_dynamic {
            XhrClass::Dynamic
        } else if !self.xhr_url_params.is_empty() || !self.xhr_url_prefixes.is_empty() {
            XhrClass::ParamDerived
        } else if !self.xhr_const_urls.is_empty() {
            XhrClass::Constant
        } else {
            XhrClass::None
        }
    }
}

/// Builds a [`crate::absdom::LocSet`] from one effect channel.
fn locs_of(
    ids: &BTreeSet<String>,
    prefixes: &BTreeSet<String>,
    dynamic: bool,
) -> crate::absdom::LocSet {
    use crate::absdom::{AbsLoc, LocSet};
    if dynamic {
        return LocSet::any();
    }
    let mut locs = LocSet::new();
    for id in ids {
        locs.insert(AbsLoc::Id(id.clone()));
    }
    for p in prefixes {
        locs.insert(AbsLoc::Prefix(p.clone()));
    }
    locs
}

/// Widens one channel's `(ids, prefixes)` pair into its dynamic flag
/// once the combined set outgrows [`WIDEN_CAP`].
fn widen_channel(ids: &mut BTreeSet<String>, prefixes: &mut BTreeSet<String>, dynamic: &mut bool) {
    if ids.len() + prefixes.len() > WIDEN_CAP {
        ids.clear();
        prefixes.clear();
        *dynamic = true;
    }
}

/// Diagnostic severity, ordered so `Error` compares greatest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint catalogue. Codes are stable; `docs/static-analysis.md` is the
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// SA001: a `<script>` block failed to parse (analysis is best-effort).
    ScriptParseError,
    /// SA002: a reachable call names a function that does not exist.
    CallsUndefined,
    /// SA003: a function was redefined (later `<script>` block wins).
    HandlerRedefinition,
    /// SA004: a declared function is unreachable from any handler, onload,
    /// or top-level call.
    DeadFunction,
    /// SA005: a constant DOM-write target id does not exist in the document.
    DomWriteUnknownId,
    /// SA006: a hot node sends XHRs with computed URLs — the hot-node cache
    /// may never re-hit for it.
    DynamicHotCall,
    /// SA007: an event handler is provably stateless (the crawler can skip
    /// firing it).
    StatelessHandler,
    /// SA008: a handler reaches a loop or call-graph cycle; termination is
    /// not provable (the interpreter's fuel limit still bounds it).
    NonTerminating,
    /// SA009: two handlers bound on the same element have overlapping DOM
    /// write sets — their firing order is observable.
    WriteSetConflict,
    /// SA010: a constant id is written twice in straight-line code with no
    /// intervening read or call; the first write is dead.
    AlwaysOverwritten,
    /// SA011: a function both reads and writes the same global — firing it
    /// twice is not idempotent (a self-race under re-entry).
    SelfRace,
    /// SA012: a handler's DOM write set is unbounded (`*`), defeating
    /// equivalence and commutativity pruning.
    UnboundedWriteSet,
}

impl Lint {
    pub fn code(self) -> &'static str {
        match self {
            Lint::ScriptParseError => "SA001",
            Lint::CallsUndefined => "SA002",
            Lint::HandlerRedefinition => "SA003",
            Lint::DeadFunction => "SA004",
            Lint::DomWriteUnknownId => "SA005",
            Lint::DynamicHotCall => "SA006",
            Lint::StatelessHandler => "SA007",
            Lint::NonTerminating => "SA008",
            Lint::WriteSetConflict => "SA009",
            Lint::AlwaysOverwritten => "SA010",
            Lint::SelfRace => "SA011",
            Lint::UnboundedWriteSet => "SA012",
        }
    }

    pub(crate) fn severity(self) -> Severity {
        match self {
            Lint::ScriptParseError | Lint::CallsUndefined => Severity::Error,
            Lint::HandlerRedefinition
            | Lint::DeadFunction
            | Lint::DomWriteUnknownId
            | Lint::WriteSetConflict
            | Lint::AlwaysOverwritten => Severity::Warning,
            Lint::DynamicHotCall
            | Lint::StatelessHandler
            | Lint::NonTerminating
            | Lint::SelfRace
            | Lint::UnboundedWriteSet => Severity::Info,
        }
    }
}

/// One finding from the diagnostics pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub lint: Lint,
    /// What the finding is about (function name, binding description, …).
    pub subject: String,
    pub message: String,
}

impl Diagnostic {
    pub fn new(lint: Lint, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            subject: subject.into(),
            message: message.into(),
        }
    }

    pub fn severity(&self) -> Severity {
        self.lint.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.lint.code(),
            self.subject,
            self.message
        )
    }
}

/// Global function names the interpreter resolves natively; calling these
/// is effect-free and never a `ReferenceError`.
fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "parseInt" | "parseFloat" | "String" | "Number" | "isNaN"
    )
}

/// Methods that never mutate their receiver regardless of its type
/// (string/array/dict read accessors in the interpreter).
fn is_pure_method(name: &str) -> bool {
    matches!(
        name,
        "charAt"
            | "indexOf"
            | "lastIndexOf"
            | "substring"
            | "substr"
            | "slice"
            | "toLowerCase"
            | "toUpperCase"
            | "split"
            | "join"
            | "concat"
            | "replace"
            | "trim"
            | "toString"
            | "getAttribute"
    )
}

/// Host-provided globals; referencing them is not a user-global read.
fn is_host_global(name: &str) -> bool {
    matches!(name, "document" | "window" | "Math")
}

// ---------------------------------------------------------------------------
// Intraprocedural collection
// ---------------------------------------------------------------------------

/// Abstract value a local binding can hold during the linear walk.
#[derive(Debug, Clone)]
enum AbstractVal {
    NumConst(f64),
    StrConst(String),
    /// A string known to start with this constant prefix, followed by a
    /// parameter-shaped tail (`'row_' + i`). Tails computed from mutable
    /// state degrade to [`AbstractVal::Other`] instead.
    StrPrefix(String),
    Param(usize),
    /// `document.getElementById(src)` result.
    Element(ValueSource),
    /// An `XMLHttpRequest`, with the URL recorded at `open()` time.
    Xhr(Option<ValueSource>),
    Other,
}

fn classify(v: &AbstractVal) -> ValueSource {
    match v {
        AbstractVal::NumConst(n) => ValueSource::Const(format_number(*n)),
        AbstractVal::StrConst(s) => ValueSource::Const(s.clone()),
        AbstractVal::StrPrefix(s) => ValueSource::ConstPrefix(s.clone()),
        AbstractVal::Param(i) => ValueSource::Param(*i),
        _ => ValueSource::Dynamic,
    }
}

struct EffectCollector {
    /// What each assigned frame slot holds ([`Binding::Local`]); globals
    /// are not tracked.
    env: BTreeMap<usize, AbstractVal>,
    fx: LocalEffects,
    /// Nesting depth of conditional/loop constructs; the SA010 dead-write
    /// check only tracks straight-line (depth-0) code.
    branch_depth: u32,
    /// Constant ids written on the current straight-line path with no
    /// intervening content read or user-function call. A second write to a
    /// member makes the earlier one dead (SA010).
    linear_writes: BTreeSet<String>,
}

/// Computes the syntactic effects of a declared function's body.
pub(crate) fn local_effects_of_function(decl: &FunctionDecl) -> LocalEffects {
    local_effects(decl.params.len(), &decl.body)
}

/// Computes the syntactic effects of a parameterless statement list (a
/// handler snippet or a `<script>` block's top level).
pub fn local_effects_of_snippet(body: &[Stmt]) -> LocalEffects {
    local_effects(0, body)
}

/// Collects a body whose first `params` slots hold the parameters.
fn local_effects(params: usize, body: &[Stmt]) -> LocalEffects {
    let mut c = EffectCollector {
        env: (0..params).map(|i| (i, AbstractVal::Param(i))).collect(),
        fx: LocalEffects::default(),
        branch_depth: 0,
        linear_writes: BTreeSet::new(),
    };
    for stmt in body {
        c.visit_stmt(stmt);
    }
    c.fx
}

impl EffectCollector {
    fn visit_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::VarDecl {
                name,
                binding,
                init,
                ..
            } => {
                let val = match init {
                    Some(e) => self.eval(e),
                    None => AbstractVal::Other,
                };
                self.write_var(name, *binding, val);
            }
            Stmt::Expr(e) => {
                self.eval(e);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.eval(cond);
                self.branch_depth += 1;
                then_branch.iter().for_each(|s| self.visit_stmt(s));
                else_branch.iter().for_each(|s| self.visit_stmt(s));
                self.branch_depth -= 1;
            }
            Stmt::While { cond, body } => {
                self.fx.has_loop = true;
                self.eval(cond);
                self.branch_depth += 1;
                body.iter().for_each(|s| self.visit_stmt(s));
                self.branch_depth -= 1;
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                self.fx.has_loop = true;
                if let Some(s) = init {
                    self.visit_stmt(s);
                }
                if let Some(e) = cond {
                    self.eval(e);
                }
                self.branch_depth += 1;
                if let Some(e) = update {
                    self.eval(e);
                }
                body.iter().for_each(|s| self.visit_stmt(s));
                self.branch_depth -= 1;
            }
            Stmt::Return(Some(e)) => {
                self.eval(e);
            }
            Stmt::Block(b) => b.iter().for_each(|s| self.visit_stmt(s)),
            // Executing a nested function declaration installs it in the
            // *global* function table — a global write.
            Stmt::Function(decl) => {
                self.fx.writes_globals.insert(decl.name.clone());
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Empty => {}
        }
    }

    fn eval(&mut self, expr: &Expr) -> AbstractVal {
        match expr {
            Expr::Num(n) => AbstractVal::NumConst(*n),
            Expr::Str(s) => AbstractVal::StrConst(s.to_string()),
            Expr::Bool(_) | Expr::Null | Expr::Undefined => AbstractVal::Other,
            Expr::ArrayLit(items) => {
                items.iter().for_each(|e| {
                    self.eval(e);
                });
                AbstractVal::Other
            }
            Expr::ObjectLit(entries) => {
                entries.iter().for_each(|(_, e)| {
                    self.eval(e);
                });
                AbstractVal::Other
            }
            Expr::Index { object, index } => {
                self.eval(object);
                self.eval(index);
                AbstractVal::Other
            }
            Expr::Ident { name, binding, .. } => self.read_var(name, *binding),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                if *op == BinOp::Add {
                    fold_add(&a, &b)
                } else {
                    AbstractVal::Other
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.eval(a);
                self.eval(b);
                AbstractVal::Other
            }
            Expr::Unary { op, expr } => {
                let v = self.eval(expr);
                match (op, v) {
                    (UnOp::Neg, AbstractVal::NumConst(n)) => AbstractVal::NumConst(-n),
                    _ => AbstractVal::Other,
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.eval(cond);
                self.eval(then_expr);
                self.eval(else_expr);
                AbstractVal::Other
            }
            Expr::Assign { op, target, value } => {
                let v = self.eval(value);
                self.assign(
                    target,
                    if *op == AssignOp::Assign {
                        v
                    } else {
                        AbstractVal::Other
                    },
                );
                AbstractVal::Other
            }
            Expr::PostIncDec { target, .. } => {
                self.assign(target, AbstractVal::Other);
                AbstractVal::Other
            }
            Expr::Call { callee, args, line } => {
                let sources: Vec<ValueSource> = args
                    .iter()
                    .map(|a| {
                        let v = self.eval(a);
                        classify(&v)
                    })
                    .collect();
                self.fx.call_sites.push(CallSite {
                    callee: callee.clone(),
                    args: sources,
                    line: *line,
                });
                // The callee may read any element: earlier writes are live.
                if !is_builtin(callee) {
                    self.linear_writes.clear();
                }
                AbstractVal::Other
            }
            Expr::MethodCall {
                object,
                method,
                args,
                ..
            } => self.method_call(object, method, args),
            Expr::Member { object, .. } => {
                // Property reads (`.length`, `.responseText`, `.innerHTML`)
                // never mutate; the receiver read is recorded by `eval`.
                let obj = self.eval(object);
                // Reading an element's content keeps its last write live
                // for the SA010 dead-write check.
                if let AbstractVal::Element(ValueSource::Const(id)) = &obj {
                    self.linear_writes.remove(id);
                }
                AbstractVal::Other
            }
            Expr::New { class, args, .. } => {
                args.iter().for_each(|a| {
                    self.eval(a);
                });
                if class == "XMLHttpRequest" {
                    AbstractVal::Xhr(None)
                } else {
                    // Unknown constructors are a runtime error; the handler
                    // aborts, but the analysis stays conservative.
                    self.fx.opaque = true;
                    AbstractVal::Other
                }
            }
        }
    }

    fn read_var(&mut self, name: &str, binding: Binding) -> AbstractVal {
        match binding {
            Binding::Local(slot) => self.env.get(&slot).cloned().unwrap_or(AbstractVal::Other),
            Binding::Global => {
                if !is_host_global(name) {
                    self.fx.reads_globals.insert(name.to_string());
                }
                AbstractVal::Other
            }
        }
    }

    fn write_var(&mut self, name: &str, binding: Binding, value: AbstractVal) {
        match binding {
            Binding::Local(slot) => {
                self.env.insert(slot, value);
            }
            Binding::Global => {
                self.fx.writes_globals.insert(name.to_string());
            }
        }
    }

    fn assign(&mut self, target: &AssignTarget, value: AbstractVal) {
        match target {
            AssignTarget::Ident { name, binding } => self.write_var(name, *binding, value),
            AssignTarget::Member { object, prop } => {
                let obj = self.eval(object);
                if prop == "innerHTML" {
                    match obj {
                        AbstractVal::Element(src) => self.record_dom_write(src),
                        // The host ignores `innerHTML` on non-elements, but
                        // an unknown receiver might be an element.
                        AbstractVal::Xhr(_) => {}
                        _ => self.fx.dom_write_dynamic = true,
                    }
                } else {
                    self.mutate_receiver(object, &obj);
                }
            }
            AssignTarget::Index { object, index } => {
                let obj = self.eval(object);
                self.eval(index);
                self.mutate_receiver(object, &obj);
            }
        }
    }

    /// A property/element store (or mutating method) hit `object`. Arrays
    /// and dicts are `Rc`-shared, so mutating a global-held value is a
    /// global write; mutating anything we cannot trace is opaque.
    fn mutate_receiver(&mut self, object: &Expr, obj: &AbstractVal) {
        match obj {
            // Host objects swallow unknown property stores.
            AbstractVal::Element(_) | AbstractVal::Xhr(_) => {}
            _ => match object {
                Expr::Ident {
                    name,
                    binding: Binding::Global,
                    ..
                } if !is_host_global(name) => {
                    self.fx.writes_globals.insert(name.clone());
                }
                _ => self.fx.opaque = true,
            },
        }
    }

    fn record_dom_write(&mut self, src: ValueSource) {
        match src {
            ValueSource::Const(id) => {
                // Straight-line re-write of an id whose previous write no
                // read or call could have observed: the earlier one is dead.
                if self.branch_depth == 0 {
                    if !self.linear_writes.insert(id.clone()) {
                        self.fx.overwritten_ids.insert(id.clone());
                    }
                } else {
                    self.linear_writes.remove(&id);
                }
                self.fx.dom_write_ids.insert(id);
            }
            ValueSource::ConstPrefix(p) => {
                self.fx.dom_write_prefixes.insert(p);
            }
            ValueSource::Param(i) => {
                self.fx.dom_write_params.insert(i);
            }
            ValueSource::Dynamic => self.fx.dom_write_dynamic = true,
        }
    }

    fn record_dom_read(&mut self, src: &ValueSource) {
        match src {
            ValueSource::Const(id) => {
                self.fx.dom_read_ids.insert(id.clone());
            }
            ValueSource::ConstPrefix(p) => {
                self.fx.dom_read_prefixes.insert(p.clone());
            }
            ValueSource::Param(i) => {
                self.fx.dom_read_params.insert(*i);
            }
            ValueSource::Dynamic => self.fx.dom_read_dynamic = true,
        }
    }

    fn method_call(&mut self, object: &Expr, method: &str, args: &[Expr]) -> AbstractVal {
        // `document.getElementById(x)` / `Math.*` without treating the
        // namespace object as a value.
        if let Expr::Ident { name, binding, .. } = object {
            if name == "document" && *binding == Binding::Global && method == "getElementById" {
                let src = match args.first() {
                    Some(a) => {
                        let v = self.eval(a);
                        classify(&v)
                    }
                    None => ValueSource::Dynamic,
                };
                args.iter().skip(1).for_each(|a| {
                    self.eval(a);
                });
                // Locating an element is a read of that DOM location — a
                // write target is also in the read set.
                self.record_dom_read(&src);
                return AbstractVal::Element(src);
            }
            if name == "Math" {
                args.iter().for_each(|a| {
                    self.eval(a);
                });
                return AbstractVal::Other;
            }
        }
        let obj = self.eval(object);
        let arg_vals: Vec<AbstractVal> = args.iter().map(|a| self.eval(a)).collect();
        match &obj {
            AbstractVal::Xhr(url) => {
                match method {
                    "open" => {
                        let src = arg_vals
                            .get(1)
                            .map(classify)
                            .unwrap_or(ValueSource::Dynamic);
                        // Only a local slot can hold a tracked XHR.
                        if let Expr::Ident {
                            binding: Binding::Local(slot),
                            ..
                        } = object
                        {
                            self.env.insert(*slot, AbstractVal::Xhr(Some(src)));
                        } else {
                            // `open` on an untracked XHR: assume the worst.
                            self.fx.xhr_dynamic = true;
                        }
                    }
                    "send" => match url {
                        Some(ValueSource::Const(u)) => {
                            self.fx.xhr_const_urls.insert(u.clone());
                        }
                        Some(ValueSource::ConstPrefix(u)) => {
                            self.fx.xhr_url_prefixes.insert(u.clone());
                        }
                        Some(ValueSource::Param(i)) => {
                            self.fx.xhr_url_params.insert(*i);
                        }
                        Some(ValueSource::Dynamic) | None => self.fx.xhr_dynamic = true,
                    },
                    // setRequestHeader / abort: no observable crawl effect.
                    _ => {}
                }
                AbstractVal::Other
            }
            AbstractVal::Element(src) => {
                // Only `getAttribute` exists on elements; anything else is a
                // runtime error (no state change either way). Either way it
                // observes the element: its last write is live.
                if let ValueSource::Const(id) = src {
                    self.linear_writes.remove(id);
                }
                AbstractVal::Other
            }
            _ => {
                if is_pure_method(method) {
                    return AbstractVal::Other;
                }
                if method == "send" || method == "open" {
                    // Matches the call-graph's conservative hot-node rule:
                    // an untyped receiver might be an XHR handed in.
                    self.fx.xhr_dynamic = true;
                    return AbstractVal::Other;
                }
                self.mutate_receiver(object, &obj);
                AbstractVal::Other
            }
        }
    }
}

fn fold_add(a: &AbstractVal, b: &AbstractVal) -> AbstractVal {
    use AbstractVal::{NumConst, Param, StrConst, StrPrefix};
    match (a, b) {
        (NumConst(x), NumConst(y)) => NumConst(x + y),
        (StrConst(x), StrConst(y)) => StrConst(format!("{x}{y}")),
        (StrConst(x), NumConst(y)) => StrConst(format!("{x}{}", format_number(*y))),
        (NumConst(x), StrConst(y)) => StrConst(format!("{}{y}", format_number(*x))),
        // A parameter tail keeps the constant head as a prefix pattern
        // (`'row_' + i` ids, `'/c?p=' + p` URL templates). Tails computed
        // from globals or other mutable state deliberately do NOT — those
        // stay `Other`, so hot nodes with state-derived URLs still classify
        // as `XhrClass::Dynamic` (SA006).
        (StrConst(x), Param(_)) => StrPrefix(x.clone()),
        // Once prefixed, appending anything preserves the prefix; a
        // constant head in front of a prefixed tail concatenates.
        (StrPrefix(x), _) => StrPrefix(x.clone()),
        (StrConst(x), StrPrefix(y)) => StrPrefix(format!("{x}{y}")),
        _ => AbstractVal::Other,
    }
}

// ---------------------------------------------------------------------------
// Interprocedural fixpoint
// ---------------------------------------------------------------------------

/// The result of the bottom-up effect fixpoint over an invocation graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectAnalysis {
    summaries: BTreeMap<String, EffectSummary>,
    defined: BTreeSet<String>,
}

impl EffectAnalysis {
    /// Runs the analysis: Tarjan SCC condensation of the call graph,
    /// processed callees-first; cyclic components iterate to a (finite,
    /// monotone) fixpoint and are flagged `may_not_terminate`.
    pub fn of(graph: &InvocationGraph) -> Self {
        let defined: BTreeSet<String> = graph.functions().map(|f| f.name.clone()).collect();
        let names: Vec<&str> = graph.functions().map(|f| f.name.as_str()).collect();
        let edges: BTreeMap<&str, Vec<&str>> = graph
            .functions()
            .map(|f| {
                let out: Vec<&str> = f
                    .effects
                    .call_sites
                    .iter()
                    .filter(|s| defined.contains(&s.callee))
                    .map(|s| s.callee.as_str())
                    .collect();
                (f.name.as_str(), out)
            })
            .collect();

        let mut summaries: BTreeMap<String, EffectSummary> = BTreeMap::new();
        for scc in sccs(&names, &edges) {
            let cyclic = scc.len() > 1
                || edges
                    .get(scc[0].as_str())
                    .is_some_and(|out| out.iter().any(|c| *c == scc[0]));
            // Iterate members until stable; all operations are unions over
            // finite sets, so this terminates.
            loop {
                let mut changed = false;
                for name in &scc {
                    let node = graph.function(name).expect("scc member exists");
                    let mut sum = seed_summary(&node.effects);
                    if cyclic {
                        sum.may_not_terminate = true;
                    }
                    apply_call_sites(&mut sum, &node.effects.call_sites, &summaries, &defined);
                    sum.widen();
                    if summaries.get(name.as_str()) != Some(&sum) {
                        summaries.insert(name.clone(), sum);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        EffectAnalysis { summaries, defined }
    }

    /// The summary for one function, if it exists.
    pub(crate) fn summary(&self, name: &str) -> Option<&EffectSummary> {
        self.summaries.get(name)
    }

    /// All summaries, ordered by function name.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &EffectSummary)> {
        self.summaries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Summarizes a parameterless top-level snippet (an event-handler
    /// attribute) against this analysis' function summaries.
    pub(crate) fn snippet_summary(&self, program: &Program) -> EffectSummary {
        let local = local_effects_of_snippet(&program.body);
        // Top-level function declarations in a snippet hoist into the
        // global table — already recorded as global writes by the
        // collector, which keeps the snippet impure.
        let mut sum = seed_summary(&local);
        apply_call_sites(&mut sum, &local.call_sites, &self.summaries, &self.defined);
        sum.widen();
        sum
    }

    /// Parses and summarizes handler source text.
    pub fn snippet_summary_src(&self, code: &str) -> Result<EffectSummary, JsError> {
        Ok(self.snippet_summary(&parse_program(code)?))
    }
}

fn seed_summary(local: &LocalEffects) -> EffectSummary {
    EffectSummary {
        dom_write_ids: local.dom_write_ids.clone(),
        dom_write_prefixes: local.dom_write_prefixes.clone(),
        dom_write_params: local.dom_write_params.clone(),
        dom_write_dynamic: local.dom_write_dynamic,
        dom_read_ids: local.dom_read_ids.clone(),
        dom_read_prefixes: local.dom_read_prefixes.clone(),
        dom_read_params: local.dom_read_params.clone(),
        dom_read_dynamic: local.dom_read_dynamic,
        xhr_const_urls: local.xhr_const_urls.clone(),
        xhr_url_prefixes: local.xhr_url_prefixes.clone(),
        xhr_url_params: local.xhr_url_params.clone(),
        xhr_dynamic: local.xhr_dynamic,
        reads_globals: local.reads_globals.clone(),
        writes_globals: local.writes_globals.clone(),
        calls_undefined: BTreeSet::new(),
        may_not_terminate: local.has_loop,
        opaque: local.opaque,
    }
}

/// Folds each call site's callee summary into `sum`, substituting the
/// site's classified arguments into the callee's parameter-relative
/// effects.
fn apply_call_sites(
    sum: &mut EffectSummary,
    sites: &[CallSite],
    summaries: &BTreeMap<String, EffectSummary>,
    defined: &BTreeSet<String>,
) {
    for site in sites {
        if !defined.contains(&site.callee) {
            if !is_builtin(&site.callee) {
                sum.calls_undefined.insert(site.callee.clone());
            }
            continue;
        }
        // In-SCC callees may not have a summary yet on the first sweep;
        // the surrounding fixpoint re-applies until stable.
        let Some(callee) = summaries.get(&site.callee) else {
            continue;
        };
        sum.dom_write_ids
            .extend(callee.dom_write_ids.iter().cloned());
        sum.dom_write_prefixes
            .extend(callee.dom_write_prefixes.iter().cloned());
        sum.dom_write_dynamic |= callee.dom_write_dynamic;
        for p in &callee.dom_write_params {
            match site.args.get(*p) {
                Some(ValueSource::Const(id)) => {
                    sum.dom_write_ids.insert(id.clone());
                }
                Some(ValueSource::ConstPrefix(pre)) => {
                    sum.dom_write_prefixes.insert(pre.clone());
                }
                Some(ValueSource::Param(i)) => {
                    sum.dom_write_params.insert(*i);
                }
                Some(ValueSource::Dynamic) | None => sum.dom_write_dynamic = true,
            }
        }
        sum.dom_read_ids.extend(callee.dom_read_ids.iter().cloned());
        sum.dom_read_prefixes
            .extend(callee.dom_read_prefixes.iter().cloned());
        sum.dom_read_dynamic |= callee.dom_read_dynamic;
        for p in &callee.dom_read_params {
            match site.args.get(*p) {
                Some(ValueSource::Const(id)) => {
                    sum.dom_read_ids.insert(id.clone());
                }
                Some(ValueSource::ConstPrefix(pre)) => {
                    sum.dom_read_prefixes.insert(pre.clone());
                }
                Some(ValueSource::Param(i)) => {
                    sum.dom_read_params.insert(*i);
                }
                Some(ValueSource::Dynamic) | None => sum.dom_read_dynamic = true,
            }
        }
        sum.xhr_const_urls
            .extend(callee.xhr_const_urls.iter().cloned());
        sum.xhr_url_prefixes
            .extend(callee.xhr_url_prefixes.iter().cloned());
        sum.xhr_dynamic |= callee.xhr_dynamic;
        for p in &callee.xhr_url_params {
            match site.args.get(*p) {
                Some(ValueSource::Const(url)) => {
                    sum.xhr_const_urls.insert(url.clone());
                }
                Some(ValueSource::ConstPrefix(pre)) => {
                    sum.xhr_url_prefixes.insert(pre.clone());
                }
                Some(ValueSource::Param(i)) => {
                    sum.xhr_url_params.insert(*i);
                }
                Some(ValueSource::Dynamic) | None => sum.xhr_dynamic = true,
            }
        }
        sum.reads_globals
            .extend(callee.reads_globals.iter().cloned());
        sum.writes_globals
            .extend(callee.writes_globals.iter().cloned());
        sum.calls_undefined
            .extend(callee.calls_undefined.iter().cloned());
        sum.may_not_terminate |= callee.may_not_terminate;
        sum.opaque |= callee.opaque;
    }
}

/// Iterative Tarjan SCC. Components are emitted callees-first (reverse
/// topological order of the condensation), which is exactly the order the
/// bottom-up fixpoint wants.
fn sccs(names: &[&str], edges: &BTreeMap<&str, Vec<&str>>) -> Vec<Vec<String>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let idx_of: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut state = vec![NodeState::default(); names.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<String>> = Vec::new();

    for start in 0..names.len() {
        if state[start].index.is_some() {
            continue;
        }
        // (node, next-successor-position) work stack.
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            let succs = &edges[names[v]];
            if let Some(w_name) = succs.get(*pos) {
                *pos += 1;
                let w = idx_of[w_name];
                match state[w].index {
                    None => work.push((w, 0)),
                    Some(index) if state[w].on_stack => {
                        state[v].lowlink = state[v].lowlink.min(index);
                    }
                    Some(_) => {}
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
                if state[v].index == Some(state[v].lowlink) {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        state[w].on_stack = false;
                        comp.push(names[w].to_string());
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// Graph-level diagnostics: calls to undefined functions (SA002), handler
/// redefinitions across `<script>` blocks (SA003), dynamically-formed hot
/// calls (SA006), dead straight-line writes (SA010), global self-races
/// (SA011), and unbounded write sets (SA012). Page-level lints that need
/// the document (dead functions, unknown DOM ids, stateless handlers,
/// write-set conflicts between co-bound handlers) live in `ajax-crawl`.
pub fn graph_diagnostics(graph: &InvocationGraph, analysis: &EffectAnalysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in graph.functions() {
        if let Some(sum) = analysis.summary(&f.name) {
            for missing in &sum.calls_undefined {
                out.push(Diagnostic::new(
                    Lint::CallsUndefined,
                    f.name.clone(),
                    format!("calls undefined function `{missing}`"),
                ));
            }
            if f.direct_ajax && sum.xhr_class() == XhrClass::Dynamic {
                out.push(Diagnostic::new(
                    Lint::DynamicHotCall,
                    f.name.clone(),
                    "hot node sends XHRs with computed URLs; the hot-node cache may never re-hit",
                ));
            }
            let races: Vec<&str> = sum
                .reads_globals
                .intersection(&sum.writes_globals)
                .map(|g| g.as_str())
                .collect();
            if !races.is_empty() {
                out.push(Diagnostic::new(
                    Lint::SelfRace,
                    f.name.clone(),
                    format!(
                        "reads and writes the same global(s) `{}`; firing twice is not idempotent",
                        races.join("`, `")
                    ),
                ));
            }
            if sum.dom_write_dynamic {
                out.push(Diagnostic::new(
                    Lint::UnboundedWriteSet,
                    f.name.clone(),
                    "DOM write set is unbounded (`*`); equivalence and commutativity pruning \
                     cannot apply",
                ));
            }
        }
        for id in &f.effects.overwritten_ids {
            out.push(Diagnostic::new(
                Lint::AlwaysOverwritten,
                f.name.clone(),
                format!(
                    "`#{id}` is written twice in straight-line code with no intervening read \
                     or call; the first write is dead"
                ),
            ));
        }
    }
    for r in &graph.redefinitions {
        out.push(Diagnostic::new(
            Lint::HandlerRedefinition,
            r.name.clone(),
            format!(
                "function redefined (line {} shadows line {}); the later definition wins",
                r.line, r.first_line
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (InvocationGraph, EffectAnalysis) {
        let g = InvocationGraph::from_source(src).unwrap();
        let a = EffectAnalysis::of(&g);
        (g, a)
    }

    const VIDSHARE_STYLE: &str = r#"
        var currentPage = 1;
        var totalPages = 4;
        function showLoading(div_id) {
            var box = document.getElementById(div_id);
            box.innerHTML = '<p>Loading...</p>';
        }
        function getUrlXMLResponseAndFillDiv(url, div_id) {
            var xmlHttpReq = new XMLHttpRequest();
            xmlHttpReq.open("GET", url, false);
            xmlHttpReq.send(null);
            var box = document.getElementById(div_id);
            box.innerHTML = xmlHttpReq.responseText;
        }
        function urchinTracker(tag) { var t = tag; return t; }
        function gotoPage(p) {
            if (p < 1 || p > totalPages) { return; }
            showLoading('recent_comments');
            getUrlXMLResponseAndFillDiv('/comments?v=1&p=' + p, 'recent_comments');
            urchinTracker('comments-page-' + p);
            currentPage = p;
        }
        function nextPage() { gotoPage(currentPage + 1); }
        function highlightTitle() { urchinTracker('title-hover'); }
    "#;

    #[test]
    fn param_relative_effects_collected() {
        let (_, a) = analyze(VIDSHARE_STYLE);
        let fill = a.summary("getUrlXMLResponseAndFillDiv").unwrap();
        assert_eq!(fill.xhr_url_params, BTreeSet::from([0]));
        assert_eq!(fill.dom_write_params, BTreeSet::from([1]));
        assert!(!fill.xhr_dynamic && !fill.dom_write_dynamic);
        assert_eq!(fill.xhr_class(), XhrClass::ParamDerived);
    }

    #[test]
    fn constants_propagate_through_calls() {
        let (_, a) = analyze(VIDSHARE_STYLE);
        let show = a.summary("showLoading").unwrap();
        assert_eq!(show.dom_write_params, BTreeSet::from([0]));
        let goto = a.summary("gotoPage").unwrap();
        // showLoading('recent_comments') resolves the param to a constant.
        assert!(goto.dom_write_ids.contains("recent_comments"));
        assert!(goto.dom_write_params.is_empty());
        // The URL is '/comments...' + p with a parameter tail: a template.
        assert!(!goto.xhr_dynamic);
        assert!(goto.xhr_url_prefixes.contains("/comments?v=1&p="));
        assert_eq!(goto.xhr_class(), XhrClass::ParamDerived);
        assert!(goto.writes_globals.contains("currentPage"));
        assert!(goto.reads_globals.contains("totalPages"));
    }

    #[test]
    fn purity_verdicts_match_runtime_semantics() {
        let (_, a) = analyze(VIDSHARE_STYLE);
        assert!(a.summary("urchinTracker").unwrap().is_pure());
        assert!(a.summary("highlightTitle").unwrap().is_pure());
        assert!(!a.summary("showLoading").unwrap().is_pure(), "DOM write");
        assert!(
            !a.summary("gotoPage").unwrap().is_pure(),
            "network + global"
        );
        assert!(!a.summary("nextPage").unwrap().is_pure(), "transitively");
    }

    #[test]
    fn constant_url_resolves_two_hops() {
        let (_, a) = analyze(
            "function getUrl(url) { var x = new XMLHttpRequest(); x.open('GET', url, false); x.send(null); }
             function fill(u, d) { getUrl(u); }
             function next() { fill('/c?p=2', 'box'); }",
        );
        assert_eq!(
            a.summary("next").unwrap().xhr_const_urls,
            BTreeSet::from(["/c?p=2".to_string()])
        );
        assert_eq!(a.summary("next").unwrap().xhr_class(), XhrClass::Constant);
        assert_eq!(
            a.summary("fill").unwrap().xhr_url_params,
            BTreeSet::from([0])
        );
    }

    #[test]
    fn string_folding_matches_interpreter_concat() {
        let (_, a) =
            analyze("function f(d) { document.getElementById('pane' + 2).innerHTML = d; }");
        let s = a.summary("f").unwrap();
        assert!(
            s.dom_write_ids.contains("pane2"),
            "got {:?}",
            s.dom_write_ids
        );
    }

    #[test]
    fn direct_recursion_flagged_not_looping_forever() {
        let (_, a) = analyze("function f(n) { if (n) { f(n - 1); } return n; }");
        let s = a.summary("f").unwrap();
        assert!(s.may_not_terminate);
        assert!(s.is_pure(), "recursion alone does not break purity");
    }

    #[test]
    fn mutual_recursion_converges() {
        let (_, a) = analyze(
            "function a(n) { if (n) { b(n - 1); } }
             function b(n) { net.send(n); a(n); }
             var net = 0;",
        );
        for name in ["a", "b"] {
            let s = a.summary(name).unwrap();
            assert!(s.may_not_terminate, "{name} in a cycle");
            assert!(s.xhr_dynamic, "{name} reaches the send");
            assert!(!s.is_pure());
        }
    }

    #[test]
    fn loops_set_may_not_terminate() {
        let (_, a) = analyze("function spin() { while (1) { var x = 1; } }");
        let s = a.summary("spin").unwrap();
        assert!(s.may_not_terminate);
        assert!(s.is_pure(), "a spinning handler still mutates nothing");
    }

    #[test]
    fn undefined_calls_break_purity() {
        let (g, a) = analyze("function f() { ghost(); }");
        let s = a.summary("f").unwrap();
        assert_eq!(s.calls_undefined, BTreeSet::from(["ghost".to_string()]));
        assert!(!s.is_pure());
        let diags = graph_diagnostics(&g, &a);
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::CallsUndefined && d.severity() == Severity::Error));
    }

    #[test]
    fn builtins_are_not_undefined() {
        let (_, a) = analyze("function f(s) { return parseInt(s) + Number(s); }");
        assert!(a.summary("f").unwrap().is_pure());
    }

    #[test]
    fn param_shadowing_resolves_calls_globally() {
        // The interpreter dispatches calls through the global function
        // table — a parameter named like a function does not shadow it.
        let (_, a) = analyze("function g() { return 1; } function f(g) { return g(); }");
        let s = a.summary("f").unwrap();
        assert!(s.calls_undefined.is_empty(), "g resolves to the global");
        assert!(s.is_pure());
    }

    #[test]
    fn shared_array_mutation_is_a_global_write() {
        let (_, a) = analyze(
            "var history = [];
             function track(name) { history.push(name); }
             function peek() { return history.length; }",
        );
        assert!(a
            .summary("track")
            .unwrap()
            .writes_globals
            .contains("history"));
        assert!(!a.summary("track").unwrap().is_pure());
        let peek = a.summary("peek").unwrap();
        assert!(peek.reads_globals.contains("history"));
        assert!(peek.is_pure(), "length read is pure");
    }

    #[test]
    fn local_array_mutation_is_opaque_not_global() {
        // A local array could alias a global (Rc-shared), so mutation
        // through an untraced local stays conservative.
        let (_, a) = analyze("var g = []; function f() { var l = g; l.push(1); }");
        let s = a.summary("f").unwrap();
        assert!(s.opaque);
        assert!(!s.is_pure());
    }

    #[test]
    fn snippet_summary_resolves_against_graph() {
        let (_, a) = analyze(VIDSHARE_STYLE);
        assert!(a.snippet_summary_src("highlightTitle()").unwrap().is_pure());
        let goto = a.snippet_summary_src("gotoPage(2)").unwrap();
        assert!(!goto.is_pure());
        assert!(goto.reaches_network());
        assert!(
            a.snippet_summary_src("").unwrap().is_pure(),
            "empty handler"
        );
        let unknown = a.snippet_summary_src("mystery()").unwrap();
        assert!(!unknown.is_pure());
    }

    #[test]
    fn redefinitions_recorded_across_merge() {
        let mut g = InvocationGraph::from_source("function f() { return 1; }").unwrap();
        let g2 =
            InvocationGraph::from_source("function f() { return 2; }\nfunction h() {}").unwrap();
        g.merge(g2);
        assert_eq!(g.redefinitions.len(), 1);
        assert_eq!(g.redefinitions[0].name, "f");
        let a = EffectAnalysis::of(&g);
        let diags = graph_diagnostics(&g, &a);
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::HandlerRedefinition && d.subject == "f"));
    }

    #[test]
    fn redefinition_within_one_script_recorded() {
        let g =
            InvocationGraph::from_source("function f() {} function f(x) { return x; }").unwrap();
        assert_eq!(g.redefinitions.len(), 1);
        // JS semantics: the later definition wins.
        assert_eq!(g.function("f").unwrap().params.len(), 1);
    }

    #[test]
    fn dynamic_hot_call_linted() {
        let (g, a) = analyze(
            "var page = 1;
             function hot() { var x = new XMLHttpRequest(); x.open('GET', '/p?' + page, false); x.send(null); }",
        );
        let diags = graph_diagnostics(&g, &a);
        assert!(diags.iter().any(|d| d.lint == Lint::DynamicHotCall));
        assert_eq!(a.summary("hot").unwrap().xhr_class(), XhrClass::Dynamic);
    }

    #[test]
    fn prefix_writes_collected_from_param_tails() {
        // The gallery idiom: one handler per strip row, each writing a
        // `caption_<i>` div located by string concatenation.
        let (_, a) = analyze(
            "var captions = ['a', 'b'];
             function showCaption(i) {
                 document.getElementById('caption_' + i).innerHTML = captions[i];
             }",
        );
        let s = a.summary("showCaption").unwrap();
        assert_eq!(
            s.dom_write_prefixes,
            BTreeSet::from(["caption_".to_string()])
        );
        assert!(!s.dom_write_dynamic);
        assert_eq!(s.write_locs().render(), vec!["#caption_*"]);
        // The write target is also read (located), and the summary says so.
        assert_eq!(
            s.dom_read_prefixes,
            BTreeSet::from(["caption_".to_string()])
        );
        assert!(s.read_locs().render().contains(&"#caption_*".to_string()));
    }

    #[test]
    fn url_template_resolves_two_hops() {
        let (_, a) = analyze(
            "function getUrl(url) { var x = new XMLHttpRequest(); x.open('GET', url, false); x.send(null); }
             function load(p) { getUrl('/photo?id=' + p); }
             function first() { load(0); }",
        );
        let load = a.summary("load").unwrap();
        assert_eq!(
            load.xhr_url_prefixes,
            BTreeSet::from(["/photo?id=".to_string()])
        );
        assert_eq!(load.xhr_class(), XhrClass::ParamDerived);
        // `load(0)` resolves the template tail to a constant? No — the
        // prefix was absolute by the time it reached `load`'s summary, so
        // callers inherit the template verbatim.
        let first = a.summary("first").unwrap();
        assert_eq!(
            first.xhr_url_prefixes,
            BTreeSet::from(["/photo?id=".to_string()])
        );
        assert!(!first.xhr_dynamic);
    }

    #[test]
    fn const_prefix_arguments_substitute_into_callee_params() {
        let (_, a) = analyze(
            "function f(p) { document.getElementById(p).innerHTML = 'x'; }
             function g(k) { f('row_' + k); }",
        );
        let g = a.summary("g").unwrap();
        assert_eq!(g.dom_write_prefixes, BTreeSet::from(["row_".to_string()]));
        assert!(g.dom_write_params.is_empty());
        assert!(!g.dom_write_dynamic);
    }

    #[test]
    fn global_tails_stay_dynamic_not_prefixed() {
        // '/p?' + page with a *global* tail must not become a template —
        // the hot-node cache genuinely may never re-hit for it (SA006).
        let (_, a) = analyze(
            "var page = 1;
             function hot() { var x = new XMLHttpRequest(); x.open('GET', '/p?' + page, false); x.send(null); }",
        );
        let s = a.summary("hot").unwrap();
        assert!(s.xhr_dynamic);
        assert!(s.xhr_url_prefixes.is_empty());
    }

    #[test]
    fn reads_and_writes_form_disjoint_loc_sets() {
        let (_, a) = analyze(
            "function peek() { return document.getElementById('status').innerHTML; }
             function poke(msg) { document.getElementById('log').innerHTML = msg; }",
        );
        let peek = a.summary("peek").unwrap();
        assert_eq!(peek.dom_read_ids, BTreeSet::from(["status".to_string()]));
        assert!(peek.write_locs().is_empty());
        assert_eq!(peek.read_locs().render(), vec!["#status"]);
        let poke = a.summary("poke").unwrap();
        assert_eq!(poke.write_locs().render(), vec!["#log"]);
        // Disjoint read/write sets: the pair commutes.
        assert!(!peek.read_locs().overlaps(&poke.write_locs()));
        assert!(!poke.read_locs().overlaps(&peek.write_locs()));
    }

    #[test]
    fn always_overwritten_write_linted() {
        let (g, a) = analyze(
            "function flash() {
                 document.getElementById('box').innerHTML = 'loading';
                 document.getElementById('box').innerHTML = 'done';
             }",
        );
        assert_eq!(
            g.function("flash").unwrap().effects.overwritten_ids,
            BTreeSet::from(["box".to_string()])
        );
        let diags = graph_diagnostics(&g, &a);
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::AlwaysOverwritten && d.subject == "flash"));
    }

    #[test]
    fn intervening_read_call_or_branch_suppresses_sa010() {
        // A content read between the writes keeps the first one live.
        let (g1, _) = analyze(
            "function f() {
                 document.getElementById('box').innerHTML = 'a';
                 var t = document.getElementById('box').innerHTML;
                 document.getElementById('box').innerHTML = t + 'b';
             }",
        );
        assert!(g1.function("f").unwrap().effects.overwritten_ids.is_empty());
        // A user-function call may observe the element.
        let (g2, _) = analyze(
            "function probe() { return document.getElementById('box').innerHTML; }
             function f() {
                 document.getElementById('box').innerHTML = 'a';
                 probe();
                 document.getElementById('box').innerHTML = 'b';
             }",
        );
        assert!(g2.function("f").unwrap().effects.overwritten_ids.is_empty());
        // Conditional writes are not straight-line.
        let (g3, _) = analyze(
            "function f(x) {
                 if (x) { document.getElementById('box').innerHTML = 'a'; }
                 document.getElementById('box').innerHTML = 'b';
             }",
        );
        assert!(g3.function("f").unwrap().effects.overwritten_ids.is_empty());
    }

    #[test]
    fn self_race_on_shared_global_linted() {
        let (g, a) = analyze("var n = 0; function bump() { n = n + 1; }");
        let s = a.summary("bump").unwrap();
        assert!(s.reads_globals.contains("n") && s.writes_globals.contains("n"));
        let diags = graph_diagnostics(&g, &a);
        let race = diags.iter().find(|d| d.lint == Lint::SelfRace).unwrap();
        assert_eq!(race.subject, "bump");
        assert_eq!(race.severity(), Severity::Info);
    }

    #[test]
    fn unbounded_write_set_linted() {
        let (g, a) = analyze(
            "var target = 'somewhere';
             function blast(msg) { document.getElementById(target).innerHTML = msg; }",
        );
        assert!(a.summary("blast").unwrap().dom_write_dynamic);
        assert!(a.summary("blast").unwrap().write_locs().is_unbounded());
        let diags = graph_diagnostics(&g, &a);
        assert!(diags
            .iter()
            .any(|d| d.lint == Lint::UnboundedWriteSet && d.subject == "blast"));
    }

    #[test]
    fn widening_collapses_oversized_channels() {
        // A call fan-in larger than WIDEN_CAP collapses the channel to the
        // dynamic flag instead of growing the summary without bound.
        let mut src = String::new();
        let mut body = String::new();
        for i in 0..(WIDEN_CAP + 4) {
            src.push_str(&format!(
                "function w{i}() {{ document.getElementById('cell_{i}').innerHTML = 'x'; }}\n"
            ));
            body.push_str(&format!("w{i}();\n"));
        }
        src.push_str(&format!("function all() {{ {body} }}"));
        let (_, a) = analyze(&src);
        let all = a.summary("all").unwrap();
        assert!(all.dom_write_dynamic, "widened past the cap");
        assert!(all.dom_write_ids.is_empty());
        assert!(all.write_locs().is_unbounded());
        // Under the cap: untouched.
        let w0 = a.summary("w0").unwrap();
        assert_eq!(w0.dom_write_ids.len(), 1);
        assert!(!w0.dom_write_dynamic);
    }

    #[test]
    fn recursive_prefix_construction_converges() {
        // Mutually recursive functions passing prefixed ids around: the
        // fixpoint must converge (prefixes are absolute once formed) and
        // both members of the cycle see the union.
        let (_, a) = analyze(
            "function even(i) { document.getElementById('row_' + i).innerHTML = 'e'; odd(i); }
             function odd(i) { document.getElementById('col_' + i).innerHTML = 'o'; even(i); }",
        );
        for name in ["even", "odd"] {
            let s = a.summary(name).unwrap();
            assert_eq!(
                s.dom_write_prefixes,
                BTreeSet::from(["row_".to_string(), "col_".to_string()]),
                "{name} sees the whole cycle"
            );
            assert!(s.may_not_terminate);
            assert!(!s.dom_write_dynamic);
        }
    }

    /// Channel-wise subsumption: a widened-to-dynamic channel covers any
    /// concrete one; otherwise the concrete sets must not shrink.
    #[allow(clippy::too_many_arguments)]
    fn channel_subsumes(
        b_dyn: bool,
        a_dyn: bool,
        b_ids: &BTreeSet<String>,
        a_ids: &BTreeSet<String>,
        b_pre: &BTreeSet<String>,
        a_pre: &BTreeSet<String>,
        b_params: &BTreeSet<usize>,
        a_params: &BTreeSet<usize>,
    ) -> bool {
        b_dyn
            || (!a_dyn
                && a_ids.is_subset(b_ids)
                && a_pre.is_subset(b_pre)
                && a_params.is_subset(b_params))
    }

    /// Structural subsumption: every effect `a` claims, `b` claims too.
    fn subsumes(b: &EffectSummary, a: &EffectSummary) -> bool {
        channel_subsumes(
            b.dom_write_dynamic,
            a.dom_write_dynamic,
            &b.dom_write_ids,
            &a.dom_write_ids,
            &b.dom_write_prefixes,
            &a.dom_write_prefixes,
            &b.dom_write_params,
            &a.dom_write_params,
        ) && channel_subsumes(
            b.dom_read_dynamic,
            a.dom_read_dynamic,
            &b.dom_read_ids,
            &a.dom_read_ids,
            &b.dom_read_prefixes,
            &a.dom_read_prefixes,
            &b.dom_read_params,
            &a.dom_read_params,
        ) && channel_subsumes(
            b.xhr_dynamic,
            a.xhr_dynamic,
            &b.xhr_const_urls,
            &a.xhr_const_urls,
            &b.xhr_url_prefixes,
            &a.xhr_url_prefixes,
            &b.xhr_url_params,
            &a.xhr_url_params,
        ) && a.reads_globals.is_subset(&b.reads_globals)
            && a.writes_globals.is_subset(&b.writes_globals)
            && a.calls_undefined.is_subset(&b.calls_undefined)
            && (!a.opaque || b.opaque)
            && (!a.may_not_terminate || b.may_not_terminate)
    }

    #[test]
    fn fixpoint_is_deterministic_and_monotone_under_program_growth() {
        // Seeded sweep: generate small programs, analyze twice (results must
        // be identical), then append effect-only statements to bodies and
        // check every summary grows monotonically.
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for _case in 0..40 {
            let nfuncs = 2 + next() % 4;
            let mut bodies: Vec<Vec<String>> = Vec::new();
            for i in 0..nfuncs {
                let mut stmts = Vec::new();
                for _ in 0..(next() % 3) {
                    stmts.push(gen_stmt(next(), i, nfuncs));
                }
                bodies.push(stmts);
            }
            let render = |bodies: &[Vec<String>]| {
                let mut s = String::from("var shared = 0;\n");
                for (i, b) in bodies.iter().enumerate() {
                    s.push_str(&format!("function f{i}(p) {{ {} }}\n", b.join(" ")));
                }
                s
            };
            let src1 = render(&bodies);
            let (_, a1) = analyze(&src1);
            let (_, a2) = analyze(&src1);
            assert_eq!(a1, a2, "analysis must be deterministic\n{src1}");

            // Grow: append effect statements (never declarations) so every
            // old behavior remains possible.
            let mut grown = bodies.clone();
            for (i, b) in grown.iter_mut().enumerate() {
                if next() % 2 == 0 {
                    b.push(gen_stmt(next(), i, nfuncs));
                }
            }
            let src2 = render(&grown);
            let (_, b) = analyze(&src2);
            for i in 0..nfuncs {
                let name = format!("f{i}");
                let old = a1.summary(&name).unwrap();
                let new = b.summary(&name).unwrap();
                assert!(
                    subsumes(new, old),
                    "appending statements must not shrink {name}'s summary\n\
                     old: {old:?}\nnew: {new:?}\nbefore:\n{src1}\nafter:\n{src2}"
                );
            }
        }
    }

    /// One random effect-only statement for the monotonicity sweep.
    fn gen_stmt(r: usize, me: usize, nfuncs: usize) -> String {
        match r % 6 {
            0 => format!("document.getElementById('id_{}').innerHTML = 'v';", r % 5),
            1 => format!(
                "document.getElementById('pre{}_' + p).innerHTML = 'v';",
                r % 3
            ),
            2 => "shared = shared + 1;".to_string(),
            3 => {
                let callee = (me + 1 + r % nfuncs.max(1)) % nfuncs;
                format!("f{callee}('arg_{}');", r % 4)
            }
            4 => format!("var q{} = document.getElementById(p).innerHTML;", r % 97),
            _ => "var x = new XMLHttpRequest(); x.open('GET', '/u?k=' + p, false); x.send(null);"
                .to_string(),
        }
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic::new(Lint::CallsUndefined, "f", "calls undefined function `g`");
        assert_eq!(
            d.to_string(),
            "error[SA002] f: calls undefined function `g`"
        );
        assert!(Severity::Error > Severity::Warning && Severity::Warning > Severity::Info);
    }
}
