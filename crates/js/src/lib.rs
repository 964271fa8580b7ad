//! # ajax-js
//!
//! An AST-walking interpreter for a JavaScript subset, standing in for the
//! Rhino engine the original *AJAX Crawl* thesis embedded. It supports the
//! language features 2008-era AJAX page scripts use:
//!
//! * `var` declarations, assignments (incl. `+=`), global + function scopes
//!   (one scope rule, applied once by the parser: `resolve.rs`),
//! * numbers (f64), strings (with `+` concatenation), booleans, `null`,
//!   `undefined`,
//! * `if`/`else`, `while`, `for`, `break`, `continue`, `return`, blocks,
//! * top-level `function` declarations and calls (recursion allowed),
//! * host integration: native global functions, `new XMLHttpRequest()`-style
//!   host objects, method calls and property get/set on host objects
//!   (`xhr.open(...)`, `xhr.responseText`, `el.innerHTML = ...`).
//!
//! Two capabilities exist specifically because the hot-node mechanism of the
//! thesis (ch. 4) needs them:
//!
//! 1. **Call-stack introspection** — every host call receives a [`HostCtx`]
//!    exposing the current stack of frames with *rendered actual arguments*
//!    (the thesis' `StackInfo.getHotNodeInfo()`), so an `XMLHttpRequest`
//!    host object can key a hot-node cache by `(function, args)`.
//! 2. **Debugger hooks** — a [`DebugHook`] receives `on_enter`/`on_exit`/
//!    `on_statement` callbacks (the thesis' `Debugger`/`DebugFrame`
//!    implementation on Rhino, §4.4.2) and may short-circuit a call.
//!
//! Execution is metered: every statement/expression costs one *step* and a
//! configurable fuel limit terminates runaway scripts (the thesis' guard
//! against infinite loops, §3.2). The step counter doubles as the virtual
//! CPU-cost measure used by the crawl-time experiments.

mod absdom;
pub mod ast;
pub mod callgraph;
mod debug;
pub mod effects;
mod error;
mod host;
mod interp;
mod lexer;
mod parser;
mod resolve;
mod value;

pub use absdom::{AbsLoc, LocSet};
pub use callgraph::InvocationGraph;
pub use debug::{DebugHook, EnterAction, NoopHook};
pub use effects::{EffectAnalysis, EffectSummary};
pub use error::{JsError, JsErrorKind};
pub use host::{Host, HostCtx, NullHost, ObjId};
pub use interp::{FrameInfo, GlobalsSnapshot, Interpreter};
pub use parser::{parse_program, MAX_NESTING};
pub use value::Value;
