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
//! * host integration: `new XMLHttpRequest()`-style host objects, method
//!   calls and property get/set on host objects (`xhr.open(...)`,
//!   `xhr.responseText`, `el.innerHTML = ...`).
//!
//! One capability exists specifically because the hot-node mechanism of the
//! thesis (ch. 4) needs it: a host method call receives a [`HostCtx`] naming
//! the innermost executing user function, so an `XMLHttpRequest` host
//! object knows which function sent a request, the thesis' hot node. The
//! thesis also reads that frame's actual arguments (`StackInfo`) to key its
//! cache, and intercepts through Rhino's `Debugger`; the crawler keys its
//! cache by the request's URL instead (the server is a pure function of the
//! request), so the interpreter renders no arguments and has no debugger
//! layer.
//!
//! Execution is metered: every statement/expression costs one *step* and a
//! configurable fuel limit terminates runaway scripts (the thesis' guard
//! against infinite loops, §3.2). The step counter doubles as the virtual
//! CPU-cost measure used by the crawl-time experiments.

mod absdom;
pub mod ast;
pub mod callgraph;
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
pub use effects::{EffectAnalysis, EffectSummary};
pub use error::{JsError, JsErrorKind};
pub use host::{Host, HostCtx, NullHost, ObjId};
pub use interp::{GlobalsSnapshot, Interpreter};
pub use parser::{parse_program, MAX_NESTING};
pub use value::Value;
