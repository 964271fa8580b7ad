//! Debugger hooks — the stand-in for Rhino's `Debugger` / `DebugFrame`
//! interfaces that the thesis implemented as `JSDebugger` / `DebugFrameImpl`
//! (§4.4.2). The crawler's hot-node detector implements [`DebugHook`]:
//! `on_enter` is "the point where we know the name and the actual parameter
//! values of the currently executed Javascript function".

use crate::interp::FrameInfo;
use crate::value::Value;

/// What the hook wants the interpreter to do with a function call.
#[derive(Debug, Clone, PartialEq)]
pub enum EnterAction {
    /// Execute the function body normally.
    Continue,
    /// Skip the body entirely and produce `value` as the call result.
    /// (Useful for test instrumentation and replay; the hot-node path of the
    /// thesis intercepts at the XHR level instead, so the DOM fill that
    /// follows the fetch still runs.)
    ShortCircuit(Value),
}

/// Callbacks fired during interpretation.
///
/// All methods default to no-ops so implementors override only what they
/// observe.
pub trait DebugHook {
    /// A user function is about to execute. `frame` carries the function
    /// name and rendered actual arguments.
    fn on_enter(&mut self, frame: &FrameInfo) -> EnterAction {
        let _ = frame;
        EnterAction::Continue
    }

    /// A user function returned (normally or through an error).
    fn on_exit(&mut self, frame: &FrameInfo, result: Result<&Value, &crate::JsError>) {
        let _ = (frame, result);
    }

    /// A statement is about to execute inside `function_name` (empty string
    /// at top level), at source `line`.
    fn on_statement(&mut self, function_name: &str, line: u32) {
        let _ = (function_name, line);
    }
}

/// A hook that observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;

impl DebugHook for NoopHook {}

/// A recording hook for tests: collects the sequence of entered frames.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct TraceHook {
    /// `(function, rendered_args)` in entry order.
    pub(crate) entered: Vec<(String, String)>,
    /// Number of statements observed.
    pub(crate) statements: u64,
}

#[cfg(test)]
impl DebugHook for TraceHook {
    fn on_enter(&mut self, frame: &FrameInfo) -> EnterAction {
        self.entered
            .push((frame.function.clone(), frame.rendered_args.clone()));
        EnterAction::Continue
    }

    fn on_statement(&mut self, _function_name: &str, _line: u32) {
        self.statements += 1;
    }
}
