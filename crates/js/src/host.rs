//! The host-embedding protocol.
//!
//! The interpreter is deliberately ignorant of DOM, network or timers — all
//! of those come from the embedder (the crawler) through the [`Host`] trait.
//! The interpreter hands every host call a [`HostCtx`] exposing the current
//! JavaScript call stack, which is what the hot-node mechanism (thesis ch. 4)
//! inspects: when the `XMLHttpRequest` host object is asked to `send()`, it
//! reads the topmost user frame (function name + rendered actual arguments)
//! and uses it as the hot-node cache key.

use crate::error::JsError;
use crate::interp::FrameInfo;
use crate::value::Value;

/// Identifier of a host-managed object (an XHR instance, a DOM element…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// Context passed to every host call.
#[derive(Debug)]
pub struct HostCtx<'a> {
    /// The interpreter call stack, innermost frame last. Event-handler
    /// snippets executing at top level have an empty stack.
    pub(crate) stack: &'a [FrameInfo],
}

impl HostCtx<'_> {
    /// The topmost (currently executing) user function frame, if any —
    /// the thesis' `StackInfo.getHotNodeInfo()`.
    pub fn top_frame(&self) -> Option<&FrameInfo> {
        self.stack.last()
    }
}

/// Services the embedder provides to scripts.
///
/// All methods have reasonable defaults (errors / `Undefined`), so hosts only
/// implement what their pages need.
pub trait Host {
    /// Invokes a native global function, e.g. `urchinTracker(...)`.
    fn call_native(
        &mut self,
        name: &str,
        args: &[Value],
        ctx: &HostCtx<'_>,
    ) -> Result<Value, JsError> {
        let _ = (args, ctx);
        Err(JsError::reference(format!("{name} is not defined")))
    }

    /// True when `name` is a native global this host provides. Used by the
    /// interpreter to route calls: user functions shadow natives.
    fn has_native(&self, name: &str) -> bool {
        let _ = name;
        false
    }

    /// Constructs a host object, e.g. `new XMLHttpRequest()`.
    fn construct(
        &mut self,
        class: &str,
        args: &[Value],
        ctx: &HostCtx<'_>,
    ) -> Result<Value, JsError> {
        let _ = (args, ctx);
        Err(JsError::reference(format!("{class} is not a constructor")))
    }

    /// Calls a method on a host object, e.g. `xhr.open("GET", url, false)`.
    fn call_method(
        &mut self,
        obj: ObjId,
        method: &str,
        args: &[Value],
        ctx: &HostCtx<'_>,
    ) -> Result<Value, JsError> {
        let _ = (obj, args, ctx);
        Err(JsError::type_error(format!("no method {method}")))
    }

    /// Reads a property of a host object, e.g. `xhr.responseText`.
    fn get_property(&mut self, obj: ObjId, prop: &str) -> Result<Value, JsError> {
        let _ = obj;
        let _ = prop;
        Ok(Value::Undefined)
    }

    /// Writes a property of a host object, e.g. `el.innerHTML = "..."`.
    fn set_property(
        &mut self,
        obj: ObjId,
        prop: &str,
        value: Value,
        ctx: &HostCtx<'_>,
    ) -> Result<(), JsError> {
        let _ = (obj, value, ctx);
        Err(JsError::type_error(format!("cannot set property {prop}")))
    }

    /// Reads a *global* host value for an identifier the interpreter cannot
    /// resolve (e.g. a `document` global). Return `None` to signal a
    /// reference error.
    fn get_global(&mut self, name: &str) -> Option<Value> {
        let _ = name;
        None
    }
}

/// A host that provides nothing. Scripts using host features fail cleanly.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHost;

impl Host for NullHost {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_host_rejects_everything() {
        let mut h = NullHost;
        let ctx = HostCtx { stack: &[] };
        assert!(h.call_native("f", &[], &ctx).is_err());
        assert!(h.construct("C", &[], &ctx).is_err());
        assert!(h.call_method(ObjId(0), "m", &[], &ctx).is_err());
        assert_eq!(h.get_property(ObjId(0), "p").unwrap(), Value::Undefined);
        assert!(h.set_property(ObjId(0), "p", Value::Null, &ctx).is_err());
        assert!(h.get_global("document").is_none());
        assert!(!h.has_native("f"));
    }
}
