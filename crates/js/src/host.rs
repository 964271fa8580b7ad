//! The host-embedding protocol.
//!
//! The interpreter is deliberately ignorant of DOM, network or timers — all
//! of those come from the embedder (the crawler) through the [`Host`] trait.
//! A method call on a host object also receives a [`HostCtx`] naming the
//! innermost executing user function: when the `XMLHttpRequest` host object
//! is asked to `send()`, that function is the hot node of the thesis (ch. 4).
//! The hot-node cache itself is keyed by the URL the request fetches, not by
//! the function's actual arguments as in the thesis' `StackInfo`: a server is
//! a pure function of the request, and a URL built from a global is not
//! determined by the arguments.

use crate::error::JsError;
use crate::value::Value;

/// Identifier of a host-managed object (an XHR instance, a DOM element…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

/// Context passed to a host method call.
#[derive(Debug)]
pub struct HostCtx<'a> {
    /// The innermost executing user function. Event-handler snippets
    /// executing at top level have none.
    pub(crate) function: Option<&'a str>,
}

impl HostCtx<'_> {
    /// The name of the innermost executing user function, if any.
    pub fn top_function(&self) -> Option<&str> {
        self.function
    }
}

/// Services the embedder provides to scripts.
///
/// All methods have reasonable defaults (errors / `Undefined`), so hosts only
/// implement what their pages need.
pub trait Host {
    /// Constructs a host object, e.g. `new XMLHttpRequest()`.
    fn construct(&mut self, class: &str, args: &[Value]) -> Result<Value, JsError> {
        let _ = args;
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
    fn set_property(&mut self, obj: ObjId, prop: &str, value: Value) -> Result<(), JsError> {
        let _ = (obj, value);
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
        let ctx = HostCtx { function: None };
        assert!(h.construct("C", &[]).is_err());
        assert!(h.call_method(ObjId(0), "m", &[], &ctx).is_err());
        assert_eq!(h.get_property(ObjId(0), "p").unwrap(), Value::Undefined);
        assert!(h.set_property(ObjId(0), "p", Value::Null).is_err());
        assert!(h.get_global("document").is_none());
    }
}
