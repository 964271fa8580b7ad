//! Runtime values and JavaScript-style coercions.

use crate::host::ObjId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Undefined,
    Null,
    Bool(bool),
    Num(f64),
    Str(Rc<str>),
    /// A handle to a host-managed object (XHR, DOM element, …).
    Object(ObjId),
    /// A script-side array (reference semantics, like JS).
    Array(Rc<RefCell<Vec<Value>>>),
    /// A script-side object literal (reference semantics, like JS).
    Dict(Rc<RefCell<BTreeMap<String, Value>>>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Builds an array value.
    pub(crate) fn array(items: Vec<Value>) -> Self {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Builds an object value.
    pub(crate) fn dict(entries: Vec<(String, Value)>) -> Self {
        Value::Dict(Rc::new(RefCell::new(entries.into_iter().collect())))
    }

    /// Deep-copies the value, so that snapshots are isolated from later
    /// mutation (required by the crawler's rollback: arrays and dicts have
    /// reference semantics during execution, but a snapshot must freeze
    /// them).
    pub(crate) fn deep_clone(&self) -> Value {
        match self {
            Value::Array(items) => {
                Value::array(items.borrow().iter().map(Value::deep_clone).collect())
            }
            Value::Dict(entries) => Value::Dict(Rc::new(RefCell::new(
                entries
                    .borrow()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.deep_clone()))
                    .collect(),
            ))),
            other => other.clone(),
        }
    }

    /// JavaScript truthiness.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Object(_) | Value::Array(_) | Value::Dict(_) => true,
        }
    }

    /// `ToNumber` coercion.
    pub(crate) fn to_number(&self) -> f64 {
        match self {
            Value::Undefined => f64::NAN,
            Value::Null => 0.0,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Num(n) => *n,
            Value::Str(s) => {
                let trimmed = s.trim();
                if trimmed.is_empty() {
                    0.0
                } else {
                    trimmed.parse().unwrap_or(f64::NAN)
                }
            }
            // JS: [] -> 0, [x] -> Number(x); we keep the common cases.
            Value::Array(items) => {
                let items = items.borrow();
                match items.len() {
                    0 => 0.0,
                    1 => items[0].to_number(),
                    _ => f64::NAN,
                }
            }
            Value::Object(_) | Value::Dict(_) => f64::NAN,
        }
    }

    /// `ToString` coercion (JS-style number formatting: integral values print
    /// without a decimal point).
    pub fn to_string_value(&self) -> String {
        match self {
            Value::Undefined => "undefined".into(),
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => format_number(*n),
            Value::Str(s) => s.to_string(),
            Value::Object(id) => format!("[object #{}]", id.0),
            // JS Array.prototype.toString == join(",").
            Value::Array(items) => items
                .borrow()
                .iter()
                .map(Value::to_string_value)
                .collect::<Vec<_>>()
                .join(","),
            Value::Dict(_) => "[object Object]".to_string(),
        }
    }

    /// The `typeof` operator.
    pub(crate) fn type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object", // Faithful JS quirk.
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Object(_) | Value::Array(_) | Value::Dict(_) => "object",
        }
    }

    /// Loose equality (`==`) for the subset: numeric comparison when either
    /// side is a number, string comparison for strings, identity for objects.
    pub(crate) fn loose_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Undefined | Null, Undefined | Null) => true,
            (Num(a), Num(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Bool(_), _) | (_, Bool(_)) | (Num(_), Str(_)) | (Str(_), Num(_)) => {
                let (a, b) = (self.to_number(), other.to_number());
                a == b
            }
            (Object(a), Object(b)) => a == b,
            (Array(a), Array(b)) => Rc::ptr_eq(a, b),
            (Dict(a), Dict(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Strict equality (`===`).
    pub(crate) fn strict_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Undefined, Undefined) | (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Object(a), Object(b)) => a == b,
            (Array(a), Array(b)) => Rc::ptr_eq(a, b),
            (Dict(a), Dict(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// JS-style number formatting: `3` not `3.0`, `0.5` stays `0.5`, NaN and
/// infinities spelled like JS.
pub(crate) fn format_number(n: f64) -> String {
    if n.is_nan() {
        return "NaN".into();
    }
    if n.is_infinite() {
        return if n > 0.0 {
            "Infinity".into()
        } else {
            "-Infinity".into()
        };
    }
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_value())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.strict_eq(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Num(f64::NAN).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(Value::Num(-1.0).truthy());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(-0.25), "-0.25");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::str("42").to_number(), 42.0);
        assert!(Value::str("x").to_number().is_nan());
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Null.to_number(), 0.0);
        assert!(Value::Undefined.to_number().is_nan());
    }

    #[test]
    fn loose_vs_strict_eq() {
        assert!(Value::Num(1.0).loose_eq(&Value::str("1")));
        assert!(!Value::Num(1.0).strict_eq(&Value::str("1")));
        assert!(Value::Null.loose_eq(&Value::Undefined));
        assert!(!Value::Null.strict_eq(&Value::Undefined));
        assert!(Value::Bool(true).loose_eq(&Value::Num(1.0)));
    }

    #[test]
    fn typeof_values() {
        assert_eq!(Value::Null.type_of(), "object");
        assert_eq!(Value::str("s").type_of(), "string");
        assert_eq!(Value::Num(1.0).type_of(), "number");
    }
}
