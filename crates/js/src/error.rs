//! Error type shared by the lexer, parser and interpreter.

use std::fmt;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsErrorKind {
    /// Lexical error (bad character, unterminated string…).
    Lex,
    /// Syntax error.
    Parse,
    /// Reference to an undefined variable or function.
    Reference,
    /// Operation on incompatible values.
    Type,
    /// The fuel budget was exhausted (runaway script).
    FuelExhausted,
    /// The call stack exceeded its depth limit.
    StackOverflow,
    /// An error raised by the embedding host (e.g. a failed network call).
    Host,
}

impl fmt::Display for JsErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Lex => "lex error",
            Self::Parse => "syntax error",
            Self::Reference => "reference error",
            Self::Type => "type error",
            Self::FuelExhausted => "fuel exhausted",
            Self::StackOverflow => "stack overflow",
            Self::Host => "host error",
        };
        f.write_str(s)
    }
}

/// An error produced while lexing, parsing or executing JavaScript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsError {
    pub kind: JsErrorKind,
    pub message: String,
    /// 1-based source line where the error occurred, when known.
    pub(crate) line: Option<u32>,
}

impl JsError {
    pub(crate) fn new(kind: JsErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            line: None,
        }
    }

    pub(crate) fn at(kind: JsErrorKind, message: impl Into<String>, line: u32) -> Self {
        Self {
            kind,
            message: message.into(),
            line: Some(line),
        }
    }

    pub fn reference(message: impl Into<String>) -> Self {
        Self::new(JsErrorKind::Reference, message)
    }

    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new(JsErrorKind::Type, message)
    }

    pub fn host(message: impl Into<String>) -> Self {
        Self::new(JsErrorKind::Host, message)
    }
}

impl fmt::Display for JsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "{} at line {}: {}", self.kind, line, self.message),
            None => write!(f, "{}: {}", self.kind, self.message),
        }
    }
}

impl std::error::Error for JsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_line() {
        let e = JsError::at(JsErrorKind::Parse, "unexpected token", 3);
        assert_eq!(e.to_string(), "syntax error at line 3: unexpected token");
        let e = JsError::reference("x is not defined");
        assert_eq!(e.to_string(), "reference error: x is not defined");
    }
}
