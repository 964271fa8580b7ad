//! Lexer for the JavaScript subset.

use crate::error::{JsError, JsErrorKind};

/// A lexical token, tagged with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub(crate) kind: TokenKind,
    pub(crate) line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    Ident(String),
    Num(f64),
    Str(String),
    Keyword(Keyword),
    Punct(Punct),
    Eof,
}

/// Reserved words we recognize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keyword {
    Var,
    Function,
    If,
    Else,
    While,
    For,
    Return,
    Break,
    Continue,
    True,
    False,
    Null,
    Undefined,
    New,
    Typeof,
}

impl Keyword {
    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "var" => Self::Var,
            "function" => Self::Function,
            "if" => Self::If,
            "else" => Self::Else,
            "while" => Self::While,
            "for" => Self::For,
            "return" => Self::Return,
            "break" => Self::Break,
            "continue" => Self::Continue,
            "true" => Self::True,
            "false" => Self::False,
            "null" => Self::Null,
            "undefined" => Self::Undefined,
            "new" => Self::New,
            "typeof" => Self::Typeof,
            _ => return None,
        })
    }
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Dot,
    Question,
    Colon,
    Assign,     // =
    PlusAssign, // +=
    MinusAssign,
    StarAssign,
    SlashAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,    // ==
    NotEq,   // !=
    EqEqEq,  // ===
    NotEqEq, // !==
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    PlusPlus,
    MinusMinus,
}

/// Lexes `src` into a token vector (terminated by `Eof`).
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, JsError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(JsError::at(
                            JsErrorKind::Lex,
                            "unterminated block comment",
                            line,
                        ));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(JsError::at(
                            JsErrorKind::Lex,
                            "unterminated string literal",
                            line,
                        ));
                    }
                    let c = bytes[i];
                    if c == quote {
                        i += 1;
                        break;
                    }
                    if c == b'\\' {
                        i += 1;
                        let esc = *bytes.get(i).ok_or_else(|| {
                            JsError::at(JsErrorKind::Lex, "unterminated escape", line)
                        })?;
                        match esc {
                            b'n' => {
                                s.push('\n');
                                i += 1;
                            }
                            b't' => {
                                s.push('\t');
                                i += 1;
                            }
                            b'r' => {
                                s.push('\r');
                                i += 1;
                            }
                            b'\\' | b'\'' | b'"' => {
                                s.push(esc as char);
                                i += 1;
                            }
                            b'0' => {
                                s.push('\0');
                                i += 1;
                            }
                            _ => {
                                // Unknown escape: keep the (possibly
                                // multibyte) character verbatim.
                                let len = utf8_len(esc);
                                s.push_str(&src[i..i + len]);
                                i += len;
                            }
                        }
                    } else {
                        if c == b'\n' {
                            line += 1;
                        }
                        // Copy a full UTF-8 character.
                        let len = utf8_len(c);
                        s.push_str(&src[i..i + len]);
                        i += len;
                    }
                }
                push!(TokenKind::Str(s));
            }
            _ if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Exponent part.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| {
                    JsError::at(JsErrorKind::Lex, format!("bad number literal {text}"), line)
                })?;
                push!(TokenKind::Num(value));
            }
            _ if b.is_ascii_alphabetic() || b == b'_' || b == b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = &src[start..i];
                match Keyword::from_str(word) {
                    Some(kw) => push!(TokenKind::Keyword(kw)),
                    None => push!(TokenKind::Ident(word.to_string())),
                }
            }
            _ => {
                use Punct::*;
                let two =
                    |a: u8, b2: u8| i + 1 < bytes.len() && bytes[i] == a && bytes[i + 1] == b2;
                let three = |a: u8, b2: u8, c: u8| {
                    i + 2 < bytes.len() && bytes[i] == a && bytes[i + 1] == b2 && bytes[i + 2] == c
                };
                let (punct, len) = if three(b'=', b'=', b'=') {
                    (EqEqEq, 3)
                } else if three(b'!', b'=', b'=') {
                    (NotEqEq, 3)
                } else if two(b'=', b'=') {
                    (EqEq, 2)
                } else if two(b'!', b'=') {
                    (NotEq, 2)
                } else if two(b'<', b'=') {
                    (Le, 2)
                } else if two(b'>', b'=') {
                    (Ge, 2)
                } else if two(b'&', b'&') {
                    (AndAnd, 2)
                } else if two(b'|', b'|') {
                    (OrOr, 2)
                } else if two(b'+', b'=') {
                    (PlusAssign, 2)
                } else if two(b'-', b'=') {
                    (MinusAssign, 2)
                } else if two(b'*', b'=') {
                    (StarAssign, 2)
                } else if two(b'/', b'=') {
                    (SlashAssign, 2)
                } else if two(b'+', b'+') {
                    (PlusPlus, 2)
                } else if two(b'-', b'-') {
                    (MinusMinus, 2)
                } else {
                    let p = match b {
                        b'(' => LParen,
                        b')' => RParen,
                        b'{' => LBrace,
                        b'}' => RBrace,
                        b'[' => LBracket,
                        b']' => RBracket,
                        b',' => Comma,
                        b';' => Semi,
                        b'.' => Dot,
                        b'?' => Question,
                        b':' => Colon,
                        b'=' => Assign,
                        b'+' => Plus,
                        b'-' => Minus,
                        b'*' => Star,
                        b'/' => Slash,
                        b'%' => Percent,
                        b'<' => Lt,
                        b'>' => Gt,
                        b'!' => Not,
                        other => {
                            return Err(JsError::at(
                                JsErrorKind::Lex,
                                format!("unexpected character {:?}", other as char),
                                line,
                            ))
                        }
                    };
                    (p, 1)
                };
                push!(TokenKind::Punct(punct));
                i += len;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_keywords_numbers() {
        let k = kinds("var x = 42.5;");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword(Keyword::Var),
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::Num(42.5),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        let k = kinds(r#"'a\'b' "c\nd""#);
        assert_eq!(k[0], TokenKind::Str("a'b".into()));
        assert_eq!(k[1], TokenKind::Str("c\nd".into()));
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("1 // line\n/* block\nstill */ 2");
        assert_eq!(
            k,
            vec![TokenKind::Num(1.0), TokenKind::Num(2.0), TokenKind::Eof]
        );
    }

    #[test]
    fn multi_char_operators() {
        let k = kinds("a === b !== c == d != e <= f >= g && h || i += j ++");
        let puncts: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![
                Punct::EqEqEq,
                Punct::NotEqEq,
                Punct::EqEq,
                Punct::NotEq,
                Punct::Le,
                Punct::Ge,
                Punct::AndAnd,
                Punct::OrOr,
                Punct::PlusAssign,
                Punct::PlusPlus,
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("'abc").unwrap_err();
        assert_eq!(err.kind, JsErrorKind::Lex);
    }

    #[test]
    fn exponent_numbers() {
        assert_eq!(kinds("1e3")[0], TokenKind::Num(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::Num(0.025));
    }

    #[test]
    fn dollar_and_underscore_idents() {
        assert_eq!(kinds("$x _y")[0], TokenKind::Ident("$x".into()));
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(kinds("'héllo 😀'")[0], TokenKind::Str("héllo 😀".into()));
    }
}
