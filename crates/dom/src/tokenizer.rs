//! HTML tokenizer.
//!
//! Produces a flat token stream (start tags, end tags, text, comments,
//! doctype) from raw HTML. `<script>` and `<style>` contents are treated as
//! raw text running until the matching close tag, which is essential because
//! the VidShare pages embed JavaScript containing `<` comparisons.
//!
//! Tokens borrow from the input: a name or a piece of text is a slice of it
//! unless lower-casing or entity decoding changes its bytes, and the
//! attributes of a start tag go into one buffer the tokenizer reuses.

use crate::entities;
use std::borrow::Cow;

/// One `name="value"` pair on a start tag. `name` is lowercase, `value`
/// is entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    pub name: Cow<'a, str>,
    pub value: Cow<'a, str>,
}

/// A lexical token of the HTML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr=...>`; `self_closing` is true for `<br/>` style tags.
    /// The attributes are [`Tokenizer::attrs`] until the next token.
    StartTag {
        name: Cow<'a, str>,
        self_closing: bool,
    },
    /// `</name>`
    EndTag { name: Cow<'a, str> },
    /// Character data (entity-decoded).
    Text(Cow<'a, str>),
    /// `<!-- ... -->`
    Comment(&'a str),
    /// `<!DOCTYPE ...>`
    Doctype(&'a str),
}

/// Elements whose content is raw text up to the matching end tag.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

/// A streaming HTML tokenizer over an input string.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// When `Some(tag)`, we are inside a raw-text element and must scan for
    /// `</tag` before resuming normal tokenization.
    raw_text_until: Option<&'static str>,
    /// Attributes of the start tag returned last.
    attrs: Vec<Attribute<'a>>,
    raw_text_scanned: usize,
}

/// `s` in ASCII lowercase, copied only if that changes it.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Offset of the first `</tag` in `haystack`, ASCII case ignored. One pass:
/// every byte before the answer is looked at once, plus `tag` at each `<`.
fn find_end_tag(haystack: &str, tag: &str) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(lt) = bytes[from..].iter().position(|&b| b == b'<') {
        let at = from + lt;
        if let Some((b'/', name)) = bytes[at + 1..].split_first() {
            if name.len() >= tag.len() && name[..tag.len()].eq_ignore_ascii_case(tag.as_bytes()) {
                return Some(at);
            }
        }
        from = at + 1;
    }
    None
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            pos: 0,
            raw_text_until: None,
            attrs: Vec::new(),
            raw_text_scanned: 0,
        }
    }

    /// Byte offset of the next token. Tokens cover the input back to back:
    /// each starts where its predecessor ended and is at least a byte long.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The attributes of the [`Token::StartTag`] returned last, in source
    /// order (empty after any other token).
    pub fn attrs(&self) -> &[Attribute<'a>] {
        &self.attrs
    }

    /// Bytes walked so far looking for the end of raw-text elements. Each
    /// search stops at the first closer and the text up to it is consumed,
    /// so this never exceeds the input's length.
    pub fn raw_text_scanned(&self) -> usize {
        self.raw_text_scanned
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with_ci(haystack: &str, needle: &str) -> bool {
        // Byte-wise to stay safe on multibyte input (slicing by needle
        // length could split a UTF-8 character).
        let haystack = haystack.as_bytes();
        let needle = needle.as_bytes();
        haystack.len() >= needle.len() && haystack[..needle.len()].eq_ignore_ascii_case(needle)
    }

    /// The next token, or `None` at the end of the input.
    pub fn next_token(&mut self) -> Option<Token<'a>> {
        self.attrs.clear();
        if self.pos >= self.input.len() {
            return None;
        }

        // Raw text mode: emit everything up to the matching end tag as Text.
        if let Some(tag) = self.raw_text_until.take() {
            let rest = self.rest();
            // Unterminated raw text runs to the end of the input.
            let end = find_end_tag(rest, tag).unwrap_or(rest.len());
            self.raw_text_scanned += end;
            self.pos += end;
            if end > 0 {
                return Some(Token::Text(Cow::Borrowed(&rest[..end])));
            }
            // Empty body: fall through to tokenize the end tag itself.
        }

        let rest = self.rest();
        if let Some(after) = rest.strip_prefix('<') {
            if after.starts_with("!--") {
                return Some(self.lex_comment());
            }
            if Self::starts_with_ci(after, "!doctype") {
                return Some(self.lex_doctype());
            }
            if after.starts_with('/') {
                return Some(self.lex_end_tag());
            }
            if after
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            {
                return Some(self.lex_start_tag());
            }
            // A lone '<' that doesn't begin a tag: treat as text.
        }
        Some(self.lex_text())
    }

    fn lex_text(&mut self) -> Token<'a> {
        let rest = self.rest();
        // Text runs until the next '<' that plausibly starts markup.
        let mut end = rest.len();
        let bytes = rest.as_bytes();
        let mut i = if bytes.first() == Some(&b'<') { 1 } else { 0 };
        while i < bytes.len() {
            if bytes[i] == b'<' {
                let nxt = bytes.get(i + 1).copied().unwrap_or(b' ');
                if nxt.is_ascii_alphabetic() || nxt == b'/' || nxt == b'!' {
                    end = i;
                    break;
                }
            }
            i += 1;
        }
        let raw = &rest[..end];
        self.pos += end;
        Token::Text(entities::decode(raw))
    }

    fn lex_comment(&mut self) -> Token<'a> {
        // self.rest() starts with "<!--"
        let rest = self.rest();
        let body_start = 4;
        match rest[body_start..].find("-->") {
            Some(idx) => {
                self.pos += body_start + idx + 3;
                Token::Comment(&rest[body_start..body_start + idx])
            }
            None => {
                self.pos = self.input.len();
                Token::Comment(&rest[body_start..])
            }
        }
    }

    /// Returns `(body_end, consumed)` for a construct running to the next
    /// `>` (or EOF). `body_end` is always a char boundary: either the index
    /// of the ASCII `>` or the string length.
    fn until_gt(rest: &str) -> (usize, usize) {
        match rest.find('>') {
            Some(i) => (i, i + 1),
            None => (rest.len(), rest.len()),
        }
    }

    fn lex_doctype(&mut self) -> Token<'a> {
        let rest = self.rest();
        let (body_end, consumed) = Self::until_gt(rest);
        self.pos += consumed;
        Token::Doctype(rest[2.min(body_end)..body_end].trim())
    }

    fn lex_end_tag(&mut self) -> Token<'a> {
        // rest starts with "</"
        let rest = self.rest();
        let (body_end, consumed) = Self::until_gt(rest);
        self.pos += consumed;
        Token::EndTag {
            name: lowercase(rest[2.min(body_end)..body_end].trim()),
        }
    }

    fn lex_start_tag(&mut self) -> Token<'a> {
        // rest starts with "<name"
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let mut i = 1;
        while i < bytes.len()
            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b':')
        {
            i += 1;
        }
        let name = lowercase(&rest[1..i]);
        let mut self_closing = false;

        // Attribute scanning.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            match bytes[i] {
                b'>' => {
                    i += 1;
                    break;
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    // Attribute name.
                    let name_start = i;
                    while i < bytes.len()
                        && !bytes[i].is_ascii_whitespace()
                        && bytes[i] != b'='
                        && bytes[i] != b'>'
                        && bytes[i] != b'/'
                    {
                        i += 1;
                    }
                    let attr_name = lowercase(&rest[name_start..i]);
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let mut attr_value = Cow::Borrowed("");
                    if i < bytes.len() && bytes[i] == b'=' {
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                            let quote = bytes[i];
                            i += 1;
                            let val_start = i;
                            while i < bytes.len() && bytes[i] != quote {
                                i += 1;
                            }
                            attr_value = entities::decode(&rest[val_start..i]);
                            if i < bytes.len() {
                                i += 1; // Skip closing quote.
                            }
                        } else {
                            let val_start = i;
                            while i < bytes.len()
                                && !bytes[i].is_ascii_whitespace()
                                && bytes[i] != b'>'
                            {
                                i += 1;
                            }
                            attr_value = entities::decode(&rest[val_start..i]);
                        }
                    }
                    if !attr_name.is_empty() {
                        self.attrs.push(Attribute {
                            name: attr_name,
                            value: attr_value,
                        });
                    }
                }
            }
        }
        self.pos += i;

        if !self_closing {
            self.raw_text_until = RAW_TEXT_ELEMENTS.iter().copied().find(|&t| t == name);
        }
        Token::StartTag { name, self_closing }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;
    fn next(&mut self) -> Option<Token<'a>> {
        self.next_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token, a start tag's attributes beside it as `(name, value)`.
    fn toks(s: &str) -> Vec<(Token<'_>, Vec<(String, String)>)> {
        let mut tokens = Tokenizer::new(s);
        let mut out = Vec::new();
        while let Some(token) = tokens.next_token() {
            let attrs = tokens.attrs().iter();
            let attrs = attrs.map(|a| (a.name.to_string(), a.value.to_string()));
            out.push((token, attrs.collect()));
        }
        out
    }

    fn start(name: &str, self_closing: bool) -> Token<'_> {
        Token::StartTag {
            name: name.into(),
            self_closing,
        }
    }

    fn end(name: &str) -> Token<'_> {
        Token::EndTag { name: name.into() }
    }

    #[test]
    fn simple_tags() {
        let t = toks("<div id=\"a\">hi</div>");
        assert_eq!(
            t,
            vec![
                (start("div", false), vec![("id".into(), "a".into())]),
                (Token::Text("hi".into()), vec![]),
                (end("div"), vec![]),
            ]
        );
    }

    #[test]
    fn unquoted_and_single_quoted_attrs() {
        let t = toks("<a href=/watch?v=1 class='x y'>z</a>");
        assert_eq!(t[0].1[0].1, "/watch?v=1");
        assert_eq!(t[0].1[1].1, "x y");
    }

    #[test]
    fn self_closing() {
        let t = toks("<br/><img src=\"i.png\" />");
        assert_eq!(t[0].0, start("br", true));
        assert_eq!(t[1].0, start("img", true));
    }

    #[test]
    fn script_is_raw_text() {
        let t = toks("<script>if (a < b) { x(); }</script><p>t</p>");
        assert_eq!(
            t[1].0,
            Token::Text("if (a < b) { x(); }".into()),
            "script body must not be parsed as markup"
        );
        assert_eq!(t[2].0, end("script"));
    }

    #[test]
    fn script_case_insensitive_close() {
        for closer in ["</ScRiPt>", "</SCRIPT>", "</ScRiPt >"] {
            let html = format!("<SCRIPT>x<1{closer}<p>");
            let t = toks(&html);
            assert_eq!(t[1].0, Token::Text("x<1".into()), "{closer}");
            assert_eq!(t[2].0, end("script"), "{closer}");
            assert_eq!(t[3].0, start("p", false), "{closer}");
        }
    }

    #[test]
    fn raw_text_keeps_what_only_looks_like_its_end() {
        // `<`, `</` and a closer of the other raw-text element are body.
        let t = toks("<style>a</b></script>é</sty</style>x");
        assert_eq!(t[1].0, Token::Text("a</b></script>é</sty".into()));
        assert_eq!(t[2].0, end("style"));
        assert_eq!(t[3].0, Token::Text("x".into()));
        // A multibyte body right up to the end of the input.
        assert_eq!(toks("<script>日本語")[1].0, Token::Text("日本語".into()));
        assert_eq!(toks("<script>日本</").len(), 2);
    }

    #[test]
    fn raw_text_search_walks_each_byte_once() {
        // 20 000 scripts: searching each one's end from a lower-cased copy
        // of the rest of the page would walk (and copy) 3.4 GB.
        let page = "<script></script>".repeat(20_000);
        let mut tokens = Tokenizer::new(&page);
        let count = tokens.by_ref().count();
        assert_eq!(count, 40_000);
        assert_eq!(tokens.raw_text_scanned(), 0, "every body is empty");

        let page = "<script>var a = 1 < 2;</script><p>t</p>".repeat(5_000);
        let mut tokens = Tokenizer::new(&page);
        assert_eq!(tokens.by_ref().count(), 30_000);
        assert_eq!(tokens.raw_text_scanned(), "var a = 1 < 2;".len() * 5_000);
        assert!(tokens.raw_text_scanned() <= page.len());
    }

    #[test]
    fn tokens_borrow_unless_bytes_change() {
        let borrowed = |t: &Token<'_>| match t {
            Token::StartTag { name, .. } | Token::EndTag { name } => {
                matches!(name, Cow::Borrowed(_))
            }
            Token::Text(text) => matches!(text, Cow::Borrowed(_)),
            Token::Comment(_) | Token::Doctype(_) => true,
        };
        assert!(toks("<div id=\"a\">plain</div><!-- c -->")
            .iter()
            .all(|(t, _)| borrowed(t)));
        let t = toks("<DIV>a &amp; b</Div>");
        assert!(t.iter().all(|(t, _)| !borrowed(t)));
        assert_eq!(t[1].0, Token::Text("a & b".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let t = toks("<!DOCTYPE html><!-- a -- b --><p/>");
        assert_eq!(t[0].0, Token::Doctype("DOCTYPE html"));
        assert_eq!(t[1].0, Token::Comment(" a -- b "));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let t = toks("<a title=\"a &amp; b\">x &lt; y</a>");
        assert_eq!(t[0].1[0].1, "a & b");
        assert_eq!(t[1].0, Token::Text("x < y".into()));
    }

    #[test]
    fn stray_lt_is_text() {
        let t = toks("a < b");
        assert_eq!(t, vec![(Token::Text("a < b".into()), vec![])]);
    }

    #[test]
    fn unterminated_tag_eof() {
        let t = toks("<div class=\"x");
        assert_eq!(t[0].0, start("div", false));
    }

    #[test]
    fn unterminated_script() {
        let t = toks("<script>var x = 1;");
        assert_eq!(t[1].0, Token::Text("var x = 1;".into()));
    }

    #[test]
    fn boolean_attribute() {
        let t = toks("<input disabled>");
        assert_eq!(t[0].1, vec![("disabled".to_string(), String::new())]);
    }

    #[test]
    fn tag_names_lowercased() {
        let t = toks("<DIV ID=x></DIV>");
        assert_eq!(t[0].0, start("div", false));
        assert_eq!(t[0].1[0].0, "id");
        assert_eq!(t[1].0, end("div"));
    }

    #[test]
    fn attributes_are_the_last_start_tags_only() {
        let mut tokens = Tokenizer::new("<a href=x>t</a><b>");
        tokens.next_token();
        assert_eq!(tokens.attrs().len(), 1);
        tokens.next_token();
        assert!(tokens.attrs().is_empty(), "text has no attributes");
    }
}
