//! Tree builder: turns the token stream into a [`Document`].
//!
//! Forgiving by design (like browsers and like COBRA): unmatched end tags are
//! dropped, unclosed elements are closed at EOF, void elements never take
//! children.

use crate::atom::{Atom, Interner};
use crate::dom::{Document, Element, NodeData, NodeId, PayloadRef};
use crate::tokenizer::{Token, Tokenizer};
use std::collections::HashMap;

/// Elements that never have children (no end tag expected).
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Returns true when `name` is an HTML void element.
pub fn is_void_element(name: &str) -> bool {
    VOID_ELEMENTS.contains(&name)
}

/// Parses a complete HTML document.
pub fn parse_document(html: &str) -> Document {
    let mut doc = Document::new();
    let root = doc.root();
    parse_into(&mut doc, root, html);
    doc
}

/// Parses `html` and appends the resulting nodes under `parent`, straight
/// into `doc`'s arena (the `innerHTML` setter path; the caller logs the
/// mutation). End tags match only elements opened by `html` itself, so a
/// fragment cannot close the element it is set into.
pub(crate) fn parse_into(doc: &mut Document, parent: NodeId, html: &str) {
    // The elements `html` has opened and not yet closed, innermost last.
    let mut open: Vec<(NodeId, Atom)> = Vec::new();
    // How many open elements bear each name — kept from the first end tag
    // that does not close the innermost element, so markup that nests
    // properly never pays for it. A stray end tag (count zero) is dropped
    // without walking the stack, which keeps 100 000 `</span>` over
    // 100 000 open `<div>` linear instead of 10^10 name compares.
    let mut open_counts: Option<HashMap<Atom, usize>> = None;
    let mut names = Interner::default();
    let mut tokens = Tokenizer::new(html);
    // The payloads of this parse: one chunk, which the document gets at the
    // end and whose slots the nodes name as they are made.
    // (Text-centric markup runs to about a node per 32 bytes.)
    let expected = html.len() / 32;
    let mut payloads: Vec<NodeData> = Vec::with_capacity(expected);
    let chunk = doc.next_chunk();
    doc.reserve_nodes(expected);

    while let Some(token) = tokens.next_token() {
        let current = open.last().map_or(parent, |(id, _)| *id);
        let mut append = |data| {
            let slot = payloads.len() as u32;
            payloads.push(data);
            doc.push_node(current, PayloadRef { chunk, slot })
        };
        match token {
            Token::Doctype(_) => {}
            Token::Comment(body) => {
                append(NodeData::Comment(body.to_string()));
            }
            Token::Text(text) => {
                if !text.is_empty() {
                    append(NodeData::Text(text.into_owned()));
                }
            }
            Token::StartTag { name, self_closing } => {
                let attrs = tokens.attrs().iter().map(|a| (&*a.name, &*a.value));
                let element = Element::new(&mut names, &name, attrs);
                let takes_children = !self_closing && !is_void_element(&name);
                let name = takes_children.then(|| element.atom().clone());
                let id = append(NodeData::Element(element));
                if let (Some(counts), Some(name)) = (&mut open_counts, &name) {
                    *counts.entry(name.clone()).or_default() += 1;
                }
                open.extend(name.map(|name| (id, name)));
            }
            Token::EndTag { name } => {
                // Pop up to (and including) the nearest matching open element;
                // if none matches, ignore the stray end tag.
                if open.last().is_none_or(|(_, innermost)| *innermost != *name) {
                    let counts = open_counts.get_or_insert_with(|| {
                        let mut counts = HashMap::new();
                        for (_, name) in &open {
                            *counts.entry(name.clone()).or_default() += 1;
                        }
                        counts
                    });
                    if counts.get(&*name).is_none_or(|&n| n == 0) {
                        continue;
                    }
                }
                let pos = open
                    .iter()
                    .rposition(|(_, open)| *open == *name)
                    .expect("an open element bears the name");
                for (_, closed) in open.drain(pos..) {
                    if let Some(counts) = &mut open_counts {
                        *counts.get_mut(&closed).expect("open, so counted") -= 1;
                    }
                }
            }
        }
    }
    if !payloads.is_empty() {
        let at = doc.push_chunk(payloads);
        debug_assert_eq!(at.chunk, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure() {
        let doc = parse_document("<div><p>a</p><p>b</p></div>");
        let div = doc.walk().next().unwrap();
        assert_eq!(doc.tag_name(div), Some("div"));
        assert_eq!(doc.children(div).count(), 2);
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = parse_document("</p><div>x</div></div></span>");
        assert_eq!(doc.document_text().trim(), "x");
    }

    #[test]
    fn unclosed_elements_closed_at_eof() {
        let doc = parse_document("<div><p>a<p-like>");
        assert!(doc.document_text().contains('a'));
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse_document("<br><p>text</p>");
        let br = doc.walk().next().unwrap();
        assert_eq!(doc.tag_name(br), Some("br"));
        assert_eq!(doc.children(br).count(), 0);
        // <p> must be a sibling of <br>, not its child.
        assert_eq!(doc.children(doc.root()).count(), 2);
    }

    #[test]
    fn mismatched_nesting_recovers() {
        let doc = parse_document("<b><i>x</b>y</i>");
        // "x" under <i>, and "y" lands somewhere sensible (no panic, all text kept).
        let text = doc.document_text();
        assert!(text.contains('x') && text.contains('y'));
    }

    #[test]
    fn deeply_nested_no_stack_overflow() {
        let depth = 2000;
        let html = format!("{}{}", "<div>".repeat(depth), "</div>".repeat(depth));
        let doc = parse_document(&html);
        assert_eq!(doc.walk().count(), depth);
    }

    #[test]
    fn empty_input() {
        let doc = parse_document("");
        assert!(doc.is_empty());
        assert_eq!(doc.document_text(), "");
    }
}
