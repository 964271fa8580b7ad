//! DOM serialization: faithful (`to_html`) and normalized (for hashing).

use crate::dom::{Document, NodeData, NodeId};
use crate::entities;
use crate::hash::fnv64_str;
use crate::parser::is_void_element;
use std::ops::Range;

/// Serializes the children of `id` (the `innerHTML` getter).
pub fn inner_html(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    for child in doc.children(id) {
        serialize_node(doc, child, &mut out);
    }
    out
}

/// Serializes the whole document.
pub fn document_html(doc: &Document) -> String {
    inner_html(doc, doc.root())
}

fn serialize_node(doc: &Document, id: NodeId, out: &mut String) {
    match &*doc.node(id).data {
        NodeData::Root => {
            for child in doc.children(id) {
                serialize_node(doc, child, out);
            }
        }
        NodeData::Text(t) => out.push_str(&entities::encode_text(t)),
        NodeData::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        NodeData::Element { name, attrs } => {
            out.push('<');
            out.push_str(name);
            for (attr_name, attr_value) in attrs {
                out.push(' ');
                out.push_str(attr_name);
                out.push_str("=\"");
                out.push_str(&entities::encode_attr(attr_value));
                out.push('"');
            }
            out.push('>');
            if is_void_element(name) {
                return;
            }
            if name == "script" || name == "style" {
                // Raw text: serialize children verbatim.
                for child in doc.children(id) {
                    if let NodeData::Text(t) = &*doc.node(child).data {
                        out.push_str(t);
                    }
                }
            } else {
                for child in doc.children(id) {
                    serialize_node(doc, child, out);
                }
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// Normalized serialization used for duplicate-state detection:
///
/// * attributes sorted by name (event ordering must not affect identity),
/// * text whitespace collapsed to single spaces and trimmed,
/// * comments dropped (invisible to the user, thus not part of the state),
/// * script bodies dropped (code is not content; a state is what the user
///   *sees* — the thesis hashes "the content of the state").
pub fn normalized_html(doc: &Document) -> String {
    NormalizedView::of(doc).text
}

/// The normalized serialization of a document plus, for every node, the
/// byte span its subtree occupies in it — built in one traversal.
///
/// The state hash is the FNV of [`Self::text`]; two aligned subtrees are
/// content-equal exactly when their [`Self::subtree`] slices are equal,
/// which is how the transition diff decides "changed" without serializing
/// anything again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedView {
    text: String,
    /// Indexed by `NodeId`. Nodes that normalize to nothing (comments,
    /// scripts, blank text, detached nodes) have an empty span.
    spans: Vec<Range<usize>>,
}

impl NormalizedView {
    /// Normalizes `doc` ([`Document::normalized_view`]).
    pub(crate) fn of(doc: &Document) -> Self {
        let mut view = Self {
            text: String::new(),
            spans: vec![0..0; doc.arena_len()],
        };
        view.visit(doc, doc.root());
        view
    }

    /// The whole normalized serialization ([`normalized_html`]).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// FNV-64 of the text ([`Document::content_hash`]).
    pub fn hash(&self) -> u64 {
        fnv64_str(&self.text)
    }

    /// The normalized serialization of the subtree under `id`, which must
    /// be a node of the document this view was built from.
    pub fn subtree(&self, id: NodeId) -> &str {
        &self.text[self.spans[id.index()].clone()]
    }

    /// Whether this view has a span for every node of `doc` and no more —
    /// the cheap part of "was built from `doc` as it stands".
    pub(crate) fn covers(&self, doc: &Document) -> bool {
        self.spans.len() == doc.arena_len()
    }

    fn visit(&mut self, doc: &Document, id: NodeId) {
        let start = self.text.len();
        match &*doc.node(id).data {
            NodeData::Root => {
                for child in doc.children(id) {
                    self.visit(doc, child);
                }
            }
            NodeData::Comment(_) => {}
            NodeData::Text(t) => push_collapsed(&mut self.text, t),
            NodeData::Element { name, .. } if name == "script" || name == "style" => {}
            NodeData::Element { name, attrs } => {
                let out = &mut self.text;
                out.push('<');
                out.push_str(name);
                // A stable sort by name; most tags arrive sorted already.
                if attrs.windows(2).all(|w| w[0].0 <= w[1].0) {
                    attrs.iter().for_each(|attr| push_attribute(out, attr));
                } else {
                    let mut sorted: Vec<&(String, String)> = attrs.iter().collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    sorted
                        .into_iter()
                        .for_each(|attr| push_attribute(out, attr));
                }
                out.push('>');
                for child in doc.children(id) {
                    self.visit(doc, child);
                }
                self.text.push_str("</");
                self.text.push_str(name);
                self.text.push('>');
            }
        }
        self.spans[id.index()] = start..self.text.len();
    }
}

fn push_attribute(out: &mut String, (name, value): &(String, String)) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    entities::push_attr(out, value);
    out.push('"');
}

/// Appends `s` with whitespace runs collapsed to one space and both ends
/// trimmed (nothing at all for blank text).
fn push_collapsed(out: &mut String, s: &str) {
    let mut words = s.split_whitespace();
    if let Some(first) = words.next() {
        out.push_str(first);
        for word in words {
            out.push(' ');
            out.push_str(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn roundtrip_simple() {
        let html = "<div id=\"a\"><p>x</p></div>";
        let doc = parse_document(html);
        assert_eq!(doc.to_html(), html);
    }

    #[test]
    fn script_serialized_verbatim() {
        let html = "<script>if (a < b) { go(); }</script>";
        let doc = parse_document(html);
        assert_eq!(doc.to_html(), html);
    }

    #[test]
    fn normalized_ignores_attr_order() {
        let a = parse_document("<div a=\"1\" b=\"2\">x</div>");
        let b = parse_document("<div b=\"2\" a=\"1\">x</div>");
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn normalized_ignores_whitespace_and_comments() {
        let a = parse_document("<p>hello   world</p><!-- c -->");
        let b = parse_document("<p>hello world</p>");
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn normalized_ignores_script_bodies() {
        let a = parse_document("<p>x</p><script>var v=1;</script>");
        let b = parse_document("<p>x</p><script>var v=2;</script>");
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn normalized_distinguishes_content() {
        let a = parse_document("<p>comment page 1</p>");
        let b = parse_document("<p>comment page 2</p>");
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn entities_escaped_on_output() {
        let mut doc = Document::new();
        let root = doc.root();
        let p = doc.append_element(root, "p", vec![("title".into(), "a\"b&c".into())]);
        doc.append_text(p, "x < y & z");
        let html = doc.to_html();
        assert_eq!(html, "<p title=\"a&quot;b&amp;c\">x &lt; y &amp; z</p>");
        // And it must reparse to the same content.
        let reparsed = parse_document(&html);
        assert_eq!(reparsed.content_hash(), doc.content_hash());
    }
}
