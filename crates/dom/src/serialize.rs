//! DOM serialization: faithful (`to_html`) and normalized (for hashing).

use crate::dom::{Document, Element, NodeData, NodeId, Touched};
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
    match doc.data(id) {
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
        NodeData::Element(element) => {
            let name = element.name();
            out.push('<');
            out.push_str(name);
            element.attrs().for_each(|attr| push_attribute(out, attr));
            out.push('>');
            if is_void_element(name) {
                return;
            }
            if element.is_raw_text() {
                // Raw text: serialize children verbatim.
                for child in doc.children(id) {
                    if let NodeData::Text(t) = doc.data(child) {
                        out.push_str(t);
                    }
                }
            } else {
                for child in doc.children(id) {
                    serialize_node(doc, child, out);
                }
            }
            push_close_tag(out, name);
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
/// byte span its subtree occupies in it.
///
/// The text is what a state *is*: two states are the same state exactly
/// when their texts are equal, and [`Self::hash`] is the name the text is
/// stored under. Two aligned subtrees are content-equal exactly when their
/// [`Self::subtree`] slices are equal, which is how the transition diff
/// decides "changed" without serializing anything again.
///
/// Built by one traversal ([`Document::normalized_view`]) or, after a
/// mutation, from the view before it ([`Document::take_view`]); the two
/// agree byte for byte and span for span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedView {
    text: String,
    /// One span per arena slot, indexed by `NodeId`. An attached node has
    /// the span of its subtree: empty, at the place it would occupy, for
    /// what normalizes to nothing (comments, blank text, scripts, styles
    /// and all below them). A detached node has `0..0`.
    spans: Vec<Range<usize>>,
}

/// A subtree that [`NormalizedView::spliced`] serialized anew: the bytes
/// it had in the base view, and how much longer it is now (wrapping).
struct Splice {
    was: Range<usize>,
    grew: usize,
}

impl NormalizedView {
    /// Normalizes `doc` by walking all of it.
    pub(crate) fn of(doc: &Document) -> Self {
        let mut view = Self {
            // About what a node of a text-centric page normalizes to; it
            // spares the doublings on the way there.
            text: String::with_capacity(doc.arena_len() * 24),
            spans: vec![0..0; doc.arena_len()],
        };
        view.visit(doc, doc.root(), false);
        view
    }

    /// The view of `doc`, from `base` — its view before the mutations in
    /// `touched` — by re-serializing only what those mutations reached.
    ///
    /// What is re-serialized is the subtree of each *topmost* touched node
    /// that `base` knows and that is still attached: a touched node below
    /// another is part of that one's subtree, one that `base` does not know
    /// was created below a touched node, and a detached one was removed by
    /// touching an ancestor. Everything else keeps its bytes, and its span
    /// moves by the growth of the splices before it.
    pub(crate) fn spliced(base: &Self, doc: &Document, touched: &[Touched]) -> Self {
        let mut roots: Vec<NodeId> = Vec::new();
        for t in touched {
            let known = t.node.index() < base.spans.len() && !roots.contains(&t.node);
            if known && !doc.node(t.node).detached && !below_any(doc, t.node, touched) {
                roots.push(t.node);
            }
        }
        if roots.contains(&doc.root()) {
            // All of it; and the one node whose children's spans are not
            // strictly inside its own, which the arithmetic below relies on.
            return Self::of(doc);
        }
        let was = |root: &NodeId| base.spans[root.index()].clone();
        roots.sort_by_key(|root| (was(root).start, was(root).end));

        let mut view = Self {
            text: String::with_capacity(base.text.len() + base.text.len() / 4),
            spans: vec![0..0; doc.arena_len()],
        };
        let mut splices = Vec::with_capacity(roots.len());
        let mut copied = 0;
        for root in &roots {
            let was = was(root);
            view.text.push_str(&base.text[copied..was.start]);
            copied = was.end;
            let start = view.text.len();
            let in_raw_text =
                std::iter::successors(doc.node(*root).parent, |&p| doc.node(p).parent)
                    .any(|p| doc.element(p).is_some_and(Element::is_raw_text));
            if !view.copy_graft(doc, *root, touched, in_raw_text) {
                view.visit(doc, *root, in_raw_text);
            }
            splices.push(Splice {
                grew: (view.text.len() - start).wrapping_sub(was.len()),
                was,
            });
        }
        view.text.push_str(&base.text[copied..]);

        // The nodes `base` knows outside the spliced subtrees: before a
        // splice nothing moves, after it both ends do, around it the end.
        for (slot, span) in base.spans.iter().enumerate() {
            if doc.node(NodeId(slot as u32)).detached {
                continue;
            }
            let (mut start, mut end) = (span.start, span.end);
            let mut inside = false;
            for Splice { was, grew } in &splices {
                if span.end <= was.start {
                    break; // Nor does any later splice reach back here.
                } else if span.start >= was.end {
                    start = start.wrapping_add(*grew);
                    end = end.wrapping_add(*grew);
                } else if span.start <= was.start && was.end <= span.end {
                    end = end.wrapping_add(*grew);
                } else {
                    inside = true; // Serialized anew above, span and all.
                    break;
                }
            }
            if !inside {
                view.spans[slot] = start..end;
            }
        }
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
        self.covers_len(doc.arena_len())
    }

    /// Whether this view is one of a document with `arena_len` nodes.
    pub(crate) fn covers_len(&self, arena_len: usize) -> bool {
        self.spans.len() == arena_len
    }

    /// Appends the subtree of `id`, recording the span of every node in
    /// it. Below a script or a style (`in_raw_text`) that is nothing.
    fn visit(&mut self, doc: &Document, id: NodeId, in_raw_text: bool) {
        let start = self.text.len();
        match doc.data(id) {
            _ if in_raw_text => self.visit_children(doc, id, true),
            NodeData::Root => self.visit_children(doc, id, false),
            NodeData::Comment(_) => {}
            NodeData::Text(t) => push_collapsed(&mut self.text, t),
            NodeData::Element(element) if element.is_raw_text() => {
                self.visit_children(doc, id, true)
            }
            NodeData::Element(element) => {
                push_open_tag(&mut self.text, element);
                self.visit_children(doc, id, false);
                push_close_tag(&mut self.text, element.name());
            }
        }
        self.spans[id.index()] = start..self.text.len();
    }

    fn visit_children(&mut self, doc: &Document, id: NodeId, in_raw_text: bool) {
        for child in doc.children(id) {
            self.visit(doc, child, in_raw_text);
        }
    }

    /// [`Self::visit`] for a node whose children are an untouched copy of a
    /// fragment: the fragment's own normalized text, copied, and its spans
    /// moved to where the copy went. Returns false, having done nothing,
    /// when `id` is not such a node.
    fn copy_graft(
        &mut self,
        doc: &Document,
        id: NodeId,
        touched: &[Touched],
        in_raw_text: bool,
    ) -> bool {
        // The last thing that happened to `id` must be the graft, and
        // nothing after it may have reached into the copy. (Whatever was
        // created below the copy later was created by touching it.)
        let last = touched
            .iter()
            .rposition(|t| t.node == id)
            .expect("a splice root is a touched node");
        let (Some(graft), Some(element)) = (&touched[last].graft, doc.element(id)) else {
            return false;
        };
        let inner = graft.fragment.view();
        let copy = graft.first as usize..graft.first as usize + inner.spans.len() - 1;
        let reached = |t: &Touched| copy.contains(&t.node.index());
        if in_raw_text || element.is_raw_text() || touched[last + 1..].iter().any(reached) {
            return false;
        }
        let start = self.text.len();
        push_open_tag(&mut self.text, element);
        let at = self.text.len();
        self.text.push_str(&inner.text);
        push_close_tag(&mut self.text, element.name());
        self.spans[id.index()] = start..self.text.len();
        // Slot 0 of the fragment is its root, which was not copied.
        for (slot, span) in copy.zip(&inner.spans[1..]) {
            self.spans[slot] = at + span.start..at + span.end;
        }
        true
    }
}

/// Whether a proper ancestor of `node` is among `touched`.
fn below_any(doc: &Document, node: NodeId, touched: &[Touched]) -> bool {
    std::iter::successors(doc.node(node).parent, |&p| doc.node(p).parent)
        .any(|p| touched.iter().any(|t| t.node == p))
}

/// `<name a="1" b="2">`, attributes sorted by name.
fn push_open_tag(out: &mut String, element: &Element) {
    out.push('<');
    out.push_str(element.name());
    // A stable sort by name; most tags arrive sorted already.
    let attrs = element.attrs();
    if attrs
        .clone()
        .zip(attrs.clone().skip(1))
        .all(|(a, b)| a.0 <= b.0)
    {
        attrs.for_each(|attr| push_attribute(out, attr));
    } else {
        let mut sorted: Vec<(&str, &str)> = attrs.collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        sorted
            .into_iter()
            .for_each(|attr| push_attribute(out, attr));
    }
    out.push('>');
}

fn push_close_tag(out: &mut String, name: &str) {
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

fn push_attribute(out: &mut String, (name, value): (&str, &str)) {
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
