//! The DOM tree: an arena of nodes with parent/child links plus the mutation
//! operations the crawler and the JS host need (`innerHTML`, text content,
//! attribute access, lookup by id).

use crate::hash::FnvHashMap;
use crate::parser;
use crate::serialize::{self, NormalizedView};
use std::sync::Arc;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// The synthetic document root (not serialized).
    Root,
    /// An element with a lowercase tag name and its attributes in source
    /// order. Attribute names are lowercase.
    Element {
        name: String,
        attrs: Vec<(String, String)>,
    },
    /// A text node (entity-decoded).
    Text(String),
    /// A comment node.
    Comment(String),
}

/// One node of the arena. Children form a singly linked sibling chain, so
/// a node owns no heap memory besides its (shared) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The payload, shared between a document and its clones; mutation goes
    /// through `Arc::make_mut`, so a clone never sees it.
    pub data: Arc<NodeData>,
    pub parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
    /// True for nodes detached by mutation; detached nodes are unreachable
    /// from the root and compacted away by [`Document::compact`].
    pub detached: bool,
}

impl Node {
    fn new(data: Arc<NodeData>, parent: Option<NodeId>) -> Self {
        Self {
            data,
            parent,
            first_child: None,
            last_child: None,
            next_sibling: None,
            detached: false,
        }
    }
}

/// A parsed HTML document: an arena of [`Node`]s under a synthetic root.
///
/// Cloning a `Document` is the snapshot operation the crawler's rollback
/// (Alg. 3.1.1, line 17) relies on. It copies the arena's links and shares
/// every payload and the id index, so it costs one allocation however many
/// strings the document holds; the clone is still a deep snapshot because
/// every mutation copies what it touches first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
    /// Lazy index from `id` attribute to node, rebuilt after mutations.
    id_index: Arc<FnvHashMap<String, NodeId>>,
    id_index_dirty: bool,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the root node.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new(Arc::new(NodeData::Root), None)],
            root: NodeId(0),
            id_index: Arc::default(),
            id_index_dirty: true,
        }
    }

    /// The synthetic root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of live (non-detached) nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.detached).count()
    }

    /// True when the document has no content besides the root.
    pub fn is_empty(&self) -> bool {
        self.nodes[self.root.index()].first_child.is_none()
    }

    /// Appends a new node under `parent` and returns its id.
    pub fn append(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        self.append_shared(parent, Arc::new(data))
    }

    fn append_shared(&mut self, parent: NodeId, data: Arc<NodeData>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(data, Some(parent)));
        match self.nodes[parent.index()].last_child.replace(id) {
            Some(last) => self.nodes[last.index()].next_sibling = Some(id),
            None => self.nodes[parent.index()].first_child = Some(id),
        }
        self.id_index_dirty = true;
        id
    }

    /// Creates an element node under `parent`.
    pub fn append_element(
        &mut self,
        parent: NodeId,
        name: &str,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        self.append(
            parent,
            NodeData::Element {
                name: name.to_ascii_lowercase(),
                attrs,
            },
        )
    }

    /// Creates a text node under `parent`.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeData::Text(text.to_string()))
    }

    /// Detaches the whole subtree under `id` (the node itself stays).
    pub fn clear_children(&mut self, id: NodeId) {
        // Detached nodes keep their `parent` but lose every other link.
        let mut pending = vec![id];
        while let Some(node) = pending.pop() {
            let node = &mut self.nodes[node.index()];
            node.last_child = None;
            let mut child = node.first_child.take();
            while let Some(c) = child {
                let c_node = &mut self.nodes[c.index()];
                c_node.detached = true;
                child = c_node.next_sibling.take();
                pending.push(c);
            }
        }
        self.id_index_dirty = true;
    }

    /// Tag name of an element node, if `id` refers to one.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match &*self.node(id).data {
            NodeData::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Value of attribute `name` (lowercase) on element `id`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &*self.node(id).data {
            NodeData::Element { attrs, .. } => attrs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Sets (or adds) attribute `name` on element `id`.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let data = &mut self.nodes[id.index()].data;
        if !matches!(**data, NodeData::Element { .. }) {
            return; // Nothing to set, so nothing to un-share.
        }
        if let NodeData::Element { attrs, .. } = Arc::make_mut(data) {
            let name = name.to_ascii_lowercase();
            if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value.to_string();
            } else {
                attrs.push((name, value.to_string()));
            }
            self.id_index_dirty = true;
        }
    }

    /// Finds the element with `id="wanted"`. First match in document order.
    pub fn get_element_by_id(&mut self, wanted: &str) -> Option<NodeId> {
        if self.id_index_dirty {
            self.rebuild_id_index();
        }
        self.id_index.get(wanted).copied()
    }

    /// Read-only variant of [`Self::get_element_by_id`] (walks the tree).
    pub fn find_element_by_id(&self, wanted: &str) -> Option<NodeId> {
        self.walk().find(|&id| self.attr(id, "id") == Some(wanted))
    }

    fn rebuild_id_index(&mut self) {
        // A fresh map, not `make_mut`: clones of this document may still
        // share the old one.
        let mut index = FnvHashMap::default();
        for id in self.walk() {
            if let Some(value) = self.attr(id, "id") {
                index.entry(value.to_string()).or_insert(id);
            }
        }
        self.id_index = Arc::new(index);
        self.id_index_dirty = false;
    }

    /// Brings the id index up to date now, so that clones taken from here
    /// on share it instead of each rebuilding their own on first lookup.
    pub fn ensure_id_index(&mut self) {
        if self.id_index_dirty {
            self.rebuild_id_index();
        }
    }

    /// Iterates over all live element node ids in document order.
    pub fn walk(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.walk_all()
            .filter(|&id| matches!(*self.node(id).data, NodeData::Element { .. }))
    }

    /// Iterates over *all* live node ids (elements, text, comments) in
    /// document order, excluding the root.
    pub fn walk_all(&self) -> impl Iterator<Item = NodeId> + '_ {
        DomWalker {
            doc: self,
            next: self.node(self.root).first_child,
        }
    }

    /// Live children of `id` in order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.node(id).first_child,
        }
    }

    /// Concatenated text content of the subtree under `id`, with whitespace
    /// between block-ish fragments.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        let node = self.node(id);
        if node.detached {
            return;
        }
        match &*node.data {
            NodeData::Text(t) => {
                if !out.is_empty() && !out.ends_with(char::is_whitespace) {
                    out.push(' ');
                }
                out.push_str(t);
            }
            NodeData::Element { name, .. } if name == "script" || name == "style" => {}
            _ => {
                for child in self.children(id) {
                    self.collect_text(child, out);
                }
            }
        }
    }

    /// Full text content of the document body (skipping scripts/styles).
    pub fn document_text(&self) -> String {
        self.text_content(self.root)
    }

    /// The serialized markup of the children of `id` (the `innerHTML` getter).
    pub fn inner_html(&self, id: NodeId) -> String {
        serialize::inner_html(self, id)
    }

    /// Replaces the children of `id` by parsing `html` as a fragment (the
    /// `innerHTML` setter — the core AJAX DOM mutation of the thesis).
    pub fn set_inner_html(&mut self, id: NodeId, html: &str) {
        self.clear_children(id);
        parser::parse_into(self, id, html);
    }

    /// [`Self::set_inner_html`] for markup that is already parsed: replaces
    /// the children of `id` by a copy of everything in `fragment`, which
    /// must be the parse of that markup on its own. Nodes are appended in
    /// the order the parser would create them, so the resulting `NodeId`s
    /// equal those of `set_inner_html` on the same text; payloads are
    /// shared with `fragment`, not copied.
    pub fn set_inner_fragment(&mut self, id: NodeId, fragment: &Document) {
        self.clear_children(id);
        self.graft(fragment, fragment.root(), id);
    }

    /// Copies the subtree under `src_id` of `src` as children of
    /// `dst_parent`, in document order, sharing the payloads.
    fn graft(&mut self, src: &Document, src_id: NodeId, dst_parent: NodeId) {
        // Per open element of `src`: its next child to copy, and the copy
        // that child goes under. A stack on the heap: documents nest as
        // deep as their input says.
        let mut open = vec![(src.node(src_id).first_child, dst_parent)];
        while let Some((next, parent)) = open.last_mut() {
            let Some(child) = *next else {
                open.pop();
                continue;
            };
            let node = src.node(child);
            *next = node.next_sibling;
            let parent = *parent;
            let copy = self.append_shared(parent, Arc::clone(&node.data));
            open.push((node.first_child, copy));
        }
    }

    /// Serializes the whole document.
    pub fn to_html(&self) -> String {
        serialize::document_html(self)
    }

    /// Normalized serialization used for duplicate-state detection: attribute
    /// order is canonicalized and insignificant whitespace is collapsed.
    pub fn normalized(&self) -> String {
        serialize::normalized_html(self)
    }

    /// The normalized serialization together with the byte span of every
    /// subtree in it — what the state hash and the transition diff read.
    pub fn normalized_view(&self) -> NormalizedView {
        NormalizedView::of(self)
    }

    /// Stable content hash of the normalized document — the state identity of
    /// §3.2 ("two states with the same hash value are considered the same").
    pub fn content_hash(&self) -> u64 {
        self.normalized_view().hash()
    }

    /// Size of the arena, detached nodes included: every live `NodeId`
    /// indexes below it.
    pub(crate) fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the concatenated `<script>` bodies in document order. The
    /// crawler feeds these to the JS engine when loading a page.
    pub fn script_sources(&self) -> Vec<String> {
        let mut out = Vec::new();
        for id in self.walk() {
            if self.tag_name(id) == Some("script") {
                let mut body = String::new();
                for child in self.children(id) {
                    if let NodeData::Text(t) = &*self.node(child).data {
                        body.push_str(t);
                    }
                }
                if !body.trim().is_empty() {
                    out.push(body);
                }
            }
        }
        out
    }

    /// Rebuilds the arena without detached nodes. Ids are *not* stable across
    /// a compaction; use only between crawl steps, never while holding ids.
    pub fn compact(&self) -> Document {
        let mut out = Document::new();
        out.graft(self, self.root, out.root);
        out
    }

    /// All `href` values of `<a>` elements (hyperlink extraction for the
    /// precrawler).
    pub fn hyperlinks(&self) -> Vec<String> {
        self.walk()
            .filter(|&id| self.tag_name(id) == Some("a"))
            .filter_map(|id| self.attr(id, "href").map(str::to_string))
            .collect()
    }
}

/// Iterator over the children of one node ([`Document::children`]).
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).next_sibling;
        Some(id)
    }
}

/// Pre-order walk below the root, following the links (no stack).
struct DomWalker<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for DomWalker<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        let node = self.doc.node(id);
        self.next = node.first_child.or_else(|| {
            // Climb until some ancestor-or-self has a next sibling.
            let mut at = node;
            loop {
                if at.next_sibling.is_some() {
                    return at.next_sibling;
                }
                at = self.doc.node(at.parent?);
            }
        });
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn build_and_text() {
        let mut doc = Document::new();
        let div = doc.append_element(doc.root(), "div", vec![]);
        doc.append_text(div, "hello");
        let span = doc.append_element(div, "span", vec![]);
        doc.append_text(span, "world");
        assert_eq!(doc.document_text(), "hello world");
    }

    #[test]
    fn get_by_id_and_mutation() {
        let mut doc = parse_document("<div id=\"a\"><p id=\"b\">x</p></div>");
        let b = doc.get_element_by_id("b").unwrap();
        assert_eq!(doc.text_content(b), "x");
        doc.set_inner_html(b, "<em id=\"c\">y</em>z");
        assert_eq!(doc.text_content(b), "y z");
        assert!(doc.get_element_by_id("c").is_some());
    }

    #[test]
    fn set_inner_html_detaches_old_ids() {
        let mut doc = parse_document("<div id=\"a\"><p id=\"old\">x</p></div>");
        let a = doc.get_element_by_id("a").unwrap();
        doc.set_inner_html(a, "<p id=\"new\">y</p>");
        assert!(doc.get_element_by_id("old").is_none());
        assert!(doc.get_element_by_id("new").is_some());
    }

    #[test]
    fn content_hash_changes_with_content() {
        let mut doc = parse_document("<div id=\"a\">one</div>");
        let h1 = doc.content_hash();
        let a = doc.get_element_by_id("a").unwrap();
        doc.set_inner_html(a, "two");
        let h2 = doc.content_hash();
        assert_ne!(h1, h2);
        doc.set_inner_html(a, "one");
        assert_eq!(doc.content_hash(), h1, "restoring content restores hash");
    }

    #[test]
    fn clone_is_deep_snapshot() {
        let mut doc = parse_document("<div id=\"a\">one</div>");
        let snapshot = doc.clone();
        let a = doc.get_element_by_id("a").unwrap();
        doc.set_inner_html(a, "two");
        assert_ne!(doc.content_hash(), snapshot.content_hash());
        assert!(snapshot.normalized().contains("one"));
    }

    #[test]
    fn script_sources_extracted_in_order() {
        let doc = parse_document("<script>var a=1;</script><p>t</p><script>var b=2;</script>");
        let scripts = doc.script_sources();
        assert_eq!(
            scripts,
            vec!["var a=1;".to_string(), "var b=2;".to_string()]
        );
    }

    #[test]
    fn text_skips_script_bodies() {
        let doc = parse_document("<div>visible<script>var hidden=1;</script></div>");
        assert!(!doc.document_text().contains("hidden"));
        assert!(doc.document_text().contains("visible"));
    }

    #[test]
    fn hyperlinks_collected() {
        let doc = parse_document(
            "<a href=\"/watch?v=1\">one</a><a href=\"/watch?v=2\">two</a><a>none</a>",
        );
        assert_eq!(doc.hyperlinks(), vec!["/watch?v=1", "/watch?v=2"]);
    }

    #[test]
    fn set_attr_updates_and_inserts() {
        let mut doc = parse_document("<div id=\"a\" class=\"x\"></div>");
        let a = doc.get_element_by_id("a").unwrap();
        doc.set_attr(a, "class", "y");
        assert_eq!(doc.attr(a, "class"), Some("y"));
        doc.set_attr(a, "data-k", "v");
        assert_eq!(doc.attr(a, "data-k"), Some("v"));
    }

    #[test]
    fn compact_removes_detached() {
        let mut doc = parse_document("<div id=\"a\"><p>x</p><p>y</p></div>");
        let before = doc.len();
        let a = doc.get_element_by_id("a").unwrap();
        doc.set_inner_html(a, "z");
        let compacted = doc.compact();
        assert!(compacted.len() < before);
        assert_eq!(compacted.content_hash(), doc.content_hash());
    }

    #[test]
    fn first_id_match_wins() {
        let mut doc = parse_document("<p id=\"dup\">first</p><p id=\"dup\">second</p>");
        let id = doc.get_element_by_id("dup").unwrap();
        assert_eq!(doc.text_content(id), "first");
    }
}
