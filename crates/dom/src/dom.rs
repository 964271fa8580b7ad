//! The DOM tree: an arena of nodes with parent/child links plus the mutation
//! operations the crawler and the JS host need (`innerHTML`, text content,
//! attribute access, lookup by id).

use crate::atom::{Atom, Interner};
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
    /// An element: its tag and its attributes in source order.
    Element(Element),
    /// A text node (entity-decoded).
    Text(String),
    /// A comment node.
    Comment(String),
}

/// Tag and attributes of an element node. Names are lowercase and interned;
/// the values sit back to back in one buffer, so an element costs two
/// allocations when it has attributes and none when it has not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: Atom,
    attrs: Box<[AttrSlot]>,
    values: Box<str>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AttrSlot {
    name: Atom,
    /// Where this attribute's value sits in `Element::values`.
    value: std::ops::Range<u32>,
}

impl Element {
    /// An element called `name` with `attrs` as `(name, value)` pairs in
    /// source order; names are taken as they come (lowercase, from the
    /// tokenizer) and interned through `names`.
    pub(crate) fn new<'v>(
        names: &mut Interner,
        name: &str,
        attrs: impl Iterator<Item = (&'v str, &'v str)> + Clone,
    ) -> Self {
        let values_len: usize = attrs.clone().map(|(_, value)| value.len()).sum();
        let mut values = String::with_capacity(values_len);
        let attrs: Vec<AttrSlot> = attrs
            .map(|(name, value)| {
                let start = values.len() as u32;
                values.push_str(value);
                AttrSlot {
                    name: names.atom(name),
                    value: start..u32::try_from(values.len()).expect("a tag's values under 4 GiB"),
                }
            })
            .collect();
        Self {
            name: names.atom(name),
            attrs: attrs.into_boxed_slice(),
            values: values.into_boxed_str(),
        }
    }

    /// The lowercase tag name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn atom(&self) -> &Atom {
        &self.name
    }

    fn value(&self, slot: &AttrSlot) -> &str {
        &self.values[slot.value.start as usize..slot.value.end as usize]
    }

    /// `(name, value)` of every attribute, in source order.
    pub fn attrs(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + Clone {
        self.attrs
            .iter()
            .map(|slot| (slot.name.as_str(), self.value(slot)))
    }

    /// Value of the first attribute called `name` (lowercase).
    pub fn attr(&self, name: &str) -> Option<&str> {
        let slot = self.attrs.iter().find(|slot| slot.name == *name)?;
        Some(self.value(slot))
    }

    /// Whether the element's content is raw text (`<script>`, `<style>`):
    /// code, not content, to every reader of the page's text.
    #[inline]
    pub fn is_raw_text(&self) -> bool {
        self.name == "script" || self.name == "style"
    }

    /// This element with its first attribute `name` set to `value`, or
    /// with that attribute added at the end.
    fn with_attr(&self, name: &str, value: &str) -> Self {
        let at = self.attrs().position(|(attr_name, _)| attr_name == name);
        let kept = self
            .attrs()
            .enumerate()
            .map(|(i, (n, v))| (n, if Some(i) == at { value } else { v }));
        let added = at.is_none().then_some((name, value));
        Self::new(&mut Interner::default(), &self.name, kept.chain(added))
    }
}

/// One node of the arena: its links, and where its payload is. Children
/// form a singly linked sibling chain, so a node owns no heap memory and
/// copying an arena is one `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    payload: PayloadRef,
    pub parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
    /// True for nodes detached by mutation; detached nodes are unreachable
    /// from the root and compacted away by [`Document::compact`].
    pub detached: bool,
}

/// Which chunk of [`Document`]'s payload table a node's payload is in, and
/// where in the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayloadRef {
    pub(crate) chunk: u32,
    pub(crate) slot: u32,
}

impl PayloadRef {
    /// The synthetic root's: no chunk holds it, [`Document::data`] answers
    /// [`NodeData::Root`] for a chunk that is not there.
    const ROOT: Self = Self {
        chunk: u32::MAX,
        slot: 0,
    };
}

impl Node {
    fn new(payload: PayloadRef, parent: Option<NodeId>) -> Self {
        Self {
            payload,
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
/// the payloads and the id index: payloads live in chunks — one per parse,
/// so one per page and one per `innerHTML` text — and a clone counts a
/// reference per chunk, not per node. It is still a deep snapshot, because
/// no chunk is ever written: a mutation puts the new payload in a chunk of
/// its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
    /// The payloads of `nodes`, by [`PayloadRef`].
    payloads: Vec<Arc<[NodeData]>>,
    /// Lazy index from `id` attribute to node, rebuilt after mutations.
    id_index: Arc<FnvHashMap<String, NodeId>>,
    id_index_dirty: bool,
    /// The mutation log: what changed since [`Self::take_view`] last ran,
    /// as the nodes whose subtree may read differently now. Every public
    /// mutator writes it; a clone carries it.
    touched: Vec<Touched>,
    /// The arena's length when the log was started (0: never), which is
    /// how many spans the view taken then has.
    viewed_len: usize,
}

/// A log that reaches this length stops growing and stands for "anything
/// may have changed": a handler that rewrites the page piecemeal gains
/// nothing from splicing, and a loop that refills forever must not grow the
/// log forever.
const LOG_FULL: usize = 17;

/// One entry of the mutation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Touched {
    pub(crate) node: NodeId,
    /// Set when `node`'s children were replaced by a copy of a fragment.
    pub(crate) graft: Option<Graft>,
}

/// Where [`Document::set_inner_fragment`] put its copy of a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Graft {
    pub(crate) fragment: Arc<Fragment>,
    /// The copy of the fragment's node `i >= 1` is node `first + i - 1`.
    pub(crate) first: u32,
}

/// Markup parsed on its own, ready to be assigned to `innerHTML` any number
/// of times ([`Document::set_inner_fragment`]): the parse, plus its
/// normalized text and spans, so that a refill costs neither a tokenizer
/// run nor a walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    doc: Document,
    view: NormalizedView,
}

impl Fragment {
    /// Parses `html` as a fragment.
    pub fn parse(html: &str) -> Self {
        let doc = parser::parse_document(html);
        let view = doc.normalized_view();
        Self { doc, view }
    }

    /// The normalized view of [`Self::doc`].
    pub(crate) fn view(&self) -> &NormalizedView {
        &self.view
    }
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
            nodes: vec![Node::new(PayloadRef::ROOT, None)],
            root: NodeId(0),
            payloads: Vec::new(),
            id_index: Arc::default(),
            id_index_dirty: true,
            touched: Vec::new(),
            viewed_len: 0,
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

    /// The payload of a node.
    #[inline]
    pub fn data(&self, id: NodeId) -> &NodeData {
        let at = self.nodes[id.index()].payload;
        match self.payloads.get(at.chunk as usize) {
            Some(chunk) => &chunk[at.slot as usize],
            None => &NodeData::Root,
        }
    }

    /// Number of live (non-detached) nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.detached).count()
    }

    /// True when the document has no content besides the root.
    pub fn is_empty(&self) -> bool {
        self.nodes[self.root.index()].first_child.is_none()
    }

    /// Notes in the mutation log that the subtree of `node` changed.
    fn touch(&mut self, node: NodeId, graft: Option<Graft>) {
        if self.touched.len() < LOG_FULL {
            self.touched.push(Touched { node, graft });
        }
    }

    /// Appends a new node under `parent` and returns its id.
    pub fn append(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        // One entry for a run of appends to the same parent.
        let logged =
            matches!(self.touched.last(), Some(t) if t.node == parent && t.graft.is_none());
        if !logged {
            self.touch(parent, None);
        }
        let payload = self.push_chunk(vec![data]);
        self.push_node(parent, payload)
    }

    /// The index the next [`Self::push_chunk`] will give its chunk.
    pub(crate) fn next_chunk(&self) -> u32 {
        self.payloads.len() as u32
    }

    /// Adds `chunk` to the payload table and returns where its first
    /// payload is; the others follow it slot by slot.
    pub(crate) fn push_chunk(&mut self, chunk: Vec<NodeData>) -> PayloadRef {
        let at = PayloadRef {
            chunk: self.payloads.len() as u32,
            slot: 0,
        };
        self.payloads.push(chunk.into());
        at
    }

    /// Makes room for `more` nodes, sparing the arena its doublings.
    pub(crate) fn reserve_nodes(&mut self, more: usize) {
        self.nodes.reserve(more);
    }

    /// Links a new last child under `parent`: [`Self::append`] without the
    /// log entry and with the payload wherever the caller put (or, while
    /// parsing, is about to put) it.
    pub(crate) fn push_node(&mut self, parent: NodeId, payload: PayloadRef) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(payload, Some(parent)));
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
        let element = Element::new(
            &mut Interner::default(),
            &name.to_ascii_lowercase(),
            attrs.iter().map(|(n, v)| (n.as_str(), v.as_str())),
        );
        self.append(parent, NodeData::Element(element))
    }

    /// Creates a text node under `parent`.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeData::Text(text.to_string()))
    }

    /// Detaches the whole subtree under `id` (the node itself stays).
    pub fn clear_children(&mut self, id: NodeId) {
        self.touch(id, None);
        self.detach_children(id);
    }

    fn detach_children(&mut self, id: NodeId) {
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

    /// The element payload of `id`, if it is an element.
    #[inline]
    pub fn element(&self, id: NodeId) -> Option<&Element> {
        match self.data(id) {
            NodeData::Element(element) => Some(element),
            _ => None,
        }
    }

    /// Tag name of an element node, if `id` refers to one.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element(id).map(Element::name)
    }

    /// Value of attribute `name` (lowercase) on element `id`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.element(id)?.attr(name)
    }

    /// Sets (or adds) attribute `name` on element `id`.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let Some(element) = self.element(id) else {
            return; // Nothing to set, so nothing to un-share.
        };
        let element = element.with_attr(&name.to_ascii_lowercase(), value);
        self.nodes[id.index()].payload = self.push_chunk(vec![NodeData::Element(element)]);
        self.id_index_dirty = true;
        self.touch(id, None);
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
            .filter(|&id| matches!(self.data(id), NodeData::Element(_)))
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
        if self.node(id).detached {
            return;
        }
        match self.data(id) {
            NodeData::Text(t) => {
                if !out.is_empty() && !out.ends_with(char::is_whitespace) {
                    out.push(' ');
                }
                out.push_str(t);
            }
            NodeData::Element(element) if element.is_raw_text() => {}
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
    /// the children of `id` by a copy of everything in `fragment`. A parse
    /// creates its nodes in document order and so does the copy, so the
    /// resulting `NodeId`s equal those of `set_inner_html` on the same
    /// text; payloads are shared with `fragment`, not copied. The log keeps
    /// the fragment, whose normalized text the next view copies instead of
    /// walking the new nodes.
    pub fn set_inner_fragment(&mut self, id: NodeId, fragment: &Arc<Fragment>) {
        let graft = Graft {
            fragment: Arc::clone(fragment),
            first: self.nodes.len() as u32,
        };
        self.touch(id, Some(graft));
        self.detach_children(id);

        // A fresh parse has no detached nodes and its root is node 0: the
        // copy of node `i >= 1` is node `i + shift`, links and all, and its
        // payload is where it was in the fragment's chunks, shared.
        let src = &fragment.doc;
        let shift = self.nodes.len() as u32 - 1;
        let moved = |link: Option<NodeId>| link.map(|n| NodeId(n.0 + shift));
        let chunks = self.payloads.len() as u32;
        self.payloads.extend(src.payloads.iter().cloned());
        self.nodes.extend(src.nodes[1..].iter().map(|node| Node {
            payload: PayloadRef {
                chunk: node.payload.chunk + chunks,
                slot: node.payload.slot,
            },
            parent: if node.parent == Some(src.root) {
                Some(id)
            } else {
                moved(node.parent)
            },
            first_child: moved(node.first_child),
            last_child: moved(node.last_child),
            next_sibling: moved(node.next_sibling),
            detached: false,
        }));
        let parent = &mut self.nodes[id.index()];
        parent.first_child = moved(src.nodes[0].first_child);
        parent.last_child = moved(src.nodes[0].last_child);
        self.id_index_dirty = true;
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
    /// A full walk; [`Self::take_view`] is the incremental way.
    pub fn normalized_view(&self) -> NormalizedView {
        NormalizedView::of(self)
    }

    /// [`Self::normalized_view`] of the document as it stands, and the start
    /// of a new mutation log. Given as `base` the view this document (or
    /// the one it was cloned from) returned here last, the new view is
    /// that one with the subtrees the log names spliced in, at a cost
    /// proportional to what changed; with no base, one of another length
    /// than the log expects, or a log that overflowed, it is the full walk.
    /// A base of the right length taken from some other document cannot be
    /// told apart and gives the wrong bytes.
    pub fn take_view(&mut self, base: Option<&NormalizedView>) -> NormalizedView {
        let view = match base {
            Some(base) if base.covers_len(self.viewed_len) && self.touched.len() < LOG_FULL => {
                NormalizedView::spliced(base, self, &self.touched)
            }
            _ => NormalizedView::of(self),
        };
        self.touched.clear();
        self.viewed_len = self.nodes.len();
        view
    }

    /// False when nothing was logged since [`Self::take_view`] last ran
    /// here (or on the document this one was cloned from): the view it
    /// returned then still is this document's.
    pub fn changed_since_view(&self) -> bool {
        self.viewed_len == 0 || !self.touched.is_empty()
    }

    /// Stable content hash of the normalized document: FNV-64 of
    /// [`Self::normalized`], the name a state is stored under (§3.2).
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
                    if let NodeData::Text(t) = self.data(child) {
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
        out.payloads = self.payloads.clone();
        // Per open element: its next child to copy, and the copy that child
        // goes under. A stack on the heap: documents nest as deep as their
        // input says.
        let mut open = vec![(self.node(self.root).first_child, out.root)];
        while let Some((next, parent)) = open.last_mut() {
            let Some(child) = *next else {
                open.pop();
                continue;
            };
            let node = self.node(child);
            *next = node.next_sibling;
            let parent = *parent;
            let copy = out.push_node(parent, node.payload);
            open.push((node.first_child, copy));
        }
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
    fn take_view_splices_or_walks_and_agrees_with_the_walk() {
        let mut doc = parse_document(&"<p class=\"a\">x</p>".repeat(40));
        let base = doc.take_view(None);
        assert_eq!(base, doc.normalized_view());
        assert!(!doc.changed_since_view());

        // A few mutations are spliced in; more than the log holds are not
        // logged one by one, and the view is the full walk again.
        let nodes: Vec<NodeId> = doc.walk().collect();
        for many in [3, 40] {
            for &node in &nodes[..many] {
                doc.set_attr(node, "class", "b");
            }
            assert!(doc.changed_since_view());
            assert!(doc.touched.len() <= LOG_FULL);
            let view = doc.take_view(Some(&base));
            assert_eq!(view, doc.normalized_view());
            assert!(doc.touched.is_empty());
            for &node in &nodes[..many] {
                doc.set_attr(node, "class", "a");
            }
            assert_eq!(doc.take_view(Some(&view)), base);
        }
        // A base from before the arena grew is not this log's base.
        doc.set_inner_html(nodes[0], "<b>y</b>");
        let grown = doc.take_view(Some(&base));
        doc.set_attr(nodes[1], "class", "c");
        assert_eq!(doc.take_view(Some(&base)), doc.normalized_view());
        assert_ne!(grown, base);
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
