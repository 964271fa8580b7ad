//! Executable specification of the transition diff.
//!
//! `changed_roots` reads byte spans of one normalized view per document.
//! What it must compute is easier to state by brute force: two aligned
//! subtrees differ when, grafted into documents of their own, they normalize
//! to different strings. That definition lives here as the oracle, and
//! a property test holds the implementation to it over document pairs made
//! from a small HTML grammar and the mutations a crawled page undergoes.
//!
//! The same grammar pins the other way a crawled page is refilled: from a
//! fragment parsed earlier (`set_inner_fragment`) instead of from its text
//! (`set_inner_html`). The two must be indistinguishable, node id for node
//! id.
//!
//! And it pins the incremental way to a view: `take_view`, which splices
//! the subtrees the mutation log names into the view before, must return
//! what the full walk (`normalized_view`, the oracle) returns — every byte
//! and the span of every arena slot — after any sequence of the mutations
//! an event handler can make.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_dom::events::describe_element;
use ajax_dom::{
    changed_roots, fnv64_str, ChangedTarget, Document, Fragment, NodeData, NodeId, NormalizedView,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---- the oracle ----------------------------------------------------------

fn oracle(old: &Document, new: &Document) -> Vec<ChangedTarget> {
    let mut out = Vec::new();
    oracle_children(old, old.root(), new, new.root(), &mut Vec::new(), &mut out);
    out
}

/// The subtree under `node`, normalized on its own.
fn subtree_normalized(doc: &Document, node: NodeId) -> String {
    fn graft(src: &Document, src_node: NodeId, dst: &mut Document, dst_parent: NodeId) {
        let data = src.data(src_node).clone();
        let new_id = dst.append(dst_parent, data);
        for child in src.children(src_node) {
            graft(src, child, dst, new_id);
        }
    }
    let mut sub = Document::new();
    let root = sub.root();
    graft(doc, node, &mut sub, root);
    sub.normalized()
}

fn push_target(path: &[String], out: &mut Vec<ChangedTarget>) {
    let target = ChangedTarget {
        path: if path.is_empty() {
            "#document".to_string()
        } else {
            path.join(" > ")
        },
        element: path.last().cloned().unwrap_or_else(|| "#document".into()),
    };
    if !out.iter().any(|t| t.path == target.path) {
        out.push(target);
    }
}

fn oracle_children(
    old: &Document,
    old_node: NodeId,
    new: &Document,
    new_node: NodeId,
    path: &mut Vec<String>,
    out: &mut Vec<ChangedTarget>,
) {
    let old_children: Vec<NodeId> = old.children(old_node).collect();
    let new_children: Vec<NodeId> = new.children(new_node).collect();

    let same_kind = |a: NodeId, b: NodeId| match (old.data(a), new.data(b)) {
        (NodeData::Element(x), NodeData::Element(y)) => x.name() == y.name(),
        (NodeData::Text(_), NodeData::Text(_)) => true,
        (NodeData::Comment(_), NodeData::Comment(_)) => true,
        _ => false,
    };
    let aligned = old_children.len() == new_children.len()
        && old_children
            .iter()
            .zip(&new_children)
            .all(|(&a, &b)| same_kind(a, b));
    if !aligned {
        push_target(path, out);
        return;
    }

    enum Change {
        Element { attrs_equal: bool },
        Text,
    }
    let collapse = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut changed: Vec<(usize, Change)> = Vec::new();
    for (i, (&a, &b)) in old_children.iter().zip(&new_children).enumerate() {
        match (old.data(a), new.data(b)) {
            (NodeData::Element(x), NodeData::Element(y))
                if subtree_normalized(old, a) != subtree_normalized(new, b) =>
            {
                let (mut x, mut y): (Vec<_>, Vec<_>) = (x.attrs().collect(), y.attrs().collect());
                x.sort();
                y.sort();
                changed.push((
                    i,
                    Change::Element {
                        attrs_equal: x == y,
                    },
                ));
            }
            (NodeData::Text(t1), NodeData::Text(t2)) if collapse(t1) != collapse(t2) => {
                changed.push((i, Change::Text));
            }
            _ => {}
        }
    }

    if changed.is_empty() {
        return;
    }
    if changed.len() > 1 && changed.len() == new_children.len() {
        push_target(path, out);
        return;
    }
    for (i, change) in &changed {
        match change {
            Change::Element { attrs_equal: true } => {
                path.push(describe_element(new, new_children[*i]));
                oracle_children(old, old_children[*i], new, new_children[*i], path, out);
                path.pop();
            }
            Change::Element { attrs_equal: false } => {
                path.push(describe_element(new, new_children[*i]));
                push_target(path, out);
                path.pop();
            }
            Change::Text => push_target(path, out),
        }
    }
}

// ---- the grammar ---------------------------------------------------------

/// SplitMix64: the test's only source of choices, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

#[derive(Debug, Clone)]
enum Tree {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
    Text(String),
    Comment(String),
}

const TAGS: &[&str] = &["div", "p", "span", "ul", "li", "b", "script"];
const ATTRS: &[&str] = &["id", "class", "title", "onclick"];
const VALUES: &[&str] = &["a", "b", "x y", "go(1)", "q\"<&>"];
const WORDS: &[&str] = &["alpha", "beta", "gamma", "page", "1", "2", "<&>"];
const SPACES: &[&str] = &[" ", "  ", "\n", " \t "];

fn gen_attrs(rng: &mut Rng) -> Vec<(String, String)> {
    let mut attrs = Vec::new();
    // Duplicate names happen (the tokenizer keeps them): "attributes equal"
    // means equal as sorted pairs, whatever order normalization emits.
    for _ in 0..rng.below(4) {
        attrs.push((rng.pick(ATTRS).to_string(), rng.pick(VALUES).to_string()));
    }
    attrs
}

fn gen_text(rng: &mut Rng) -> String {
    let mut text = String::new();
    for _ in 0..rng.below(4) {
        if rng.below(3) == 0 {
            text.push_str(rng.pick(SPACES));
        }
        text.push_str(rng.pick(WORDS));
        text.push_str(rng.pick(SPACES));
    }
    text
}

fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    match rng.below(8) {
        0 => Tree::Comment(rng.pick(WORDS).to_string()),
        1 | 2 => Tree::Text(gen_text(rng)),
        _ if depth == 0 => Tree::Text(gen_text(rng)),
        _ => Tree::Element {
            name: rng.pick(TAGS).to_string(),
            attrs: gen_attrs(rng),
            children: gen_forest(rng, depth - 1),
        },
    }
}

fn gen_forest(rng: &mut Rng, depth: usize) -> Vec<Tree> {
    (0..rng.below(4)).map(|_| gen_tree(rng, depth)).collect()
}

/// One mutation somewhere in `forest`: the edits an event handler (or a
/// server answering differently) makes between two states of a page.
fn mutate(rng: &mut Rng, forest: &mut Vec<Tree>) {
    // Descend into a random element first, some of the time.
    let elements: Vec<usize> = (0..forest.len())
        .filter(|&i| matches!(forest[i], Tree::Element { .. }))
        .collect();
    if !elements.is_empty() && rng.below(3) > 0 {
        let i = elements[rng.below(elements.len())];
        if let Tree::Element {
            name,
            attrs,
            children,
        } = &mut forest[i]
        {
            match rng.below(6) {
                0 => *name = rng.pick(TAGS).to_string(), // tag swap
                1 => attrs.reverse(),                    // attribute reorder
                2 => match attrs.first_mut() {
                    Some(attr) => attr.1 = rng.pick(VALUES).to_string(),
                    None => attrs.push(("class".to_string(), "new".to_string())),
                },
                3 => *children = gen_forest(rng, 1), // innerHTML refill
                _ => mutate(rng, children),
            }
            return;
        }
    }
    let at = rng.below(forest.len() + 1);
    match rng.below(6) {
        0 => forest.insert(at, gen_tree(rng, 1)),
        1 if at < forest.len() => {
            forest.remove(at);
        }
        2 => forest.insert(at, Tree::Comment("noise".to_string())),
        3 if at < forest.len() => {
            if let Tree::Text(t) = &mut forest[at] {
                // Whitespace noise: content-equal text.
                *t = format!(" {} ", t.replace(' ', "  "));
            }
        }
        4 if at < forest.len() => {
            // One text node split in two: content-equal, another shape.
            if let Tree::Text(t) = forest[at].clone() {
                let cut = (0..=t.len())
                    .filter(|&i| t.is_char_boundary(i))
                    .nth(rng.below(t.len() + 1))
                    .unwrap_or(t.len());
                forest[at] = Tree::Text(t[..cut].to_string());
                forest.insert(at + 1, Tree::Text(t[cut..].to_string()));
            }
        }
        _ if at < forest.len() => {
            if let Tree::Text(t) = &mut forest[at] {
                *t = gen_text(rng); // text edit
            }
        }
        _ => {}
    }
}

/// Builds the document through the DOM API, so that adjacent text nodes and
/// empty text nodes (which no parse produces) are representable.
fn build(forest: &[Tree]) -> Document {
    fn add(doc: &mut Document, parent: NodeId, tree: &Tree) {
        match tree {
            Tree::Text(t) => {
                doc.append_text(parent, t);
            }
            Tree::Comment(c) => {
                doc.append(parent, NodeData::Comment(c.clone()));
            }
            Tree::Element {
                name,
                attrs,
                children,
            } => {
                let id = doc.append_element(parent, name, attrs.clone());
                for child in children {
                    add(doc, id, child);
                }
            }
        }
    }
    let mut doc = Document::new();
    let root = doc.root();
    for tree in forest {
        add(&mut doc, root, tree);
    }
    doc
}

/// Replaces the children of a random element through the real `innerHTML`
/// setter, which leaves detached nodes behind in the arena.
fn refill_some_element(rng: &mut Rng, doc: &mut Document) {
    let elements: Vec<NodeId> = doc.walk().collect();
    if elements.is_empty() {
        return;
    }
    let target = elements[rng.below(elements.len())];
    let fragment = build(&gen_forest(rng, 1)).to_html();
    doc.set_inner_html(target, &fragment);
}

/// Texts an event handler assigns to `innerHTML`: random markup, plus
/// the ones that normalize to nothing or to text alone.
fn gen_markup(rng: &mut Rng) -> String {
    match rng.below(6) {
        0 => String::new(),
        1 => " \n ".to_string(),
        2 => "<!-- c --><script>var x = '<p>';</script> ".to_string(),
        3 => gen_text(rng).replace('<', "&lt;"),
        _ => build(&gen_forest(rng, 2)).to_html(),
    }
}

/// What the handlers of one fired event may do to a live page: one to four
/// of `set_inner_fragment`, `set_inner_html`, `set_attr` and the plainer
/// public mutators, on nodes that are often the one touched last, a node
/// inside it, an ancestor of it, or one an earlier step detached.
fn fire(rng: &mut Rng, doc: &mut Document, fragments: &[Arc<Fragment>], seen: &mut Vec<NodeId>) {
    for _ in 0..1 + rng.below(4) {
        let live: Vec<NodeId> = doc.walk().collect();
        let target = match (rng.below(4), seen.last()) {
            (0, Some(&last)) => last,
            (1, Some(_)) => seen[rng.below(seen.len())],
            _ if live.is_empty() => doc.root(),
            _ => live[rng.below(live.len())],
        };
        seen.push(target);
        match rng.below(8) {
            0..=2 => doc.set_inner_fragment(target, &fragments[rng.below(fragments.len())]),
            3 | 4 => doc.set_inner_html(target, &gen_markup(rng)),
            5 | 6 => doc.set_attr(target, rng.pick(ATTRS), rng.pick(VALUES)),
            _ if rng.below(2) == 0 => doc.clear_children(target),
            _ => {
                doc.append_text(target, &gen_text(rng));
            }
        }
    }
}

/// `take_view` against the oracle, and the diff read through either.
fn check_splice(
    before: &Document,
    base: &NormalizedView,
    doc: &mut Document,
) -> Result<NormalizedView, TestCaseError> {
    let spliced = doc.take_view(Some(base));
    let walked = doc.normalized_view();
    prop_assert_eq!(spliced.text(), walked.text(), "page: {}", doc.to_html());
    for id in doc.walk_all() {
        prop_assert_eq!(spliced.subtree(id), walked.subtree(id), "node {:?}", id);
    }
    // Every slot, detached and empty ones included.
    prop_assert_eq!(&spliced, &walked, "page: {}", doc.to_html());
    prop_assert_eq!(
        changed_roots(before, base, doc, &spliced),
        changed_roots(before, &before.normalized_view(), doc, &walked)
    );
    Ok(spliced)
}

fn check_hash_identities(doc: &Document) -> Result<(), TestCaseError> {
    let normalized = doc.normalized();
    let view = doc.normalized_view();
    prop_assert_eq!(doc.content_hash(), fnv64_str(&normalized));
    prop_assert_eq!(view.hash(), fnv64_str(&normalized));
    prop_assert_eq!(view.text(), normalized.as_str());
    // Every subtree's span is that subtree normalized on its own (nothing
    // below a script or style is content).
    let hidden = |id: NodeId| {
        std::iter::successors(doc.node(id).parent, |&p| doc.node(p).parent)
            .any(|p| matches!(doc.tag_name(p), Some("script" | "style")))
    };
    for id in doc.walk_all().filter(|&id| !hidden(id)) {
        prop_assert_eq!(view.subtree(id), subtree_normalized(doc, id));
    }
    Ok(())
}

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    ProptestConfig::with_cases(cases)
}

/// Everything a crawl reads off a document: which nodes are live under
/// which ids, the markup, and the normalized text with every subtree's span.
fn check_indistinguishable(a: &Document, b: &Document) -> Result<(), TestCaseError> {
    let ids: Vec<NodeId> = a.walk_all().collect();
    prop_assert_eq!(&ids, &b.walk_all().collect::<Vec<_>>());
    for &id in &ids {
        prop_assert_eq!(a.data(id), b.data(id));
        prop_assert_eq!(a.node(id).parent, b.node(id).parent);
    }
    prop_assert_eq!(a.to_html(), b.to_html());
    let (va, vb) = (a.normalized_view(), b.normalized_view());
    prop_assert_eq!(va.text(), vb.text());
    prop_assert_eq!(va.hash(), vb.hash());
    for &id in &ids {
        prop_assert_eq!(va.subtree(id), vb.subtree(id));
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn refill_from_a_parsed_fragment_equals_refill_from_its_text(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut from_text = build(&gen_forest(&mut rng, 3));
        let elements: Vec<NodeId> = from_text.walk().collect();
        prop_assume!(!elements.is_empty());
        let mut from_parse = from_text.clone();

        // Two texts, each parsed once, assigned again and again (the
        // second and later uses are what a per-page memo hit is), to one
        // node and then to others, which may sit inside an earlier refill.
        let texts: Vec<String> =
            (0..2).map(|_| build(&gen_forest(&mut rng, 2)).to_html()).collect();
        let parsed: Vec<Arc<Fragment>> =
            texts.iter().map(|t| Arc::new(Fragment::parse(t))).collect();
        let mut target = elements[rng.below(elements.len())];
        for round in 0..5 {
            let which = if round < 2 { round } else { rng.below(2) };
            from_text.set_inner_html(target, &texts[which]);
            from_parse.set_inner_fragment(target, &parsed[which]);
            check_indistinguishable(&from_text, &from_parse)?;
            prop_assert_eq!(
                from_text.get_element_by_id("a"),
                from_parse.get_element_by_id("a")
            );
            if rng.below(2) == 0 {
                let live: Vec<NodeId> = from_text.walk().collect();
                target = live[rng.below(live.len())];
            }
        }
    }

    #[test]
    fn spliced_view_equals_the_full_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut page = build(&gen_forest(&mut rng, 3));
        let fragments: Vec<Arc<Fragment>> =
            (0..3).map(|_| Arc::new(Fragment::parse(&gen_markup(&mut rng)))).collect();
        let mut seen = Vec::new();

        let mut view = page.take_view(None);
        prop_assert_eq!(&view, &page.normalized_view());
        for _ in 0..3 {
            // A state: the page and its view, as a crawler snapshots them.
            let (snapshot, snapshot_view) = (page.clone(), view.clone());
            // Events fired from the state, each after a rollback to it; the
            // last one's outcome is the next state.
            for _ in 0..2 {
                page = snapshot.clone();
                seen.clear(); // Ids the last event created are gone.
                let restored = page.take_view(Some(&snapshot_view));
                prop_assert_eq!(&restored, &snapshot_view, "a rollback changes nothing");

                fire(&mut rng, &mut page, &fragments, &mut seen);
                view = check_splice(&snapshot, &snapshot_view, &mut page)?;
                // Nothing logged since: the same view again, from itself.
                prop_assert!(!page.changed_since_view());
                prop_assert_eq!(&page.take_view(Some(&view)), &view);
                if rng.below(2) == 0 {
                    // A second handler before the next view, on top.
                    let before = page.clone();
                    fire(&mut rng, &mut page, &fragments, &mut seen);
                    view = check_splice(&before, &view, &mut page)?;
                }
            }
        }
    }

    #[test]
    fn changed_roots_equals_the_brute_force_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let forest = gen_forest(&mut rng, 3);
        let mut mutated = forest.clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut rng, &mut mutated);
        }
        let old = build(&forest);
        let mut new = build(&mutated);
        if rng.below(4) == 0 {
            refill_some_element(&mut rng, &mut new);
        }

        check_hash_identities(&old)?;
        check_hash_identities(&new)?;
        for (a, b) in [(&old, &new), (&new, &old), (&old, &old)] {
            let got = changed_roots(a, &a.normalized_view(), b, &b.normalized_view());
            prop_assert_eq!(got, oracle(a, b), "old: {} new: {}", a.to_html(), b.to_html());
        }
    }
}
