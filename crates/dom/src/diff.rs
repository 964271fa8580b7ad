//! DOM difference: which elements did a transition modify?
//!
//! The thesis annotates each transition with its *target(s)* — the elements
//! whose properties changed through the action (Table 2.1: a click on
//! `next` affects `recent_comments` through `innerHTML`). This module
//! computes that annotation by structural comparison of the before/after
//! DOMs, returning the changed regions as element **paths**.
//!
//! Heuristics, tuned to produce Table 2.1-style answers:
//!
//! * if a matched element's child list changed shape, or **several** of its
//!   children changed, the element itself is the target (an `innerHTML`
//!   refill reads as one target, not dozens of leaf paragraphs);
//! * if exactly **one** child changed, descend for a more precise target;
//! * attribute changes target the element carrying the attribute.

use crate::dom::{Document, Element, NodeData, NodeId};
use crate::events::describe_element;
use crate::serialize::NormalizedView;

/// A changed region, identified by its element path
/// (`body > div#recent_comments`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangedTarget {
    /// ` > `-joined path of element descriptions from the root.
    pub path: String,
    /// Description of the target element itself (`div#recent_comments`).
    pub element: String,
}

/// One side of a comparison. Private: it only keeps the recursion below at
/// six arguments; callers pass the document and its view to
/// [`changed_roots`], which checks the pairing once.
#[derive(Clone, Copy)]
struct Side<'a> {
    doc: &'a Document,
    view: &'a NormalizedView,
}

impl<'a> Side<'a> {
    fn new(doc: &'a Document, view: &'a NormalizedView) -> Self {
        assert!(
            view.covers(doc),
            "normalized view was not built from this document as it stands"
        );
        Self { doc, view }
    }
}

/// Computes the modified targets between `old` and `new`. Two aligned
/// subtrees count as changed exactly when their normalized bytes differ.
/// Alignment is by node, so a comment or a split text node that leaves the
/// content equal still makes its parent a target.
///
/// Each view must be the [`Document::normalized_view`] of the document it
/// is passed with, taken after that document's last mutation (the crawler
/// holds both already: they are what the two states were hashed from).
/// A view of a document with a different node count panics here; one of a
/// same-sized other document cannot be told apart and compares the wrong
/// bytes.
pub fn changed_roots(
    old: &Document,
    old_view: &NormalizedView,
    new: &Document,
    new_view: &NormalizedView,
) -> Vec<ChangedTarget> {
    let old = Side::new(old, old_view);
    let new = Side::new(new, new_view);
    let mut out = Vec::new();
    diff_children(
        old,
        old.doc.root(),
        new,
        new.doc.root(),
        &mut Vec::new(),
        &mut out,
    );
    out
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

/// Compares the children of two matched nodes; `path` describes `new_node`.
fn diff_children(
    old: Side<'_>,
    old_node: NodeId,
    new: Side<'_>,
    new_node: NodeId,
    path: &mut Vec<String>,
    out: &mut Vec<ChangedTarget>,
) {
    let child_count = new.doc.children(new_node).count();
    let aligned = old.doc.children(old_node).count() == child_count
        && old
            .doc
            .children(old_node)
            .zip(new.doc.children(new_node))
            .all(|(a, b)| same_kind(old.doc, a, new.doc, b));
    if !aligned {
        push_target(path, out);
        return;
    }

    // Which aligned children changed? Comments and scripts normalize to
    // nothing on both sides, so they never do.
    let changed: Vec<(NodeId, NodeId)> = old
        .doc
        .children(old_node)
        .zip(new.doc.children(new_node))
        .filter(|&(a, b)| old.view.subtree(a) != new.view.subtree(b))
        .collect();
    if changed.is_empty() {
        return;
    }
    // Every child changed at once: the innerHTML-refill pattern — this node
    // is the single target (e.g. the comment box, not its 20 paragraphs).
    if changed.len() > 1 && changed.len() == child_count {
        push_target(path, out);
        return;
    }
    // Otherwise the changed children are independent regions: handle each.
    for (a, b) in changed {
        match (old.doc.data(a), new.doc.data(b)) {
            (NodeData::Element(x), NodeData::Element(y)) => {
                path.push(describe_element(new.doc, b));
                if attributes_equal(x, y) {
                    diff_children(old, a, new, b, path, out);
                } else {
                    push_target(path, out);
                }
                path.pop();
            }
            // A changed bare text child targets this node.
            _ => push_target(path, out),
        }
    }
}

fn same_kind(old: &Document, a: NodeId, new: &Document, b: NodeId) -> bool {
    match (old.data(a), new.data(b)) {
        (NodeData::Element(x), NodeData::Element(y)) => x.name() == y.name(),
        (NodeData::Text(_), NodeData::Text(_)) => true,
        (NodeData::Comment(_), NodeData::Comment(_)) => true,
        _ => false,
    }
}

/// Equal as multisets of `(name, value)` pairs: source order is not content.
fn attributes_equal(x: &Element, y: &Element) -> bool {
    if x.attrs().eq(y.attrs()) {
        return true;
    }
    let mut x: Vec<(&str, &str)> = x.attrs().collect();
    let mut y: Vec<(&str, &str)> = y.attrs().collect();
    x.sort_unstable();
    y.sort_unstable();
    x == y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn roots(old_html: &str, new_html: &str) -> Vec<ChangedTarget> {
        let old = parse_document(old_html);
        let new = parse_document(new_html);
        changed_roots(&old, &old.normalized_view(), &new, &new.normalized_view())
    }

    fn targets(old_html: &str, new_html: &str) -> Vec<String> {
        roots(old_html, new_html)
            .into_iter()
            .map(|t| t.element)
            .collect()
    }

    #[test]
    #[should_panic(expected = "not built from this document")]
    fn view_taken_before_a_refill_is_rejected() {
        let old = parse_document("<div id=\"a\"><p>x</p></div>");
        let mut new = old.clone();
        let stale = new.normalized_view();
        let a = new.get_element_by_id("a").unwrap();
        new.set_inner_html(a, "<p>y</p><p>z</p>");
        changed_roots(&old, &old.normalized_view(), &new, &stale);
    }

    #[test]
    fn identical_documents_no_targets() {
        let html = "<div id=\"a\"><p>x</p></div>";
        assert!(targets(html, html).is_empty());
        assert!(targets(
            "<div a=\"1\" b=\"2\">x   y</div>",
            "<div b=\"2\" a=\"1\">x y</div>"
        )
        .is_empty());
    }

    #[test]
    fn inner_html_refill_targets_the_box() {
        // The thesis' canonical transition: the whole comment box refilled
        // (several comments change at once).
        let old = "<h1 id=\"t\">title</h1>\
                   <div id=\"recent_comments\"><p>c1 page1</p><p>c2 page1</p><p>c3 page1</p></div>";
        let new = "<h1 id=\"t\">title</h1>\
                   <div id=\"recent_comments\"><p>c1 page2</p><p>c2 page2</p><p>c3 page2</p></div>";
        assert_eq!(targets(old, new), vec!["div#recent_comments"]);
    }

    #[test]
    fn single_leaf_change_descends() {
        let old = "<div id=\"box\"><p>keep</p><p>old text</p></div>";
        let new = "<div id=\"box\"><p>keep</p><p>new text</p></div>";
        assert_eq!(
            targets(old, new),
            vec!["p"],
            "one changed child: precise target"
        );
    }

    #[test]
    fn structural_change_reports_container() {
        let old = "<div id=\"box\"><p>a</p></div>";
        let new = "<div id=\"box\"><p>a</p><p>b</p></div>";
        assert_eq!(targets(old, new), vec!["div#box"]);
    }

    #[test]
    fn two_independent_regions_both_reported_with_paths() {
        let old = "<div id=\"x\"><p>1</p><p>1b</p></div><div id=\"y\"><p>1</p><p>1b</p></div><div id=\"z\"><p>same</p></div>";
        let new = "<div id=\"x\"><p>2</p><p>2b</p></div><div id=\"y\"><p>2</p><p>2b</p></div><div id=\"z\"><p>same</p></div>";
        let roots = roots(old, new);
        let paths: Vec<&str> = roots.iter().map(|t| t.path.as_str()).collect();
        assert_eq!(paths, vec!["div#x", "div#y"]);
    }

    #[test]
    fn attribute_change_reports_element() {
        let old = "<div id=\"a\"><span class=\"off\">s</span></div>";
        let new = "<div id=\"a\"><span class=\"on\">s</span></div>";
        assert_eq!(targets(old, new), vec!["span.on"]);
    }

    #[test]
    fn reordered_attributes_with_a_changed_child_descend() {
        // Same attributes in another order are equal attributes: the target
        // is the changed child, not the element carrying them.
        let old = "<div id=\"a\" class=\"k\"><p>keep</p><p>old</p></div>";
        let new = "<div class=\"k\" id=\"a\"><p>keep</p><p>new</p></div>";
        assert_eq!(targets(old, new), vec!["p"]);
    }

    #[test]
    fn tag_swap_reports_parent() {
        let old = "<div id=\"a\"><em>x</em></div>";
        let new = "<div id=\"a\"><b>x</b></div>";
        assert_eq!(targets(old, new), vec!["div#a"]);
    }

    #[test]
    fn paths_are_full_chains() {
        let old =
            "<body><div id=\"outer\"><div id=\"inner\"><p>a</p><p>b old</p></div></div></body>";
        let new =
            "<body><div id=\"outer\"><div id=\"inner\"><p>a</p><p>b new</p></div></div></body>";
        let roots = roots(old, new);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].path, "body > div#outer > div#inner > p");
        assert_eq!(roots[0].element, "p");
    }
}
