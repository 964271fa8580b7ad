//! Abstract DOM locations: the value lattice of the read/write-set
//! analysis in [`crate::effects`].
//!
//! A handler's effect on the document is abstracted as a set of
//! [`AbsLoc`]s — which element ids it may touch. Three precision levels
//! form a small lattice:
//!
//! ```text
//!                Any                (⊤ — unknown id)
//!             /   |   \
//!     Prefix("a") … Prefix("row_")  (id starts with a constant prefix,
//!         /  \                       from `'row_' + i` concatenation)
//!   Id("a1") Id("a2") …             (one concrete element id)
//! ```
//!
//! `Id(x) ⊑ Prefix(p)` iff `x` starts with `p`, and everything is below
//! `Any`. [`LocSet`] keeps a *normalized* antichain of locations (no
//! member covers another), so structurally equal effect sets compare
//! equal regardless of insertion order — which the handler-equivalence
//! classes in `ajax-crawl` rely on.
//!
//! Overlap ([`AbsLoc::may_overlap`]) is purely string-level: two
//! locations may denote the same element iff one's id language
//! intersects the other's. Document *containment* (an `innerHTML` write
//! to an ancestor destroys descendant elements) is not visible at this
//! level; the crawl planner refines overlap with the page's id-ancestry
//! relation before using it for commutativity.

use std::collections::BTreeSet;
use std::fmt;

/// One abstract DOM location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbsLoc {
    /// A single concrete element id.
    Id(String),
    /// Every id starting with this constant prefix (the static residue of
    /// `'prefix' + dynamicPart` id construction).
    Prefix(String),
    /// Unknown: any element in the document.
    Any,
}

impl AbsLoc {
    /// True when the two locations may denote the same element id.
    pub(crate) fn may_overlap(&self, other: &AbsLoc) -> bool {
        match (self, other) {
            (AbsLoc::Any, _) | (_, AbsLoc::Any) => true,
            (AbsLoc::Id(a), AbsLoc::Id(b)) => a == b,
            (AbsLoc::Id(a), AbsLoc::Prefix(p)) | (AbsLoc::Prefix(p), AbsLoc::Id(a)) => {
                a.starts_with(p.as_str())
            }
            (AbsLoc::Prefix(a), AbsLoc::Prefix(b)) => {
                a.starts_with(b.as_str()) || b.starts_with(a.as_str())
            }
        }
    }

    /// Partial order: every id denoted by `other` is also denoted by
    /// `self` (`other ⊑ self`).
    pub(crate) fn covers(&self, other: &AbsLoc) -> bool {
        match (self, other) {
            (AbsLoc::Any, _) => true,
            (_, AbsLoc::Any) => false,
            (AbsLoc::Id(a), AbsLoc::Id(b)) => a == b,
            (AbsLoc::Prefix(p), AbsLoc::Id(b)) => b.starts_with(p.as_str()),
            (AbsLoc::Prefix(p), AbsLoc::Prefix(q)) => q.starts_with(p.as_str()),
            (AbsLoc::Id(_), AbsLoc::Prefix(_)) => false,
        }
    }
}

impl fmt::Display for AbsLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsLoc::Id(id) => write!(f, "#{id}"),
            AbsLoc::Prefix(p) => write!(f, "#{p}*"),
            AbsLoc::Any => write!(f, "*"),
        }
    }
}

/// A normalized set of abstract locations: an antichain under
/// [`AbsLoc::covers`], deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct LocSet {
    locs: BTreeSet<AbsLoc>,
}

impl LocSet {
    /// The empty set (⊥ — touches nothing).
    pub(crate) fn new() -> Self {
        LocSet::default()
    }

    /// The unbounded set (⊤ — may touch anything).
    pub(crate) fn any() -> Self {
        let mut s = LocSet::new();
        s.insert(AbsLoc::Any);
        s
    }

    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// True when the set contains `Any` (and is therefore `{Any}`).
    #[cfg(test)]
    pub(crate) fn is_unbounded(&self) -> bool {
        self.locs.contains(&AbsLoc::Any)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.locs.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &AbsLoc> {
        self.locs.iter()
    }

    /// Inserts a location, keeping the antichain invariant: a location
    /// already covered by a member is dropped, and members the new
    /// location covers are removed.
    pub(crate) fn insert(&mut self, loc: AbsLoc) {
        if self.locs.iter().any(|l| l.covers(&loc)) {
            return;
        }
        self.locs.retain(|l| !loc.covers(l));
        self.locs.insert(loc);
    }

    /// Unions `other` into `self`.
    pub(crate) fn union(&mut self, other: &LocSet) {
        for loc in &other.locs {
            self.insert(loc.clone());
        }
    }

    /// True when some location of `self` may denote the same element as
    /// some location of `other`. Both empty sets overlap nothing.
    pub fn overlaps(&self, other: &LocSet) -> bool {
        self.locs
            .iter()
            .any(|a| other.locs.iter().any(|b| a.may_overlap(b)))
    }

    /// Widens the set to `Any` once it outgrows `cap` members — the
    /// termination backstop of the interprocedural fixpoint.
    #[cfg(test)]
    pub(crate) fn widen(&mut self, cap: usize) {
        if self.locs.len() > cap {
            self.locs.clear();
            self.locs.insert(AbsLoc::Any);
        }
    }

    /// Deterministic rendering for reports (`#id`, `#prefix*`, `*`).
    pub fn render(&self) -> Vec<String> {
        self.locs.iter().map(|l| l.to_string()).collect()
    }
}

impl FromIterator<AbsLoc> for LocSet {
    fn from_iter<T: IntoIterator<Item = AbsLoc>>(iter: T) -> Self {
        let mut s = LocSet::new();
        for loc in iter {
            s.insert(loc);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> AbsLoc {
        AbsLoc::Id(s.to_string())
    }

    fn prefix(s: &str) -> AbsLoc {
        AbsLoc::Prefix(s.to_string())
    }

    #[test]
    fn overlap_is_string_language_intersection() {
        assert!(id("hero").may_overlap(&id("hero")));
        assert!(!id("hero").may_overlap(&id("caption_1")));
        assert!(prefix("caption_").may_overlap(&id("caption_7")));
        assert!(!prefix("caption_").may_overlap(&id("hero")));
        assert!(prefix("cap").may_overlap(&prefix("caption_")));
        assert!(!prefix("caption_").may_overlap(&prefix("hero_")));
        assert!(AbsLoc::Any.may_overlap(&id("x")));
        assert!(AbsLoc::Any.may_overlap(&AbsLoc::Any));
    }

    #[test]
    fn covers_is_a_partial_order() {
        assert!(AbsLoc::Any.covers(&id("x")));
        assert!(AbsLoc::Any.covers(&prefix("x")));
        assert!(!id("x").covers(&AbsLoc::Any));
        assert!(prefix("row_").covers(&id("row_3")));
        assert!(!prefix("row_").covers(&id("col_3")));
        assert!(prefix("r").covers(&prefix("row_")));
        assert!(!prefix("row_").covers(&prefix("r")));
        assert!(!id("row_3").covers(&prefix("row_")));
    }

    #[test]
    fn insert_normalizes_to_an_antichain() {
        let mut s = LocSet::new();
        s.insert(id("row_1"));
        s.insert(id("row_2"));
        assert_eq!(s.len(), 2);
        // The prefix covers both ids: they collapse into it.
        s.insert(prefix("row_"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.render(), vec!["#row_*"]);
        // A covered insert is a no-op.
        s.insert(id("row_9"));
        s.insert(prefix("row_extra"));
        assert_eq!(s.len(), 1);
        // Any swallows everything.
        s.insert(id("other"));
        s.insert(AbsLoc::Any);
        assert!(s.is_unbounded());
        assert_eq!(s.len(), 1);
        s.insert(id("late"));
        assert_eq!(s.render(), vec!["*"]);
    }

    #[test]
    fn set_overlap_and_union() {
        let a: LocSet = [id("hero"), prefix("photo_")].into_iter().collect();
        let b: LocSet = [prefix("caption_"), id("strip")].into_iter().collect();
        assert!(!a.overlaps(&b), "disjoint regions commute");
        let c: LocSet = [id("photo_3")].into_iter().collect();
        assert!(a.overlaps(&c), "prefix captures the concrete id");
        assert!(!LocSet::new().overlaps(&a), "empty overlaps nothing");
        assert!(!a.overlaps(&LocSet::new()));
        assert!(LocSet::any().overlaps(&a), "Any overlaps any non-empty set");
        assert!(!LocSet::any().overlaps(&LocSet::new()));

        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.len(), 4);
        assert!(u.overlaps(&c));
    }

    #[test]
    fn widen_collapses_past_the_cap() {
        let mut s: LocSet = (0..10).map(|i| id(&format!("cell_{i}"))).collect();
        s.widen(16);
        assert_eq!(s.len(), 10, "under the cap: untouched");
        s.widen(4);
        assert!(s.is_unbounded(), "over the cap: widened to Any");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let fwd: LocSet = [id("a"), prefix("b_"), id("b_1"), id("c")]
            .into_iter()
            .collect();
        let rev: LocSet = [id("c"), id("b_1"), prefix("b_"), id("a")]
            .into_iter()
            .collect();
        assert_eq!(fwd, rev);
        assert_eq!(fwd.render(), vec!["#a", "#c", "#b_*"]);
    }
}
