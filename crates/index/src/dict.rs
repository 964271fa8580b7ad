//! The term dictionary: interns terms to dense [`TermId`]s.
//!
//! Terms are stored **sorted lexicographically**; the `TermId` of a term is
//! its rank in that order. The dictionary has two representations:
//!
//! * **Owned** — one `Vec<String>` plus a small open-addressing hash table
//!   of `TermId`s, so a lookup is one hash and a handful of probes, each a
//!   single `&str` comparison against the sorted term column. This is what
//!   builders and merges produce.
//! * **Mapped** — a front-coded byte block inside an mmap-ed v4 segment
//!   (`segment::MappedDict`). Lookups binary-search the block heads and scan
//!   one front-coded block against the mapped bytes; no `Vec<String>` is
//!   ever materialized. [`TermDict::decode_term`] reconstructs individual
//!   terms on demand into a caller buffer.
//!
//! Keeping the dictionary sorted makes the whole index layout *canonical*:
//! two indexes over the same logical content are structurally equal (same
//! columns, same arena order) regardless of build order — the property the
//! determinism contract of `docs/index-internals.md` rests on.

use crate::segment::MappedDict;
use std::hash::{Hash, Hasher};

/// Dense identifier of a term: its rank in the sorted dictionary.
pub type TermId = u32;

/// Sorted term dictionary — owned (hash-indexed) or mapped (front-coded).
#[derive(Debug, Clone)]
pub struct TermDict {
    repr: DictRepr,
}

#[derive(Debug, Clone)]
enum DictRepr {
    Owned {
        /// Sorted term column; `TermId` = index.
        terms: Vec<String>,
        /// Open-addressing table of `TermId + 1` (0 = empty slot). Always a
        /// power of two, ≥ 2× the term count. Derived from `terms` — never
        /// persisted.
        buckets: Vec<u32>,
    },
    Mapped(MappedDict),
}

impl Default for TermDict {
    fn default() -> Self {
        Self {
            repr: DictRepr::Owned {
                terms: Vec::new(),
                buckets: Vec::new(),
            },
        }
    }
}

impl TermDict {
    /// Builds a dictionary from a **sorted, deduplicated** term column.
    pub fn from_sorted(terms: Vec<String>) -> Self {
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "dictionary terms must be sorted and unique"
        );
        let buckets = build_buckets(&terms);
        Self {
            repr: DictRepr::Owned { terms, buckets },
        }
    }

    /// Wraps a mapped v4 segment dictionary (already validated at open).
    pub(crate) fn from_mapped(mapped: MappedDict) -> Self {
        Self {
            repr: DictRepr::Mapped(mapped),
        }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        match &self.repr {
            DictRepr::Owned { terms, .. } => terms.len(),
            DictRepr::Mapped(m) => m.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the terms live in a mapped segment rather than on the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, DictRepr::Mapped(_))
    }

    /// The term with the given id, borrowed — the merge's dictionary join.
    /// Owned dictionaries only: mapped terms have no resident string to
    /// borrow; use [`TermDict::decode_term`].
    pub(crate) fn term(&self, id: TermId) -> &str {
        match &self.repr {
            DictRepr::Owned { terms, .. } => &terms[id as usize],
            DictRepr::Mapped(_) => {
                panic!("TermDict::term on a mapped dictionary; use decode_term")
            }
        }
    }

    /// Decodes the term with the given id into `buf` and returns it. Works
    /// on both representations; the owned path copies so callers can treat
    /// the buffer uniformly.
    pub fn decode_term<'b>(&self, id: TermId, buf: &'b mut Vec<u8>) -> &'b str {
        match &self.repr {
            DictRepr::Owned { terms, .. } => {
                buf.clear();
                buf.extend_from_slice(terms[id as usize].as_bytes());
                std::str::from_utf8(buf).expect("owned terms are UTF-8")
            }
            DictRepr::Mapped(m) => m.decode_term(id, buf),
        }
    }

    /// Looks a term up. Owned: hash probe into the bucket table. Mapped:
    /// block binary search over the front-coded bytes. O(1) expected /
    /// O(log blocks + block) respectively, no allocation either way.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        match &self.repr {
            DictRepr::Owned { terms, buckets } => {
                if buckets.is_empty() {
                    return None;
                }
                let mask = buckets.len() - 1;
                let mut slot = (hash_term(term) as usize) & mask;
                loop {
                    match buckets[slot] {
                        0 => return None,
                        id_plus_one => {
                            let id = id_plus_one - 1;
                            if terms[id as usize] == term {
                                return Some(id);
                            }
                        }
                    }
                    slot = (slot + 1) & mask;
                }
            }
            DictRepr::Mapped(m) => m.lookup(term),
        }
    }

    /// Materializes an owned dictionary (decodes every term if mapped).
    pub fn into_owned(self) -> TermDict {
        match self.repr {
            DictRepr::Owned { .. } => self,
            DictRepr::Mapped(m) => {
                let mut terms = Vec::with_capacity(m.len());
                let mut buf = Vec::new();
                for id in 0..m.len() as TermId {
                    terms.push(m.decode_term(id, &mut buf).to_string());
                }
                TermDict::from_sorted(terms)
            }
        }
    }

    /// Resident heap footprint in bytes, **content-derived**: string headers
    /// + string byte lengths + the bucket table. Capacity padding is
    ///   excluded so structurally equal dictionaries report identical sizes
    ///   regardless of how they were built. A mapped dictionary holds no term
    ///   bytes on the heap and reports 0.
    pub fn approx_bytes(&self) -> usize {
        match &self.repr {
            DictRepr::Owned { terms, buckets } => {
                terms.len() * std::mem::size_of::<String>()
                    + terms.iter().map(String::len).sum::<usize>()
                    + buckets.len() * std::mem::size_of::<u32>()
            }
            DictRepr::Mapped(_) => 0,
        }
    }
}

/// Equality is content equality: the bucket table is derived, and a mapped
/// dictionary equals an owned one over the same sorted terms.
impl PartialEq for TermDict {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (DictRepr::Owned { terms: a, .. }, DictRepr::Owned { terms: b, .. }) => a == b,
            _ => {
                if self.len() != other.len() {
                    return false;
                }
                let mut a = Vec::new();
                let mut b = Vec::new();
                (0..self.len() as TermId).all(|id| {
                    self.decode_term(id, &mut a);
                    other.decode_term(id, &mut b);
                    a == b
                })
            }
        }
    }
}

fn build_buckets(terms: &[String]) -> Vec<u32> {
    if terms.is_empty() {
        return Vec::new();
    }
    let cap = (terms.len() * 2).next_power_of_two();
    let mut buckets = vec![0u32; cap];
    let mask = cap - 1;
    for (id, term) in terms.iter().enumerate() {
        let mut slot = (hash_term(term) as usize) & mask;
        while buckets[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        buckets[slot] = id as u32 + 1;
    }
    buckets
}

fn hash_term(term: &str) -> u64 {
    // SipHash with the default fixed keys: deterministic across runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    term.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(terms: &[&str]) -> TermDict {
        let mut v: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
        v.sort();
        v.dedup();
        TermDict::from_sorted(v)
    }

    #[test]
    fn lookup_finds_every_term() {
        let d = dict(&["wow", "dance", "morcheeba", "a", "2"]);
        let mut buf = Vec::new();
        for id in 0..d.len() as u32 {
            let term = d.decode_term(id, &mut buf).to_string();
            assert_eq!(d.lookup(&term), Some(id));
        }
        assert_eq!(d.lookup("absent"), None);
        assert_eq!(d.lookup(""), None);
    }

    #[test]
    fn ids_are_sorted_ranks() {
        let d = dict(&["charlie", "alpha", "bravo"]);
        let mut buf = Vec::new();
        assert_eq!(d.decode_term(0, &mut buf), "alpha");
        assert_eq!(d.decode_term(1, &mut buf), "bravo");
        assert_eq!(d.decode_term(2, &mut buf), "charlie");
    }

    #[test]
    fn empty_dictionary() {
        let d = TermDict::default();
        assert!(d.is_empty());
        assert_eq!(d.lookup("x"), None);
        assert_eq!(d.approx_bytes(), 0);
    }

    #[test]
    fn decode_term_matches_term() {
        let d = dict(&["zebra", "zeal", "zero"]);
        let mut buf = Vec::new();
        for (id, want) in (0..).zip(["zeal", "zebra", "zero"]) {
            assert_eq!(d.decode_term(id, &mut buf), want);
            assert_eq!(d.term(id), want);
        }
    }

    #[test]
    fn approx_bytes_is_content_derived() {
        // Same content through different construction paths must agree.
        let a = dict(&["alpha", "bravo", "charlie"]);
        let mut v: Vec<String> = ["charlie", "alpha", "bravo"]
            .iter()
            .map(|t| {
                let mut s = String::with_capacity(64); // deliberate over-allocation
                s.push_str(t);
                s
            })
            .collect();
        v.sort();
        let b = TermDict::from_sorted(v);
        assert_eq!(a, b);
        assert_eq!(a.approx_bytes(), b.approx_bytes());
    }
}
