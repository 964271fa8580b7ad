//! The allocation-free query kernel: galloping intersection, reusable
//! scoring scratch, and a bounded top-k heap.
//!
//! The pre-columnar engine re-binary-searched every posting list from
//! scratch for every candidate and allocated a row `Vec` (plus a proximity
//! event `Vec` and counter `Vec`) per candidate. This kernel keeps one
//! **cursor per list** and advances it monotonically with exponential-probe
//! ("galloping") seeks, and every per-candidate buffer lives in a
//! [`ScoreScratch`] that is reused across candidates *and* queries — the
//! intersection + scoring loop performs **zero heap allocation** per
//! candidate.
//!
//! Determinism: the kernel visits matching documents in ascending `DocKey`
//! order and callers accumulate scores in term order with fixed arithmetic
//! expression shapes, so scores are bit-identical from run to run. The
//! brute-force scorer in `tests/spec/mod.rs` states those shapes (see
//! also `docs/index-internals.md`).

use crate::invert::{DocKey, PostingList, TermScratch};
use std::cmp::Ordering;

/// Reusable per-query scratch buffers. One per caller thread; cleared (but
/// never shrunk) between queries, so steady-state query evaluation touches
/// the allocator only to emit final results.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// One cursor per posting list (the intersection state).
    pub(crate) cursors: Vec<usize>,
    /// Precomputed idf per query term.
    pub(crate) idf: Vec<f64>,
    /// `(position, term_index)` events for the proximity window scan.
    pub(crate) events: Vec<(u32, usize)>,
    /// Per-term occurrence counters for the proximity window scan.
    pub(crate) term_counts: Vec<u32>,
    /// One decode buffer per query term for mapped (v4) posting runs; owned
    /// indexes leave them untouched.
    pub(crate) term_bufs: Vec<TermScratch>,
}

impl ScoreScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// First index `>= from` whose doc is `>= target`, by exponential probe and
/// then binary search within the bracketed window. `docs` is sorted.
#[inline]
fn seek(docs: &[DocKey], from: usize, target: DocKey) -> usize {
    if from >= docs.len() {
        return docs.len();
    }
    if docs[from] >= target {
        return from;
    }
    // Invariant: docs[lo] < target. Double the step until we overshoot.
    let mut lo = from;
    let mut step = 1usize;
    let hi = loop {
        let probe = lo + step;
        if probe >= docs.len() {
            break docs.len();
        }
        if docs[probe] < target {
            lo = probe;
            step <<= 1;
        } else {
            break probe;
        }
    };
    // Binary search in (lo, hi): partition_point over the subslice.
    lo + 1 + docs[lo + 1..hi].partition_point(|d| *d < target)
}

/// Intersects `lists` (all doc-sorted) and calls `f(doc, rows)` for every
/// document present in **all** of them, in ascending doc order. `rows[i]` is
/// the index of the matching posting within `lists[i]`.
///
/// The merge is driven by the shortest list; the other cursors only ever
/// move forward, galloping to each candidate. When a non-driver list skips
/// past the candidate, the driver gallops forward to that doc instead of
/// stepping one-by-one (the classic adaptive intersection).
pub(crate) fn for_each_match<'a, F>(lists: &[PostingList<'a>], cursors: &mut Vec<usize>, mut f: F)
where
    F: FnMut(DocKey, &[usize]),
{
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return; // Conjunction with an unseen term is empty.
    }
    let k = lists.len();
    cursors.clear();
    cursors.resize(k, 0);
    let driver = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty lists");

    'outer: loop {
        let dcur = cursors[driver];
        if dcur >= lists[driver].len() {
            break;
        }
        let candidate = lists[driver].doc(dcur);
        for i in 0..k {
            if i == driver {
                continue;
            }
            let pos = seek(lists[i].docs(), cursors[i], candidate);
            cursors[i] = pos;
            if pos >= lists[i].len() {
                break 'outer; // Some list is exhausted: no more matches.
            }
            let found = lists[i].doc(pos);
            if found > candidate {
                // Candidate missing from list i — gallop the driver to the
                // doc list i is sitting on and restart the alignment.
                cursors[driver] = seek(lists[driver].docs(), dcur + 1, found);
                continue 'outer;
            }
        }
        f(candidate, cursors);
        cursors[driver] = dcur + 1;
    }
}

/// Term-proximity measure `T(q, s)` (§5.3.3 item 4) over the matched rows,
/// using caller-provided scratch. The highest value goes to states
/// containing the query terms adjacently in order; spread-out occurrences
/// score lower. Computed as `k / window`, where `window` is the length of
/// the smallest token window containing all `k` terms (an in-order adjacent
/// run has window == k ⇒ score 1.0).
pub(crate) fn proximity_of_rows(
    lists: &[PostingList<'_>],
    rows: &[usize],
    events: &mut Vec<(u32, usize)>,
    term_counts: &mut Vec<u32>,
) -> f64 {
    let k = lists.len();
    if k <= 1 {
        return 1.0;
    }
    // Gather (position, term_index) pairs, sorted by position. Positions
    // are decoded here and only here — on a mapped segment this walks the
    // delta+varint stream of exactly the matched postings.
    events.clear();
    for (term_idx, list) in lists.iter().enumerate() {
        list.for_each_position(rows[term_idx], |pos| events.push((pos, term_idx)));
    }
    events.sort_unstable();

    // Minimal covering window (two pointers with per-term counts).
    term_counts.clear();
    term_counts.resize(k, 0);
    let mut covered = 0usize;
    let mut best = u32::MAX;
    let mut left = 0usize;
    for right in 0..events.len() {
        let (_, term) = events[right];
        if term_counts[term] == 0 {
            covered += 1;
        }
        term_counts[term] += 1;
        while covered == k {
            let window = events[right].0 - events[left].0 + 1;
            best = best.min(window);
            let (_, lterm) = events[left];
            term_counts[lterm] -= 1;
            if term_counts[lterm] == 0 {
                covered -= 1;
            }
            left += 1;
        }
    }
    if best == u32::MAX {
        // A duplicated term with a single occurrence can never cover k slots.
        return 0.0;
    }
    (k as f64 / f64::from(best)).min(1.0)
}

/// A bounded top-k selector over `(doc, score)` pairs: a binary max-heap
/// ordered by "ranks last" whose root is the **worst kept entry**, so a
/// stream of n candidates costs O(n log k) and k entries of memory — large
/// result sets never fully materialize. The comparator must be a total
/// order on distinct candidates (rank order: score desc, then URL, state
/// and page — see `query::search_top_k`).
pub(crate) struct TopK {
    buf: Vec<(DocKey, f64)>,
    k: usize,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self {
            buf: Vec::with_capacity(k.min(1024)),
            k,
        }
    }

    /// Offers a candidate; keeps it only if it ranks within the best k.
    pub fn offer<C>(&mut self, item: (DocKey, f64), cmp: &C)
    where
        C: Fn(&(DocKey, f64), &(DocKey, f64)) -> Ordering,
    {
        if self.k == 0 {
            return;
        }
        if self.buf.len() < self.k {
            self.buf.push(item);
            self.sift_up(self.buf.len() - 1, cmp);
        } else if cmp(&item, &self.buf[0]) == Ordering::Less {
            self.buf[0] = item;
            self.sift_down(0, cmp);
        }
    }

    /// The kept entries, best-first.
    pub fn into_sorted<C>(mut self, cmp: &C) -> Vec<(DocKey, f64)>
    where
        C: Fn(&(DocKey, f64), &(DocKey, f64)) -> Ordering,
    {
        self.buf.sort_by(cmp);
        self.buf
    }

    fn sift_up<C>(&mut self, mut i: usize, cmp: &C)
    where
        C: Fn(&(DocKey, f64), &(DocKey, f64)) -> Ordering,
    {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(&self.buf[i], &self.buf[parent]) == Ordering::Greater {
                self.buf.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down<C>(&mut self, mut i: usize, cmp: &C)
    where
        C: Fn(&(DocKey, f64), &(DocKey, f64)) -> Ordering,
    {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.buf.len() && cmp(&self.buf[l], &self.buf[largest]) == Ordering::Greater {
                largest = l;
            }
            if r < self.buf.len() && cmp(&self.buf[r], &self.buf[largest]) == Ordering::Greater {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.buf.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_crawl::model::StateId;

    fn key(page: u32, state: u32) -> DocKey {
        DocKey {
            page,
            state: StateId(state),
        }
    }

    #[test]
    fn seek_finds_first_geq() {
        let docs: Vec<DocKey> = [0u32, 2, 5, 9, 40, 41, 80]
            .iter()
            .map(|&p| key(p, 0))
            .collect();
        for (from, target, want) in [
            (0, 0, 0usize),
            (0, 1, 1),
            (0, 5, 2),
            (2, 5, 2),
            (3, 41, 5),
            (0, 100, 7),
            (7, 0, 7),
        ] {
            assert_eq!(
                seek(&docs, from, key(target, 0)),
                want,
                "from={from} target={target}"
            );
        }
    }

    #[test]
    fn topk_selects_smallest_under_order() {
        let cmp = |a: &(DocKey, f64), b: &(DocKey, f64)| {
            b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0))
        };
        let mut heap = TopK::new(3);
        for (i, s) in [0.5, 0.9, 0.1, 0.7, 0.3, 0.8].iter().enumerate() {
            heap.offer((key(i as u32, 0), *s), &cmp);
        }
        let kept = heap.into_sorted(&cmp);
        let scores: Vec<f64> = kept.iter().map(|e| e.1).collect();
        assert_eq!(scores, vec![0.9, 0.8, 0.7]);
    }

    #[test]
    fn topk_zero_keeps_nothing() {
        let cmp = |a: &(DocKey, f64), b: &(DocKey, f64)| a.0.cmp(&b.0);
        let mut heap = TopK::new(0);
        heap.offer((key(0, 0), 1.0), &cmp);
        assert!(heap.into_sorted(&cmp).is_empty());
    }
}
