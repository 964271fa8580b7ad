//! The enhanced inverted file (thesis §5.2, Table 5.1) in compact columnar
//! form.
//!
//! Every **state** of every crawled page is an indexable document; a posting
//! therefore carries `(page, state, tf, positions)`. The index also stores
//! what ranking needs: per-page PageRank (from the precrawl phase), per-state
//! AJAXRank (PageRank over the page's transition graph) and per-state token
//! counts for the thesis' normalized term frequency (formula 5.1).
//!
//! ## Layout
//!
//! Instead of `BTreeMap<String, Vec<Posting>>` with one heap `Vec<u32>` per
//! posting, the index is four parallel columns plus two arenas:
//!
//! ```text
//! dict:         sorted term strings, TermId = rank        (dict.rs)
//! term_offsets: TermId → [start, end) into the columns    (len = terms + 1)
//! docs:         DocKey per posting    ─┐ one contiguous
//! counts:       occurrences per posting│ run per term,
//! pos_offsets:  offset into positions ─┘ doc-sorted
//! positions:    shared u32 arena; posting i owns
//!               positions[pos_offsets[i] .. pos_offsets[i] + counts[i]]
//! ```
//!
//! Since format v4 the columns have two backings: **owned** (the `Vec`s
//! above — what builders and merges produce) and **mapped** (compressed
//! byte sections of an mmap-ed segment, `segment.rs`). Opening a segment
//! decodes no run. The first query that touches a term decodes the term's
//! whole run, positions included, into these same columns for that one
//! term and keeps it; every later query borrows it. Either way a read is
//! [`InvertedIndex::postings`], and a [`PostingList`] is four slices.
//!
//! The layout is **canonical**: terms sorted, each term's run doc-sorted,
//! and the position arena written in exactly that iteration order. Two
//! owned indexes over the same logical content are therefore structurally
//! equal (`PartialEq` compares their columns) no matter how they were built
//! or merged, and a loaded index equals the index it was saved from — the
//! foundation of the determinism contract (see `docs/index-internals.md`).

use crate::dict::{TermDict, TermId};
use crate::segment::MappedPostings;
use crate::tokenize::for_each_token;
use ajax_crawl::model::{AppModel, StateId};
use ajax_crawl::pagerank::pagerank_default;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifies one indexed document: a `(page, state)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocKey {
    /// Index into [`InvertedIndex::pages`].
    pub page: u32,
    pub state: StateId,
}

/// A build or merge outgrew the index's `u32` offset space. Before this
/// guard, `as u32` casts silently wrapped on multi-GB inputs and corrupted
/// postings without any error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexBuildError {
    OffsetOverflow {
        /// Which column overflowed (`"postings"`, `"positions"`, `"pages"`,
        /// or a v4 stream name).
        column: &'static str,
        /// The size that did not fit.
        len: u64,
        /// The largest representable size.
        max: u64,
    },
}

impl fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexBuildError::OffsetOverflow { column, len, max } => write!(
                f,
                "index {column} column needs {len} entries/bytes, exceeding the u32 offset \
                 space ({max}); split the corpus into shards"
            ),
        }
    }
}

impl std::error::Error for IndexBuildError {}

/// The production offset limit: every offset column is `u32`.
const U32_LIMIT: u64 = u32::MAX as u64;

fn check_fits(column: &'static str, len: u64, limit: u64) -> Result<(), IndexBuildError> {
    if len > limit {
        Err(IndexBuildError::OffsetOverflow {
            column,
            len,
            max: limit,
        })
    } else {
        Ok(())
    }
}

/// A borrowed view of one term's posting run: the doc and count columns,
/// each posting's offset into the position arena, and the arena. A built
/// index lends it from its columns and a loaded one from the term's decoded
/// run, in the same shape. `Copy`, allocation-free, doc-sorted.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    docs: &'a [DocKey],
    counts: &'a [u32],
    pos_offsets: &'a [u32],
    positions: &'a [u32],
}

impl<'a> PostingList<'a> {
    /// The empty list (unseen terms).
    pub const EMPTY: PostingList<'static> = PostingList {
        docs: &[],
        counts: &[],
        pos_offsets: &[],
        positions: &[],
    };

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The doc column — what the intersection kernel gallops over.
    pub fn docs(&self) -> &'a [DocKey] {
        self.docs
    }

    pub fn doc(&self, i: usize) -> DocKey {
        self.docs[i]
    }

    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// The positions of posting `i`, ascending.
    pub fn positions(&self, i: usize) -> &'a [u32] {
        let off = self.pos_offsets[i] as usize;
        &self.positions[off..off + self.counts[i] as usize]
    }
}

/// Logical equality: the same postings with the same positions, wherever
/// the arena keeps them.
impl PartialEq for PostingList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.docs == other.docs
            && self.counts == other.counts
            && (0..self.len()).all(|i| self.positions(i) == other.positions(i))
    }
}

/// Per-page metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct PageEntry {
    /// Made once per page; every result on the page shares it.
    pub url: Arc<str>,
    /// PageRank of the URL (uniform if no precrawl data was supplied).
    pub pagerank: f64,
    /// AJAXRank per state (indexed by state id).
    pub ajaxrank: Vec<f64>,
    /// Token count per state (the denominator of formula 5.1).
    pub state_lengths: Vec<u32>,
}

/// The owned (resident) posting columns — see the module docs for the
/// layout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OwnedStore {
    /// `TermId t` owns postings `term_offsets[t] .. term_offsets[t+1]`.
    pub(crate) term_offsets: Vec<u32>,
    /// Doc column, one entry per posting, doc-sorted within each term run.
    pub(crate) docs: Vec<DocKey>,
    /// Occurrence-count column, parallel to `docs`.
    pub(crate) counts: Vec<u32>,
    /// Offset of each posting's position slice in `positions`.
    pub(crate) pos_offsets: Vec<u32>,
    /// Shared position arena; posting `i` owns `counts[i]` entries.
    pub(crate) positions: Vec<u32>,
}

impl Default for OwnedStore {
    fn default() -> Self {
        Self {
            term_offsets: vec![0],
            docs: Vec::new(),
            counts: Vec::new(),
            pos_offsets: Vec::new(),
            positions: Vec::new(),
        }
    }
}

impl OwnedStore {
    /// Term `t`'s run, lent from the columns.
    fn run(&self, t: usize) -> PostingList<'_> {
        let (start, end) = (
            self.term_offsets[t] as usize,
            self.term_offsets[t + 1] as usize,
        );
        PostingList {
            docs: &self.docs[start..end],
            counts: &self.counts[start..end],
            pos_offsets: &self.pos_offsets[start..end],
            positions: &self.positions,
        }
    }

    /// Drops the spare capacity a decode reserved, so a run kept in its
    /// cell holds no more heap than [`OwnedStore::column_bytes`] reports.
    fn shrink_to_fit(&mut self) {
        self.term_offsets.shrink_to_fit();
        self.docs.shrink_to_fit();
        self.counts.shrink_to_fit();
        self.pos_offsets.shrink_to_fit();
        self.positions.shrink_to_fit();
    }

    /// Every column at its length.
    fn column_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.term_offsets[..])
            + size_of_val(&self.docs[..])
            + size_of_val(&self.counts[..])
            + size_of_val(&self.pos_offsets[..])
            + size_of_val(&self.positions[..])
    }
}

/// The posting columns. A build or merge yields `Owned`: every run in one
/// set of columns. `load_index` yields `Mapped`: the segment's byte
/// sections, and one cell per term, empty at open. The first query that
/// touches a term decodes its whole run into its cell as an `OwnedStore`
/// holding that one term, and every later query borrows it, so both
/// backings lend the same [`PostingList`]. A built index keeps its own
/// columns rather than reading its segment bytes back; EXPERIMENTS.md, "Why
/// a built index stays columnar", has the measurements.
#[derive(Debug, Clone)]
pub(crate) enum Store {
    Owned(OwnedStore),
    Mapped {
        postings: MappedPostings,
        runs: Box<[OnceLock<Box<OwnedStore>>]>,
    },
}

/// The inverted file (columnar; see module docs for the layout).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Sorted, interned term dictionary.
    pub(crate) dict: TermDict,
    /// The posting columns (owned or mapped).
    pub(crate) store: Store,
    /// Indexed pages.
    pub pages: Vec<PageEntry>,
    /// Total number of indexed states (the `|D|` of formula 5.2).
    pub total_states: u64,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        Self {
            dict: TermDict::default(),
            store: Store::Owned(OwnedStore::default()),
            pages: Vec::new(),
            total_states: 0,
        }
    }
}

impl InvertedIndex {
    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// The interned id of `term`, if indexed.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// True when the posting columns live in an mmap-ed segment.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped { .. })
    }

    /// Assembles a mapped index from an opened v4 segment, every run cell
    /// empty.
    pub(crate) fn from_mapped(
        dict: crate::segment::MappedDict,
        postings: MappedPostings,
        pages: Vec<PageEntry>,
        total_states: u64,
    ) -> Self {
        let runs = (0..dict.len()).map(|_| OnceLock::new()).collect();
        Self {
            dict: TermDict::from_mapped(dict),
            store: Store::Mapped { postings, runs },
            pages,
            total_states,
        }
    }

    /// Term `id`'s posting run: the one read path. A built index lends its
    /// columns. A loaded index decodes the run into the term's cell on
    /// first touch and lends it from there on. A whole-index walk (equality,
    /// `segment::encode`, merge) passes a `spare`: a run whose cell is still
    /// empty is decoded into the spare instead, one buffer reused for every
    /// term, so the walk leaves the cache, and
    /// [`InvertedIndex::approx_bytes`], as it found them.
    pub(crate) fn run<'a>(
        &'a self,
        id: TermId,
        spare: Option<&'a mut OwnedStore>,
    ) -> PostingList<'a> {
        match &self.store {
            Store::Owned(s) => s.run(id as usize),
            Store::Mapped { postings, runs } => {
                let cell = &runs[id as usize];
                match (cell.get(), spare) {
                    (Some(run), _) => run.run(0),
                    (None, Some(spare)) => {
                        postings.decode_run(id, spare);
                        spare.run(0)
                    }
                    (None, None) => cell
                        .get_or_init(|| {
                            let mut run = Box::<OwnedStore>::default();
                            postings.decode_run(id, &mut run);
                            run.shrink_to_fit();
                            run
                        })
                        .run(0),
                }
            }
        }
    }

    /// The posting run of a known `TermId`.
    pub fn postings_by_id(&self, id: TermId) -> PostingList<'_> {
        self.run(id, None)
    }

    /// The posting list of `term` (empty if absent).
    pub fn postings(&self, term: &str) -> PostingList<'_> {
        match self.dict.lookup(term) {
            Some(id) => self.postings_by_id(id),
            None => PostingList::EMPTY,
        }
    }

    /// Document frequency: number of states containing `term`. On a loaded
    /// index this decodes the term's run, as its first query would.
    pub fn df(&self, term: &str) -> u64 {
        self.postings(term).len() as u64
    }

    /// Inverse document frequency (formula 5.2): `log(|D| / df)`.
    /// Returns 0 for unseen terms.
    pub fn idf(&self, term: &str) -> f64 {
        self.idf_from_df(self.df(term))
    }

    /// The idf for a known document frequency (the query kernel computes df
    /// once per term from the posting run and reuses it).
    pub fn idf_from_df(&self, df: u64) -> f64 {
        if df == 0 || self.total_states == 0 {
            0.0
        } else {
            (self.total_states as f64 / df as f64).ln()
        }
    }

    /// Normalized term frequency (formula 5.1) of a term occurring `count`
    /// times in `doc`.
    pub fn tf_parts(&self, doc: DocKey, count: u32) -> f64 {
        let page = &self.pages[doc.page as usize];
        let len = page.state_lengths[doc.state.index()].max(1);
        f64::from(count) / f64::from(len)
    }

    /// The URL of a document.
    pub fn url_of(&self, doc: DocKey) -> &str {
        &self.pages[doc.page as usize].url
    }

    /// PageRank + AJAXRank of a document.
    pub fn ranks_of(&self, doc: DocKey) -> (f64, f64) {
        let page = &self.pages[doc.page as usize];
        let ajax = page.ajaxrank.get(doc.state.index()).copied().unwrap_or(0.0);
        (page.pagerank, ajax)
    }

    /// K-way merge of index segments into one canonical index — how
    /// `ajax-search build` saves a multi-partition engine as one file. The
    /// result equals one [`IndexBuilder`] pass over the segments' models in
    /// segment order. Pages are concatenated in segment order (doc keys
    /// re-based); the dictionaries are merge-joined (all sorted, on either
    /// backing), and each output term's run is the concatenation of the
    /// segments' runs in segment order. Linear in total postings plus
    /// `terms × segments` for the join. A mapped segment's runs are read
    /// without filling its run cells.
    ///
    /// Fails with a typed error if the combined postings, positions or pages
    /// outgrow the `u32` offset space — previously those casts wrapped
    /// silently.
    pub fn try_merge_segments(
        segments: Vec<InvertedIndex>,
    ) -> Result<InvertedIndex, IndexBuildError> {
        if segments.len() <= 1 {
            return Ok(segments.into_iter().next().unwrap_or_default());
        }
        InvertedIndex::try_merge_segments_with_limit(&segments, U32_LIMIT)
    }

    /// [`InvertedIndex::try_merge_segments`] with an injectable offset limit
    /// so the guard is testable without allocating 4 GiB of postings. Reads
    /// the segments only, so a test can check that it left their run cells
    /// empty.
    pub(crate) fn try_merge_segments_with_limit(
        segments: &[InvertedIndex],
        limit: u64,
    ) -> Result<InvertedIndex, IndexBuildError> {
        let total_pages: u64 = segments.iter().map(|seg| seg.pages.len() as u64).sum();
        check_fits("pages", total_pages, limit)?;

        // Page re-basing offsets, page concat.
        let mut page_offsets = Vec::with_capacity(segments.len());
        let mut next_page = 0u32;
        let mut pages = Vec::with_capacity(total_pages as usize);
        for seg in segments {
            page_offsets.push(next_page);
            next_page += seg.pages.len() as u32;
            pages.extend(seg.pages.iter().cloned());
        }

        let mut terms: Vec<String> = Vec::new();
        let mut out = OwnedStore::default();
        let mut spare = OwnedStore::default();

        // K-way join over the (sorted) segment dictionaries. Each segment's
        // head is its next term id and, while the id is in range, that
        // term's text, kept in a buffer reused for every term.
        let mut buf = Vec::new();
        let mut load = |seg: &InvertedIndex, (id, text): &mut (TermId, String)| {
            text.clear();
            if (*id as usize) < seg.dict.len() {
                text.push_str(seg.dict.decode_term(*id, &mut buf));
            }
        };
        let live = |seg: &InvertedIndex, id: TermId| (id as usize) < seg.dict.len();
        let mut heads = vec![(0, String::new()); segments.len()];
        for (seg, head) in segments.iter().zip(&mut heads) {
            load(seg, head);
        }
        while let Some(term) = (segments.iter().zip(&heads))
            .filter(|(seg, (id, _))| live(seg, *id))
            .map(|(_, (_, text))| text)
            .min()
            .cloned()
        {
            // Concatenate the term's runs in segment order; re-base docs and
            // rewrite arena offsets. Segment order == ascending page offset,
            // so the output run stays doc-sorted.
            let run_start = out.docs.len();
            for (s, (seg, head)) in segments.iter().zip(&mut heads).enumerate() {
                if !live(seg, head.0) || head.1 != term {
                    continue;
                }
                let run = seg.run(head.0, Some(&mut spare));
                let rebase = |d: DocKey| DocKey {
                    page: d.page + page_offsets[s],
                    state: d.state,
                };
                debug_assert!(
                    (out.docs[run_start..].last())
                        .zip(run.docs().first())
                        .is_none_or(|(last, &first)| *last < rebase(first)),
                    "re-based postings must sort strictly after existing ones"
                );
                for i in 0..run.len() {
                    out.docs.push(rebase(run.doc(i)));
                    out.counts.push(run.count(i));
                    out.pos_offsets.push(out.positions.len() as u32);
                    out.positions.extend_from_slice(run.positions(i));
                }
                // Every offset narrowed so far is at most these totals, so
                // while they fit, no cast above wrapped.
                check_fits("postings", out.docs.len() as u64, limit)?;
                check_fits("positions", out.positions.len() as u64, limit)?;
                head.0 += 1;
                load(seg, head);
            }
            out.term_offsets.push(out.docs.len() as u32);
            terms.push(term);
        }

        Ok(InvertedIndex {
            dict: TermDict::from_sorted(terms),
            store: Store::Owned(out),
            pages,
            total_states: segments.iter().map(|seg| seg.total_states).sum(),
        })
    }

    /// Estimated **resident** size of the index in bytes. Content-derived —
    /// term dictionary (string bytes + hash table), every column and arena
    /// at its *length*, and per-page metadata — so structurally equal
    /// indexes report identical sizes no matter which build path produced
    /// them (capacity padding used to make serial and parallel builds
    /// disagree). A mapped index counts its run cells and every run decoded
    /// into them so far, which grows as queries touch new terms; its segment
    /// bytes live in the page cache and are [`InvertedIndex::mapped_bytes`].
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let page_meta: usize = self
            .pages
            .iter()
            .map(|p| {
                p.url.len()
                    + p.ajaxrank.len() * size_of::<f64>()
                    + p.state_lengths.len() * size_of::<u32>()
            })
            .sum();
        let columns = match &self.store {
            Store::Owned(s) => s.column_bytes(),
            Store::Mapped { runs, .. } => {
                std::mem::size_of_val(&runs[..])
                    + runs
                        .iter()
                        .filter_map(OnceLock::get)
                        .map(|run| run.column_bytes())
                        .sum::<usize>()
            }
        };
        self.dict.approx_bytes() + columns + self.pages.len() * size_of::<PageEntry>() + page_meta
    }

    /// Bytes served from the mmap-ed segment (0 for a resident index) —
    /// the counterpart of [`InvertedIndex::approx_bytes`] for capacity
    /// planning: mapped bytes share the page cache and are reclaimable.
    pub fn mapped_bytes(&self) -> usize {
        match &self.store {
            Store::Owned(_) => 0,
            Store::Mapped { postings, .. } => postings.payload_len(),
        }
    }
}

/// Two owned indexes are equal when their columns are, arena layout
/// included: the canonical-layout promise of the module docs. A mapped index
/// equals the owned index it was encoded from: with either side mapped, runs
/// compare logically, one by one, and no run cell is filled.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        let postings_eq = || match (&self.store, &other.store) {
            (Store::Owned(a), Store::Owned(b)) => a == b,
            _ => {
                let (mut a, mut b) = (OwnedStore::default(), OwnedStore::default());
                (0..self.term_count() as TermId)
                    .all(|id| self.run(id, Some(&mut a)) == other.run(id, Some(&mut b)))
            }
        };
        self.total_states == other.total_states
            && self.pages == other.pages
            && self.dict == other.dict
            && postings_eq()
    }
}

/// `a × b` as 128 bits, folded to 64: the mixing step of the interner's hash.
fn fold_mul(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    wide as u64 ^ (wide >> 64) as u64
}

/// Term → dense local id in first-seen order (`build` re-ranks the ids by
/// sorted term). Term bytes are stored once, back to back in one arena; the
/// table holds ids only. The hash is a multiply-fold over 8-byte words,
/// seeded per interner from [`RandomState`]: state text is crawled web
/// content, and a page must not be able to precompute terms that share a
/// slot. Nothing the builder outputs depends on the seed.
#[derive(Debug)]
struct Interner {
    seed: u64,
    /// Open addressing with linear probing; power-of-two length, at most
    /// half full. A slot is `high half of the hash | id + 1`; 0 is empty.
    slots: Vec<u64>,
    /// Every distinct term, concatenated in id order.
    arena: String,
    /// Term `id` is `arena[bounds[id]..bounds[id + 1]]`.
    bounds: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            seed: RandomState::new().build_hasher().finish(),
            slots: vec![0; 1024],
            arena: String::new(),
            bounds: vec![0],
        }
    }
}

impl Interner {
    const TAG: u64 = !0 << 32;

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn term(&self, id: u32) -> &str {
        &self.arena[self.bounds[id as usize] as usize..self.bounds[id as usize + 1] as usize]
    }

    fn hash(&self, term: &str) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let bytes = term.as_bytes();
        let mut h = self.seed ^ (bytes.len() as u64).wrapping_mul(K);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunks of eight"));
            h = fold_mul(h ^ w, K);
        }
        // The 1–7 trailing bytes as one word without a variable-length copy
        // (half the speed): two overlapping reads, or first/middle/last.
        let rest = words.remainder();
        let n = rest.len();
        if n >= 4 {
            let lo = u32::from_le_bytes(rest[..4].try_into().expect("four bytes"));
            let hi = u32::from_le_bytes(rest[n - 4..].try_into().expect("four bytes"));
            h = fold_mul(h ^ (u64::from(hi) << 32 | u64::from(lo)), K);
        } else if n > 0 {
            let w = u64::from(rest[0]) << 16 | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]);
            h = fold_mul(h ^ w, K);
        }
        h
    }

    /// The id of `term`, assigning the next one on first sight.
    fn intern(&mut self, term: &str) -> u32 {
        let hash = self.hash(term);
        let tag = hash & Self::TAG;
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                break;
            }
            if entry & Self::TAG == tag && self.term(entry as u32 - 1) == term {
                return entry as u32 - 1;
            }
            slot = (slot + 1) & mask;
        }
        let id = u32::try_from(self.len()).expect("distinct terms exceed the u32 id space");
        self.arena.push_str(term);
        self.bounds
            .push(u32::try_from(self.arena.len()).expect("term bytes exceed the u32 offset space"));
        self.slots[slot] = tag | u64::from(id + 1);
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let mut slots = vec![0u64; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for id in 0..self.len() as u32 {
            let hash = self.hash(self.term(id));
            let mut slot = hash as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = hash & Self::TAG | u64::from(id + 1);
        }
        self.slots = slots;
    }
}

/// Per local term id. While tokens stream in it counts, so `build` can size
/// every run before placing anything; `build` then turns the counts into
/// write cursors (the next free posting and position slot of the run).
#[derive(Debug, Clone, Copy, Default)]
struct TermAcc {
    /// 1-based sequence number of the last state the term was seen in.
    last_state: u32,
    postings: u32,
    positions: u32,
}

/// Builds an [`InvertedIndex`] from crawled application models — the
/// "Build New Index" operation of thesis §8.3.1.
///
/// `add_model` reads each state's text once: the tokenizer hands out
/// borrowed slices, the [`Interner`] turns each into a local id, and the id
/// goes onto one token log — a token's position is its index within its
/// state's stretch of the log. `build` places every token straight into the
/// final columns (a counting sort by term), so no posting is staged per term.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    interner: Interner,
    /// Per local id.
    accs: Vec<TermAcc>,
    /// The local id of every indexed token, state after state.
    tokens: Vec<u32>,
    /// Every indexed state with its token count, in arrival order (which is
    /// doc order: pages in sequence, states in id order).
    states: Vec<(DocKey, u32)>,
    pages: Vec<PageEntry>,
    /// Cap on states indexed per page ("Max. State ID" in the thesis UI):
    /// `None` = all crawled states.
    max_states: Option<usize>,
    /// The tokenizer's buffer for tokens it has to lower-case.
    token_scratch: String,
}

impl IndexBuilder {
    /// A builder indexing every crawled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts indexing to the first `max_states` states of each page
    /// (`max_states = 1` reproduces the *traditional* index, §7.7).
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states.max(1));
        self
    }

    /// Adds one page model. `pagerank` is the URL's rank from the precrawl
    /// phase (pass `None` for a single-page or unranked corpus).
    pub fn add_model(&mut self, model: &AppModel, pagerank: Option<f64>) {
        // Explicit, not a silent `as u32` wrap: a corpus cannot exceed the
        // doc key's u32 page space.
        let page_idx =
            u32::try_from(self.pages.len()).expect("page count exceeds u32 doc-key space");
        let limit = self
            .max_states
            .unwrap_or(usize::MAX)
            .min(model.state_count());

        // AJAXRank over the *full* transition graph (structure is known even
        // if we only index a prefix of the states).
        let ajaxrank = pagerank_default(&model.state_adjacency());

        let mut entry = PageEntry {
            url: model.url.as_str().into(),
            pagerank: pagerank.unwrap_or(0.0),
            ajaxrank,
            state_lengths: Vec::with_capacity(limit),
        };

        for state in model.states.iter().take(limit) {
            let seq = u32::try_from(self.states.len() + 1).expect("state count exceeds u32");
            let first_token = self.tokens.len();
            let interner = &mut self.interner;
            let accs = &mut self.accs;
            let tokens = &mut self.tokens;
            // The tokenizer's position is the token's index in this state's
            // stretch of the log, so the log need not hold it.
            for_each_token(&state.text, &mut self.token_scratch, |term, _| {
                let id = interner.intern(term);
                if id as usize == accs.len() {
                    accs.push(TermAcc::default());
                }
                let acc = &mut accs[id as usize];
                if acc.last_state != seq {
                    acc.last_state = seq;
                    acc.postings += 1;
                }
                acc.positions += 1;
                tokens.push(id);
            });
            let token_count = u32::try_from(self.tokens.len() - first_token)
                .expect("state token count exceeds u32");
            entry.state_lengths.push(token_count);
            self.states.push((
                DocKey {
                    page: page_idx,
                    state: state.id,
                },
                token_count,
            ));
        }
        self.pages.push(entry);
    }

    /// Finalizes the index — panicking wrapper over
    /// [`IndexBuilder::try_build`] for callers that treat overflow as fatal.
    pub fn build(self) -> InvertedIndex {
        self.try_build()
            .expect("index build overflowed the u32 offset space")
    }

    /// Finalizes the index: re-ranks local term ids into sorted dictionary
    /// order and lays the token log out as the canonical columns. Linear in
    /// total tokens plus `T log T` for the dictionary sort. Fails with a
    /// typed error if the posting or position totals outgrow the `u32`
    /// offset space — previously those casts wrapped silently.
    pub fn try_build(self) -> Result<InvertedIndex, IndexBuildError> {
        self.try_build_with_limit(U32_LIMIT)
    }

    /// [`IndexBuilder::try_build`] with an injectable offset limit so the
    /// guard is testable without allocating 4 GiB of postings.
    pub(crate) fn try_build_with_limit(self, limit: u64) -> Result<InvertedIndex, IndexBuildError> {
        let n_postings: u64 = self.accs.iter().map(|a| u64::from(a.postings)).sum();
        check_fits("postings", n_postings, limit)?;
        check_fits("positions", self.tokens.len() as u64, limit)?;
        check_fits("pages", self.pages.len() as u64, limit)?;
        debug_assert!(
            self.states.windows(2).all(|w| w[0].0 < w[1].0),
            "states must arrive in doc order: every term's run is born sorted"
        );

        let interner = &self.interner;
        let mut order: Vec<u32> = (0..interner.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| interner.term(a).cmp(interner.term(b)));

        // Walk the terms in dictionary order and turn each local id's counts
        // into cursors: where its posting run and its stretch of the
        // position arena start.
        let mut terms = Vec::with_capacity(order.len());
        let mut term_offsets = Vec::with_capacity(order.len() + 1);
        term_offsets.push(0u32);
        let mut cursors = self.accs;
        let (mut posting, mut position) = (0u32, 0u32);
        for &local in &order {
            terms.push(interner.term(local).to_string());
            let run = TermAcc {
                last_state: 0,
                postings: posting,
                positions: position,
            };
            let counted = std::mem::replace(&mut cursors[local as usize], run);
            posting += counted.postings;
            position += counted.positions;
            term_offsets.push(posting);
        }

        // One pass over the log places every token. States come in doc
        // order, so each term's postings land doc-sorted, and a posting's
        // positions land ascending and contiguous.
        let zero = DocKey {
            page: 0,
            state: StateId(0),
        };
        let mut docs = vec![zero; n_postings as usize];
        let mut counts = vec![0u32; n_postings as usize];
        let mut pos_offsets = vec![0u32; n_postings as usize];
        let mut positions = vec![0u32; self.tokens.len()];
        let mut log = self.tokens.as_slice();
        for (seq, &(doc, token_count)) in (1u32..).zip(&self.states) {
            let (state_tokens, rest) = log.split_at(token_count as usize);
            log = rest;
            for (at, &id) in (0u32..).zip(state_tokens) {
                let cursor = &mut cursors[id as usize];
                if cursor.last_state != seq {
                    cursor.last_state = seq;
                    docs[cursor.postings as usize] = doc;
                    pos_offsets[cursor.postings as usize] = cursor.positions;
                    cursor.postings += 1;
                }
                counts[cursor.postings as usize - 1] += 1;
                positions[cursor.positions as usize] = at;
                cursor.positions += 1;
            }
        }

        Ok(InvertedIndex {
            dict: TermDict::from_sorted(terms),
            store: Store::Owned(OwnedStore {
                term_offsets,
                docs,
                counts,
                pos_offsets,
                positions,
            }),
            total_states: self.states.len() as u64,
            pages: self.pages,
        })
    }
}

/// Inverts one partition: one [`IndexBuilder`] over `models` (each with its
/// PageRank) in order, indexing at most `max_states` states per page.
/// Panics on overflow, as [`IndexBuilder::build`] does.
pub fn build_index(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
) -> InvertedIndex {
    let mut b = match max_states {
        Some(m) => IndexBuilder::new().with_max_states(m),
        None => IndexBuilder::new(),
    };
    for (model, pr) in models {
        b.add_model(model, *pr);
    }
    b.build()
}

/// [`build_index`] under its old name; the thread count is ignored. Kept
/// only because the benchmark package imports it: the next benchmark change
/// switches to [`build_index`] and deletes this.
pub fn build_index_parallel(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    _threads: usize,
) -> InvertedIndex {
    build_index(models, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_crawl::model::Transition;
    use ajax_dom::EventType;

    fn toy_model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        for i in 1..states.len() {
            m.add_transition(Transition {
                from: StateId(i as u32 - 1),
                to: StateId(i as u32),
                source: "span#next".into(),
                event: EventType::Click,
                action: "next()".into(),
                targets: Vec::new(),
            });
        }
        m
    }

    fn build(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(1.0 / models.len() as f64));
        }
        b.build()
    }

    #[test]
    fn postings_carry_state_granularity() {
        let idx = build(&[toy_model(
            "http://x/watch?v=1",
            &["morcheeba video", "morcheeba singer daisy"],
        )]);
        let postings = idx.postings("morcheeba");
        assert_eq!(postings.len(), 2, "term in both states");
        assert_eq!(postings.doc(0).state, StateId(0));
        assert_eq!(postings.doc(1).state, StateId(1));
        let singer = idx.postings("singer");
        assert_eq!(singer.len(), 1);
        assert_eq!(singer.doc(0).state, StateId(1));
    }

    #[test]
    fn tf_normalized_by_state_length() {
        let idx = build(&[toy_model("u", &["wow wow wow bad"])]);
        let wow = idx.postings("wow");
        assert_eq!(wow.count(0), 3);
        assert!((idx.tf_parts(wow.doc(0), wow.count(0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn idf_definition() {
        let idx = build(&[toy_model("u", &["a b", "a c", "a d", "b d"])]);
        assert_eq!(idx.total_states, 4);
        assert!((idx.idf("a") - (4.0f64 / 3.0).ln()).abs() < 1e-9);
        assert!((idx.idf("c") - 4.0f64.ln()).abs() < 1e-9);
        assert_eq!(idx.idf("zzz"), 0.0);
    }

    #[test]
    fn max_states_restricts_to_traditional_view() {
        let model = toy_model("u", &["first page", "second page", "third page"]);
        let mut b = IndexBuilder::new().with_max_states(1);
        b.add_model(&model, None);
        let idx = b.build();
        assert_eq!(idx.total_states, 1);
        assert_eq!(idx.df("second"), 0);
        assert_eq!(idx.df("first"), 1);
    }

    #[test]
    fn positions_recorded_in_order() {
        let idx = build(&[toy_model("u", &["alpha beta alpha"])]);
        assert_eq!(idx.postings("alpha").positions(0), [0, 2]);
    }

    #[test]
    fn dictionary_ids_are_sorted_ranks() {
        let idx = build(&[toy_model("u", &["zebra alpha kiwi"])]);
        let mut buf = Vec::new();
        assert_eq!(idx.term_count(), 3);
        assert_eq!(idx.dict().decode_term(0, &mut buf), "alpha");
        assert_eq!(idx.dict().decode_term(2, &mut buf), "zebra");
        assert_eq!(idx.term_id("kiwi"), Some(1));
        assert_eq!(idx.term_id("absent"), None);
    }

    #[test]
    fn ajaxrank_favours_initial_state() {
        let model = toy_model("u", &["one", "two", "three", "four"]);
        let idx = build(&[model]);
        let (_, a0) = idx.ranks_of(DocKey {
            page: 0,
            state: StateId(0),
        });
        let (_, a3) = idx.ranks_of(DocKey {
            page: 0,
            state: StateId(3),
        });
        // A forward chain pushes mass to the end; AJAXRank only needs to be a
        // well-defined distribution here — check it is one.
        let page = &idx.pages[0];
        let sum: f64 = page.ajaxrank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(a0 > 0.0 && a3 > 0.0);
    }

    #[test]
    fn multi_page_postings_sorted() {
        let idx = build(&[
            toy_model("http://x/1", &["shared word"]),
            toy_model("http://x/2", &["shared again", "shared deeper"]),
        ]);
        let postings = idx.postings("shared");
        assert_eq!(postings.len(), 3);
        assert!(postings.docs().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(idx.url_of(postings.doc(2)), "http://x/2");
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.term_count(), 0);
        assert_eq!(idx.df("x"), 0);
        assert_eq!(idx.idf("x"), 0.0);
        assert_eq!(idx, InvertedIndex::default());
    }

    #[test]
    fn approx_bytes_counts_all_columns() {
        let idx = build(&[toy_model("http://x/1", &["alpha beta alpha gamma"])]);
        let b = idx.approx_bytes();
        // Lower bound: position arena (4 entries × 4B) + doc column
        // (3 postings × 8B) + dictionary strings ("alpha beta gamma").
        assert!(b > 4 * 4 + 3 * 8 + 14, "approx_bytes = {b}");
        assert!(
            idx.approx_bytes() > IndexBuilder::new().build().approx_bytes(),
            "non-empty index must report more bytes than empty"
        );
    }

    /// One index per `chunk`-model partition, merged as `ajax-search build`
    /// saves an engine.
    fn merged_partitions(
        refs: &[(&AppModel, Option<f64>)],
        chunk: usize,
        max_states: Option<usize>,
    ) -> Result<InvertedIndex, IndexBuildError> {
        let parts = refs
            .chunks(chunk)
            .map(|part| build_index(part, max_states))
            .collect();
        InvertedIndex::try_merge_segments(parts)
    }

    #[test]
    fn approx_bytes_identical_across_build_paths() -> Result<(), IndexBuildError> {
        // Structurally equal indexes must report identical sizes: capacity
        // padding differs between one build and merged partitions, content
        // does not.
        let models: Vec<AppModel> = (0..9)
            .map(|i| toy_model(&format!("http://x/{i}"), &["alpha beta", "gamma delta"]))
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, Some(0.1))).collect();
        let serial = build_index(&refs, None);
        let merged = merged_partitions(&refs, 3, None)?;
        assert_eq!(serial, merged);
        assert_eq!(serial.approx_bytes(), merged.approx_bytes());
        Ok(())
    }

    #[test]
    fn build_overflow_is_typed_error() {
        let model = toy_model("u", &["alpha beta gamma delta", "alpha again"]);
        let mut b = IndexBuilder::new();
        b.add_model(&model, None);
        // 6 positions total; a limit of 4 must trip the positions guard.
        let err = b.try_build_with_limit(4).unwrap_err();
        match err {
            IndexBuildError::OffsetOverflow { column, len, max } => {
                assert_eq!(max, 4);
                assert!(len > 4);
                assert!(column == "postings" || column == "positions", "{column}");
            }
        }
        assert!(err.to_string().contains("u32 offset space"));
    }

    #[test]
    fn merge_overflow_is_typed_error() {
        let a = build(&[toy_model("http://a", &["one two three"])]);
        let b = build(&[toy_model("http://b", &["four five six"])]);
        let segments = [a, b];
        let err = InvertedIndex::try_merge_segments_with_limit(&segments, 3).unwrap_err();
        assert!(matches!(err, IndexBuildError::OffsetOverflow { .. }));
        // A generous limit merges fine.
        assert!(InvertedIndex::try_merge_segments_with_limit(&segments, 1 << 20).is_ok());
    }

    #[test]
    fn parallel_build_equals_sequential() -> Result<(), IndexBuildError> {
        let models: Vec<AppModel> = (0..13)
            .map(|i| {
                toy_model(
                    &format!("http://x/{i}"),
                    &[
                        &format!("shared word{} alpha", i % 3) as &str,
                        &format!("deeper state {i}") as &str,
                    ],
                )
            })
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> =
            models.iter().map(|m| (m, Some(1.0 / 13.0))).collect();
        // Partitions built apart, as the parallel crawl's process lines do,
        // merge to the one sequential build, with and without a state cap.
        for max_states in [None, Some(1)] {
            let sequential = build_index(&refs, max_states);
            for chunk in [1, 4, 5, 13] {
                let merged = merged_partitions(&refs, chunk, max_states)?;
                assert_eq!(
                    sequential, merged,
                    "chunk={chunk} max_states={max_states:?}"
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use ajax_crawl::model::AppModel;

    fn model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        m
    }

    fn build(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(0.5));
        }
        b.build()
    }

    #[test]
    fn merged_equals_jointly_built() -> Result<(), IndexBuildError> {
        let m1 = model("http://a", &["wow video", "more wow"]);
        let m2 = model("http://b", &["dance wow"]);
        let m3 = model("http://c", &["silence here"]);

        let merged = InvertedIndex::try_merge_segments(vec![
            build(std::slice::from_ref(&m1)),
            build(&[m2.clone(), m3.clone()]),
        ])?;
        let joint = build(&[m1, m2, m3]);

        // Canonical layout ⇒ structural equality, not just logical.
        assert_eq!(merged, joint);
        Ok(())
    }

    #[test]
    fn merge_into_empty() -> Result<(), IndexBuildError> {
        let empty = IndexBuilder::new().build();
        let other = build(&[model("http://a", &["x y"])]);
        let merged = InvertedIndex::try_merge_segments(vec![empty, other.clone()])?;
        assert_eq!(merged, other);
        Ok(())
    }

    #[test]
    fn merge_segments_many() -> Result<(), IndexBuildError> {
        let models: Vec<AppModel> = (0..7)
            .map(|i| {
                model(
                    &format!("http://m/{i}"),
                    &[&format!("common word{i}") as &str],
                )
            })
            .collect();
        let joint = build(&models);
        let segments: Vec<InvertedIndex> = models.chunks(2).map(build).collect();
        let merged = InvertedIndex::try_merge_segments(segments)?;
        assert_eq!(merged, joint);
        Ok(())
    }
}
