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
//! byte sections of an mmap-ed segment, `segment.rs`). A mapped index
//! decodes a term's doc/count run on demand into a caller-owned
//! [`TermScratch`] (`postings_in`), and positions are decoded only inside
//! the proximity scan ([`PostingList::for_each_position`]).
//!
//! The layout is **canonical**: terms sorted, each term's run doc-sorted,
//! and the position arena written in exactly that iteration order. Two
//! indexes over the same logical content are therefore structurally equal
//! (`PartialEq`) no matter how they were built, merged or persisted — the
//! foundation of the determinism contract (see `docs/index-internals.md`).

use crate::dict::{TermDict, TermId};
use crate::segment::{self, MappedPostings};
use crate::tokenize::for_each_token;
use ajax_crawl::model::{AppModel, StateId};
use ajax_crawl::pagerank::pagerank_default;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

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

/// A borrowed view of one posting: where a term occurs and how often.
/// Replaces the old owned `Posting { doc, count, positions: Vec<u32> }` —
/// the positions now point into the index's shared arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostingRef<'a> {
    pub doc: DocKey,
    /// Raw occurrence count of the term in the state.
    pub count: u32,
    /// Token positions of the occurrences (for term proximity).
    pub positions: &'a [u32],
}

/// Where a posting list's positions come from.
#[derive(Debug, Clone, Copy)]
enum PosSrc<'a> {
    /// Owned index: absolute offsets into the shared `u32` arena.
    Arena {
        pos_offsets: &'a [u32],
        arena: &'a [u32],
    },
    /// Mapped segment: per-posting byte bounds (recovered into scratch
    /// during the run decode) into the term's slice of the delta+varint
    /// position stream — position bytes themselves decode lazily, never
    /// resident.
    Stream {
        pos_offs: &'a [u32],
        stream: &'a [u8],
    },
}

/// A borrowed view of one term's posting run: parallel slices over the doc
/// and count columns (owned columns or a per-query scratch decode), plus a
/// lazily-decoded position source. `Copy`, allocation-free, doc-sorted.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    docs: &'a [DocKey],
    counts: &'a [u32],
    pos: PosSrc<'a>,
}

impl<'a> PostingList<'a> {
    /// The empty list (unseen terms).
    pub const EMPTY: PostingList<'static> = PostingList {
        docs: &[],
        counts: &[],
        pos: PosSrc::Arena {
            pos_offsets: &[],
            arena: &[],
        },
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

    /// The position slice of posting `i` in the shared arena. Only available
    /// when the positions are arena-backed (owned index); mapped posting
    /// lists decode positions lazily — use
    /// [`PostingList::for_each_position`].
    pub fn positions(&self, i: usize) -> &'a [u32] {
        match self.pos {
            PosSrc::Arena { pos_offsets, arena } => {
                let off = pos_offsets[i] as usize;
                &arena[off..off + self.counts[i] as usize]
            }
            PosSrc::Stream { .. } => {
                panic!("PostingList::positions on a mapped segment; use for_each_position")
            }
        }
    }

    /// Visits the positions of posting `i` in ascending order. Works on both
    /// backings; on a mapped segment this is where the delta+varint stream
    /// is decoded — the only place position bytes are ever touched.
    pub fn for_each_position(&self, i: usize, mut f: impl FnMut(u32)) {
        match self.pos {
            PosSrc::Arena { pos_offsets, arena } => {
                let off = pos_offsets[i] as usize;
                for &p in &arena[off..off + self.counts[i] as usize] {
                    f(p);
                }
            }
            PosSrc::Stream { pos_offs, stream } => {
                let mut cur = pos_offs[i] as usize;
                let end = pos_offs[i + 1] as usize;
                let mut pos = 0u32;
                let mut first = true;
                while cur < end {
                    let delta = segment::read_varint(stream, &mut cur) as u32;
                    pos = if first { delta } else { pos + delta };
                    first = false;
                    f(pos);
                }
            }
        }
    }

    /// Borrowed posting view — arena-backed lists only (see
    /// [`PostingList::positions`]).
    pub fn get(&self, i: usize) -> PostingRef<'a> {
        PostingRef {
            doc: self.docs[i],
            count: self.counts[i],
            positions: self.positions(i),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = PostingRef<'a>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Reusable decode target for one term's posting run on a mapped index.
/// Owned indexes ignore it (their columns are borrowed directly); mapped
/// indexes decode the delta+varint run into these vectors, which grow once
/// and are reused across queries.
#[derive(Debug, Default)]
pub struct TermScratch {
    pub(crate) docs: Vec<DocKey>,
    pub(crate) counts: Vec<u32>,
    /// `docs.len() + 1` cumulative byte offsets into the term's position
    /// window — rebuilt from the run's `pos_len` varints, so
    /// `for_each_position` keeps O(1) access without a per-posting offset
    /// column on disk.
    pub(crate) pos_offs: Vec<u32>,
}

impl TermScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-page metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The posting columns: resident vectors, or byte sections of an mmap-ed v4
/// segment decoded on demand.
#[derive(Debug, Clone)]
pub(crate) enum Store {
    Owned(OwnedStore),
    Mapped(MappedPostings),
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
        matches!(self.store, Store::Mapped(_))
    }

    /// Assembles a mapped index from an opened v4 segment.
    pub(crate) fn from_mapped(
        dict: crate::segment::MappedDict,
        postings: MappedPostings,
        pages: Vec<PageEntry>,
        total_states: u64,
    ) -> Self {
        Self {
            dict: TermDict::from_mapped(dict),
            store: Store::Mapped(postings),
            pages,
            total_states,
        }
    }

    /// The owned columns — borrowed in place for an owned index, fully
    /// decoded for a mapped one (merge, v3 re-save, equality).
    pub(crate) fn owned_store(&self) -> Cow<'_, OwnedStore> {
        match &self.store {
            Store::Owned(s) => Cow::Borrowed(s),
            Store::Mapped(m) => Cow::Owned(m.materialize()),
        }
    }

    /// The owned columns of an index known to be resident (post
    /// [`InvertedIndex::into_owned`]).
    fn store_owned(&self) -> &OwnedStore {
        match &self.store {
            Store::Owned(s) => s,
            Store::Mapped(_) => unreachable!("caller materialized the index first"),
        }
    }

    /// Converts into a fully resident index: decodes the mapped columns and
    /// dictionary if necessary, no-op otherwise.
    pub fn into_owned(self) -> InvertedIndex {
        let InvertedIndex {
            dict,
            store,
            pages,
            total_states,
        } = self;
        let store = match store {
            Store::Owned(s) => Store::Owned(s),
            Store::Mapped(m) => Store::Owned(m.materialize()),
        };
        InvertedIndex {
            dict: dict.into_owned(),
            store,
            pages,
            total_states,
        }
    }

    /// Length of term `id`'s posting run — O(1) on both backings (the v4
    /// `term_offsets` column is fixed-width and addressable in place).
    pub fn run_len(&self, id: TermId) -> usize {
        match &self.store {
            Store::Owned(s) => {
                (s.term_offsets[id as usize + 1] - s.term_offsets[id as usize]) as usize
            }
            Store::Mapped(m) => m.run_len(id),
        }
    }

    /// The posting run of a known `TermId`, borrowed from the owned columns.
    /// Mapped indexes need a decode scratch — use
    /// [`InvertedIndex::postings_by_id_in`].
    pub fn postings_by_id(&self, id: TermId) -> PostingList<'_> {
        match &self.store {
            Store::Owned(s) => {
                let start = s.term_offsets[id as usize] as usize;
                let end = s.term_offsets[id as usize + 1] as usize;
                PostingList {
                    docs: &s.docs[start..end],
                    counts: &s.counts[start..end],
                    pos: PosSrc::Arena {
                        pos_offsets: &s.pos_offsets[start..end],
                        arena: &s.positions,
                    },
                }
            }
            Store::Mapped(_) => {
                panic!("postings_by_id on a mapped segment; use postings_by_id_in with a scratch")
            }
        }
    }

    /// The posting list of `term` (empty if absent). Owned indexes only —
    /// see [`InvertedIndex::postings_in`].
    pub fn postings(&self, term: &str) -> PostingList<'_> {
        match self.dict.lookup(term) {
            Some(id) => self.postings_by_id(id),
            None => PostingList::EMPTY,
        }
    }

    /// The posting run of a known `TermId` on either backing: owned columns
    /// are borrowed in place (the scratch is untouched); mapped runs are
    /// delta+varint-decoded into `scratch` and borrowed from there.
    /// Positions stay undecoded in both cases until `for_each_position`.
    pub fn postings_by_id_in<'s>(
        &'s self,
        id: TermId,
        scratch: &'s mut TermScratch,
    ) -> PostingList<'s> {
        match &self.store {
            Store::Owned(_) => self.postings_by_id(id),
            Store::Mapped(m) => {
                m.decode_docs_counts(
                    id,
                    &mut scratch.docs,
                    &mut scratch.counts,
                    &mut scratch.pos_offs,
                );
                PostingList {
                    docs: &scratch.docs,
                    counts: &scratch.counts,
                    pos: PosSrc::Stream {
                        pos_offs: &scratch.pos_offs,
                        stream: m.term_pos_window(id),
                    },
                }
            }
        }
    }

    /// The posting list of `term` on either backing (empty if absent).
    pub fn postings_in<'s>(&'s self, term: &str, scratch: &'s mut TermScratch) -> PostingList<'s> {
        match self.dict.lookup(term) {
            Some(id) => self.postings_by_id_in(id, scratch),
            None => PostingList::EMPTY,
        }
    }

    /// Document frequency: number of states containing `term`.
    pub fn df(&self, term: &str) -> u64 {
        match self.dict.lookup(term) {
            Some(id) => self.run_len(id) as u64,
            None => 0,
        }
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

    /// Normalized term frequency of a posting in its state (formula 5.1).
    pub fn tf(&self, posting: &PostingRef<'_>) -> f64 {
        self.tf_parts(posting.doc, posting.count)
    }

    /// The same, from the raw columns (avoids forming a `PostingRef`).
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

    /// Merges `other` into `self`: pages are appended (their indices are
    /// re-based), posting runs are concatenated. This is the
    /// incremental-indexing path (the thesis builds its index incrementally
    /// from application models and merges per-partition results, §6.4).
    ///
    /// Because re-based doc keys are strictly greater than everything
    /// already indexed, concatenation keeps every run sorted — the merge is
    /// a linear two-way dictionary join, O(postings + terms), no re-sort.
    pub fn merge(&mut self, other: InvertedIndex) {
        let merged = InvertedIndex::merge_segments(vec![std::mem::take(self), other]);
        *self = merged;
    }

    /// K-way merge of index segments into one canonical index — panicking
    /// wrapper over [`InvertedIndex::try_merge_segments`] for callers that
    /// treat overflow as fatal.
    pub fn merge_segments(segments: Vec<InvertedIndex>) -> InvertedIndex {
        InvertedIndex::try_merge_segments(segments)
            .expect("index merge overflowed the u32 offset space")
    }

    /// K-way merge of index segments into one canonical index — the
    /// parallel build's combine step. Pages are concatenated in segment
    /// order (doc keys re-based); the dictionaries are merge-joined (all
    /// sorted), and each output term's run is the concatenation of the
    /// segments' runs in segment order. Linear in total postings plus
    /// `terms × segments` for the join.
    ///
    /// Mapped segments are materialized first (the merge needs random
    /// access to whole runs). Fails with a typed error if the combined
    /// postings, positions or pages outgrow the `u32` offset space —
    /// previously those casts wrapped silently.
    pub fn try_merge_segments(
        segments: Vec<InvertedIndex>,
    ) -> Result<InvertedIndex, IndexBuildError> {
        InvertedIndex::try_merge_segments_with_limit(segments, U32_LIMIT)
    }

    /// [`InvertedIndex::try_merge_segments`] with an injectable offset limit
    /// so the guard is testable without allocating 4 GiB of postings.
    pub(crate) fn try_merge_segments_with_limit(
        segments: Vec<InvertedIndex>,
        limit: u64,
    ) -> Result<InvertedIndex, IndexBuildError> {
        if segments.is_empty() {
            return Ok(InvertedIndex::default());
        }
        let segments: Vec<InvertedIndex> = segments
            .into_iter()
            .map(InvertedIndex::into_owned)
            .collect();
        if segments.len() == 1 {
            return Ok(segments.into_iter().next().expect("one segment"));
        }

        // Totals first, in u64, so the overflow check happens before any
        // offset is narrowed to u32.
        let mut total_pages = 0u64;
        let mut total_states = 0u64;
        let mut n_postings = 0u64;
        let mut n_positions = 0u64;
        for seg in &segments {
            total_pages += seg.pages.len() as u64;
            total_states += seg.total_states;
            n_postings += seg.store_owned().docs.len() as u64;
            n_positions += seg.store_owned().positions.len() as u64;
        }
        check_fits("pages", total_pages, limit)?;
        check_fits("postings", n_postings, limit)?;
        check_fits("positions", n_positions, limit)?;

        // Page re-basing offsets, page concat.
        let mut page_offsets = Vec::with_capacity(segments.len());
        let mut next_page = 0u32;
        let mut pages = Vec::with_capacity(total_pages as usize);
        for seg in &segments {
            page_offsets.push(next_page);
            next_page += seg.pages.len() as u32;
            pages.extend(seg.pages.iter().cloned());
        }

        let mut terms: Vec<String> = Vec::new();
        let mut term_offsets: Vec<u32> = Vec::with_capacity(segments[0].dict.len() + 1);
        term_offsets.push(0);
        let mut docs: Vec<DocKey> = Vec::with_capacity(n_postings as usize);
        let mut counts: Vec<u32> = Vec::with_capacity(n_postings as usize);
        let mut pos_offsets: Vec<u32> = Vec::with_capacity(n_postings as usize);
        let mut positions: Vec<u32> = Vec::with_capacity(n_positions as usize);

        // K-way join over the (sorted) segment dictionaries.
        let mut heads = vec![0u32; segments.len()];
        loop {
            // Smallest term among the segment heads.
            let mut min_term: Option<&str> = None;
            for (seg, &head) in segments.iter().zip(heads.iter()) {
                if (head as usize) < seg.dict.len() {
                    let t = seg.dict.term(head);
                    if min_term.is_none_or(|m| t < m) {
                        min_term = Some(t);
                    }
                }
            }
            let Some(term) = min_term else { break };
            terms.push(term.to_string());

            // Concatenate the term's runs in segment order; re-base docs and
            // rewrite arena offsets. Segment order == ascending page offset,
            // so the output run stays doc-sorted.
            let run_start = docs.len();
            for (s, seg) in segments.iter().enumerate() {
                let head = heads[s];
                if (head as usize) >= seg.dict.len() || seg.dict.term(head) != terms.last().unwrap()
                {
                    continue;
                }
                let run = seg.postings_by_id(head);
                debug_assert!(
                    docs.len() == run_start
                        || match (docs.last(), run.docs.first()) {
                            (Some(last), Some(first)) =>
                                *last
                                    < DocKey {
                                        page: first.page + page_offsets[s],
                                        state: first.state,
                                    },
                            _ => true,
                        },
                    "re-based postings must sort strictly after existing ones"
                );
                for i in 0..run.len() {
                    let d = run.doc(i);
                    docs.push(DocKey {
                        page: d.page + page_offsets[s],
                        state: d.state,
                    });
                    counts.push(run.count(i));
                    pos_offsets.push(positions.len() as u32);
                    positions.extend_from_slice(run.positions(i));
                }
                heads[s] = head + 1;
            }
            term_offsets.push(docs.len() as u32);
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
            pages,
            total_states,
        })
    }

    /// Estimated **resident** size of the index in bytes. Content-derived —
    /// term dictionary (string bytes + hash table), every column and arena
    /// at its *length*, and per-page metadata — so structurally equal
    /// indexes report identical sizes no matter which build path produced
    /// them (capacity padding used to make serial and parallel builds
    /// disagree). A mapped index's columns live in the page cache, not on
    /// the heap: only pages and bookkeeping count; see
    /// [`InvertedIndex::mapped_bytes`].
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
            Store::Owned(s) => {
                s.term_offsets.len() * size_of::<u32>()
                    + s.docs.len() * size_of::<DocKey>()
                    + s.counts.len() * size_of::<u32>()
                    + s.pos_offsets.len() * size_of::<u32>()
                    + s.positions.len() * size_of::<u32>()
            }
            Store::Mapped(_) => 0,
        };
        self.dict.approx_bytes() + columns + self.pages.len() * size_of::<PageEntry>() + page_meta
    }

    /// Bytes served from the mmap-ed segment (0 for a resident index) —
    /// the counterpart of [`InvertedIndex::approx_bytes`] for capacity
    /// planning: mapped bytes share the page cache and are reclaimable.
    pub fn mapped_bytes(&self) -> usize {
        match &self.store {
            Store::Owned(_) => 0,
            Store::Mapped(m) => m.payload_len(),
        }
    }
}

/// Logical equality across backings: a mapped index equals the owned index
/// it was encoded from.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.total_states == other.total_states
            && self.pages == other.pages
            && self.dict == other.dict
            && *self.owned_store() == *other.owned_store()
    }
}

/// The v3 JSON shape (kept for `save_index_v3` and the v3 load path): one
/// object with the dictionary and each column as a field.
impl Serialize for InvertedIndex {
    fn serialize(&self) -> Value {
        let store = self.owned_store();
        let mut map = serde::Map::new();
        map.insert("dict".to_string(), self.dict.serialize());
        map.insert("term_offsets".to_string(), store.term_offsets.serialize());
        map.insert("docs".to_string(), store.docs.serialize());
        map.insert("counts".to_string(), store.counts.serialize());
        map.insert("pos_offsets".to_string(), store.pos_offsets.serialize());
        map.insert("positions".to_string(), store.positions.serialize());
        map.insert("pages".to_string(), self.pages.serialize());
        map.insert("total_states".to_string(), self.total_states.serialize());
        Value::Object(map)
    }
}

impl Deserialize for InvertedIndex {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        Ok(InvertedIndex {
            dict: serde::__field(value, "dict")?,
            store: Store::Owned(OwnedStore {
                term_offsets: serde::__field(value, "term_offsets")?,
                docs: serde::__field(value, "docs")?,
                counts: serde::__field(value, "counts")?,
                pos_offsets: serde::__field(value, "pos_offsets")?,
                positions: serde::__field(value, "positions")?,
            }),
            pages: serde::__field(value, "pages")?,
            total_states: serde::__field(value, "total_states")?,
        })
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

/// Minimum prospective state count for the parallel segment build to pay
/// off. Below this, thread spawn plus the k-way merge pass costs more than
/// the inversion it parallelizes. Measured on VidShare with two threads on
/// two cores, unpinned, best and median of 15 builds: 400 pages (1 599
/// states) 19.4 / 22.2 ms serial vs 24.7 / 34.1 ms parallel; 2 000 pages
/// (7 999 states, just under this) 97.8 / 116.9 ms serial vs 82.4 / 163.8 ms
/// parallel — the best parallel run leads, the median trails. So small
/// corpora take the serial path.
pub const PARALLEL_BUILD_MIN_STATES: usize = 8192;

/// Which build strategy [`build_index_parallel`] will actually run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPath {
    /// Single [`IndexBuilder`] over the whole model sequence.
    Serial,
    /// Per-thread segment builds merged with
    /// [`InvertedIndex::merge_segments`].
    Parallel,
}

impl BuildPath {
    pub fn as_str(self) -> &'static str {
        match self {
            BuildPath::Serial => "serial",
            BuildPath::Parallel => "parallel",
        }
    }
}

/// The path [`build_index_parallel`] will take for this input: parallel only
/// when there is more than one chunk to hand out **and** the prospective
/// state count (post state-cap) clears [`PARALLEL_BUILD_MIN_STATES`].
pub fn planned_build_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> BuildPath {
    if threads.max(1).min(models.len().max(1)) <= 1 {
        return BuildPath::Serial;
    }
    let cap = max_states.unwrap_or(usize::MAX);
    let prospective: usize = models.iter().map(|(m, _)| m.states.len().min(cap)).sum();
    if prospective < PARALLEL_BUILD_MIN_STATES {
        BuildPath::Serial
    } else {
        BuildPath::Parallel
    }
}

/// Builds an index over `models` with a **parallel segment build**: the
/// model list is split into `threads` contiguous chunks, each chunk is
/// inverted independently on its own thread ([`IndexBuilder`] per segment),
/// and the sorted segments are k-way merged ([`InvertedIndex::merge_segments`])
/// into one canonical index.
///
/// Small inputs ([`planned_build_path`] → [`BuildPath::Serial`]) fall back
/// to a single sequential builder: under [`PARALLEL_BUILD_MIN_STATES`]
/// prospective states the segment-merge overhead exceeds the parallel win.
///
/// Deterministic by construction: chunking depends only on `models.len()`
/// and `threads`, the merge concatenates runs in chunk order, and the serial
/// fallback produces the same canonical layout — the result is
/// `PartialEq`-identical to a sequential build over the same model sequence
/// regardless of which path runs.
pub fn build_index_parallel(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> InvertedIndex {
    try_build_index_parallel(models, max_states, threads)
        .expect("index build overflowed the u32 offset space")
}

/// [`build_index_parallel`] returning the typed overflow error instead of
/// panicking.
pub fn try_build_index_parallel(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> Result<InvertedIndex, IndexBuildError> {
    let path = planned_build_path(models, max_states, threads);
    try_build_index_with_path(models, max_states, threads, path)
}

/// [`build_index_parallel`] with the path decision made by the caller —
/// tests force [`BuildPath::Parallel`] on tiny corpora to keep the
/// segment-merge machinery covered.
pub fn build_index_with_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
    path: BuildPath,
) -> InvertedIndex {
    try_build_index_with_path(models, max_states, threads, path)
        .expect("index build overflowed the u32 offset space")
}

fn try_build_index_with_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
    path: BuildPath,
) -> Result<InvertedIndex, IndexBuildError> {
    let new_builder = || match max_states {
        Some(m) => IndexBuilder::new().with_max_states(m),
        None => IndexBuilder::new(),
    };
    let threads = threads.max(1).min(models.len().max(1));
    if threads <= 1 || path == BuildPath::Serial {
        let mut b = new_builder();
        for (model, pr) in models {
            b.add_model(model, *pr);
        }
        return b.try_build();
    }

    let chunk = models.len().div_ceil(threads);
    let segments: Result<Vec<InvertedIndex>, IndexBuildError> = std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut b = new_builder();
                    for (model, pr) in slice {
                        b.add_model(model, *pr);
                    }
                    b.try_build()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment build panicked"))
            .collect()
    });
    InvertedIndex::try_merge_segments(segments?)
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
        assert_eq!(idx.postings("singer").len(), 1);
        assert_eq!(idx.postings("singer").doc(0).state, StateId(1));
    }

    #[test]
    fn tf_normalized_by_state_length() {
        let idx = build(&[toy_model("u", &["wow wow wow bad"])]);
        let posting = idx.postings("wow").get(0);
        assert_eq!(posting.count, 3);
        assert!((idx.tf(&posting) - 0.75).abs() < 1e-9);
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
        assert!(idx.postings("second").is_empty());
        assert_eq!(idx.postings("first").len(), 1);
    }

    #[test]
    fn positions_recorded_in_order() {
        let idx = build(&[toy_model("u", &["alpha beta alpha"])]);
        let postings = idx.postings("alpha");
        assert_eq!(postings.positions(0), &[0, 2]);
        let mut seen = Vec::new();
        postings.for_each_position(0, |p| seen.push(p));
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn dictionary_ids_are_sorted_ranks() {
        let idx = build(&[toy_model("u", &["zebra alpha kiwi"])]);
        assert_eq!(idx.term_count(), 3);
        assert_eq!(idx.dict().term(0), "alpha");
        assert_eq!(idx.dict().term(2), "zebra");
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

    #[test]
    fn approx_bytes_identical_across_build_paths() {
        // Structurally equal indexes must report identical sizes: capacity
        // padding differs between serial and parallel builds, content does
        // not.
        let models: Vec<AppModel> = (0..9)
            .map(|i| toy_model(&format!("http://x/{i}"), &["alpha beta", "gamma delta"]))
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, Some(0.1))).collect();
        let serial = build_index_parallel(&refs, None, 1);
        let parallel = build_index_with_path(&refs, None, 4, BuildPath::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(serial.approx_bytes(), parallel.approx_bytes());
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
        let err = InvertedIndex::try_merge_segments_with_limit(vec![a.clone(), b.clone()], 3)
            .unwrap_err();
        assert!(matches!(err, IndexBuildError::OffsetOverflow { .. }));
        // A generous limit merges fine.
        assert!(InvertedIndex::try_merge_segments_with_limit(vec![a, b], 1 << 20).is_ok());
    }

    #[test]
    fn parallel_build_equals_sequential() {
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
        let sequential = build_index_parallel(&refs, None, 1);
        for threads in [2, 3, 4, 13, 64] {
            // Force the parallel path: this corpus is far below the
            // min-states threshold, but the segment merge must stay
            // equivalence-covered.
            let parallel = build_index_with_path(&refs, None, threads, BuildPath::Parallel);
            assert_eq!(sequential, parallel, "threads={threads}");
            // The public entry point picks serial here and must agree too.
            assert_eq!(sequential, build_index_parallel(&refs, None, threads));
        }
    }

    #[test]
    fn small_corpora_plan_serial_builds() {
        let models: Vec<AppModel> = (0..4)
            .map(|i| toy_model(&format!("http://x/{i}"), &["a b", "c d"]))
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, None)).collect();
        assert_eq!(planned_build_path(&refs, None, 4), BuildPath::Serial);
        assert_eq!(planned_build_path(&refs, None, 1), BuildPath::Serial);
        // A single model can never be chunked, whatever its size.
        assert_eq!(planned_build_path(&refs[..1], None, 8), BuildPath::Serial);
    }

    #[test]
    fn large_corpora_plan_parallel_builds() {
        let texts: Vec<String> = (0..PARALLEL_BUILD_MIN_STATES / 2)
            .map(|i| format!("state text {i}"))
            .collect();
        let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let big = [
            toy_model("http://x/0", &text_refs),
            toy_model("http://x/1", &text_refs),
        ];
        let refs: Vec<(&AppModel, Option<f64>)> = big.iter().map(|m| (m, None)).collect();
        assert_eq!(planned_build_path(&refs, None, 4), BuildPath::Parallel);
        // The state cap shrinks the prospective count back under the
        // threshold: the plan must honour post-cap sizes, not raw ones.
        assert_eq!(planned_build_path(&refs, Some(16), 4), BuildPath::Serial);
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
    fn merged_equals_jointly_built() {
        let m1 = model("http://a", &["wow video", "more wow"]);
        let m2 = model("http://b", &["dance wow"]);
        let m3 = model("http://c", &["silence here"]);

        let mut merged = build(std::slice::from_ref(&m1));
        merged.merge(build(&[m2.clone(), m3.clone()]));
        let joint = build(&[m1, m2, m3]);

        // Canonical layout ⇒ structural equality, not just logical.
        assert_eq!(merged, joint);
    }

    #[test]
    fn merge_into_empty() {
        let mut empty = IndexBuilder::new().build();
        let other = build(&[model("http://a", &["x y"])]);
        empty.merge(other.clone());
        assert_eq!(empty, other);
    }

    #[test]
    fn merge_segments_many() {
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
        let merged = InvertedIndex::merge_segments(segments);
        assert_eq!(merged, joint);
    }
}
