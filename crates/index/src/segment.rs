//! On-disk segment layout **v4**: compressed, zero-copy, mmap-able.
//!
//! A v4 segment is the binary payload inside the usual durable frame
//! (`ajax_crawl::durable`): the frame supplies atomic commit, the CRC and the
//! end-of-file marker; this module defines what the payload bytes mean.
//!
//! ```text
//! header (32 B):  magic "AJAXSEG4" | n_terms u32 | n_postings u32
//!                 | n_pages u32 | dict_block u32 | total_states u64
//! section table:  8 × (offset u64, len u64)       — offsets from payload[0]
//! S0 term_offsets   (n_terms+1) × u32 LE  posting-index bounds per term
//! S1 run_offsets    (n_terms+1) × u32 LE  byte bounds of each run in S4
//! S2 dict_blocks    (blocks+1)  × u32 LE  byte bounds of each block in S3
//! S3 dict_data      front-coded term strings (blocks of `dict_block`)
//! S4 postings       per posting: varint page Δ, state, fused count/pos-len
//! S5 term_pos       (n_terms+1) × u32 LE  byte bounds per term run in S6
//! S6 pos_stream     per posting: varint first position, then varint deltas
//! S7 pages          url / pagerank / ajaxrank / state_lengths, binary
//! ```
//!
//! Design rules:
//!
//! * **Fixed-width columns stay addressable in place.** `term_offsets`,
//!   `run_offsets`, `term_pos` and the dict block table are plain
//!   little-endian `u32` arrays read per-element with [`u32_at`] — never
//!   sliced to `&[u32]`, because the payload follows a variable-length frame
//!   header and has no alignment guarantee.
//! * **Variable-width data is delta+varint (LEB128).** A posting record is
//!   `page_delta, state, g[, extra]` varints: the run's first record stores
//!   page and state absolute; later records store the page delta, and a zero
//!   page delta switches `state` to a (strictly positive) delta from the
//!   previous state. Splitting the doc key this way keeps a page change at
//!   1–2 bytes, where a delta of the packed `(page << 32) | state` key costs
//!   five or more. The fused tail `g = (count-1) << 1 | (extra > 0)` carries
//!   the term frequency and, with the optional `extra = pos_len - count`
//!   varint, the byte length of the posting's position slice in S6
//!   (`pos_len`, which is at least one byte per position). Decoding a run
//!   therefore yields per-posting position bounds for free (accumulate
//!   within the term's S5 window) without a 4-byte-per-posting offset
//!   column, and the common posting — one occurrence at a sub-128 position —
//!   pays a single byte for both fields. Positions are
//!   first-absolute-then-delta per posting.
//! * **The dictionary is front-coded** in blocks of [`DICT_BLOCK`] terms: the
//!   block head is stored whole (directly sliceable for the block binary
//!   search), followers store `varint lcp + varint suffix_len + suffix`.
//!   Lookups run against the mapped bytes — no `Vec<String>` is ever built.
//! * **Decoding is lazy.** Opening a segment decodes only S7 (page metadata)
//!   and validates the structural invariants; doc/count runs are decoded
//!   per-query into a caller scratch, and positions are decoded only inside
//!   the proximity scan via `PostingList::for_each_position`.
//!
//! Corruption safety: the durable frame's CRC32 covers the whole payload and
//! is verified before [`open`] runs, so random damage never reaches a
//! decoder. A file that is well-checksummed but logically malformed is
//! another matter. [`open`] checks:
//!
//! * the header, and that every section lies inside the payload after it;
//! * the lengths of the fixed-width columns (S0, S1, S2, S5), their
//!   sentinels, and that each is monotone;
//! * every dictionary block: the front coding stays in bounds and every
//!   term is UTF-8;
//! * the whole page section (S7), which it decodes.
//!
//! It trusts the posting records (S4) and the position stream (S6): their
//! varints, the page and state each record names, and that a run's
//! `pos_len`s add up to its S5 window. A record naming a page past the end
//! of S7 opens cleanly and panics at the first query that reaches it.
//! Walking every run at open would catch it, at several times the open cost
//! (ROADMAP item 5).

use crate::dict::TermId;
use crate::invert::{DocKey, IndexBuildError, InvertedIndex, OwnedStore, PageEntry};
use ajax_crawl::durable::MappedFrame;
use ajax_crawl::model::StateId;
use std::ops::Range;
use std::sync::Arc;

/// First eight payload bytes of every v4 segment.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"AJAXSEG4";

/// Terms per front-coded dictionary block.
pub(crate) const DICT_BLOCK: usize = 16;

const HEADER_LEN: usize = 32;
const SECTION_COUNT: usize = 8;
const PREFIX_LEN: usize = HEADER_LEN + SECTION_COUNT * 16;

// ---------------------------------------------------------------- primitives

/// The `idx`-th little-endian `u32` of an (unaligned) byte column.
#[inline]
pub(crate) fn u32_at(bytes: &[u8], idx: usize) -> u32 {
    let o = idx * 4;
    u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
}

/// Appends `v` as LEB128. Nearly every value a segment holds — page and
/// state deltas, fused counts, position deltas — fits one byte.
#[inline]
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 value at `*cursor`, advancing it. The caller guarantees
/// the bytes are well-formed (CRC-verified segment data).
#[inline]
pub(crate) fn read_varint(bytes: &[u8], cursor: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*cursor];
        *cursor += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn extend_u32s_le(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn checked_u32(len: usize, column: &'static str) -> Result<u32, IndexBuildError> {
    u32::try_from(len).map_err(|_| IndexBuildError::OffsetOverflow {
        column,
        len: len as u64,
        max: u64::from(u32::MAX),
    })
}

fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

// ------------------------------------------------------------------- encoder

/// Encodes `index` into a v4 segment payload. Works on owned and mapped
/// indexes alike (a mapped index re-encodes to the identical canonical
/// bytes). Fails with a typed overflow error if any byte column outgrows the
/// `u32` offset space.
pub(crate) fn encode(index: &InvertedIndex) -> Result<Vec<u8>, IndexBuildError> {
    let store = index.owned_store();
    let store: &OwnedStore = &store;
    let n_terms = index.term_count();
    let n_postings = store.docs.len();
    let n_pages = checked_u32(index.pages.len(), "pages")?;
    checked_u32(n_postings, "postings")?;

    // S4 posting records + S6 position stream, one pass per term run; S1
    // tracks run byte bounds and S5 the per-term position-stream bounds.
    // Sized for the common case of one-byte varints; longer ones grow it.
    let mut postings_stream = Vec::with_capacity(n_postings * 3);
    let mut pos_stream = Vec::with_capacity(store.positions.len() + store.positions.len() / 8);
    let mut run_offsets = Vec::with_capacity(n_terms + 1);
    let mut term_pos_offsets = Vec::with_capacity(n_terms + 1);
    run_offsets.push(0u32);
    term_pos_offsets.push(0u32);
    for t in 0..n_terms {
        let start = store.term_offsets[t] as usize;
        let end = store.term_offsets[t + 1] as usize;
        let mut prev = DocKey {
            page: 0,
            state: StateId(0),
        };
        for i in start..end {
            // The posting's positions go to S6 first; the stream's growth
            // is the byte length its record carries.
            let pos_start = pos_stream.len();
            let o = store.pos_offsets[i] as usize;
            let count = store.counts[i];
            let mut pp = 0u32;
            for &p in &store.positions[o..o + count as usize] {
                write_varint(&mut pos_stream, u64::from(p - pp));
                pp = p;
            }

            let d = store.docs[i];
            let page_delta = d.page - prev.page;
            write_varint(&mut postings_stream, u64::from(page_delta));
            let state = if page_delta == 0 && i > start {
                d.state.0 - prev.state.0
            } else {
                d.state.0
            };
            write_varint(&mut postings_stream, u64::from(state));
            let extra = (pos_stream.len() - pos_start) as u64 - u64::from(count);
            let g = (u64::from(count) - 1) << 1 | u64::from(extra > 0);
            write_varint(&mut postings_stream, g);
            if extra > 0 {
                write_varint(&mut postings_stream, extra);
            }
            prev = d;
        }
        run_offsets.push(checked_u32(postings_stream.len(), "postings_stream")?);
        term_pos_offsets.push(checked_u32(pos_stream.len(), "position_stream")?);
    }

    // S3 front-coded dictionary + S2 block offsets.
    let mut dict_data = Vec::new();
    let mut block_offsets = vec![0u32];
    let mut prev_term: Vec<u8> = Vec::new();
    let mut term_buf = Vec::new();
    for t in 0..n_terms {
        let term = index.dict().decode_term(t as TermId, &mut term_buf);
        let bytes = term.as_bytes();
        if t % DICT_BLOCK == 0 {
            if t > 0 {
                block_offsets.push(checked_u32(dict_data.len(), "dict_data")?);
            }
            write_varint(&mut dict_data, bytes.len() as u64);
            dict_data.extend_from_slice(bytes);
        } else {
            let l = lcp(&prev_term, bytes);
            write_varint(&mut dict_data, l as u64);
            write_varint(&mut dict_data, (bytes.len() - l) as u64);
            dict_data.extend_from_slice(&bytes[l..]);
        }
        prev_term.clear();
        prev_term.extend_from_slice(bytes);
    }
    if n_terms > 0 {
        block_offsets.push(checked_u32(dict_data.len(), "dict_data")?);
    }

    // S7 page metadata.
    let mut pages_bytes = Vec::new();
    for p in &index.pages {
        write_varint(&mut pages_bytes, p.url.len() as u64);
        pages_bytes.extend_from_slice(p.url.as_bytes());
        pages_bytes.extend_from_slice(&p.pagerank.to_le_bytes());
        write_varint(&mut pages_bytes, p.ajaxrank.len() as u64);
        for &a in &p.ajaxrank {
            pages_bytes.extend_from_slice(&a.to_le_bytes());
        }
        write_varint(&mut pages_bytes, p.state_lengths.len() as u64);
        for &l in &p.state_lengths {
            write_varint(&mut pages_bytes, u64::from(l));
        }
    }

    // Section byte lengths, S0..S7.
    let lens: [usize; SECTION_COUNT] = [
        store.term_offsets.len() * 4,
        run_offsets.len() * 4,
        block_offsets.len() * 4,
        dict_data.len(),
        postings_stream.len(),
        term_pos_offsets.len() * 4,
        pos_stream.len(),
        pages_bytes.len(),
    ];
    let total = PREFIX_LEN + lens.iter().sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&(n_terms as u32).to_le_bytes());
    out.extend_from_slice(&(n_postings as u32).to_le_bytes());
    out.extend_from_slice(&n_pages.to_le_bytes());
    out.extend_from_slice(&(DICT_BLOCK as u32).to_le_bytes());
    out.extend_from_slice(&index.total_states.to_le_bytes());
    let mut offset = PREFIX_LEN as u64;
    for len in lens {
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
        offset += len as u64;
    }
    // The fixed-width columns are written out as they stand; only the four
    // byte streams were staged (S4 and S6 grow side by side).
    extend_u32s_le(&mut out, &store.term_offsets);
    extend_u32s_le(&mut out, &run_offsets);
    extend_u32s_le(&mut out, &block_offsets);
    out.extend_from_slice(&dict_data);
    out.extend_from_slice(&postings_stream);
    extend_u32s_le(&mut out, &term_pos_offsets);
    out.extend_from_slice(&pos_stream);
    out.extend_from_slice(&pages_bytes);
    debug_assert_eq!(out.len(), total, "section table matches the bytes");
    Ok(out)
}

// ------------------------------------------------------------------- decoder

/// The mapped posting store: `Arc`-shared frame plus byte ranges of the
/// posting-related sections within the payload. Cloning is cheap (one `Arc`
/// bump) and the decoded state lives entirely in caller scratch buffers.
#[derive(Debug, Clone)]
pub struct MappedPostings {
    frame: Arc<MappedFrame>,
    term_offsets: Range<usize>,
    run_offsets: Range<usize>,
    postings: Range<usize>,
    term_pos_offsets: Range<usize>,
    pos_stream: Range<usize>,
    n_terms: usize,
    n_postings: usize,
}

impl MappedPostings {
    fn payload(&self) -> &[u8] {
        self.frame.payload()
    }

    fn term_offsets_slice(&self) -> &[u8] {
        &self.payload()[self.term_offsets.clone()]
    }

    fn run_offsets_slice(&self) -> &[u8] {
        &self.payload()[self.run_offsets.clone()]
    }

    fn postings_slice(&self) -> &[u8] {
        &self.payload()[self.postings.clone()]
    }

    fn term_pos_offsets_slice(&self) -> &[u8] {
        &self.payload()[self.term_pos_offsets.clone()]
    }

    fn pos_stream_bytes(&self) -> &[u8] {
        &self.payload()[self.pos_stream.clone()]
    }

    /// Whole-payload length — what `mapped_bytes` reports for residency.
    pub(crate) fn payload_len(&self) -> usize {
        self.payload().len()
    }

    /// Posting-index bounds of term `id` (from the fixed-width S0 column —
    /// no stream decode needed, so `df` stays O(1) on mapped segments).
    pub(crate) fn run_range(&self, id: TermId) -> Range<usize> {
        let s = self.term_offsets_slice();
        u32_at(s, id as usize) as usize..u32_at(s, id as usize + 1) as usize
    }

    pub(crate) fn run_len(&self, id: TermId) -> usize {
        self.run_range(id).len()
    }

    /// Decodes term `id`'s doc and count columns into the scratch vectors,
    /// plus `pos_offs`: `run_len + 1` cumulative byte offsets into the
    /// term's position window ([`MappedPostings::term_pos_window`]), built
    /// from the per-record `pos_len` varints as a side effect of the same
    /// pass — position *bytes* stay untouched.
    pub(crate) fn decode_docs_counts(
        &self,
        id: TermId,
        docs: &mut Vec<DocKey>,
        counts: &mut Vec<u32>,
        pos_offs: &mut Vec<u32>,
    ) {
        let run = self.run_range(id);
        let n = run.len();
        docs.clear();
        counts.clear();
        pos_offs.clear();
        docs.reserve(n);
        counts.reserve(n);
        pos_offs.reserve(n + 1);
        pos_offs.push(0);
        let stream = self.postings_slice();
        let mut cur = u32_at(self.run_offsets_slice(), id as usize) as usize;
        let mut page = 0u32;
        let mut state = 0u32;
        let mut pos_at = 0u32;
        for i in 0..n {
            let page_delta = read_varint(stream, &mut cur) as u32;
            let s = read_varint(stream, &mut cur) as u32;
            if i == 0 {
                page = page_delta;
                state = s;
            } else if page_delta == 0 {
                state += s;
            } else {
                page += page_delta;
                state = s;
            }
            docs.push(DocKey {
                page,
                state: StateId(state),
            });
            let g = read_varint(stream, &mut cur);
            let count = (g >> 1) as u32 + 1;
            let extra = if g & 1 == 1 {
                read_varint(stream, &mut cur) as u32
            } else {
                0
            };
            counts.push(count);
            pos_at += count + extra;
            pos_offs.push(pos_at);
        }
        debug_assert_eq!(
            cur,
            u32_at(self.run_offsets_slice(), id as usize + 1) as usize,
            "posting run must decode to exactly its declared byte range"
        );
        debug_assert_eq!(
            pos_at as usize,
            self.term_pos_window(id).len(),
            "posting pos_len sum must cover exactly the term's position window"
        );
    }

    /// The S6 slice holding term `id`'s positions (bounds from the
    /// fixed-width S5 column).
    pub(crate) fn term_pos_window(&self, id: TermId) -> &[u8] {
        let s = self.term_pos_offsets_slice();
        let start = u32_at(s, id as usize) as usize;
        let end = u32_at(s, id as usize + 1) as usize;
        &self.pos_stream_bytes()[start..end]
    }

    /// Fully decodes the segment back into owned columns (merge, re-save
    /// and equality; queries never need this).
    pub(crate) fn materialize(&self) -> OwnedStore {
        let mut term_offsets = Vec::with_capacity(self.n_terms + 1);
        let to = self.term_offsets_slice();
        for i in 0..=self.n_terms {
            term_offsets.push(u32_at(to, i));
        }

        let mut docs = Vec::with_capacity(self.n_postings);
        let mut counts = Vec::with_capacity(self.n_postings);
        let mut pos_offsets = Vec::with_capacity(self.n_postings);
        let mut positions = Vec::new();
        let stream = self.postings_slice();
        let pstream = self.pos_stream_bytes();
        let tpo = self.term_pos_offsets_slice();
        let ro = self.run_offsets_slice();
        for t in 0..self.n_terms {
            let n = (u32_at(to, t + 1) - u32_at(to, t)) as usize;
            let mut cur = u32_at(ro, t) as usize;
            let mut pcur = u32_at(tpo, t) as usize;
            let mut page = 0u32;
            let mut state = 0u32;
            for i in 0..n {
                let page_delta = read_varint(stream, &mut cur) as u32;
                let s = read_varint(stream, &mut cur) as u32;
                if i == 0 {
                    page = page_delta;
                    state = s;
                } else if page_delta == 0 {
                    state += s;
                } else {
                    page += page_delta;
                    state = s;
                }
                docs.push(DocKey {
                    page,
                    state: StateId(state),
                });
                let g = read_varint(stream, &mut cur);
                let count = (g >> 1) as u32 + 1;
                let extra = if g & 1 == 1 {
                    read_varint(stream, &mut cur) as usize
                } else {
                    0
                };
                counts.push(count);
                let pend = pcur + count as usize + extra;
                pos_offsets.push(positions.len() as u32);
                let mut p = 0u32;
                let mut first = true;
                while pcur < pend {
                    let d = read_varint(pstream, &mut pcur) as u32;
                    p = if first { d } else { p + d };
                    first = false;
                    positions.push(p);
                }
            }
        }

        OwnedStore {
            term_offsets,
            docs,
            counts,
            pos_offsets,
            positions,
        }
    }
}

/// The mapped dictionary: front-coded term bytes addressed through the block
/// table, looked up without materializing any `String`.
#[derive(Debug, Clone)]
pub struct MappedDict {
    frame: Arc<MappedFrame>,
    block_offsets: Range<usize>,
    data: Range<usize>,
    n_terms: usize,
    block: usize,
}

impl MappedDict {
    fn data_slice(&self) -> &[u8] {
        &self.frame.payload()[self.data.clone()]
    }

    fn block_offsets_slice(&self) -> &[u8] {
        &self.frame.payload()[self.block_offsets.clone()]
    }

    pub(crate) fn len(&self) -> usize {
        self.n_terms
    }

    /// The head term of block `b` — stored whole, directly sliceable.
    fn head_bytes(&self, b: usize) -> &[u8] {
        let data = self.data_slice();
        let mut cur = u32_at(self.block_offsets_slice(), b) as usize;
        let len = read_varint(data, &mut cur) as usize;
        &data[cur..cur + len]
    }

    /// Hash-free lookup against the mapped bytes: binary search over block
    /// heads, then a front-coded scan tracking `m = lcp(query, previous)`.
    /// Each follower entry is classified from its stored lcp alone —
    /// `lcp < m` proves the entry already sorts after the query (stop),
    /// `lcp > m` proves it still sorts before (skip without touching its
    /// bytes), and only `lcp == m` compares suffix bytes.
    pub(crate) fn lookup(&self, term: &str) -> Option<TermId> {
        if self.n_terms == 0 {
            return None;
        }
        let q = term.as_bytes();
        let blocks = self.n_terms.div_ceil(self.block);

        // Last block whose head is <= q.
        let mut lo = 0usize;
        let mut hi = blocks;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.head_bytes(mid) <= q {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return None; // query sorts before the first term
        }
        let b = lo - 1;

        let data = self.data_slice();
        let mut cur = u32_at(self.block_offsets_slice(), b) as usize;
        let head_len = read_varint(data, &mut cur) as usize;
        let head = &data[cur..cur + head_len];
        cur += head_len;
        if head == q {
            return Some((b * self.block) as TermId);
        }
        // Invariant below: the previously decoded term sorts before q and
        // shares exactly `m` leading bytes with it.
        let mut m = lcp(q, head);
        let in_block = (self.n_terms - b * self.block).min(self.block);
        for j in 1..in_block {
            let l = read_varint(data, &mut cur) as usize;
            let slen = read_varint(data, &mut cur) as usize;
            let suffix = &data[cur..cur + slen];
            cur += slen;
            if l < m {
                // entry diverges from its predecessor before `m`: its first
                // suffix byte exceeds q[l] (sorted order), so entry > q.
                return None;
            }
            if l > m {
                // entry[..m+1] == predecessor[..m+1] < q[..m+1]: entry < q.
                continue;
            }
            let rest = &q[m..];
            if suffix == rest {
                return Some((b * self.block + j) as TermId);
            }
            if suffix < rest {
                m += lcp(suffix, rest);
            } else {
                return None;
            }
        }
        None
    }

    /// Decodes term `id` into `buf`, returning it as `&str`. The scratch is
    /// a byte buffer (not `String`) because front-coded truncation points
    /// may split UTF-8 sequences mid-reconstruction.
    pub(crate) fn decode_term<'b>(&self, id: TermId, buf: &'b mut Vec<u8>) -> &'b str {
        let id = id as usize;
        let b = id / self.block;
        let data = self.data_slice();
        let mut cur = u32_at(self.block_offsets_slice(), b) as usize;
        let len = read_varint(data, &mut cur) as usize;
        buf.clear();
        buf.extend_from_slice(&data[cur..cur + len]);
        cur += len;
        for _ in 0..(id - b * self.block) {
            let l = read_varint(data, &mut cur) as usize;
            let slen = read_varint(data, &mut cur) as usize;
            buf.truncate(l);
            buf.extend_from_slice(&data[cur..cur + slen]);
            cur += slen;
        }
        std::str::from_utf8(buf).expect("segment terms are valid UTF-8 (checked at open)")
    }
}

// ---------------------------------------------------------------------- open

/// Bounds-checked reader for the one-time open-path decodes.
struct Reader<'a> {
    bytes: &'a [u8],
    cur: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self
                .bytes
                .get(self.cur)
                .ok_or("truncated varint in segment")?;
            self.cur += 1;
            if shift >= 64 {
                return Err("oversized varint in segment".to_string());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .cur
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated byte run in segment")?;
        let s = &self.bytes[self.cur..end];
        self.cur = end;
        Ok(s)
    }

    fn f64(&mut self) -> Result<f64, String> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Opens a v4 segment over a validated durable frame: checks the header,
/// section table and structural sentinels, decodes page metadata eagerly,
/// and wires everything else up for lazy per-query decode. Errors are
/// human-readable details for `PersistError::Corrupt`.
pub(crate) fn open(frame: Arc<MappedFrame>) -> Result<InvertedIndex, String> {
    let payload = frame.payload();
    if payload.len() < PREFIX_LEN {
        return Err(format!(
            "segment too short: {} bytes, header+table need {PREFIX_LEN}",
            payload.len()
        ));
    }
    if payload[..8] != SEGMENT_MAGIC {
        return Err("bad segment magic".to_string());
    }
    let n_terms = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
    let n_postings = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes")) as usize;
    let n_pages = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
    let block = u32::from_le_bytes(payload[20..24].try_into().expect("4 bytes")) as usize;
    let total_states = u64::from_le_bytes(payload[24..32].try_into().expect("8 bytes"));
    if block == 0 {
        return Err("zero dictionary block size".to_string());
    }

    let mut secs: Vec<Range<usize>> = Vec::with_capacity(SECTION_COUNT);
    for i in 0..SECTION_COUNT {
        let at = HEADER_LEN + i * 16;
        let off = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(payload[at + 8..at + 16].try_into().expect("8 bytes"));
        let end = off.checked_add(len).filter(|&e| e <= payload.len() as u64);
        let (Ok(off), Some(_)) = (usize::try_from(off), end) else {
            return Err(format!("section {i} out of bounds"));
        };
        if off < PREFIX_LEN {
            return Err(format!("section {i} overlaps the header"));
        }
        secs.push(off..off + len as usize);
    }

    let blocks = n_terms.div_ceil(block);
    let expect_len = |i: usize, want: usize, what: &str| -> Result<(), String> {
        if secs[i].len() != want {
            Err(format!(
                "{what} section: {} bytes, expected {want}",
                secs[i].len()
            ))
        } else {
            Ok(())
        }
    };
    expect_len(0, (n_terms + 1) * 4, "term_offsets")?;
    expect_len(1, (n_terms + 1) * 4, "run_offsets")?;
    expect_len(2, (blocks + 1) * 4, "dict_blocks")?;
    expect_len(5, (n_terms + 1) * 4, "term_pos")?;

    // Sentinels: last offset of each fixed column must equal the length of
    // the stream it indexes into.
    let sentinel = |col: usize, idx: usize, want: usize, what: &str| -> Result<(), String> {
        let got = u32_at(&payload[secs[col].clone()], idx) as usize;
        if got != want {
            Err(format!("{what} sentinel {got}, expected {want}"))
        } else {
            Ok(())
        }
    };
    sentinel(0, n_terms, n_postings, "term_offsets")?;
    sentinel(1, n_terms, secs[4].len(), "run_offsets")?;
    sentinel(2, blocks, secs[3].len(), "dict_blocks")?;
    sentinel(5, n_terms, secs[6].len(), "term_pos")?;

    // Monotone offsets: a decreasing bound would make a later slice panic at
    // query time; reject it here instead. One pass over small fixed columns.
    for (col, what) in [
        (0usize, "term_offsets"),
        (1, "run_offsets"),
        (2, "dict_blocks"),
        (5, "term_pos"),
    ] {
        let s = &payload[secs[col].clone()];
        let n = s.len() / 4;
        for i in 1..n {
            if u32_at(s, i) < u32_at(s, i - 1) {
                return Err(format!("{what} not monotone at {i}"));
            }
        }
    }

    // Walk every dictionary block once: bounds-check the front coding,
    // reconstruct each term incrementally and validate it is UTF-8, so the
    // query-time decoder and `decode_term` can trust the bytes.
    {
        let data = &payload[secs[3].clone()];
        let table = &payload[secs[2].clone()];
        let mut term = Vec::new();
        for b in 0..blocks {
            let mut r = Reader {
                bytes: data,
                cur: u32_at(table, b) as usize,
            };
            let head_len = r.varint()? as usize;
            term.clear();
            term.extend_from_slice(r.take(head_len)?);
            if std::str::from_utf8(&term).is_err() {
                return Err(format!("dictionary block {b} head is not valid UTF-8"));
            }
            let in_block = (n_terms - b * block).min(block);
            for _ in 1..in_block {
                let l = r.varint()? as usize;
                if l > term.len() {
                    return Err("front-coded lcp exceeds previous term".to_string());
                }
                let slen = r.varint()? as usize;
                term.truncate(l);
                term.extend_from_slice(r.take(slen)?);
                if std::str::from_utf8(&term).is_err() {
                    return Err(format!("dictionary block {b} term is not valid UTF-8"));
                }
            }
        }
    }

    // Page metadata decodes eagerly — it is small and every query touches it.
    let mut pages = Vec::with_capacity(n_pages);
    {
        let mut r = Reader {
            bytes: &payload[secs[7].clone()],
            cur: 0,
        };
        for p in 0..n_pages {
            let url_len = r.varint()? as usize;
            let url = std::str::from_utf8(r.take(url_len)?)
                .map_err(|_| format!("page {p} URL is not valid UTF-8"))?
                .into();
            let pagerank = r.f64()?;
            let n_ajax = r.varint()? as usize;
            let mut ajaxrank = Vec::with_capacity(n_ajax.min(1 << 20));
            for _ in 0..n_ajax {
                ajaxrank.push(r.f64()?);
            }
            let n_lens = r.varint()? as usize;
            let mut state_lengths = Vec::with_capacity(n_lens.min(1 << 20));
            for _ in 0..n_lens {
                state_lengths.push(
                    u32::try_from(r.varint()?)
                        .map_err(|_| format!("page {p} state length exceeds u32"))?,
                );
            }
            pages.push(PageEntry {
                url,
                pagerank,
                ajaxrank,
                state_lengths,
            });
        }
        if r.cur != r.bytes.len() {
            return Err(format!(
                "trailing bytes in page section: {} of {} consumed",
                r.cur,
                r.bytes.len()
            ));
        }
    }

    let dict = MappedDict {
        frame: frame.clone(),
        block_offsets: secs[2].clone(),
        data: secs[3].clone(),
        n_terms,
        block,
    };
    let postings = MappedPostings {
        frame,
        term_offsets: secs[0].clone(),
        run_offsets: secs[1].clone(),
        postings: secs[4].clone(),
        term_pos_offsets: secs[5].clone(),
        pos_stream: secs[6].clone(),
        n_terms,
        n_postings,
    };
    Ok(InvertedIndex::from_mapped(
        dict,
        postings,
        pages,
        total_states,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut cur = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut cur), v);
        }
        assert_eq!(cur, buf.len());
    }

    #[test]
    fn u32_at_reads_unaligned() {
        let mut bytes = vec![0xAAu8]; // misalign everything after
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(u32_at(&bytes[1..], 0), 7);
        assert_eq!(u32_at(&bytes[1..], 1), 0xDEAD_BEEF);
    }
}
