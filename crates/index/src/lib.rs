//! # ajax-index
//!
//! The search-engine half of *AJAX Crawl* (thesis ch. 5 and the
//! query-processing parts of ch. 6): an inverted file whose postings point
//! to **application states**, not just URLs.
//!
//! * [`tokenize`] — lowercase word tokenizer with positions (streaming
//!   [`tokenize::for_each_token`] for the allocation-light build path);
//! * [`dict`] — the sorted, hash-indexed term dictionary interning terms to
//!   dense `TermId`s;
//! * [`invert`] — the enhanced inverted file of Table 5.1 in compact
//!   columnar form: `keyword → (URI, state, tf, positions)` stored as
//!   per-term contiguous runs over a shared position arena, plus the
//!   per-state AJAXRank (stationary distribution of the page's transition
//!   graph) and the per-URL PageRank from the precrawl phase;
//! * [`kernel`] — the allocation-free query kernel: galloping intersection,
//!   reusable scoring scratch, bounded top-k;
//! * [`query`] — boolean keyword and conjunction processing (posting-list
//!   merge on URL, then state — §5.3.2) and the ranking formula 5.3:
//!   `R = w1·PageRank + w2·AJAXRank + w3·Σ tf·idf + w4·proximity`;
//! * [`segment`] — the compressed, mmap-able on-disk segment (format v4):
//!   delta+varint posting runs and position stream, front-coded
//!   dictionary, all addressable in place behind the durable frame, each
//!   run decoded once on first touch;
//! * [`shard`] — query shipping over per-partition indexes with the global
//!   idf computed at merge time from per-shard `(N, df)` counts (§6.5.2);
//! * [`persist`] — saving an index as a v4 segment and opening it mapped;
//!   model files.
//!
//! What `search`, `search_top_k` and the broker must return is stated by
//! the brute-force scorer in `tests/spec/mod.rs`. The layout,
//! determinism contract, and on-disk format history are documented in
//! `docs/index-internals.md`.
//!
//! Result aggregation (state reconstruction) lives in `ajax_crawl::replay`,
//! since it re-drives the crawler's browser.

pub mod aggregate;
pub mod dict;
pub mod invert;
pub mod kernel;
pub mod persist;
pub mod probe;
pub mod query;
pub mod segment;
pub mod shard;
pub mod tokenize;

pub use aggregate::{locate_terms, ElementHit};
pub use dict::{TermDict, TermId};
pub use invert::{
    build_index, build_index_parallel, DocKey, IndexBuildError, IndexBuilder, InvertedIndex,
    PostingList,
};
pub use kernel::ScoreScratch;
pub use persist::{
    load_index, load_models, save_index, save_models, PersistError, INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
};
pub use query::{search, search_top_k, Query, RankWeights, SearchResult};
pub use shard::{
    eval_shard, eval_shard_into, merge_hits, merge_shard_outputs, BrokerResult, QueryBroker,
    ShardHits, ShardResult, ShardTermStats,
};
pub use tokenize::tokenize;
