//! # ajax-crawl
//!
//! The primary contribution of *AJAX Crawl: Making AJAX Applications
//! Searchable* (Matter, ICDE'09 submission): a crawler that explores an AJAX
//! application **by invoking user events** and builds the application model —
//! a transition graph whose nodes are application states (DOM trees) and
//! whose edges are event-annotated transitions — instead of stopping at the
//! single HTML document a traditional crawler sees.
//!
//! The crate provides:
//!
//! * [`model`] — states, transitions, the per-page [`model::AppModel`] and
//!   per-site link graph (thesis ch. 2);
//! * [`browser`] — the embedded "browser": `ajax-dom` document + `ajax-js`
//!   interpreter + an XHR host object wired to `ajax-net`, with the
//!   hot-node interception point (thesis §4.4);
//! * [`hotnode`] — the hot-node cache keyed by `(function, actual args)`
//!   (thesis ch. 4);
//! * [`crawler`] — the breadth-first crawling algorithms: traditional
//!   (JS off, first state only), basic AJAX (Alg. 3.1.1) and heuristic AJAX
//!   with hot-node caching (Alg. 4.2.1), with duplicate-state detection via
//!   content hashing and per-page virtual-time traces;
//! * [`pagerank`] — power-iteration PageRank shared by the precrawler (page
//!   graph) and the indexer's AJAXRank (state graph);
//! * [`precrawl`] — the Precrawling phase: hyperlink graph + PageRank
//!   (thesis §6.2);
//! * [`partition`] — the URLPartitioner (thesis §6.2.2);
//! * [`parallel`] — `MpCrawler`, the multi-process-line parallel crawler
//!   (thesis §6.3), running truly in parallel via crossbeam while mapping
//!   work onto deterministic virtual time via `ajax-net`'s scheduler.

pub mod analysis;
pub mod browser;
#[cfg(test)]
mod browser_tests;
pub mod checkpoint;
pub mod crawler;
pub mod durable;
pub mod hotnode;
pub(crate) mod mapfile;
pub mod model;
pub mod pagerank;
pub mod parallel;
pub mod partition;
pub mod planner;
pub mod precrawl;
pub mod recrawl;
pub mod replay;

pub use analysis::{analyze_page, canonical_signature, PageAnalysis, ParsedPage};
pub use browser::Browser;
pub use checkpoint::{CheckpointError, CheckpointStats, Checkpointer, ResumeState};
pub use crawler::{CrawlConfig, CrawlError, Crawler, PageCrawl, PageStats, RetryPolicy};
pub use durable::DurableError;
pub use hotnode::HotNodeCache;
pub use model::{AppModel, State, StateId, Transition};
pub use pagerank::pagerank;
pub use parallel::{MpCrawler, MpReport};
pub use partition::{partition_urls, Partition};
pub use planner::Prune;
pub use precrawl::{LinkGraph, Precrawler};
pub use replay::{reconstruct_state, ReplayError};
