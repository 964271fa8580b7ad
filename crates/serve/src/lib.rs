//! # ajax-serve
//!
//! A long-lived, concurrent query-serving layer over the sharded index of
//! thesis §6.4–6.5. Where [`ajax_index::QueryBroker`] evaluates one query at
//! a time on the calling thread, [`ShardServer`] keeps a pool of worker
//! threads per shard and lets many clients search at once:
//!
//! * **shard worker pools** ([`pool`]) — each shard owns a bounded MPMC job
//!   queue consumed by one or more `std::thread` workers, so a single query
//!   fans out to all shards in parallel and the calling thread only performs
//!   the global-idf merge of Fig 6.4;
//! * **query result cache** ([`cache`]) — an LRU keyed by the normalized
//!   query terms plus the exact rank weights, with hit/miss/eviction
//!   counters and explicit invalidation on index reload;
//! * **admission control & graceful degradation** ([`server`]) — a bounded
//!   in-flight gate that sheds excess load with a typed
//!   [`ServeError::Overloaded`], per-query deadlines (wall or virtual clock,
//!   [`clock`]) and a partial-results mode that merges whatever shards
//!   answered in time, flagging the response as degraded;
//! * **metrics registry** ([`metrics`]) — lock-free counters and a latency
//!   histogram (p50/p95/p99), exposed as a serde-serializable snapshot;
//! * **shard transport seam** ([`transport`]) — per-shard evaluation sits
//!   behind the [`ShardTransport`] trait, so the same server fronts local
//!   worker pools or remote shard *processes* (`ajax-dist`) without
//!   changing any edge logic.
//!
//! The worker path runs `QueryBroker::search`'s own two calls: workers fill
//! a [`ajax_index::ShardHits`] batch with [`ajax_index::eval_shard_into`]
//! (one scratch per worker), and the caller ranks the batches with
//! [`ajax_index::merge_hits`], so parallel serving is **bit-for-bit
//! identical** to sequential evaluation (same floating-point expressions,
//! one total rank order).

pub mod cache;
pub mod clock;
pub mod metrics;
pub(crate) mod pool;
pub mod server;
pub mod transport;

pub use cache::QueryCache;
pub use clock::{ManualClock, ServeClock};
pub use metrics::{Metrics, MetricsSnapshot};
pub use server::{ServeConfig, ServeError, ServeResponse, ShardServer};
pub use transport::{Rendezvous, ShardOutcome, ShardTransport, TransportError};
