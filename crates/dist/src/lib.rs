//! # ajax-dist
//!
//! Distributed serving: the doc-partitioned query processing of thesis
//! §6.4–6.5 promoted from threads in one process (`ajax-serve`) to
//! **independent shard processes exchanging small messages** over localhost
//! TCP.
//!
//! * [`proto`] — the length-prefixed binary frame format: fixed-width
//!   little-endian payloads carrying `f64` as raw bits, correlation ids
//!   for pipelining, and a reply that is one `ShardHits` batch on both ends;
//! * [`shard`] — the shard server: one index partition behind a listener,
//!   evaluating queries with `eval_shard_into` and returning local results
//!   plus the `(|Idx|, df)` stats for merge-time global idf;
//! * [`transport`] — the coordinator's [`TcpTransport`], an
//!   `ajax_serve::ShardTransport`: pipelined query shipping, per-shard
//!   reader threads, reconnect with exponential backoff, and hedged
//!   requests for slow shards over a fresh direct connection;
//! * [`cluster`] — assembly: contiguous model partitioning, thread- or
//!   process-mode shard launch, optional [`ajax_net::FaultProxy`] chaos
//!   layer per shard, and a coordinating `ShardServer` carrying all the
//!   single-process edge logic.
//!
//! The load-bearing invariant, inherited from the in-process path and
//! enforced by the equivalence tests: for any shard count, the coordinator's
//! merged ranking is **bit-identical** to single-process evaluation — global
//! idf comes from exact integer sums (order-free), per-document base scores
//! are shard-local, and the wire preserves every float bit.

pub mod cluster;
pub mod error;
pub mod proto;
pub mod shard;
pub mod transport;

pub use cluster::{partition_models, ClusterConfig, DistCluster};
pub use error::DistError;
pub use shard::{bind_shard, serve_shard, ShardHandle};
pub use transport::{ShardEndpoint, TcpTransport, TcpTransportConfig};
