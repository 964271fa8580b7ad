//! The shard transport abstraction: *how* a query reaches its shards.
//!
//! [`ShardServer`](crate::ShardServer) owns a query's edge concerns —
//! admission, caching, deadlines, the global-idf merge — but is agnostic
//! about where shard evaluation actually happens. That seam is
//! [`ShardTransport`]: an implementor ships a query to every shard and
//! delivers each shard's [`ShardOutcome`] into a per-query [`Rendezvous`].
//!
//! Two implementations exist:
//!
//! * [`pool::PoolTransport`](crate::pool) — in-process worker pools, one per
//!   shard (the original `ajax-serve` path);
//! * `ajax_dist::TcpTransport` — remote shard *processes* behind a
//!   length-prefixed TCP protocol, with pipelined shipping and hedging.
//!
//! Both deliver outcomes into the same rendezvous and the caller merges them
//! with the broker's own `merge_hits`, so every transport inherits the
//! serving layer's bit-identical equivalence to the sequential
//! `QueryBroker`.

use ajax_index::{InvertedIndex, Query, RankWeights, ShardHits};
use ajax_net::Micros;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// What a shard (worker thread or remote process) reports back for one job.
#[derive(Debug)]
pub enum ShardOutcome {
    /// The shard's batch, scored with local bases until the merge.
    Evaluated(ShardHits),
    /// The job's deadline had already passed when the shard picked it up.
    TimedOut,
    /// Evaluation failed (worker panicked, connection died, …) — treated
    /// like a missed shard.
    Failed,
}

/// Per-query rendezvous: one slot per shard, filled by the transport,
/// drained by the caller. Lives in an `Arc` so a caller that gives up on a
/// deadline can walk away — late deliveries land in the abandoned state
/// harmlessly.
pub struct Rendezvous {
    slots: Mutex<Slots>,
    arrived_cv: Condvar,
}

struct Slots {
    /// The outcomes, until the caller takes them.
    replies: Vec<Option<ShardOutcome>>,
    /// Per shard, whether its outcome was delivered; stays when `replies`
    /// is taken.
    arrived: Vec<bool>,
    /// The caller took `replies` and left: nothing more is awaited.
    taken: bool,
}

impl Slots {
    fn all_arrived(&self) -> bool {
        self.arrived.iter().all(|arrived| *arrived)
    }

    fn take(&mut self) -> Vec<Option<ShardOutcome>> {
        self.taken = true;
        std::mem::take(&mut self.replies)
    }
}

impl Rendezvous {
    /// An empty rendezvous awaiting `shards` outcomes.
    pub fn new(shards: usize) -> Self {
        Self {
            slots: Mutex::new(Slots {
                replies: (0..shards).map(|_| None).collect(),
                arrived: vec![false; shards],
                taken: false,
            }),
            arrived_cv: Condvar::new(),
        }
    }

    /// Delivers one shard's outcome. First delivery per slot wins; a late or
    /// duplicate delivery (hedged request, post-abandonment worker) is a
    /// harmless no-op — never an out-of-bounds panic, which would kill the
    /// delivering thread.
    pub fn deliver(&self, shard: usize, outcome: ShardOutcome) {
        let mut slots = self.slots.lock().unwrap();
        let Slots {
            replies, arrived, ..
        } = &mut *slots;
        if let Some(slot) = replies.get_mut(shard) {
            if slot.is_none() {
                *slot = Some(outcome);
                arrived[shard] = true;
            }
        }
        self.arrived_cv.notify_all();
    }

    /// True when nothing more is wanted from `shard`: its outcome was
    /// delivered, or the caller has already left with what had arrived
    /// (hedging probes this before re-issuing a request).
    pub fn arrived(&self, shard: usize) -> bool {
        let slots = self.slots.lock().unwrap();
        slots
            .arrived
            .get(shard)
            .is_some_and(|arrived| *arrived || slots.taken)
    }

    /// Blocks until every shard has delivered, then takes the outcomes.
    /// Used on the no-deadline and manual-clock paths, where the transport
    /// guarantees a delivery per shard (possibly `TimedOut`/`Failed`).
    pub fn wait_all(&self) -> Vec<Option<ShardOutcome>> {
        let mut slots = self.slots.lock().unwrap();
        while !slots.all_arrived() {
            slots = self.arrived_cv.wait(slots).unwrap();
        }
        slots.take()
    }

    /// Blocks until every shard has delivered or `now()` reaches `deadline`,
    /// then takes whatever arrived. `now` is sampled through the caller's
    /// clock so wall- and virtual-time servers share this code.
    pub fn wait_until(
        &self,
        now: impl Fn() -> Micros,
        deadline: Micros,
    ) -> Vec<Option<ShardOutcome>> {
        let mut slots = self.slots.lock().unwrap();
        while !slots.all_arrived() {
            let t = now();
            if t >= deadline {
                break;
            }
            let wait = std::time::Duration::from_micros(deadline - t);
            let (guard, _timeout) = self.arrived_cv.wait_timeout(slots, wait).unwrap();
            slots = guard;
        }
        slots.take()
    }
}

/// Why a transport operation failed or was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// The operation is not meaningful for this transport (e.g. hot
    /// reloading remote shard processes over the wire).
    Unsupported(&'static str),
    /// The transport's underlying channel failed.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unsupported(what) => write!(f, "unsupported: {what}"),
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Ships queries to shards. Implementors must deliver exactly one
/// [`ShardOutcome`] per shard into `reply` for every `ship` call —
/// eventually, even on failure — unless the caller abandons the rendezvous
/// first (wall-clock deadline). Outcomes may arrive in any order; the caller
/// collects them **in shard index order**, which is what keeps merged scores
/// bit-identical to the sequential broker.
pub trait ShardTransport: Send + Sync {
    /// Number of shards behind this transport.
    fn shard_count(&self) -> usize;

    /// Total evaluation lanes (worker threads, connections, …) —
    /// diagnostics only.
    fn worker_count(&self) -> usize;

    /// Ships `query` to every shard. `deadline` is absolute on the server's
    /// clock; transports may use it to give up early (delivering `TimedOut`)
    /// or to bound hedged retries.
    fn ship(
        &self,
        query: Arc<Query>,
        weights: RankWeights,
        deadline: Option<Micros>,
        reply: Arc<Rendezvous>,
    );

    /// Total states across shards (the global `|D|`).
    fn total_states(&self) -> u64;

    /// Honest resident size of the shards in bytes (metrics gauge).
    fn index_bytes(&self) -> u64;

    /// Bytes served from mmap-ed v4 segments across shards (metrics gauge;
    /// 0 when every shard is resident). Remote transports that cannot see
    /// their shards' backing keep the default.
    fn index_mapped_bytes(&self) -> u64 {
        0
    }

    /// Swaps in freshly built shard indexes (same count, caller-validated).
    fn reload(&self, shards: Vec<InvertedIndex>) -> Result<(), TransportError>;

    /// Stops the transport's threads/connections. Idempotent.
    fn shutdown(&mut self);

    /// True when shards live in other processes — the server then labels its
    /// merge span `dist.merge` instead of `serve.merge`.
    fn is_remote(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_delivery_after_deadline_abandonment_is_dropped() {
        let state = Rendezvous::new(2);
        state.deliver(0, ShardOutcome::TimedOut);
        // Deadline 0 is already past, so the caller takes whatever arrived
        // and walks away.
        let taken = state.wait_until(|| 1, 0);
        assert_eq!(taken.len(), 2);
        assert!(taken[0].is_some());
        assert!(taken[1].is_none());
        // A slow worker replying after abandonment must be a harmless no-op
        // (this used to index the taken-away Vec out of bounds and panic).
        state.deliver(1, ShardOutcome::TimedOut);
        state.deliver(0, ShardOutcome::Failed);
    }

    #[test]
    fn duplicate_delivery_keeps_first_reply() {
        let state = Rendezvous::new(1);
        state.deliver(0, ShardOutcome::TimedOut);
        state.deliver(0, ShardOutcome::Failed);
        let taken = state.wait_all();
        assert!(matches!(taken[0], Some(ShardOutcome::TimedOut)));
    }

    #[test]
    fn arrived_tracks_slots() {
        let state = Rendezvous::new(3);
        assert!(!state.arrived(1));
        state.deliver(1, ShardOutcome::Failed);
        assert!(state.arrived(1));
        assert!(!state.arrived(0));
        assert!(!state.arrived(7), "out-of-range probe is just false");
    }

    #[test]
    fn arrived_outlives_the_taking_of_the_replies() {
        // A hedge timer firing after the query completed must read the
        // request as finished, not as never answered.
        let state = Rendezvous::new(2);
        state.deliver(0, ShardOutcome::Failed);
        state.deliver(1, ShardOutcome::TimedOut);
        assert_eq!(state.wait_all().len(), 2);
        assert!(state.arrived(0) && state.arrived(1));

        // Likewise after a deadline abandonment: the caller is gone, so
        // the silent shard is not worth a second request either.
        let state = Rendezvous::new(2);
        state.deliver(0, ShardOutcome::Failed);
        let taken = state.wait_until(|| 1, 0);
        assert!(taken[1].is_none());
        assert!(state.arrived(0) && state.arrived(1));
        assert!(!state.arrived(7));
    }
}
