//! In-process shard worker pools — the local [`ShardTransport`].
//!
//! Each shard owns one MPMC job queue (`Mutex<VecDeque>` + `Condvar`)
//! consumed by `workers_per_shard` OS threads. [`PoolTransport::ship`]
//! pushes one job per shard; each worker runs [`ajax_index::eval_shard_into`]
//! with its own scoring scratch against its shard's current index and
//! delivers the filled batch into the
//! per-query [`Rendezvous`] slot indexed by shard, where the calling thread
//! collects them before merging.
//!
//! Workers always deliver *something* for every job they pop — a result, a
//! `TimedOut` marker when the job's deadline already passed, or `Failed` if
//! evaluation panicked — so an admitted query can never be silently lost.

use crate::clock::ServeClock;
use crate::metrics::Metrics;
use crate::server::ServeConfig;
use crate::transport::{Rendezvous, ShardOutcome, ShardTransport, TransportError};
use ajax_index::{eval_shard_into, InvertedIndex, Query, RankWeights, ScoreScratch, ShardHits};
use ajax_net::Micros;
use ajax_obs::{AttrValue, SpanLog};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// One unit of shard work, or the shutdown pill.
pub(crate) enum Job {
    Eval {
        query: Arc<Query>,
        weights: RankWeights,
        /// Absolute deadline on the server's clock, if any.
        deadline: Option<Micros>,
        reply: Arc<Rendezvous>,
    },
    Shutdown,
}

/// The MPMC channel one shard's workers consume from.
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available_cv: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            available_cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.jobs.lock().unwrap().push_back(job);
        self.available_cv.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.available_cv.wait(jobs).unwrap();
        }
    }
}

/// One shard's queue, swappable index, and worker threads.
pub(crate) struct ShardPool {
    queue: Arc<JobQueue>,
    /// Double `Arc` so workers take a cheap snapshot of the current index
    /// (`Arc<InvertedIndex>`) and an in-progress reload never blocks behind
    /// a long evaluation.
    index: Arc<RwLock<Arc<InvertedIndex>>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `workers` threads over `index` for shard `shard_idx`.
    pub(crate) fn spawn(
        shard_idx: usize,
        index: InvertedIndex,
        workers: usize,
        clock: ServeClock,
        metrics: Arc<Metrics>,
        eval_cost_micros: Micros,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Self {
        let queue = Arc::new(JobQueue::new());
        let index = Arc::new(RwLock::new(Arc::new(index)));
        let handles = (0..workers.max(1))
            .map(|w| {
                let queue = Arc::clone(&queue);
                let index = Arc::clone(&index);
                let clock = clock.clone();
                let metrics = Arc::clone(&metrics);
                let trace = trace.clone();
                std::thread::Builder::new()
                    .name(format!("ajax-serve-s{shard_idx}w{w}"))
                    .spawn(move || {
                        worker_loop(
                            shard_idx,
                            &queue,
                            &index,
                            &clock,
                            &metrics,
                            eval_cost_micros,
                            trace,
                        )
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        Self {
            queue,
            index,
            workers: handles,
        }
    }

    /// Enqueues a job (and maintains the shard's queue-depth gauge).
    pub(crate) fn submit(&self, shard_idx: usize, job: Job, metrics: &Metrics) {
        metrics.shard_queue_depth[shard_idx].fetch_add(1, Ordering::Relaxed);
        self.queue.push(job);
    }

    /// Swaps in a new index; subsequent jobs evaluate against it.
    pub(crate) fn swap_index(&self, index: InvertedIndex) {
        *self.index.write().unwrap() = Arc::new(index);
    }

    /// Current index snapshot (diagnostics).
    pub(crate) fn index(&self) -> Arc<InvertedIndex> {
        self.index.read().unwrap().clone()
    }

    /// Sends one shutdown pill per worker and joins them.
    pub(crate) fn shutdown(&mut self) {
        for _ in 0..self.workers.len() {
            self.queue.push(Job::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    shard_idx: usize,
    queue: &JobQueue,
    index: &RwLock<Arc<InvertedIndex>>,
    clock: &ServeClock,
    metrics: &Metrics,
    eval_cost_micros: Micros,
    trace: Option<Arc<Mutex<SpanLog>>>,
) {
    // Every buffer evaluation needs, kept across jobs.
    let mut scratch = ScoreScratch::new();
    loop {
        let job = queue.pop();
        let Job::Eval {
            query,
            weights,
            deadline,
            reply,
        } = job
        else {
            return;
        };
        metrics.shard_queue_depth[shard_idx].fetch_sub(1, Ordering::Relaxed);
        let eval_start = clock.now_micros();

        // `>=` so a zero-length deadline deterministically times out even
        // under a manual clock that never advances — the degraded path is
        // testable without real time.
        let expired = deadline.is_some_and(|d| clock.now_micros() >= d);
        let outcome = if expired {
            ShardOutcome::TimedOut
        } else {
            let snapshot = index.read().unwrap().clone();
            let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut batch = ShardHits::default();
                eval_shard_into(
                    &snapshot,
                    shard_idx,
                    &query,
                    &weights,
                    &mut scratch,
                    &mut batch,
                );
                batch
            }));
            // Under a manual clock, evaluation "costs" virtual time so load
            // tests can model slow shards deterministically.
            clock.advance(eval_cost_micros);
            match evaluated {
                Ok(batch) => ShardOutcome::Evaluated(batch),
                Err(_) => {
                    // The scratch may be poisoned mid-panic; start fresh.
                    scratch = ScoreScratch::new();
                    ShardOutcome::Failed
                }
            }
        };
        if let Some(trace) = &trace {
            let result = match &outcome {
                ShardOutcome::Evaluated(..) => "evaluated",
                ShardOutcome::TimedOut => "timed_out",
                ShardOutcome::Failed => "failed",
            };
            // Workers share the manual clock, so reading it back here could
            // count another shard's advance: under it the span lasts exactly
            // what this evaluation was charged.
            let end = match (clock.is_manual(), expired) {
                (true, true) => eval_start,
                (true, false) => eval_start + eval_cost_micros,
                (false, _) => clock.now_micros(),
            };
            let mut log = trace.lock().expect("trace ring lock");
            // Track 0 belongs to the server's admission/merge spans.
            log.set_track(shard_idx as u32 + 1);
            log.push(
                "shard.eval",
                eval_start,
                end,
                vec![
                    ("shard", AttrValue::U64(shard_idx as u64)),
                    ("result", AttrValue::str(result)),
                ],
            );
        }
        reply.deliver(shard_idx, outcome);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The in-process transport: one [`ShardPool`] per shard, sharing the
/// server's metrics registry and (optional) trace ring. This is what
/// [`ShardServer::new`](crate::ShardServer::new) builds; remote transports
/// come from `ajax-dist`.
pub(crate) struct PoolTransport {
    pools: Vec<ShardPool>,
    metrics: Arc<Metrics>,
    workers_per_shard: usize,
}

impl PoolTransport {
    /// Spawns `shards.len() × workers_per_shard` worker threads.
    pub(crate) fn spawn(
        shards: Vec<InvertedIndex>,
        config: &ServeConfig,
        metrics: Arc<Metrics>,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Self {
        let pools = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                ShardPool::spawn(
                    i,
                    shard,
                    config.workers_per_shard,
                    config.clock.clone(),
                    Arc::clone(&metrics),
                    config.eval_cost_micros,
                    trace.clone(),
                )
            })
            .collect();
        Self {
            pools,
            metrics,
            workers_per_shard: config.workers_per_shard,
        }
    }
}

impl ShardTransport for PoolTransport {
    fn shard_count(&self) -> usize {
        self.pools.len()
    }

    fn worker_count(&self) -> usize {
        self.pools.len() * self.workers_per_shard.max(1)
    }

    fn ship(
        &self,
        query: Arc<Query>,
        weights: RankWeights,
        deadline: Option<Micros>,
        reply: Arc<Rendezvous>,
    ) {
        for (shard_idx, pool) in self.pools.iter().enumerate() {
            pool.submit(
                shard_idx,
                Job::Eval {
                    query: Arc::clone(&query),
                    weights,
                    deadline,
                    reply: Arc::clone(&reply),
                },
                &self.metrics,
            );
        }
    }

    fn total_states(&self) -> u64 {
        self.pools.iter().map(|p| p.index().total_states).sum()
    }

    fn index_bytes(&self) -> u64 {
        self.pools
            .iter()
            .map(|p| p.index().approx_bytes() as u64)
            .sum()
    }

    fn index_mapped_bytes(&self) -> u64 {
        self.pools
            .iter()
            .map(|p| p.index().mapped_bytes() as u64)
            .sum()
    }

    fn reload(&self, shards: Vec<InvertedIndex>) -> Result<(), TransportError> {
        if shards.len() != self.pools.len() {
            return Err(TransportError::Unsupported(
                "reload with a different shard count",
            ));
        }
        for (pool, shard) in self.pools.iter().zip(shards) {
            pool.swap_index(shard);
        }
        Ok(())
    }

    fn shutdown(&mut self) {
        for pool in &mut self.pools {
            pool.shutdown();
        }
    }
}
