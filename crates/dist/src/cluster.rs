//! Cluster assembly: partition → shards → transport → coordinator.
//!
//! [`DistCluster`] wires the pieces into a running doc-partitioned search
//! tier: N shard servers (in-process threads or forked child processes),
//! an optional chaos proxy per shard ([`ajax_net::FaultProxy`]), a
//! [`TcpTransport`] connected through the proxies, and a coordinating
//! [`ShardServer`] that keeps all of PR 1's edge logic — admission, cache,
//! deadlines, degraded partial results — while evaluation happens across
//! the wire.
//!
//! Partitioning is contiguous ([`partition_models`]): the first
//! `⌈n/N⌉` models land on shard 0, and so on — the same document
//! partitioning discipline as the in-process broker. Because merge-time
//! global idf is computed from exact integer sums and per-document scores
//! are purely local, the merged ranking is bit-identical for **every**
//! shard count, which the equivalence tests pin down.

use crate::error::DistError;
use crate::shard::ShardHandle;
use crate::transport::{ShardEndpoint, TcpTransport, TcpTransportConfig};
use ajax_crawl::model::AppModel;
use ajax_index::{build_index, persist, InvertedIndex, RankWeights};
use ajax_net::{FaultProxy, ProxyConfig};
use ajax_obs::SpanLog;
use ajax_serve::{ServeConfig, ShardServer};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Splits `models` into `shards` contiguous chunks and builds one inverted
/// index per chunk. Empty tail shards (more shards than models) get empty
/// indexes — a legal, if silly, deployment.
pub fn partition_models(
    models: &[AppModel],
    pagerank: impl Fn(&str) -> Option<f64>,
    shards: usize,
    max_states: Option<usize>,
) -> Vec<InvertedIndex> {
    let shards = shards.max(1);
    let chunk = models.len().div_ceil(shards).max(1);
    let mut partitions: Vec<InvertedIndex> = models
        .chunks(chunk)
        .map(|slice| {
            let refs: Vec<(&AppModel, Option<f64>)> =
                slice.iter().map(|m| (m, pagerank(&m.url))).collect();
            build_index(&refs, max_states)
        })
        .collect();
    while partitions.len() < shards {
        partitions.push(InvertedIndex::default());
    }
    partitions
}

/// How to run a cluster.
#[derive(Default)]
pub struct ClusterConfig {
    /// Coordinator (edge-logic) configuration.
    pub serve: ServeConfig,
    /// Hedge delay for slow shards; `None` disables hedging.
    pub hedge_after_micros: Option<u64>,
    /// Chaos proxies: when set, each shard gets a [`FaultProxy`] in front of
    /// it driven by this config. The plan's URL patterns see
    /// `fault://shard<i>/accept` and `fault://shard<i>/reply`, so rules can
    /// target one shard (`FaultRule::matching("shard1/reply", …)`).
    pub chaos: Option<ProxyConfig>,
}

enum ShardRuntime {
    /// In-process listener thread; `None` after a deliberate kill.
    Thread {
        handle: Option<ShardHandle>,
        index: Arc<InvertedIndex>,
        addr: SocketAddr,
    },
    /// A forked `ajax-search shard` child.
    Process {
        child: std::process::Child,
        index_path: PathBuf,
        addr: SocketAddr,
    },
}

impl Drop for ShardRuntime {
    /// Reaps the shard wherever the runtime is dropped — including the
    /// error paths of [`DistCluster::launch_processes`] and
    /// [`DistCluster::assemble`], where earlier-spawned children would
    /// otherwise outlive the failed launch as orphans. Kill and wait are
    /// both idempotent, so running after [`DistCluster::shutdown`] is safe.
    fn drop(&mut self) {
        match self {
            ShardRuntime::Thread { handle, .. } => {
                if let Some(mut h) = handle.take() {
                    h.kill();
                }
            }
            ShardRuntime::Process {
                child, index_path, ..
            } => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(index_path);
            }
        }
    }
}

/// Holds a freshly spawned shard child until its banner is parsed; on any
/// failure before the hand-off to [`ShardRuntime`], drop kills + waits the
/// child and removes its index file, so a half-launched cluster never
/// leaves orphan processes or temp indexes behind.
struct SpawnGuard {
    child: Option<std::process::Child>,
    index_path: PathBuf,
}

impl SpawnGuard {
    fn into_parts(mut self) -> (std::process::Child, PathBuf) {
        (
            self.child.take().expect("guard armed"),
            std::mem::take(&mut self.index_path),
        )
    }
}

impl Drop for SpawnGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        if !self.index_path.as_os_str().is_empty() {
            let _ = std::fs::remove_file(&self.index_path);
        }
    }
}

/// A running distributed search tier. `server` is the coordinator — query
/// it exactly like a single-process [`ShardServer`].
pub struct DistCluster {
    pub server: ShardServer,
    shards: Vec<ShardRuntime>,
    proxies: Vec<FaultProxy>,
    hedges: Arc<AtomicU64>,
}

impl DistCluster {
    /// Launches shards as in-process listener threads (tests, benches).
    pub fn launch_threads(
        partitions: Vec<InvertedIndex>,
        weights: RankWeights,
        config: ClusterConfig,
    ) -> Result<Self, DistError> {
        let trace = config.serve.trace.then(|| {
            Arc::new(Mutex::new(SpanLog::with_capacity(
                ajax_obs::DEFAULT_CAPACITY,
            )))
        });
        let mut shards = Vec::with_capacity(partitions.len());
        for (i, partition) in partitions.into_iter().enumerate() {
            let index = Arc::new(partition);
            let handle = ShardHandle::spawn(Arc::clone(&index), i, 0, trace.clone())?;
            let addr = handle.addr;
            shards.push(ShardRuntime::Thread {
                handle: Some(handle),
                index,
                addr,
            });
        }
        Self::assemble(shards, weights, config, trace)
    }

    /// Launches shards as child processes of `exe` (the `ajax-search`
    /// binary): each gets its partition saved to a temp file and is spawned
    /// as `exe shard --index FILE --shard-id I --port P`. With
    /// `base_port = None` children bind ephemeral ports and report them on
    /// stdout (`LISTENING <addr>`); with `Some(p)` shard `i` binds `p + i`.
    pub fn launch_processes(
        exe: &Path,
        partitions: Vec<InvertedIndex>,
        weights: RankWeights,
        config: ClusterConfig,
        base_port: Option<u16>,
    ) -> Result<Self, DistError> {
        let mut shards = Vec::with_capacity(partitions.len());
        for (i, partition) in partitions.into_iter().enumerate() {
            let index_path = std::env::temp_dir().join(format!(
                "ajax-dist-{}-shard{}.json",
                std::process::id(),
                i
            ));
            persist::save_index(&index_path, &partition)
                .map_err(|e| DistError::Spawn(format!("save shard {i} index: {e}")))?;
            let port = base_port.map_or(0, |p| p + i as u16);
            let mut guard = SpawnGuard {
                child: None,
                index_path,
            };
            guard.child = Some(
                std::process::Command::new(exe)
                    .arg("shard")
                    .arg("--index")
                    .arg(&guard.index_path)
                    .arg("--shard-id")
                    .arg(i.to_string())
                    .arg("--port")
                    .arg(port.to_string())
                    .stdout(std::process::Stdio::piped())
                    .stderr(std::process::Stdio::inherit())
                    .spawn()
                    .map_err(|e| DistError::Spawn(format!("exec {}: {e}", exe.display())))?,
            );
            // The child prints "LISTENING <addr>" once bound.
            let stdout = guard
                .child
                .as_mut()
                .expect("guard armed")
                .stdout
                .take()
                .ok_or_else(|| DistError::Spawn("child stdout not captured".to_string()))?;
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| DistError::Spawn(format!("read shard {i} banner: {e}")))?;
            let addr: SocketAddr = line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    DistError::Spawn(format!(
                        "shard {i} did not report its address (got {line:?})"
                    ))
                })?;
            let (child, index_path) = guard.into_parts();
            shards.push(ShardRuntime::Process {
                child,
                index_path,
                addr,
            });
        }
        Self::assemble(shards, weights, config, None)
    }

    fn assemble(
        shards: Vec<ShardRuntime>,
        weights: RankWeights,
        config: ClusterConfig,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Result<Self, DistError> {
        let mut proxies = Vec::new();
        let mut endpoints = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let direct = shard_addr(shard);
            let addr = match &config.chaos {
                Some(proxy_config) => {
                    let proxy =
                        FaultProxy::spawn(direct, format!("shard{i}"), proxy_config.clone())
                            .map_err(DistError::Io)?;
                    let addr = proxy.addr;
                    proxies.push(proxy);
                    addr
                }
                None => direct,
            };
            endpoints.push(ShardEndpoint {
                addr,
                direct_addr: direct,
            });
        }
        let transport = TcpTransport::connect(
            endpoints,
            TcpTransportConfig {
                hedge_after_micros: config.hedge_after_micros,
                trace: trace.clone(),
            },
        )?;
        let hedges = transport.hedge_counter();
        let server = ShardServer::from_transport(Box::new(transport), weights, config.serve, trace);
        Ok(Self {
            server,
            shards,
            proxies,
            hedges,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// OS pids of process-mode shard children (empty in thread mode) —
    /// lets operators and tests verify the children are reaped.
    pub fn process_pids(&self) -> Vec<u32> {
        self.shards
            .iter()
            .filter_map(|s| match s {
                ShardRuntime::Process { child, .. } => Some(child.id()),
                ShardRuntime::Thread { .. } => None,
            })
            .collect()
    }

    /// Hedge requests issued so far.
    pub fn hedges_fired(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Crashes shard `i` (thread mode): the listener stops and every live
    /// connection is severed, exactly like a killed process.
    pub fn kill_shard(&mut self, i: usize) {
        if let Some(ShardRuntime::Thread { handle, .. }) = self.shards.get_mut(i) {
            if let Some(mut h) = handle.take() {
                h.kill();
            }
        }
    }

    /// Restarts a killed shard (thread mode) on its original port, serving
    /// the same partition. The coordinator's reconnect backoff re-adopts it.
    pub fn restart_shard(&mut self, i: usize) -> Result<(), DistError> {
        if let Some(ShardRuntime::Thread {
            handle,
            index,
            addr,
        }) = self.shards.get_mut(i)
        {
            if handle.is_none() {
                *handle = Some(ShardHandle::spawn(Arc::clone(index), i, addr.port(), None)?);
            }
        }
        Ok(())
    }

    /// Stops the coordinator, proxies, and shards, in that order.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        for proxy in &mut self.proxies {
            proxy.shutdown();
        }
        for shard in &mut self.shards {
            match shard {
                ShardRuntime::Thread { handle, .. } => {
                    if let Some(mut h) = handle.take() {
                        h.kill();
                    }
                }
                ShardRuntime::Process {
                    child, index_path, ..
                } => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(index_path);
                }
            }
        }
    }
}

impl Drop for DistCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shard_addr(shard: &ShardRuntime) -> SocketAddr {
    match shard {
        ShardRuntime::Thread { addr, .. } | ShardRuntime::Process { addr, .. } => *addr,
    }
}
