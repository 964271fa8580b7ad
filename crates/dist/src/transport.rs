//! [`TcpTransport`]: the coordinator's side of the wire.
//!
//! One persistent connection per shard. `ship` assigns the query one
//! correlation id, encodes its `Eval` frame once, registers the query's
//! [`Rendezvous`] as pending on every connection, and writes the same bytes
//! to each shard back-to-back — queries *pipeline*: many can be in flight
//! per connection, and a dedicated reader thread per shard routes each
//! reply to its rendezvous by id, in whatever order shards answer.
//!
//! Failure semantics:
//!
//! * **connection death** — every pending query on that connection is
//!   delivered `Failed` (the coordinator degrades those responses), then the
//!   reader reconnects with exponential backoff (5 ms doubling, capped at
//!   500 ms) and re-handshakes. Queries shipped while disconnected fail fast
//!   instead of queueing.
//! * **hedging** — with `hedge_after_micros` set, a watchdog re-issues the
//!   query for every shard still unanswered after the hedge delay, on a
//!   *fresh direct connection* to the shard (`direct_addr`, bypassing any
//!   chaos proxy in `addr`). The rendezvous keeps the first delivery per
//!   shard, so hedging can only improve latency — never change results.

use crate::error::DistError;
use crate::proto::{
    encode_eval, read_message, write_message, Frame, FrameReader, Message, ShardInfo, PROTO_VERSION,
};
use ajax_index::{InvertedIndex, Query, RankWeights, ShardHits};
use ajax_net::Micros;
use ajax_obs::{AttrValue, SpanLog};
use ajax_serve::{Rendezvous, ShardOutcome, ShardTransport, TransportError};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where one shard lives.
#[derive(Debug, Clone, Copy)]
pub struct ShardEndpoint {
    /// The address queries normally go through (may be a chaos proxy).
    pub addr: SocketAddr,
    /// The shard's real address — the hedge path connects here directly.
    pub direct_addr: SocketAddr,
}

impl ShardEndpoint {
    /// An endpoint with no proxy in front.
    pub fn direct(addr: SocketAddr) -> Self {
        Self {
            addr,
            direct_addr: addr,
        }
    }
}

/// Tunables for [`TcpTransport::connect`].
#[derive(Default)]
pub struct TcpTransportConfig {
    /// Re-issue a query to shards still silent after this many µs, over a
    /// fresh direct connection. `None` disables hedging.
    pub hedge_after_micros: Option<u64>,
    /// Shared flight-recorder ring for `rpc.send` / `rpc.recv` /
    /// `dist.hedge` spans (pass the same ring to
    /// `ShardServer::from_transport` for one combined timeline).
    pub trace: Option<Arc<Mutex<SpanLog>>>,
}

struct ShardConn {
    shard_idx: usize,
    endpoint: ShardEndpoint,
    /// Write half; `None` while the reader is reconnecting, so shipping
    /// fails fast instead of queueing on a dead socket.
    writer: Mutex<Option<TcpStream>>,
    /// In-flight queries awaiting replies, by correlation id.
    pending: Mutex<HashMap<u64, Arc<Rendezvous>>>,
    info: Mutex<ShardInfo>,
    shutting_down: Arc<AtomicBool>,
    trace: Option<Arc<Mutex<SpanLog>>>,
    epoch: Instant,
}

impl ShardConn {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Coordinator-side spans go on track 0 with the server's own spans.
    fn record_span(&self, name: &'static str, start: u64, end: u64, id: u64) {
        if let Some(trace) = &self.trace {
            let mut log = trace.lock().expect("transport trace lock");
            log.set_track(0);
            log.push(
                name,
                start,
                end,
                vec![
                    ("shard", AttrValue::U64(self.shard_idx as u64)),
                    ("id", AttrValue::U64(id)),
                ],
            );
        }
    }

    /// Fails every pending query on this connection (connection death).
    fn fail_pending(&self) {
        for (_, reply) in self.pending.lock().unwrap().drain() {
            reply.deliver(self.shard_idx, ShardOutcome::Failed);
        }
    }
}

/// The remote shard transport. Build with [`TcpTransport::connect`], then
/// hand to `ShardServer::from_transport`.
pub struct TcpTransport {
    conns: Vec<Arc<ShardConn>>,
    hedge_after_micros: Option<u64>,
    next_id: AtomicU64,
    hedges_fired: Arc<AtomicU64>,
    shutting_down: Arc<AtomicBool>,
    readers: Vec<JoinHandle<()>>,
}

/// Connects with a few quick retries — shard processes may still be coming
/// up when the coordinator starts.
fn connect_retry(addr: SocketAddr) -> Result<TcpStream, DistError> {
    let mut last_err = None;
    for attempt in 0..40u32 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
        std::thread::sleep(Duration::from_millis(5 + u64::from(attempt) * 5));
    }
    Err(DistError::Connect {
        addr,
        source: last_err.unwrap_or_else(|| std::io::Error::from(std::io::ErrorKind::TimedOut)),
    })
}

/// Ping → Pong identity exchange on a fresh connection.
fn handshake(stream: &mut TcpStream, addr: SocketAddr) -> Result<ShardInfo, DistError> {
    write_message(stream, &Message::Ping).map_err(|e| DistError::Handshake {
        addr,
        detail: e.to_string(),
    })?;
    match read_message(stream) {
        Ok(Message::Pong(info)) => {
            if info.proto_version != PROTO_VERSION {
                return Err(DistError::Handshake {
                    addr,
                    detail: format!(
                        "protocol version mismatch: coordinator speaks {PROTO_VERSION}, shard speaks {}",
                        info.proto_version
                    ),
                });
            }
            Ok(info)
        }
        Ok(other) => Err(DistError::Handshake {
            addr,
            detail: format!("expected Pong, got {other:?}"),
        }),
        // A shard of another protocol version lands here: its Pong does not
        // decode as this version's.
        Err(e) => Err(DistError::Handshake {
            addr,
            detail: format!("no protocol version {PROTO_VERSION} Pong: {e}"),
        }),
    }
}

impl TcpTransport {
    /// Connects to every endpoint (in shard order), handshakes, and starts
    /// one reader thread per shard.
    pub fn connect(
        endpoints: Vec<ShardEndpoint>,
        config: TcpTransportConfig,
    ) -> Result<Self, DistError> {
        if endpoints.is_empty() {
            return Err(DistError::InvalidConfig(
                "a cluster needs at least one shard".to_string(),
            ));
        }
        let shutting_down = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut conns = Vec::with_capacity(endpoints.len());
        let mut readers = Vec::with_capacity(endpoints.len());
        for (shard_idx, endpoint) in endpoints.into_iter().enumerate() {
            let mut stream = connect_retry(endpoint.addr)?;
            let info = handshake(&mut stream, endpoint.addr)?;
            let read_half = stream.try_clone().map_err(DistError::Io)?;
            let conn = Arc::new(ShardConn {
                shard_idx,
                endpoint,
                writer: Mutex::new(Some(stream)),
                pending: Mutex::new(HashMap::new()),
                info: Mutex::new(info),
                shutting_down: Arc::clone(&shutting_down),
                trace: config.trace.clone(),
                epoch,
            });
            let reader_conn = Arc::clone(&conn);
            let reader = std::thread::Builder::new()
                .name(format!("ajax-dist-rx{shard_idx}"))
                .spawn(move || reader_loop(&reader_conn, read_half))
                .map_err(|e| DistError::Spawn(e.to_string()))?;
            conns.push(conn);
            readers.push(reader);
        }
        Ok(Self {
            conns,
            hedge_after_micros: config.hedge_after_micros,
            next_id: AtomicU64::new(1),
            hedges_fired: Arc::new(AtomicU64::new(0)),
            shutting_down,
            readers,
        })
    }

    /// Shared counter of hedge requests issued — clone the `Arc` before
    /// boxing the transport into a server if you want to read it later.
    pub fn hedge_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.hedges_fired)
    }

    /// Per-shard identities from the last handshake (diagnostics).
    pub fn shard_infos(&self) -> Vec<ShardInfo> {
        self.conns
            .iter()
            .map(|c| c.info.lock().unwrap().clone())
            .collect()
    }
}

fn reader_loop(conn: &Arc<ShardConn>, stream: TcpStream) {
    let mut reader = FrameReader::new(stream);
    loop {
        // `rpc.recv` runs from the arrival of a reply's first bytes to its
        // delivery, decode included; the wait before that is idle time.
        let arrived = reader.wait().map(|()| conn.now());
        let mut hits = ShardHits::default();
        match arrived.and_then(|t| reader.read(&mut hits).map(|frame| (t, frame))) {
            Ok((t, Frame::Reply(id))) => {
                let pending = conn.pending.lock().unwrap().remove(&id);
                if let Some(rendezvous) = pending {
                    rendezvous.deliver(conn.shard_idx, ShardOutcome::Evaluated(hits));
                    conn.record_span("rpc.recv", t, conn.now(), id);
                }
            }
            Ok((_, Frame::Message(Message::Error(err)))) => {
                let pending = conn.pending.lock().unwrap().remove(&err.id);
                if let Some(rendezvous) = pending {
                    rendezvous.deliver(conn.shard_idx, ShardOutcome::Failed);
                }
            }
            // Stray frames (e.g. a Pong from diagnostics) are ignored.
            Ok(_) => {}
            Err(_) => {
                // Connection died: fail in-flight queries, then reconnect
                // with backoff unless the transport is shutting down.
                *conn.writer.lock().unwrap() = None;
                conn.fail_pending();
                if conn.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                match reconnect_backoff(conn) {
                    Some(new_stream) => reader = FrameReader::new(new_stream),
                    None => return,
                }
            }
        }
    }
}

/// Exponential backoff reconnect: 5 ms doubling, capped at 500 ms per
/// attempt, forever — a crashed shard that comes back is re-adopted
/// automatically. Returns `None` when the transport shut down meanwhile.
fn reconnect_backoff(conn: &Arc<ShardConn>) -> Option<TcpStream> {
    let mut delay = Duration::from_millis(5);
    loop {
        if conn.shutting_down.load(Ordering::SeqCst) {
            return None;
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_millis(500));
        let Ok(mut stream) = TcpStream::connect(conn.endpoint.addr) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let Ok(info) = handshake(&mut stream, conn.endpoint.addr) else {
            continue;
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        *conn.info.lock().unwrap() = info;
        *conn.writer.lock().unwrap() = Some(stream);
        return Some(read_half);
    }
}

/// One synchronous hedge round-trip on a fresh direct connection, re-sending
/// the query's already encoded `Eval` frame.
fn hedge_eval(conn: &ShardConn, id: u64, eval_frame: &[u8]) -> std::io::Result<ShardHits> {
    let mut stream = TcpStream::connect(conn.endpoint.direct_addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(eval_frame)?;
    let mut reader = FrameReader::new(stream);
    let mut hits = ShardHits::default();
    loop {
        match reader.read(&mut hits)? {
            Frame::Reply(reply_id) if reply_id == id => return Ok(hits),
            Frame::Message(Message::Error(err)) if err.id == id => {
                return Err(std::io::Error::other(err.message))
            }
            _ => {}
        }
    }
}

impl ShardTransport for TcpTransport {
    fn shard_count(&self) -> usize {
        self.conns.len()
    }

    fn worker_count(&self) -> usize {
        // One connection (hence one pipelined lane) per shard.
        self.conns.len()
    }

    fn ship(
        &self,
        query: Arc<Query>,
        weights: RankWeights,
        _deadline: Option<Micros>,
        reply: Arc<Rendezvous>,
    ) {
        // `pending` is per connection, so one id serves every shard, and the
        // frame is the same bytes for each of them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut frame = Vec::with_capacity(128);
        let encoded = encode_eval(&mut frame, id, &query, &weights).is_ok();
        let mut shipped = Vec::with_capacity(self.conns.len());
        for conn in &self.conns {
            conn.pending.lock().unwrap().insert(id, Arc::clone(&reply));
            let send_start = conn.now();
            // Reconnecting (no writer): fail fast rather than queue on a
            // dead shard. The degraded response names this shard.
            let sent = encoded
                && conn
                    .writer
                    .lock()
                    .unwrap()
                    .as_mut()
                    .is_some_and(|stream| stream.write_all(&frame).is_ok());
            if sent {
                conn.record_span("rpc.send", send_start, conn.now(), id);
            } else {
                conn.pending.lock().unwrap().remove(&id);
                reply.deliver(conn.shard_idx, ShardOutcome::Failed);
            }
            shipped.push(sent);
        }

        // Hedge watchdog: after the delay, re-issue for silent shards on a
        // fresh direct connection. First delivery per shard wins, so this
        // never changes results — only tail latency.
        if let Some(hedge_after) = self.hedge_after_micros {
            let conns = self.conns.clone();
            let hedges = Arc::clone(&self.hedges_fired);
            let shutting_down = Arc::clone(&self.shutting_down);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(hedge_after));
                for (conn, &sent) in conns.iter().zip(&shipped) {
                    if !sent
                        || reply.arrived(conn.shard_idx)
                        || shutting_down.load(Ordering::SeqCst)
                    {
                        continue;
                    }
                    let start = conn.now();
                    hedges.fetch_add(1, Ordering::Relaxed);
                    let outcome = hedge_eval(conn, id, &frame);
                    conn.record_span("dist.hedge", start, conn.now(), id);
                    if let Ok(hits) = outcome {
                        // Drop the pending entry so the (slower) primary
                        // reply is ignored by the reader too.
                        conn.pending.lock().unwrap().remove(&id);
                        reply.deliver(conn.shard_idx, ShardOutcome::Evaluated(hits));
                    }
                }
            });
        }
    }

    fn total_states(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.info.lock().unwrap().total_states)
            .sum()
    }

    fn index_bytes(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.info.lock().unwrap().index_bytes)
            .sum()
    }

    fn reload(&self, _shards: Vec<InvertedIndex>) -> Result<(), TransportError> {
        Err(TransportError::Unsupported(
            "hot reload of remote shards — restart the shard processes with new partitions",
        ))
    }

    fn shutdown(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for conn in &self.conns {
            if let Some(stream) = conn.writer.lock().unwrap().take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            conn.fail_pending();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }

    fn is_remote(&self) -> bool {
        true
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        ShardTransport::shutdown(self);
    }
}
