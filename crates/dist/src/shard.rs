//! The shard server: one index partition behind a TCP listener.
//!
//! A shard is deliberately dumb — it owns no admission control, no cache,
//! no deadlines. It accepts connections, answers `Ping` with its identity,
//! and evaluates `Eval` requests against its partition with
//! [`ajax_index::eval_shard_into`] into one batch per connection, which it
//! encodes as the reply: local results plus the per-term document
//! frequencies the coordinator needs for merge-time global idf. All policy
//! lives coordinator-side, exactly like the
//! single-process [`ajax_serve::ShardServer`] keeps policy out of its
//! worker pools.
//!
//! Two deployment shapes share this code:
//!
//! * **process mode** — `ajax-search shard --index FILE` binds a listener
//!   ([`bind_shard`]) and calls [`serve_shard`], which blocks for the
//!   process' lifetime;
//! * **thread mode** — [`ShardHandle::spawn`] runs the same accept loop on
//!   a background thread in the current process: what tests and benches use,
//!   and what makes deterministic crash injection ([`ShardHandle::kill`])
//!   possible.
//!
//! Requests on one connection are evaluated sequentially in the connection
//! thread (mirroring one worker per shard); separate connections — e.g. a
//! coordinator's hedge path — evaluate concurrently on an immutable
//! `Arc<InvertedIndex>` snapshot.

use crate::error::DistError;
use crate::proto::{
    encode_message, encode_reply, Frame, FrameReader, Message, ShardInfo, WireError, PROTO_VERSION,
};
use ajax_index::{eval_shard_into, InvertedIndex, ScoreScratch, ShardHits};
use ajax_obs::{AttrValue, SpanLog};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Binds the shard listener, translating failures (notably address-in-use)
/// into actionable [`DistError::Bind`] messages instead of panicking.
pub fn bind_shard(host: &str, port: u16) -> Result<TcpListener, DistError> {
    TcpListener::bind((host, port)).map_err(|source| DistError::Bind {
        host: host.to_string(),
        port,
        source,
    })
}

type LiveConns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Everything a connection thread needs.
struct ShardCtx {
    index: Arc<InvertedIndex>,
    shard_id: usize,
    shutdown: Arc<AtomicBool>,
    /// Clones of live connection streams by accept order, so `kill` can
    /// sever them. A connection's entry goes when its thread returns.
    conns: LiveConns,
    /// Optional shard-side flight recorder (thread mode only): `rpc.recv` /
    /// `shard.eval` / `rpc.send` spans on track `shard_id + 1`, timestamps
    /// in µs since `epoch`.
    trace: Option<Arc<Mutex<SpanLog>>>,
    epoch: Instant,
}

impl ShardCtx {
    fn record_span(&self, name: &'static str, start: u64, end: u64, id: u64) {
        if let Some(trace) = &self.trace {
            let mut log = trace.lock().expect("shard trace lock");
            log.set_track(self.shard_id as u32 + 1);
            log.push(
                name,
                start,
                end,
                vec![
                    ("shard", AttrValue::U64(self.shard_id as u64)),
                    ("id", AttrValue::U64(id)),
                ],
            );
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Serves connections until the process dies (process mode). The listener
/// should come from [`bind_shard`].
pub fn serve_shard(listener: TcpListener, index: Arc<InvertedIndex>, shard_id: usize) {
    let ctx = Arc::new(ShardCtx {
        index,
        shard_id,
        shutdown: Arc::new(AtomicBool::new(false)),
        conns: LiveConns::default(),
        trace: None,
        epoch: Instant::now(),
    });
    accept_loop(listener, &ctx);
}

fn accept_loop(listener: TcpListener, ctx: &Arc<ShardCtx>) {
    for conn_id in 0u64.. {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            ctx.conns.lock().unwrap().insert(conn_id, clone);
        }
        let ctx = Arc::clone(ctx);
        std::thread::spawn(move || {
            connection_loop(stream, &ctx);
            // Every hedge is a fresh connection: without this the clone's
            // fd would stay open until `kill`.
            ctx.conns.lock().unwrap().remove(&conn_id);
        });
    }
}

fn connection_loop(stream: TcpStream, ctx: &ShardCtx) {
    let mut reader = FrameReader::new(stream);
    let mut scratch = ScoreScratch::default();
    // The batch every evaluation fills, and one frame buffer for everything
    // this connection sends.
    let mut hits = ShardHits::default();
    let mut frame = Vec::new();
    loop {
        // Peer hung up or sent garbage; either way this connection is done.
        // The coordinator reconnects with backoff if it cares. `rpc.recv`
        // starts once a frame arrives, not while the connection idles.
        if reader.wait().is_err() {
            return;
        }
        let recv_start = ctx.now();
        // A shard never receives replies/pongs; treat as protocol abuse.
        let Ok(Frame::Message(msg)) = reader.read(&mut hits) else {
            return;
        };
        let (encoded, sent) = match msg {
            Message::Ping => {
                let info = ShardInfo {
                    shard_id: ctx.shard_id as u64,
                    proto_version: PROTO_VERSION,
                    total_states: ctx.index.total_states,
                    index_bytes: ctx.index.approx_bytes() as u64,
                    term_count: ctx.index.term_count() as u64,
                };
                (encode_message(&mut frame, &Message::Pong(info)), None)
            }
            Message::Eval(req) => {
                ctx.record_span("rpc.recv", recv_start, ctx.now(), req.id);
                let eval_start = ctx.now();
                let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    eval_shard_into(
                        &ctx.index,
                        ctx.shard_id,
                        &req.query,
                        &req.weights,
                        &mut scratch,
                        &mut hits,
                    )
                }));
                // `rpc.send` covers the encode and the write.
                let send_start = ctx.now();
                let encoded = match evaluated {
                    Ok(()) => {
                        ctx.record_span("shard.eval", eval_start, send_start, req.id);
                        encode_reply(&mut frame, req.id, &hits)
                    }
                    Err(_) => {
                        // The buffers may be poisoned mid-panic; start fresh.
                        (scratch, hits) = Default::default();
                        let error = WireError {
                            id: req.id,
                            message: "shard evaluation panicked".to_string(),
                        };
                        encode_message(&mut frame, &Message::Error(error))
                    }
                };
                (encoded, Some((req.id, send_start)))
            }
            Message::Reply(_) | Message::Pong(_) | Message::Error(_) => return,
        };
        if encoded.is_err() || reader.get_mut().write_all(&frame).is_err() {
            return;
        }
        if let Some((id, send_start)) = sent {
            ctx.record_span("rpc.send", send_start, ctx.now(), id);
        }
    }
}

/// An in-process shard server (thread mode) with deterministic crash
/// injection for chaos tests.
pub struct ShardHandle {
    /// Where the shard listens (always 127.0.0.1).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: LiveConns,
    accept: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Binds `127.0.0.1:port` (0 for ephemeral) and serves `index` as shard
    /// `shard_id` on a background thread. `trace` enables shard-side
    /// `rpc.recv` / `shard.eval` / `rpc.send` spans.
    pub fn spawn(
        index: Arc<InvertedIndex>,
        shard_id: usize,
        port: u16,
        trace: Option<Arc<Mutex<SpanLog>>>,
    ) -> Result<Self, DistError> {
        let listener = bind_shard("127.0.0.1", port)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::new(ShardCtx {
            index,
            shard_id,
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: LiveConns::default(),
            trace,
            epoch: Instant::now(),
        });
        let shutdown = Arc::clone(&ctx.shutdown);
        let conns = Arc::clone(&ctx.conns);
        let accept = std::thread::Builder::new()
            .name(format!("ajax-dist-shard{shard_id}"))
            .spawn(move || accept_loop(listener, &ctx))
            .map_err(|e| DistError::Spawn(e.to_string()))?;
        Ok(Self {
            addr,
            shutdown,
            conns,
            accept: Some(accept),
        })
    }

    /// Simulates a crash: stop accepting and sever every live connection.
    /// Clients see dead sockets mid-conversation, exactly like a killed
    /// process. Idempotent. The port is released, so a replacement shard
    /// can be spawned on the same address to test reconnect-with-backoff.
    pub fn kill(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for (_, conn) in self.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_message, write_message, EvalRequest};
    use ajax_crawl::model::AppModel;
    use ajax_index::{IndexBuilder, Query, RankWeights};

    fn test_index() -> Arc<InvertedIndex> {
        let mut b = IndexBuilder::new();
        let mut m = AppModel::new("http://x/1");
        m.add_state(1, "wow great video content".to_string(), None);
        m.add_state(2, "more dance content".to_string(), None);
        b.add_model(&m, Some(0.3));
        Arc::new(b.build())
    }

    #[test]
    fn shard_answers_ping_and_eval() {
        let index = test_index();
        let mut shard = ShardHandle::spawn(Arc::clone(&index), 3, 0, None).unwrap();
        let mut conn = TcpStream::connect(shard.addr).unwrap();

        write_message(&mut conn, &Message::Ping).unwrap();
        let Message::Pong(info) = read_message(&mut conn).unwrap() else {
            panic!("expected pong")
        };
        assert_eq!(info.shard_id, 3);
        assert_eq!(info.proto_version, PROTO_VERSION);
        assert_eq!(info.total_states, index.total_states);

        write_message(
            &mut conn,
            &Message::Eval(EvalRequest {
                id: 77,
                query: Query::parse("wow"),
                weights: RankWeights::default(),
            }),
        )
        .unwrap();
        let Message::Reply(reply) = read_message(&mut conn).unwrap() else {
            panic!("expected reply")
        };
        assert_eq!(reply.id, 77);
        assert_eq!(reply.results.len(), 1);
        assert_eq!(reply.stats.df, vec![1]);

        shard.kill();
        shard.kill(); // idempotent
    }

    #[test]
    fn kill_severs_live_connections_and_frees_the_port() {
        let index = test_index();
        let mut shard = ShardHandle::spawn(Arc::clone(&index), 0, 0, None).unwrap();
        let addr = shard.addr;
        let mut conn = TcpStream::connect(addr).unwrap();
        write_message(&mut conn, &Message::Ping).unwrap();
        let _ = read_message(&mut conn).unwrap();

        shard.kill();
        // The severed connection now fails.
        let dead = write_message(&mut conn, &Message::Ping).and_then(|_| read_message(&mut conn));
        assert!(dead.is_err(), "killed shard must sever connections");

        // A replacement shard can take over the same port.
        let replacement = ShardHandle::spawn(index, 0, addr.port(), None).unwrap();
        assert_eq!(replacement.addr, addr);
        let mut conn = TcpStream::connect(addr).unwrap();
        write_message(&mut conn, &Message::Ping).unwrap();
        assert!(matches!(read_message(&mut conn).unwrap(), Message::Pong(_)));
    }

    #[test]
    fn closed_connections_leave_no_stream_behind() {
        let shard = ShardHandle::spawn(test_index(), 0, 0, None).unwrap();
        for _ in 0..32 {
            // What a hedge does: connect, one round-trip, hang up.
            let mut conn = TcpStream::connect(shard.addr).unwrap();
            write_message(&mut conn, &Message::Ping).unwrap();
            assert!(matches!(read_message(&mut conn).unwrap(), Message::Pong(_)));
        }
        // Each connection thread drops its entry when it sees the hang-up;
        // nothing signals that to a client, so poll.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !shard.conns.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "closed connections still held");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn concurrent_connections_evaluate_independently() {
        let index = test_index();
        let shard = Arc::new(ShardHandle::spawn(index, 1, 0, None).unwrap());
        let addr = shard.addr;
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    write_message(
                        &mut conn,
                        &Message::Eval(EvalRequest {
                            id: i,
                            query: Query::parse("content"),
                            weights: RankWeights::default(),
                        }),
                    )
                    .unwrap();
                    let Message::Reply(reply) = read_message(&mut conn).unwrap() else {
                        panic!("expected reply")
                    };
                    assert_eq!(reply.id, i);
                    reply.results.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 2, "both states contain 'content'");
        }
    }
}
