//! The shard wire protocol: length-prefixed binary frames on localhost TCP.
//!
//! A frame is `[u32: frame length][u8: kind][payload]`, where the length
//! covers the kind byte plus the payload. Everything is little-endian and
//! fixed width: integers are `u32`/`u64`, an `f64` travels as its 8 raw
//! bits (so every score bit — NaN payloads, signed zeros and subnormals
//! included — survives by construction), a string is a `u32` byte length
//! plus UTF-8, and a list is a `u32` count plus its elements. The payload
//! per kind:
//!
//! | kind | message | payload |
//! |-----:|---------|---------|
//! | 1 | `Eval`  | `id u64`, `weights 4×f64` (pagerank, ajaxrank, tfidf, proximity), `terms: list of string` |
//! | 2 | `Reply` | `id u64`, `total_states u64`, `df: list of u64`, `urls: list of string`, `results: list of result` |
//! |   | result  | `shard u32`, `url u32` (index into `urls`), `page u32`, `state u32`, `base_score f64`, `tfs: list of f64` |
//! | 3 | `Ping`  | empty |
//! | 4 | `Pong`  | `proto_version u64`, `shard_id u64`, `total_states u64`, `index_bytes u64`, `term_count u64` |
//! | 5 | `Error` | `id u64`, `message: string` |
//!
//! A `Reply` names each URL once: consecutive results with the same URL (a
//! shard emits a page's states back to back) share one `urls` entry, and the
//! decoder shares one `Arc<str>` per entry among the results that name it.
//!
//! Version 1 carried the same messages as JSON after the kind byte. Printing
//! and parsing shortest-round-trip `f64` text was ~90 % of a distributed
//! query's wall time, so version 2 replaced it outright; the two do not
//! interoperate, and the handshake refuses a peer of another version.
//!
//! The reader trusts nothing: the frame length is bounded before the body
//! is allocated, every count and string length is checked against the bytes
//! that remain before anything is allocated for it, and a payload must be
//! consumed exactly. Any violation is `io::ErrorKind::InvalidData`.
//!
//! Request/response correlation is by explicit `id`: the coordinator
//! pipelines many `Eval` frames down one connection and the shard may
//! interleave replies from its evaluation threads in any order.

use ajax_crawl::StateId;
use ajax_index::{DocKey, Query, RankWeights, ShardResult, ShardTermStats};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Protocol version, exchanged in [`ShardInfo`] at handshake.
pub const PROTO_VERSION: u64 = 2;

/// Upper bound on a frame body. A sender refuses to produce a larger frame;
/// a receiver takes one as a corrupt or hostile peer and refuses it before
/// allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

const KIND_EVAL: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_PING: u8 = 3;
const KIND_PONG: u8 = 4;
const KIND_ERROR: u8 = 5;

/// Coordinator → shard: evaluate `query` under `weights`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Correlation id, echoed in the reply.
    pub id: u64,
    pub query: Query,
    pub weights: RankWeights,
}

/// Shard → coordinator: the local results plus the term stats the merger
/// needs for global idf (df per term, shard state count) — the "idf
/// exchange" travels with every reply, so the coordinator never caches
/// stale statistics across reloads.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReply {
    pub id: u64,
    pub results: Vec<ShardResult>,
    pub stats: ShardTermStats,
}

/// Shard → coordinator at handshake (`Pong`): identity and index shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    pub shard_id: u64,
    pub proto_version: u64,
    /// `|Idx_i|` — used for diagnostics; the authoritative value for merging
    /// always comes per-reply in [`EvalReply::stats`].
    pub total_states: u64,
    pub index_bytes: u64,
    pub term_count: u64,
}

/// Shard → coordinator: the request with this `id` could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    pub id: u64,
    pub message: String,
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    Eval(EvalRequest),
    Reply(EvalReply),
    Ping,
    Pong(ShardInfo),
    Error(WireError),
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// A count, length or index: anything the wire carries as `u32`.
fn put_len(buf: &mut Vec<u8>, n: usize) -> io::Result<()> {
    let n = u32::try_from(n).map_err(|_| invalid(format!("{n} does not fit the wire's u32")))?;
    put_u32(buf, n);
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> io::Result<()> {
    put_len(buf, s.len())?;
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_reply(buf: &mut Vec<u8>, m: &EvalReply) -> io::Result<()> {
    put_u64(buf, m.id);
    put_u64(buf, m.stats.total_states);
    put_len(buf, m.stats.df.len())?;
    for &df in &m.stats.df {
        put_u64(buf, df);
    }
    // The URL table, then the results pointing into it. Both passes apply
    // the same rule: a result whose URL equals its predecessor's shares the
    // predecessor's entry. Results of one page usually share one `Arc`, so
    // the pointers are compared before the bytes.
    let same_url = |a: &Arc<str>, b: &Arc<str>| Arc::ptr_eq(a, b) || a == b;
    let starts_url = |i: usize| i == 0 || !same_url(&m.results[i].url, &m.results[i - 1].url);
    put_len(buf, (0..m.results.len()).filter(|&i| starts_url(i)).count())?;
    for (i, r) in m.results.iter().enumerate() {
        if starts_url(i) {
            put_str(buf, &r.url)?;
        }
    }
    put_len(buf, m.results.len())?;
    let mut urls = 0;
    for (i, r) in m.results.iter().enumerate() {
        urls += usize::from(starts_url(i));
        put_len(buf, r.shard)?;
        put_len(buf, urls - 1)?;
        put_u32(buf, r.doc.page);
        put_u32(buf, r.doc.state.0);
        put_f64(buf, r.base_score);
        put_len(buf, r.tfs.len())?;
        for &tf in &r.tfs {
            put_f64(buf, tf);
        }
    }
    Ok(())
}

/// Replaces `frame`'s contents with one frame of `kind`: the header, what
/// `payload` appends, and the length patched in once it is known. A frame
/// over [`MAX_FRAME_BYTES`] is refused and leaves `frame` empty.
fn framed(
    frame: &mut Vec<u8>,
    kind: u8,
    payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0, 0, 0, 0, kind]);
    payload(frame)?;
    let len = frame.len() - 4;
    match u32::try_from(len) {
        Ok(n) if n <= MAX_FRAME_BYTES => frame[..4].copy_from_slice(&n.to_le_bytes()),
        _ => {
            frame.clear();
            return Err(invalid(format!("frame of {len} bytes exceeds limit")));
        }
    }
    Ok(())
}

/// [`encode_message`] for an `Eval` from borrowed parts — a coordinator
/// fanning one query out encodes it once, without an owned [`EvalRequest`].
pub fn encode_eval(
    frame: &mut Vec<u8>,
    id: u64,
    query: &Query,
    weights: &RankWeights,
) -> io::Result<()> {
    framed(frame, KIND_EVAL, |buf| {
        put_u64(buf, id);
        put_f64(buf, weights.pagerank);
        put_f64(buf, weights.ajaxrank);
        put_f64(buf, weights.tfidf);
        put_f64(buf, weights.proximity);
        put_len(buf, query.terms.len())?;
        query.terms.iter().try_for_each(|term| put_str(buf, term))
    })
}

/// Encodes one whole frame (header included) into `frame`, replacing its
/// contents, so a connection can reuse one buffer for every frame it sends.
/// A frame over [`MAX_FRAME_BYTES`] is an `InvalidData` error on the sender.
pub fn encode_message(frame: &mut Vec<u8>, msg: &Message) -> io::Result<()> {
    match msg {
        Message::Eval(m) => encode_eval(frame, m.id, &m.query, &m.weights),
        Message::Reply(m) => framed(frame, KIND_REPLY, |buf| put_reply(buf, m)),
        Message::Ping => framed(frame, KIND_PING, |_| Ok(())),
        Message::Pong(m) => framed(frame, KIND_PONG, |buf| {
            put_u64(buf, m.proto_version);
            put_u64(buf, m.shard_id);
            put_u64(buf, m.total_states);
            put_u64(buf, m.index_bytes);
            put_u64(buf, m.term_count);
            Ok(())
        }),
        Message::Error(m) => framed(frame, KIND_ERROR, |buf| {
            put_u64(buf, m.id);
            put_str(buf, &m.message)
        }),
    }
}

/// Writes one frame with a single `write_all`, so the kernel sees one
/// segment (separate header and payload writes would hit Nagle +
/// delayed-ACK stalls of ~40 ms each on localhost). Not atomic across
/// callers — writers serialize access. A connection that sends many frames
/// keeps a buffer and calls [`encode_message`] itself.
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_message(&mut frame, msg)?;
    w.write_all(&frame)?;
    w.flush()
}

/// The undecoded rest of one payload.
struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            let left = self.0.len();
            return Err(invalid(format!(
                "payload ends {left} bytes into a {n}-byte field"
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("took 4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
    }

    fn f64(&mut self) -> io::Result<f64> {
        self.u64().map(f64::from_bits)
    }

    fn str(&mut self) -> io::Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| invalid("string is not UTF-8".to_string()))
    }

    /// A counted list. The count is refused unless that many elements of at
    /// least `min_bytes` each can still follow, so the allocation for them
    /// is bounded by the payload, not by what the peer claims.
    fn list<T>(
        &mut self,
        min_bytes: usize,
        mut element: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let (count, left) = (self.u32()? as usize, self.0.len());
        if count > left / min_bytes {
            return Err(invalid(format!(
                "{count} elements cannot fit in {left} bytes"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(element(self)?);
        }
        Ok(out)
    }
}

/// Smallest encoded result: four `u32`s, the score, an empty `tfs` list.
const MIN_RESULT_BYTES: usize = 28;

fn get_reply(p: &mut Payload<'_>) -> io::Result<EvalReply> {
    let id = p.u64()?;
    let total_states = p.u64()?;
    let df = p.list(8, Payload::u64)?;
    let urls = p.list(4, |p| p.str().map(Arc::<str>::from))?;
    let results = p.list(MIN_RESULT_BYTES, |p| {
        let shard = p.u32()? as usize;
        let url = p.u32()? as usize;
        let url = urls
            .get(url)
            .ok_or_else(|| invalid(format!("url {url} of a table of {}", urls.len())))?;
        Ok(ShardResult {
            shard,
            url: Arc::clone(url),
            doc: DocKey {
                page: p.u32()?,
                state: StateId(p.u32()?),
            },
            base_score: p.f64()?,
            tfs: p.list(8, Payload::f64)?,
        })
    })?;
    Ok(EvalReply {
        id,
        results,
        stats: ShardTermStats { total_states, df },
    })
}

/// Reads one frame, blocking: the 4-byte length, then the body in one read.
/// `Err(UnexpectedEof)` on clean connection close at a frame boundary.
pub fn read_message(r: &mut impl Read) -> io::Result<Message> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(invalid("zero-length frame".to_string()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut p = Payload(&body[1..]);
    let msg = match body[0] {
        KIND_EVAL => Message::Eval(EvalRequest {
            id: p.u64()?,
            weights: RankWeights {
                pagerank: p.f64()?,
                ajaxrank: p.f64()?,
                tfidf: p.f64()?,
                proximity: p.f64()?,
            },
            query: Query {
                terms: p.list(4, |p| p.str().map(str::to_string))?,
            },
        }),
        KIND_REPLY => Message::Reply(get_reply(&mut p)?),
        KIND_PING => Message::Ping,
        KIND_PONG => Message::Pong(ShardInfo {
            proto_version: p.u64()?,
            shard_id: p.u64()?,
            total_states: p.u64()?,
            index_bytes: p.u64()?,
            term_count: p.u64()?,
        }),
        KIND_ERROR => Message::Error(WireError {
            id: p.u64()?,
            message: p.str()?.to_string(),
        }),
        other => return Err(invalid(format!("unknown frame kind {other}"))),
    };
    if !p.0.is_empty() {
        return Err(invalid(format!("{} bytes trail the payload", p.0.len())));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) -> Message {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        read_message(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn eval_round_trips() {
        let msg = Message::Eval(EvalRequest {
            id: 42,
            query: Query::parse("Morcheeba Enjoy the Ride"),
            weights: RankWeights::default(),
        });
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn ping_pong_round_trip() {
        assert_eq!(round_trip(Message::Ping), Message::Ping);
        let pong = Message::Pong(ShardInfo {
            shard_id: 2,
            proto_version: PROTO_VERSION,
            total_states: 5000,
            index_bytes: 1 << 20,
            term_count: 31337,
        });
        assert_eq!(round_trip(pong.clone()), pong);
    }

    #[test]
    fn error_round_trips() {
        let msg = Message::Error(WireError {
            id: 9,
            message: "evaluation panicked".into(),
        });
        assert_eq!(round_trip(msg.clone()), msg);
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for id in 0..5u64 {
            write_message(
                &mut buf,
                &Message::Eval(EvalRequest {
                    id,
                    query: Query::parse("wow"),
                    weights: RankWeights::default(),
                }),
            )
            .unwrap();
        }
        let mut cursor = buf.as_slice();
        for id in 0..5u64 {
            let Message::Eval(req) = read_message(&mut cursor).unwrap() else {
                panic!("wrong kind")
            };
            assert_eq!(req.id, id);
        }
        assert!(read_message(&mut cursor).is_err(), "EOF after last frame");
    }

    #[test]
    fn oversized_and_garbage_frames_are_refused() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        oversized.push(KIND_PING);
        assert!(read_message(&mut oversized.as_slice()).is_err());

        let mut unknown = Vec::new();
        unknown.extend_from_slice(&2u32.to_le_bytes());
        unknown.push(200);
        unknown.push(b'x');
        assert!(read_message(&mut unknown.as_slice()).is_err());

        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_message(&mut zero.as_slice()).is_err());
    }

    #[test]
    fn sender_refuses_a_frame_over_the_limit() {
        let msg = Message::Error(WireError {
            id: 1,
            message: "x".repeat(MAX_FRAME_BYTES as usize),
        });
        let mut wire = Vec::new();
        let err = write_message(&mut wire, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds limit"), "{err}");
        assert!(wire.is_empty(), "nothing of a refused frame is sent");
    }
}
