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
//! |   | result  | `shard u32`, `url u32` (index into `urls`), `page u32`, `state u32`, `base_score f64`, `tfs: list of f64` (as many as `df`) |
//! | 3 | `Ping`  | empty |
//! | 4 | `Pong`  | `proto_version u64`, `shard_id u64`, `total_states u64`, `index_bytes u64`, `term_count u64` |
//! | 5 | `Error` | `id u64`, `message: string` |
//!
//! A `Reply` carries one [`ShardHits`] batch: [`encode_reply`] writes it
//! from the batch the shard's scoring loop filled, and [`FrameReader`]
//! decodes it straight into the coordinator's batch. Every result has one
//! tf per `df` entry; a reply that breaks this is refused on both ends. A
//! `Reply` names each URL once: consecutive results with the same URL (a
//! shard emits a page's states back to back) share one `urls` entry, and the
//! decoder shares one `Arc<str>` per entry among the results that name it.
//! [`EvalReply`], [`write_message`] and [`read_message`] are the owned form
//! of the same encoder and decoder.
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
use ajax_index::{
    BrokerResult, DocKey, Query, RankWeights, ShardHits, ShardResult, ShardTermStats,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Protocol version, exchanged in [`ShardInfo`] at handshake.
pub const PROTO_VERSION: u64 = 2;

/// Upper bound on a frame body. A sender refuses to produce a larger frame;
/// a receiver takes one as a corrupt or hostile peer and refuses it before
/// allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// What a [`FrameReader`] asks of the socket per `read`: enough for a whole
/// reply of a few thousand results, and for several pipelined ones.
const READ_BUFFER_BYTES: usize = 64 * 1024;

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
/// stale statistics across reloads. The owned form of a `Reply`: the
/// serving path sends and receives a [`ShardHits`] instead.
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

/// One frame as a [`FrameReader`] decodes it.
#[derive(Debug)]
pub enum Frame {
    /// A `Reply` to the request of this id. Its batch went into the
    /// [`ShardHits`] the read was given.
    Reply(u64),
    /// Any other message; never [`Message::Reply`].
    Message(Message),
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

/// One result as the `Reply` encoder reads it: shard, URL, doc, base score
/// and tfs — a hit of a [`ShardHits`] batch, or an owned [`ShardResult`].
type ResultView<'a> = (usize, &'a Arc<str>, DocKey, f64, &'a [f64]);

/// The one `Reply` payload writer. A result whose tf count is not the
/// reply's df count is `InvalidData`.
fn put_reply<'a>(
    buf: &mut Vec<u8>,
    id: u64,
    stats: &ShardTermStats,
    results: impl Iterator<Item = ResultView<'a>> + Clone,
) -> io::Result<()> {
    let k = stats.df.len();
    put_u64(buf, id);
    put_u64(buf, stats.total_states);
    put_len(buf, k)?;
    for &df in &stats.df {
        put_u64(buf, df);
    }
    // The URL table, then the results pointing into it. Both passes apply
    // the same rule: a result whose URL equals its predecessor's shares the
    // predecessor's entry. Results of one page usually share one `Arc`, so
    // the pointers are compared before the bytes.
    let new_url = |prev: Option<&Arc<str>>, url: &Arc<str>| {
        prev.is_none_or(|prev| !Arc::ptr_eq(prev, url) && prev != url)
    };
    let mut prev = None;
    let table = results.clone().filter_map(move |(_, url, ..)| {
        let new = new_url(prev, url);
        prev = Some(url);
        new.then_some(url)
    });
    put_len(buf, table.clone().count())?;
    for url in table {
        put_str(buf, url)?;
    }
    put_len(buf, results.clone().count())?;
    let (mut prev, mut entries) = (None, 0);
    for (shard, url, doc, score, tfs) in results {
        if tfs.len() != k {
            let n = tfs.len();
            return Err(invalid(format!(
                "a result of {n} tfs in a reply of {k} terms"
            )));
        }
        entries += usize::from(new_url(prev, url));
        prev = Some(url);
        put_len(buf, shard)?;
        put_len(buf, entries - 1)?;
        put_u32(buf, doc.page);
        put_u32(buf, doc.state.0);
        put_f64(buf, score);
        put_len(buf, k)?;
        for &tf in tfs {
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

/// Replaces `frame`'s contents with the `Reply` frame answering request `id`
/// with `reply` — the one `Reply` encoder. A batch without one tf per df
/// entry for every hit is `InvalidData`.
pub fn encode_reply(frame: &mut Vec<u8>, id: u64, reply: &ShardHits) -> io::Result<()> {
    let (n, k) = (reply.hits.len(), reply.stats.df.len());
    if k.checked_mul(n) != Some(reply.tfs.len()) {
        let tfs = reply.tfs.len();
        return Err(invalid(format!("{tfs} tfs for {n} results of {k} terms")));
    }
    let results =
        (reply.per_hit()).map(|(hit, tfs)| (hit.shard, &hit.url, hit.doc, hit.score, tfs));
    framed(frame, KIND_REPLY, |buf| {
        put_reply(buf, id, &reply.stats, results)
    })
}

/// Encodes one whole frame (header included) into `frame`, replacing its
/// contents, so a connection can reuse one buffer for every frame it sends.
/// A frame over [`MAX_FRAME_BYTES`] is an `InvalidData` error on the sender.
pub fn encode_message(frame: &mut Vec<u8>, msg: &Message) -> io::Result<()> {
    match msg {
        Message::Eval(m) => encode_eval(frame, m.id, &m.query, &m.weights),
        Message::Reply(m) => framed(frame, KIND_REPLY, |buf| {
            let results = (m.results.iter())
                .map(|r| (r.shard, &r.url, r.doc, r.base_score, r.tfs.as_slice()));
            put_reply(buf, m.id, &m.stats, results)
        }),
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

    /// A list's element count, refused unless that many elements of at
    /// least `min_bytes` each can still follow, so what is allocated for
    /// them is bounded by the payload, not by what the peer claims.
    fn count(&mut self, min_bytes: usize) -> io::Result<usize> {
        let (count, left) = (self.u32()? as usize, self.0.len());
        if count > left / min_bytes {
            return Err(invalid(format!(
                "{count} elements cannot fit in {left} bytes"
            )));
        }
        Ok(count)
    }

    /// A counted list of elements of at least `min_bytes` each.
    fn list<T>(
        &mut self,
        min_bytes: usize,
        mut element: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        let count = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(element(self)?);
        }
        Ok(out)
    }
}

/// Smallest encoded result of a reply without terms: four `u32`s, the
/// score, an empty `tfs` list. Each term adds one tf.
const MIN_RESULT_BYTES: usize = 28;

/// The one `Reply` decoder: replaces `out` with the payload's batch and
/// returns the request id.
fn get_reply(p: &mut Payload<'_>, out: &mut ShardHits) -> io::Result<u64> {
    let id = p.u64()?;
    let ShardHits { hits, tfs, stats } = out;
    hits.clear();
    tfs.clear();
    stats.df.clear();
    stats.total_states = p.u64()?;
    let k = p.count(8)?;
    for _ in 0..k {
        stats.df.push(p.u64()?);
    }
    let urls = p.list(4, |p| p.str().map(Arc::<str>::from))?;
    let n = p.count(MIN_RESULT_BYTES + 8 * k)?;
    hits.reserve(n);
    tfs.reserve(n * k);
    for _ in 0..n {
        let shard = p.u32()? as usize;
        let url = p.u32()? as usize;
        let url = urls
            .get(url)
            .ok_or_else(|| invalid(format!("url {url} of a table of {}", urls.len())))?;
        let doc = DocKey {
            page: p.u32()?,
            state: StateId(p.u32()?),
        };
        let score = p.f64()?;
        let count = p.u32()? as usize;
        if count != k {
            return Err(invalid(format!(
                "a result of {count} tfs in a reply of {k} terms"
            )));
        }
        for _ in 0..k {
            tfs.push(p.f64()?);
        }
        hits.push(BrokerResult {
            shard,
            url: Arc::clone(url),
            doc,
            score,
        });
    }
    Ok(id)
}

/// Decodes one frame body (kind byte first). A `Reply` goes into `hits`.
fn decode(body: &[u8], hits: &mut ShardHits) -> io::Result<Frame> {
    let (&kind, payload) =
        (body.split_first()).ok_or_else(|| invalid("zero-length frame".to_string()))?;
    let mut p = Payload(payload);
    let frame = match kind {
        KIND_EVAL => Frame::Message(Message::Eval(EvalRequest {
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
        })),
        KIND_REPLY => Frame::Reply(get_reply(&mut p, hits)?),
        KIND_PING => Frame::Message(Message::Ping),
        KIND_PONG => Frame::Message(Message::Pong(ShardInfo {
            proto_version: p.u64()?,
            shard_id: p.u64()?,
            total_states: p.u64()?,
            index_bytes: p.u64()?,
            term_count: p.u64()?,
        })),
        KIND_ERROR => Frame::Message(Message::Error(WireError {
            id: p.u64()?,
            message: p.str()?.to_string(),
        })),
        other => return Err(invalid(format!("unknown frame kind {other}"))),
    };
    if !p.0.is_empty() {
        return Err(invalid(format!("{} bytes trail the payload", p.0.len())));
    }
    Ok(frame)
}

/// Reads one frame's body (kind byte first) into `body`, replacing its
/// contents and reusing its allocation: the 4-byte length, bounded before
/// anything is allocated, then exactly that many bytes.
/// `Err(UnexpectedEof)` on clean connection close at a frame boundary.
fn read_frame(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<()> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    body.clear();
    body.reserve(len as usize);
    r.take(u64::from(len)).read_to_end(body)?;
    if body.len() < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ends {} bytes into {len}", body.len()),
        ));
    }
    Ok(())
}

/// Reads one frame, blocking, and nothing past it: the owned form of
/// [`FrameReader::read`], for a one-off exchange such as the handshake.
/// `Err(UnexpectedEof)` on clean connection close at a frame boundary.
pub fn read_message(r: &mut impl Read) -> io::Result<Message> {
    let mut body = Vec::new();
    read_frame(r, &mut body)?;
    let mut batch = ShardHits::default();
    Ok(match decode(&body, &mut batch)? {
        Frame::Reply(id) => {
            let (results, stats) = batch.into_results();
            Message::Reply(EvalReply { id, results, stats })
        }
        Frame::Message(message) => message,
    })
}

/// The receiving end of one connection. Frames come through a read buffer
/// — one `read` per frame in the common case — each body lands in one
/// reused buffer, and a `Reply` is decoded straight into the caller's
/// [`ShardHits`].
pub struct FrameReader<R> {
    inner: BufReader<R>,
    body: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        Self {
            inner: BufReader::with_capacity(READ_BUFFER_BYTES, inner),
            body: Vec::new(),
        }
    }

    /// Blocks until the next frame's first bytes have arrived, or the peer
    /// has closed (the next [`read`](Self::read) then fails): what follows
    /// is the frame's receive, not idle time.
    pub fn wait(&mut self) -> io::Result<()> {
        self.inner.fill_buf().map(|_| ())
    }

    /// Reads and decodes the next frame. A `Reply`'s batch replaces the
    /// contents of `hits`.
    pub fn read(&mut self, hits: &mut ShardHits) -> io::Result<Frame> {
        read_frame(&mut self.inner, &mut self.body)?;
        decode(&self.body, hits)
    }

    /// The connection itself, for writing to it.
    pub fn get_mut(&mut self) -> &mut R {
        self.inner.get_mut()
    }
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
