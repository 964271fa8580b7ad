//! The `ajax-dist` wire format as an executable specification.
//!
//! * every message survives `write_message` → `read_message` with every
//!   `f64` bit intact, NaN payloads, signed zeros, infinities and
//!   subnormals included;
//! * a truncated, bit-flipped or arbitrary byte string is answered with `Ok`
//!   or an `io::Error` — never a panic — and the reader never asks the
//!   allocator for more than a small multiple of the frame's stated length;
//! * a `Reply` with a result of another tf count than its `df` entries is
//!   `InvalidData`, to the writer and to the reader;
//! * one golden frame pins the byte layout, so changing it is deliberate;
//! * a shard that still speaks version 1 (JSON) is refused at handshake;
//! * a shard whose well-formed reply answers fewer terms than the query has
//!   degrades that query instead of panicking the coordinator.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_crawl::StateId;
use ajax_dist::proto::{
    read_message, write_message, EvalReply, EvalRequest, Message, ShardInfo, WireError,
    MAX_FRAME_BYTES, PROTO_VERSION,
};
use ajax_dist::{DistError, ShardEndpoint, TcpTransport, TcpTransportConfig};
use ajax_index::{DocKey, Query, RankWeights, ShardResult, ShardTermStats};
use ajax_serve::{ServeConfig, ShardServer};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpListener;

// ------------------------------------------------- allocation accounting

thread_local! {
    /// Largest single request this thread made of the allocator since the
    /// last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Noting;

impl Noting {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = LARGEST_ALLOC.try_with(|largest| largest.set(largest.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees carry over; the
// only addition is a write to a `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

/// Feeds `bytes` to `read_message` and checks the reader's two promises for
/// hostile input: it returns (the proptest harness turns a panic into a
/// failure), and its largest allocation is bounded by the frame length the
/// header states — not by any count or length inside the payload. The
/// factor is the widest in-memory/wire ratio of any element: an empty
/// string is 4 bytes on the wire and a 24-byte `String` in a `Vec`.
fn read_is_bounded(bytes: &[u8]) -> Result<std::io::Result<Message>, TestCaseError> {
    let stated = bytes
        .get(..4)
        .map_or(0, |len| u32::from_le_bytes(len.try_into().unwrap()));
    let frame = if stated <= MAX_FRAME_BYTES {
        stated as usize
    } else {
        0 // refused before the body is allocated
    };
    LARGEST_ALLOC.with(|largest| largest.set(0));
    let outcome = read_message(&mut &bytes[..]);
    let largest = LARGEST_ALLOC.with(Cell::get);
    prop_assert!(
        largest <= 6 * frame + 256,
        "a frame stating {stated} bytes made the reader allocate {largest}"
    );
    Ok(outcome)
}

// ------------------------------------------------------------ generators

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    ProptestConfig::with_cases(cases)
}

/// Any bit pattern, with the values JSON could not carry mixed in often.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0usize..10).prop_map(|i| [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_dead_beef), // signalling NaN + payload
            f64::from_bits(0xfff8_0000_0000_0001), // negative quiet NaN + payload
            f64::from_bits(1),                     // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            0.1 + 0.2,
        ][i]),
    ]
}

fn any_text() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z]{0,8}", "\\PC{0,12}"]
}

/// The most query terms a generated reply answers.
const MAX_TERMS: usize = 3;

/// A result with `MAX_TERMS` tfs; [`any_reply`] keeps as many as its reply
/// has terms.
fn any_result() -> impl Strategy<Value = ShardResult> {
    (
        0usize..5,
        // A small URL alphabet, so neighbours share table entries.
        (0u32..4).prop_map(|v| format!("http://v.test/watch?v={v}")),
        (any::<u32>(), any::<u32>()),
        any_f64(),
        proptest::collection::vec(any_f64(), MAX_TERMS..MAX_TERMS + 1),
    )
        .prop_map(|(shard, url, (page, state), base_score, tfs)| ShardResult {
            shard,
            url: url.into(),
            doc: DocKey {
                page,
                state: StateId(state),
            },
            base_score,
            tfs,
        })
}

/// A reply of `results` many results: `k` terms, drawn once, so `df` has
/// `k` entries and every result `k` tfs.
fn any_reply(results: std::ops::Range<usize>) -> impl Strategy<Value = EvalReply> {
    (
        any::<u64>(),
        0..MAX_TERMS + 1,
        proptest::collection::vec(any_result(), results),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), MAX_TERMS..MAX_TERMS + 1),
    )
        .prop_map(|(id, k, mut results, total_states, mut df)| {
            df.truncate(k);
            for r in &mut results {
                r.tfs.truncate(k);
            }
            EvalReply {
                id,
                results,
                stats: ShardTermStats { total_states, df },
            }
        })
}

fn any_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(any_text(), 0..5),
            (any_f64(), any_f64(), any_f64(), any_f64()),
        )
            .prop_map(|(id, terms, (pagerank, ajaxrank, tfidf, proximity))| {
                Message::Eval(EvalRequest {
                    id,
                    query: Query { terms },
                    weights: RankWeights {
                        pagerank,
                        ajaxrank,
                        tfidf,
                        proximity,
                    },
                })
            }),
        any_reply(0..9).prop_map(Message::Reply),
        Just(Message::Ping),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(shard_id, proto_version, total_states, index_bytes, term_count)| {
                    Message::Pong(ShardInfo {
                        shard_id,
                        proto_version,
                        total_states,
                        index_bytes,
                        term_count,
                    })
                }
            ),
        (any::<u64>(), any_text())
            .prop_map(|(id, message)| Message::Error(WireError { id, message })),
    ]
}

/// A message flattened to its kind, numbers (floats as bits) and strings in
/// field order: equality that tells NaN payloads and signed zeros apart,
/// which `==` on `f64` does not.
fn fields(msg: &Message) -> (&'static str, Vec<u64>, Vec<&str>) {
    let mut n = Vec::new();
    let mut s = Vec::new();
    let kind = match msg {
        Message::Eval(m) => {
            n.push(m.id);
            let w = &m.weights;
            n.extend([w.pagerank, w.ajaxrank, w.tfidf, w.proximity].map(f64::to_bits));
            s.extend(m.query.terms.iter().map(String::as_str));
            "eval"
        }
        Message::Reply(m) => {
            n.extend([m.id, m.stats.total_states, m.stats.df.len() as u64]);
            n.extend(&m.stats.df);
            for r in &m.results {
                n.extend([
                    r.shard as u64,
                    u64::from(r.doc.page),
                    u64::from(r.doc.state.0),
                    r.base_score.to_bits(),
                    r.tfs.len() as u64,
                ]);
                n.extend(r.tfs.iter().map(|tf| tf.to_bits()));
                s.push(&r.url);
            }
            "reply"
        }
        Message::Ping => "ping",
        Message::Pong(m) => {
            n.extend([
                m.shard_id,
                m.proto_version,
                m.total_states,
                m.index_bytes,
                m.term_count,
            ]);
            "pong"
        }
        Message::Error(m) => {
            n.push(m.id);
            s.push(&m.message);
            "error"
        }
    };
    (kind, n, s)
}

fn encode(msg: &Message) -> Vec<u8> {
    let mut wire = Vec::new();
    write_message(&mut wire, msg).expect("a small message encodes");
    wire
}

/// A `Reply` frame laid out from the table in `docs/distributed.md`, one
/// URL-table entry per result and each result's tfs as they are: what a
/// peer that does not check tf counts would send.
fn laid_out(m: &EvalReply) -> Vec<u8> {
    let u32s = |p: &mut Vec<u8>, vs: &[u32]| vs.iter().for_each(|v| p.extend(v.to_le_bytes()));
    let mut p = vec![2];
    p.extend(m.id.to_le_bytes());
    p.extend(m.stats.total_states.to_le_bytes());
    u32s(&mut p, &[m.stats.df.len() as u32]);
    m.stats.df.iter().for_each(|df| p.extend(df.to_le_bytes()));
    u32s(&mut p, &[m.results.len() as u32]);
    for r in &m.results {
        u32s(&mut p, &[r.url.len() as u32]);
        p.extend(r.url.as_bytes());
    }
    u32s(&mut p, &[m.results.len() as u32]);
    for (i, r) in m.results.iter().enumerate() {
        u32s(
            &mut p,
            &[r.shard as u32, i as u32, r.doc.page, r.doc.state.0],
        );
        p.extend(r.base_score.to_bits().to_le_bytes());
        u32s(&mut p, &[r.tfs.len() as u32]);
        r.tfs
            .iter()
            .for_each(|tf| p.extend(tf.to_bits().to_le_bytes()));
    }
    let mut frame = (p.len() as u32).to_le_bytes().to_vec();
    frame.extend(p);
    frame
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn every_message_round_trips_bit_exactly(msg in any_message()) {
        let wire = encode(&msg);
        let decoded = read_is_bounded(&wire)?
            .map_err(|e| TestCaseError::fail(format!("own frame refused: {e}")))?;
        prop_assert_eq!(fields(&decoded), fields(&msg));
    }

    #[test]
    fn every_reply_with_a_result_of_another_tf_count_is_invalid(
        reply in any_reply(1..9),
        pick in any::<usize>(),
        grow in any::<bool>(),
    ) {
        let decoded = read_is_bounded(&laid_out(&reply))?
            .map_err(|e| TestCaseError::fail(format!("laid-out frame refused: {e}")))?;
        let msg = Message::Reply(reply);
        prop_assert_eq!(fields(&decoded), fields(&msg));

        let Message::Reply(mut reply) = msg else { unreachable!() };
        let n = reply.results.len();
        let tfs = &mut reply.results[pick % n].tfs;
        match grow || tfs.is_empty() {
            true => tfs.push(0.5),
            false => drop(tfs.pop()),
        }
        let read = read_is_bounded(&laid_out(&reply))?;
        prop_assert_eq!(read.map(drop).map_err(|e| e.kind()), Err(std::io::ErrorKind::InvalidData));
        let mut wire = Vec::new();
        let written = write_message(&mut wire, &Message::Reply(reply));
        prop_assert_eq!(written.map_err(|e| e.kind()), Err(std::io::ErrorKind::InvalidData));
        prop_assert!(wire.is_empty(), "nothing of a refused reply is sent");
    }

    #[test]
    fn every_truncation_is_an_error(msg in any_message()) {
        let wire = encode(&msg);
        for cut in 0..wire.len() {
            prop_assert!(read_is_bounded(&wire[..cut])?.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn every_single_bit_flip_is_survived(msg in any_message()) {
        let mut wire = encode(&msg);
        for bit in 0..wire.len() * 8 {
            wire[bit / 8] ^= 1 << (bit % 8);
            read_is_bounded(&wire)?.ok();
            wire[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn arbitrary_bytes_are_survived(
        kind in 0u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        lie in prop_oneof![Just(0i64), -8i64..64, Just(i64::from(u32::MAX))],
    ) {
        // A well-formed header (so the payload decoders get to run) over
        // noise, with the length sometimes lying in either direction.
        let stated = (1 + payload.len() as i64 + lie).clamp(0, i64::from(u32::MAX)) as u32;
        let mut wire = stated.to_le_bytes().to_vec();
        wire.push(kind);
        wire.extend(&payload);
        read_is_bounded(&wire)?.ok();
        // And pure noise, header included.
        read_is_bounded(&payload)?.ok();
    }
}

#[test]
fn counts_larger_than_the_payload_are_refused_before_allocation() {
    // A Reply whose `df` list claims u32::MAX entries in a 25-byte frame:
    // the reader must refuse it, not reserve 32 GiB.
    let mut wire = 25u32.to_le_bytes().to_vec();
    wire.push(2);
    wire.extend(7u64.to_le_bytes()); // id
    wire.extend(9u64.to_le_bytes()); // total_states
    wire.extend(u32::MAX.to_le_bytes()); // df count
    wire.extend([0; 4]);
    let err = read_is_bounded(&wire).unwrap().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cannot fit in"), "{err}");
}

// -------------------------------------------------------- golden fixture

/// A two-result `Reply`, byte for byte. Both results are states of one
/// page, so the URL table has one entry.
const GOLDEN_REPLY: &str = concat!(
    "95000000",                 // frame length: 149 = kind + 148 payload bytes
    "02",                       // kind: Reply
    "0807060504030201",         // id = 0x0102030405060708
    "e803000000000000",         // total_states = 1000
    "02000000",                 // df: 2 entries
    "1100000000000000",         //   17
    "0000000000000000",         //   0
    "01000000",                 // urls: 1 entry
    "0c000000",                 //   12 bytes
    "687474703a2f2f762f773f31", //   "http://v/w?1"
    "02000000",                 // results: 2 entries
    "03000000",                 // [0] shard = 3
    "00000000",                 //     url = urls[0]
    "07000000",                 //     page = 7
    "00000000",                 //     state = 0
    "343333333333d33f",         //     base_score = 0.1 + 0.2
    "02000000",                 //     tfs: 2 entries
    "000000000000e03f",         //       0.5
    "0000000000000080",         //       -0.0
    "03000000",                 // [1] shard = 3
    "00000000",                 //     url = urls[0]
    "07000000",                 //     page = 7
    "09000000",                 //     state = 9
    "010000000000f87f",         //     base_score = NaN with payload 1
    "02000000",                 //     tfs: 2 entries
    "555555555555d53f",         //       1/3
    "0000000000001000",         //       f64::MIN_POSITIVE
);

#[test]
fn golden_reply_frame() {
    let msg = Message::Reply(EvalReply {
        id: 0x0102_0304_0506_0708,
        results: vec![
            ShardResult {
                shard: 3,
                url: "http://v/w?1".into(),
                doc: DocKey {
                    page: 7,
                    state: StateId(0),
                },
                base_score: 0.1 + 0.2,
                tfs: vec![0.5, -0.0],
            },
            ShardResult {
                shard: 3,
                url: "http://v/w?1".into(),
                doc: DocKey {
                    page: 7,
                    state: StateId(9),
                },
                base_score: f64::from_bits(0x7ff8_0000_0000_0001),
                tfs: vec![1.0 / 3.0, f64::MIN_POSITIVE],
            },
        ],
        stats: ShardTermStats {
            total_states: 1000,
            df: vec![17, 0],
        },
    });
    let hex: String = encode(&msg).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_REPLY);
    let bytes: Vec<u8> = (0..GOLDEN_REPLY.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_REPLY[i..i + 2], 16).unwrap())
        .collect();
    let decoded = read_message(&mut bytes.as_slice()).unwrap();
    assert_eq!(fields(&decoded), fields(&msg));
}

// ------------------------------------------------------ version handshake

#[test]
fn a_version_1_shard_is_refused_at_handshake() {
    // What a v1 shard answers a Ping with: kind 4, then ShardInfo as JSON.
    let json =
        br#"{"shard_id":0,"proto_version":1,"total_states":12,"index_bytes":3456,"term_count":78}"#;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut ping = [0u8; 5];
        stream.read_exact(&mut ping).unwrap();
        assert_eq!(
            ping,
            [1, 0, 0, 0, 3],
            "Ping is the same frame in both versions"
        );
        let mut pong = (1 + json.len() as u32).to_le_bytes().to_vec();
        pong.push(4);
        pong.extend_from_slice(json);
        stream.write_all(&pong).unwrap();
    });
    let refused = TcpTransport::connect(
        vec![ShardEndpoint::direct(addr)],
        TcpTransportConfig::default(),
    );
    shard.join().unwrap();
    let Err(DistError::Handshake { detail, .. }) = refused else {
        panic!("a v1 Pong must fail the handshake");
    };
    assert!(
        detail.contains(&format!("protocol version {PROTO_VERSION}")),
        "the refusal names the version the coordinator speaks: {detail}"
    );
}

// ------------------------------------------------------- malformed replies

#[test]
fn a_reply_with_fewer_df_entries_than_terms_degrades_the_query() {
    // A version-2 shard whose reply is a well-formed frame, but answers a
    // one-term query: one df entry, one tf per result.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert_eq!(read_message(&mut stream).unwrap(), Message::Ping);
        let info = ShardInfo {
            shard_id: 0,
            proto_version: PROTO_VERSION,
            total_states: 3,
            index_bytes: 0,
            term_count: 2,
        };
        write_message(&mut stream, &Message::Pong(info)).unwrap();
        let Message::Eval(request) = read_message(&mut stream).unwrap() else {
            panic!("the coordinator ships an Eval");
        };
        assert_eq!(request.query.terms.len(), 2);
        let reply = EvalReply {
            id: request.id,
            results: vec![ShardResult {
                shard: 0,
                url: "http://v/w?1".into(),
                doc: DocKey {
                    page: 0,
                    state: StateId(0),
                },
                base_score: 1.0,
                tfs: vec![0.5],
            }],
            stats: ShardTermStats {
                total_states: 3,
                df: vec![1],
            },
        };
        write_message(&mut stream, &Message::Reply(reply)).unwrap();
        stream // held open until the coordinator is gone
    });
    let transport = TcpTransport::connect(
        vec![ShardEndpoint::direct(addr)],
        TcpTransportConfig::default(),
    )
    .unwrap();
    let mut server = ShardServer::from_transport(
        Box::new(transport),
        RankWeights::default(),
        ServeConfig::default(),
        None,
    );
    let response = server.search("wow dance").unwrap();
    assert!(response.degraded, "{response:?}");
    assert_eq!(response.missing_shards, vec![0]);
    assert!(response.results.is_empty());
    server.shutdown();
    shard.join().unwrap();
}
