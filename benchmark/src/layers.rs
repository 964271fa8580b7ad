//! Replays that time single layers through their public functions, on the
//! very inputs the system saw: the bodies the tap captured, and each query
//! op's real shard replies.

use crate::spans::TraceSink;
use crate::tap::TapEvent;
use crate::world::Site;
use ajax_crawl::browser::CrawlEnv;
use ajax_crawl::{analyze_page, Browser, HotNodeCache};
use ajax_dist::proto::{read_message, write_message, EvalReply, EvalRequest, Message};
use ajax_dom::parse_document;
use ajax_index::{eval_shard, merge_shard_outputs, InvertedIndex, Query, RankWeights};
use ajax_js::parse_program;
use ajax_net::{NetClient, Url};
use ajax_obs::Recorder;
use std::hint::black_box;

/// What the crawl phase of a capturing pass fetched.
pub struct Bodies {
    pub pages: Vec<(Url, String)>,
    pub fragments: Vec<String>,
}

impl Bodies {
    /// Takes the bodies out of `events[from..]` (the crawl phase starts at
    /// the first crawl-phase page GET; the precrawl fetched the same pages
    /// before).
    pub fn take(events: &mut [TapEvent], from: usize) -> Self {
        let mut bodies = Self {
            pages: Vec::new(),
            fragments: Vec::new(),
        };
        for e in &mut events[from..] {
            let Some((url, body)) = e.body.take() else {
                continue;
            };
            if e.page {
                bodies.pages.push((Url::parse(&url), body));
            } else {
                bodies.fragments.push(body);
            }
        }
        bodies
    }
}

/// `dom.parse` / `dom.hash` / `dom.clone` over every body, `js.parse` over
/// every script source, `crawl.load` (`Browser::load`) and `crawl.analysis`
/// (`analyze_page`) over every page; `rounds` times, enveloped per item.
pub fn replay_substrates(site: &Site, bodies: &Bodies, rounds: usize, sink: &mut TraceSink<'_>) {
    let htmls = bodies
        .pages
        .iter()
        .map(|(_, html)| html)
        .chain(&bodies.fragments);
    for _ in 0..rounds {
        let buf = &mut *sink.buf;
        for (i, html) in htmls.clone().enumerate() {
            let op = i as u32;
            let doc = buf.scope("dom.parse", op, |_| parse_document(html));
            buf.scope("dom.hash", op, |_| black_box(doc.content_hash()));
            buf.scope("dom.clone", op, |_| black_box(doc.clone()));
            for src in doc.script_sources() {
                buf.scope("js.parse", op, |_| black_box(parse_program(&src).is_ok()));
            }
        }
        for (i, (url, html)) in bodies.pages.iter().enumerate() {
            let op = i as u32;
            let mut net = NetClient::new(site.server.clone(), site.engine_config(false).latency);
            let mut cache = HotNodeCache::new();
            let mut segments = Vec::new();
            let mut recorder = Recorder::off();
            let mut env = CrawlEnv::new(
                &mut net,
                &mut cache,
                site.crawl.hot_node_policy,
                &site.crawl.costs,
                site.crawl.retry,
                &mut segments,
                &mut recorder,
            );
            buf.scope("crawl.load", op, |_| {
                black_box(Browser::load(
                    url.clone(),
                    html,
                    site.crawl.js_fuel,
                    &mut env,
                ));
            });
            buf.scope("crawl.analysis", op, |_| {
                black_box(analyze_page(html));
            });
        }
        sink.end_round();
    }
}

/// Bytes one op puts on the wire, summed over shards and ops.
#[derive(Default)]
pub struct WireBytes {
    pub request: u64,
    pub reply: u64,
}

/// What the RPC tier does per op besides moving bytes: `dist.shard_eval`
/// (`eval_shard` per partition), `dist.encode` / `dist.decode`
/// (`write_message` / `read_message` of the op's real `EvalReply`, to and
/// from memory) and `dist.merge`. Returns the frame bytes of one round.
pub fn replay_wire(
    shards: &[InvertedIndex],
    seq: &[u32],
    pool: &[String],
    rounds: usize,
    sink: &mut TraceSink<'_>,
) -> WireBytes {
    let weights = RankWeights::default();
    let mut bytes = WireBytes::default();
    let mut wire = Vec::new();
    for round in 0..rounds {
        let buf = &mut *sink.buf;
        for (i, &q) in seq.iter().enumerate() {
            let op = i as u32;
            let query = Query::parse(&pool[q as usize]);
            let mut all_results = Vec::new();
            let mut all_stats = Vec::new();
            for (s, shard) in shards.iter().enumerate() {
                let request = Message::Eval(EvalRequest {
                    id: u64::from(op),
                    query: query.clone(),
                    weights,
                });
                wire.clear();
                write_message(&mut wire, &request).expect("write to memory");
                let request_len = wire.len() as u64;

                let (results, stats) = buf.scope("dist.shard_eval", op, |_| {
                    eval_shard(shard, s, &query, &weights)
                });
                let reply = Message::Reply(EvalReply {
                    id: u64::from(op),
                    results,
                    stats,
                });
                wire.clear();
                buf.scope("dist.encode", op, |_| {
                    write_message(&mut wire, &reply).expect("write to memory")
                });
                let decoded = buf.scope("dist.decode", op, |_| {
                    read_message(&mut wire.as_slice()).expect("read back the frame")
                });
                if round == 0 {
                    bytes.request += request_len;
                    bytes.reply += wire.len() as u64;
                }
                let Message::Reply(reply) = decoded else {
                    panic!("a reply frame decodes to a reply");
                };
                all_results.extend(reply.results);
                all_stats.push(reply.stats);
            }
            buf.scope("dist.merge", op, |_| {
                black_box(merge_shard_outputs(
                    &query,
                    &weights,
                    all_results,
                    &all_stats,
                ))
            });
        }
        sink.end_round();
    }
    bytes
}
