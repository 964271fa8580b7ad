//! End-to-end observability: a traced build emits a valid, deterministic
//! Chrome trace; the profile rollup covers every pipeline phase; tracing off
//! means no spans at all; the serve layer's flight recorder works under a
//! manual clock; and a shard's wire spans time the frame, not the idle
//! connection.

use ajax_crawl::model::AppModel;
use ajax_dist::proto::{read_message, write_message, EvalRequest, Message};
use ajax_dist::ShardHandle;
use ajax_engine::{AjaxSearchEngine, EngineConfig};
use ajax_index::{IndexBuilder, Query, RankWeights};
use ajax_net::{Server, Url};
use ajax_obs::{
    chrome_trace_json, chrome_trace_json_named, validate_chrome_trace, ProfileRollup, SpanLog,
};
use ajax_serve::{ServeClock, ServeConfig};
use ajax_webgen::{VidShareServer, VidShareSpec};
use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

fn vidshare(n: u32) -> (Arc<VidShareServer>, Url) {
    let spec = VidShareSpec::small(n);
    let url = Url::parse(&spec.watch_url(0));
    (Arc::new(VidShareServer::new(spec)), url)
}

fn traced_build(n: u32) -> AjaxSearchEngine {
    let (server, start) = vidshare(n);
    AjaxSearchEngine::build(
        server as Arc<dyn Server>,
        &start,
        EngineConfig::ajax(n as usize).with_tracing(true),
    )
}

/// Two same-seed traced builds serialise to byte-identical Chrome traces,
/// and the trace passes shape validation with every phase represented.
#[test]
fn traced_build_emits_a_valid_deterministic_chrome_trace() {
    let a = traced_build(12);
    let b = traced_build(12);
    let names = [(0u32, "line 0"), (1u32, "line 1")];
    let json_a = chrome_trace_json_named(&a.spans, &names);
    let json_b = chrome_trace_json_named(&b.spans, &names);
    assert_eq!(json_a, json_b, "same-seed traces must be byte-identical");

    let stats = validate_chrome_trace(&json_a).expect("trace must be valid");
    assert_eq!(stats.complete_events, a.spans.len());
    for kind in [
        "precrawl.page",
        "crawl.page",
        "crawl.event",
        "crawl.load",
        "index.invert",
    ] {
        assert!(
            stats.span_kinds.contains(kind),
            "trace is missing span kind {kind}"
        );
    }
}

/// The per-phase rollup aggregates every span kind the build emitted, with
/// counts that add back up to the raw span list.
#[test]
fn profile_rollup_covers_the_pipeline_phases() {
    let engine = traced_build(10);
    let rollup = ProfileRollup::from_events(&engine.spans);
    assert!(!rollup.is_empty());
    let rows = rollup.rows();
    let kinds_in_rows: BTreeSet<&str> = rows.iter().map(|r| r.kind.as_str()).collect();
    let kinds_in_spans: BTreeSet<&str> = engine.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        kinds_in_rows,
        kinds_in_spans.iter().copied().collect::<BTreeSet<_>>()
    );
    let total: u64 = rows.iter().map(|r| r.count).sum();
    assert_eq!(total as usize, engine.spans.len());
    let rendered = rollup.render();
    for kind in kinds_in_rows {
        assert!(rendered.contains(kind), "rollup table must list {kind}");
    }
}

/// With tracing off the engine carries no spans and the rollup is empty —
/// the observable half of the zero-cost-when-disabled contract.
#[test]
fn untraced_build_produces_no_spans() {
    let (server, start) = vidshare(8);
    let engine = AjaxSearchEngine::build(server as Arc<dyn Server>, &start, EngineConfig::ajax(8));
    assert!(engine.spans.is_empty());
    assert!(ProfileRollup::from_events(&engine.spans).is_empty());
}

/// Serve-layer flight recorder under a manual clock: queries, shard
/// fan-out, and the merge all land in the ring, and the span log serialises
/// to a valid Chrome trace.
#[test]
fn serve_trace_smoke_under_manual_clock() {
    let engine = traced_build(10);
    let (clock, _handle) = ServeClock::manual();
    let server = engine.into_server(
        ServeConfig::default()
            .with_clock(clock)
            .with_eval_cost_micros(250)
            .with_tracing(true),
    );
    server.search("video").expect("query");
    server.search("video").expect("cached query");
    let spans = server.take_trace();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("serve.query"), 2);
    assert_eq!(count("serve.merge"), 1, "the cache hit skips the merge");
    assert!(count("shard.eval") >= 1, "shards must record evaluations");
    let json = chrome_trace_json(&spans);
    let stats = validate_chrome_trace(&json).expect("serve trace must be valid");
    assert_eq!(stats.complete_events, spans.len());
}

/// Two same-seed runs record byte-identical `index.invert` and `serve.query`
/// spans. The `shard.eval` spans interleave on worker threads, but the
/// query-level timeline is pinned by the virtual clock: each evaluation
/// advances it by a fixed cost regardless of scheduling order.
#[test]
fn invert_and_serve_query_spans_identical_across_same_seed_runs() {
    let run = || {
        let engine = traced_build(10);
        let invert: Vec<_> = engine
            .spans
            .iter()
            .filter(|s| s.name == "index.invert")
            .cloned()
            .collect();
        let (clock, _handle) = ServeClock::manual();
        let server = engine.into_server(
            ServeConfig::default()
                .with_clock(clock)
                .with_eval_cost_micros(250)
                .with_tracing(true),
        );
        for q in ["video", "wow dance", "video"] {
            server.search(q).expect("query");
        }
        let queries: Vec<_> = server
            .take_trace()
            .into_iter()
            .filter(|s| s.name == "serve.query")
            .collect();
        (invert, queries)
    };
    let (invert_a, queries_a) = run();
    let (invert_b, queries_b) = run();
    assert!(!invert_a.is_empty());
    assert_eq!(invert_a, invert_b, "index.invert spans must be identical");
    assert_eq!(queries_a.len(), 3);
    assert_eq!(queries_a, queries_b, "serve.query spans must be identical");
}

/// A shard's `rpc.recv` covers receiving and decoding a frame, not the time
/// the connection sat idle before it arrived.
#[test]
fn shard_rpc_recv_leaves_out_the_idle_wait_before_a_frame() {
    let mut model = AppModel::new("http://x/1");
    model.add_state(1, "wow great video".to_string(), None);
    let mut builder = IndexBuilder::new();
    builder.add_model(&model, Some(0.3));
    let trace = Arc::new(Mutex::new(SpanLog::with_capacity(64)));
    let shard = ShardHandle::spawn(Arc::new(builder.build()), 0, 0, Some(Arc::clone(&trace)))
        .expect("spawn a shard");
    let mut conn = TcpStream::connect(shard.addr).expect("connect");
    // A round trip first, so the connection thread is surely waiting for the
    // next frame while this one idles.
    let mut round_trip = |msg: Message| {
        write_message(&mut conn, &msg).expect("send");
        read_message(&mut conn).expect("answer")
    };
    assert!(matches!(round_trip(Message::Ping), Message::Pong(_)));
    std::thread::sleep(std::time::Duration::from_millis(50));
    let eval = EvalRequest {
        id: 5,
        query: Query::parse("wow"),
        weights: RankWeights::default(),
    };
    assert!(matches!(round_trip(Message::Eval(eval)), Message::Reply(_)));
    let spans = trace.lock().expect("trace lock").take();
    let recv = spans
        .iter()
        .find(|s| s.name == "rpc.recv")
        .expect("an rpc.recv span");
    assert!(recv.dur < 50_000, "rpc.recv lasted {} µs", recv.dur);
}
