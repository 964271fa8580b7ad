//! Unit tests for the browser embedding (the `PageHost` wiring of DOM, JS
//! and XHR) — exercised directly, below the crawler.

use crate::browser::{Browser, CrawlEnv, EventOutcome};
use crate::crawler::{CpuCostModel, RetryPolicy};
use crate::hotnode::HotNodeCache;
use ajax_net::server::{FnServer, Request, Response};
use ajax_net::{LatencyModel, NetClient, Url};
use std::sync::Arc;

fn echo_server() -> Arc<FnServer<impl Fn(&Request) -> Response + Send + Sync>> {
    Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
        "/data" => Response::html(format!(
            "<p>payload {}</p>",
            req.url.param("p").unwrap_or("?")
        )),
        "/missing" => Response::not_found(),
        _ => Response::not_found(),
    }))
}

/// Runs `f` with a fresh env around a zero-latency client.
fn with_env<T>(f: impl FnOnce(&mut CrawlEnv<'_>) -> T) -> T {
    let mut net = NetClient::new(echo_server(), LatencyModel::Zero);
    let mut cache = HotNodeCache::new();
    let costs = CpuCostModel::free();
    let mut trace = Vec::new();
    let mut rec = ajax_obs::Recorder::Off;
    let mut env = CrawlEnv::new(
        &mut net,
        &mut cache,
        true,
        &costs,
        RetryPolicy::none(),
        &mut trace,
        &mut rec,
    );
    f(&mut env)
}

fn load(html: &str, env: &mut CrawlEnv<'_>) -> Browser {
    let (browser, errors) = Browser::load(Url::parse("http://x/page"), html, 1_000_000, env);
    assert!(errors.is_empty(), "load errors: {errors:?}");
    browser
}

#[test]
fn document_get_element_by_id_and_inner_html() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function swap() { document.getElementById('a').innerHTML = '<b>new</b>'; }\
             </script></head><body><div id=\"a\">old</div></body></html>",
            env,
        );
        let before = browser.doc().document_text();
        assert!(before.contains("old"));
        let outcome = browser.fire_event("swap()", env);
        assert_eq!(outcome.js_error, None);
        assert!(browser.doc().document_text().contains("new"));
        assert!(!browser.doc().document_text().contains("old"));
    });
}

#[test]
fn xhr_full_flow_updates_dom() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function fetchIt(p) {\
               var xhr = new XMLHttpRequest();\
               xhr.open('GET', '/data?p=' + p, false);\
               xhr.send(null);\
               document.getElementById('box').innerHTML = xhr.responseText;\
               return xhr.status;\
             }\
             </script></head><body><div id=\"box\"></div></body></html>",
            env,
        );
        let outcome = browser.fire_event("fetchIt(7)", env);
        assert_eq!(outcome.js_error, None);
        assert_eq!(outcome.network_calls, 1);
        assert!(browser.doc().document_text().contains("payload 7"));
    });
}

#[test]
fn hot_node_cache_serves_second_call() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function go(p) {\
               var xhr = new XMLHttpRequest();\
               xhr.open('GET', '/data?p=' + p, false);\
               xhr.send(null);\
               document.getElementById('box').innerHTML = xhr.responseText;\
             }\
             </script></head><body><div id=\"box\"></div></body></html>",
            env,
        );
        let first = browser.fire_event("go(1)", env);
        assert_eq!((first.network_calls, first.cache_hits), (1, 0));
        let second = browser.fire_event("go(1)", env);
        assert_eq!(
            (second.network_calls, second.cache_hits),
            (0, 1),
            "the same URL must hit the cache"
        );
        let third = browser.fire_event("go(2)", env);
        assert_eq!((third.network_calls, third.cache_hits), (1, 0));
        assert!(env.cache.stats().hot_functions.contains("go"));
    });
}

#[test]
fn snapshot_restore_roundtrip_dom_and_globals() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>var counter = 0;\
             function bump() {\
               counter = counter + 1;\
               document.getElementById('n').innerHTML = '' + counter;\
             }</script></head><body><div id=\"n\">0</div></body></html>",
            env,
        );
        let snapshot = browser.snapshot();
        let hash0 = browser.state_hash(env);
        browser.fire_event("bump()", env);
        browser.fire_event("bump()", env);
        assert!(browser.doc().document_text().contains('2'));
        browser.restore(&snapshot);
        assert_eq!(browser.state_hash(env), hash0);
        // The JS global must be rolled back too, or the next bump would show 3.
        browser.fire_event("bump()", env);
        assert!(browser.doc().document_text().contains('1'));
    });
}

#[test]
fn one_view_serves_hash_snapshot_and_restore() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>var n = 0;\
             function fill(t) { n = n + 1; document.getElementById('box').innerHTML = t; }\
             function quiet() { return 1; }\
             </script></head><body><div id=\"box\">one</div></body></html>",
            env,
        );
        let hash = browser.state_hash(env);
        let hashed = browser.view();
        assert_eq!(hashed.hash(), hash);
        // The snapshot keeps the view the state was hashed from.
        let snapshot = browser.snapshot();
        assert!(std::ptr::eq(snapshot.view(), &*hashed));
        assert!(std::ptr::eq(snapshot.view(), &*browser.view()));

        // A handler that leaves the page alone leaves the view standing; one
        // that refills a box gets a new view — the held one with the box
        // spliced in, equal to a walk of the whole page.
        browser.fire_event("quiet()", env);
        assert!(std::ptr::eq(snapshot.view(), &*browser.view()));
        assert_eq!(browser.state_hash(env), hash);
        browser.fire_event("fill('<b>two</b> three')", env);
        assert!(!std::ptr::eq(snapshot.view(), &*browser.view()));
        assert_eq!(*browser.view(), browser.doc().normalized_view());
        assert_ne!(browser.state_hash(env), hash);
        // Handing the document out forgets the view; the next is a walk.
        let box_id = browser.doc_mut().get_element_by_id("box").unwrap();
        browser.doc_mut().set_attr(box_id, "class", "x");
        assert_eq!(*browser.view(), browser.doc().normalized_view());

        // Restore hands the snapshot's view back, so a restore with nothing
        // run in between has nothing to undo — and a real one undoes both
        // the DOM and the globals.
        browser.restore(&snapshot);
        assert!(std::ptr::eq(snapshot.view(), &*browser.view()));
        browser.restore(&snapshot);
        assert_eq!(
            browser.doc().document_text(),
            snapshot.doc().document_text()
        );
        assert_eq!(
            browser.interp().global("n"),
            Some(&ajax_js::Value::Num(0.0))
        );
        assert_eq!(browser.state_hash(env), hash);
    });
}

#[test]
fn every_restore_unshares_aliased_globals() {
    // A snapshot holds each global as its own deep copy, so a restored page
    // has `a` and `b` apart even though the loaded page aliases them. The
    // restore right after the snapshot keeps the DOM but must still copy
    // the globals back, or the first event of a state would run on aliased
    // objects and every later one on separate ones.
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>var a = [0]; var b = a;\
             function f() {\
               a[0] = a[0] + 1;\
               document.getElementById('box').innerHTML = '' + b[0];\
             }</script></head><body><div id=\"box\">-</div></body></html>",
            env,
        );
        browser.state_hash(env);
        let snapshot = browser.snapshot();
        for _ in 0..2 {
            browser.restore(&snapshot);
            browser.fire_event("f()", env);
            assert_eq!(browser.doc().document_text().trim(), "0");
        }
    });
}

#[test]
fn restore_forgets_functions_declared_since_the_snapshot() {
    // The function table is shared with the snapshot, not copied per
    // restore; a handler that declares one gets a table of its own.
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>function old() { return 1; }</script></head>\
             <body><div id=\"box\">-</div></body></html>",
            env,
        );
        let snapshot = browser.snapshot();
        let outcome = browser.fire_event("function late() { return 2; } late()", env);
        assert_eq!(outcome.js_error, None);
        assert!(browser.interp().has_function("late"));
        browser.restore(&snapshot);
        assert!(!browser.interp().has_function("late"));
        assert!(browser.interp().has_function("old"));
        assert!(browser.fire_event("late()", env).js_error.is_some());
        assert_eq!(browser.fire_event("old()", env).js_error, None);
    });
}

#[test]
fn send_before_open_is_host_error() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function bad() { var x = new XMLHttpRequest(); x.send(null); }\
             </script></head><body></body></html>",
            env,
        );
        let outcome = browser.fire_event("bad()", env);
        assert!(outcome.js_error.is_some());
        assert_eq!(outcome.network_calls, 0);
    });
}

#[test]
fn xhr_status_visible_to_script() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function probe(path) {\
               var xhr = new XMLHttpRequest();\
               xhr.open('GET', path, false);\
               xhr.send(null);\
               document.getElementById('s').innerHTML = '' + xhr.status;\
             }</script></head><body><div id=\"s\"></div></body></html>",
            env,
        );
        browser.fire_event("probe('/missing')", env);
        assert!(browser.doc().document_text().contains("404"));
        browser.fire_event("probe('/data?p=1')", env);
        assert!(browser.doc().document_text().contains("200"));
    });
}

#[test]
fn element_properties_readable() {
    with_env(|env| {
        let mut browser = load(
            "<html><head><script>\
             function read() {\
               var el = document.getElementById('tag');\
               return el.tagName + '/' + el.id + '/' + el.getAttribute('data-x');\
             }</script></head><body><em id=\"tag\" data-x=\"42\">t</em></body></html>",
            env,
        );
        // fire_event discards return values; use interp via a DOM write.
        browser.fire_event("document.getElementById('tag').innerHTML = read()", env);
        let text = browser.doc().document_text();
        assert!(text.contains("EM/tag/42"), "{text}");
    });
}

#[test]
fn outcome_attempted_ajax() {
    let quiet = EventOutcome::default();
    assert!(!quiet.attempted_ajax());
    let networked = EventOutcome {
        network_calls: 1,
        ..EventOutcome::default()
    };
    assert!(networked.attempted_ajax());
    let cached = EventOutcome {
        cache_hits: 2,
        ..EventOutcome::default()
    };
    assert!(cached.attempted_ajax());
}

#[test]
fn trace_interleaves_cpu_and_net() {
    let mut net = NetClient::new(echo_server(), LatencyModel::Fixed(500));
    let mut cache = HotNodeCache::new();
    let costs = CpuCostModel {
        parse_nanos_per_byte: 1_000, // 1 µs per byte so CPU shows up.
        ..CpuCostModel::free()
    };
    let mut trace = Vec::new();
    let mut rec = ajax_obs::Recorder::Off;
    {
        let mut env = CrawlEnv::new(
            &mut net,
            &mut cache,
            true,
            &costs,
            RetryPolicy::none(),
            &mut trace,
            &mut rec,
        );
        let mut browser = load(
            "<html><head><script>\
             function go() {\
               var xhr = new XMLHttpRequest();\
               xhr.open('GET', '/data?p=1', false);\
               xhr.send(null);\
               document.getElementById('b').innerHTML = xhr.responseText;\
             }</script></head><body><div id=\"b\">x</div></body></html>",
            &mut env,
        );
        browser.fire_event("go()", &mut env);
        env.flush_trace();
    }
    use ajax_net::sched::Segment;
    assert!(trace.iter().any(|s| matches!(s, Segment::Cpu(_))));
    assert!(trace.iter().any(|s| matches!(s, Segment::Net(500))));
}
