// Unit tests of the crawler, spliced into `crawler.rs` by `include!`.

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};

    fn vidshare(n: u32) -> Arc<VidShareServer> {
        Arc::new(VidShareServer::new(VidShareSpec::small(n)))
    }

    fn crawl(config: CrawlConfig, video: u32) -> PageCrawl {
        let server = vidshare(50);
        let mut crawler = Crawler::new(server, LatencyModel::Fixed(10_000), config);
        crawler
            .crawl_page(&Url::parse(&format!(
                "http://vidshare.example/watch?v={video}"
            )))
            .expect("crawl must succeed")
    }

    /// A multi-page video under the default small(50) spec.
    fn multi_page_video() -> (u32, u32) {
        let spec = VidShareSpec::small(50);
        for v in 0..50 {
            let pages = ajax_webgen::video_meta(&spec, v).comment_pages;
            if (3..=6).contains(&pages) {
                return (v, pages);
            }
        }
        panic!("no 3..6-page video in the first 50");
    }

    #[test]
    fn traditional_crawl_single_state() {
        let crawl = crawl(CrawlConfig::traditional(), 3);
        assert_eq!(crawl.model.state_count(), 1);
        assert_eq!(crawl.stats.events_fired, 0);
        assert_eq!(crawl.stats.ajax_network_calls, 0);
        assert!(crawl.stats.crawl_micros > 0);
        assert!(!crawl.model.states[0].text.is_empty());
    }

    #[test]
    fn ajax_crawl_discovers_all_comment_pages() {
        let (video, pages) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(
            result.model.state_count(),
            pages as usize,
            "one state per comment page"
        );
        // All states reachable from the initial one.
        for s in 1..result.model.state_count() {
            assert!(
                result.model.event_path(StateId(s as u32)).is_some(),
                "state {s} unreachable"
            );
        }
    }

    #[test]
    fn state_texts_contain_the_right_comments() {
        let (video, pages) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        let spec = VidShareSpec::small(50);
        // Every comment page's first comment appears in exactly the states
        // that show that page.
        for page in 1..=pages {
            let comment = ajax_webgen::text::comment_text(&spec, video, page, 0);
            assert!(
                result
                    .model
                    .states
                    .iter()
                    .any(|s| s.text.contains(&comment)),
                "comment of page {page} not found in any state"
            );
        }
    }

    #[test]
    fn hot_node_cache_reduces_network_calls() {
        let (video, _pages) = multi_page_video();
        let cached = crawl(CrawlConfig::ajax(), video);
        let uncached = crawl(CrawlConfig::ajax_no_cache(), video);

        // Same states either way (the cache must not change the model)...
        assert_eq!(cached.model.state_count(), uncached.model.state_count());
        let cached_hashes: Vec<u64> = cached.model.states.iter().map(|s| s.hash).collect();
        let uncached_hashes: Vec<u64> = uncached.model.states.iter().map(|s| s.hash).collect();
        assert_eq!(cached_hashes, uncached_hashes);

        // ...but strictly fewer network calls with the policy on.
        assert!(
            cached.stats.ajax_network_calls < uncached.stats.ajax_network_calls,
            "cached {} !< uncached {}",
            cached.stats.ajax_network_calls,
            uncached.stats.ajax_network_calls
        );
        assert!(cached.stats.cache_hits > 0);
        assert_eq!(uncached.stats.cache_hits, 0);
        // With one hot node per page, each distinct comment page is fetched
        // at most once: pages 2..=N plus possibly page 1 (reached via `prev`,
        // whose inline copy never went through the hot node).
        let states = cached.model.state_count() as u64;
        assert!(
            (states - 1..=states).contains(&cached.stats.ajax_network_calls),
            "expected {}..={} calls, got {}",
            states - 1,
            states,
            cached.stats.ajax_network_calls
        );
    }

    #[test]
    fn crawl_time_cached_faster() {
        let (video, _) = multi_page_video();
        let cached = crawl(CrawlConfig::ajax(), video);
        let uncached = crawl(CrawlConfig::ajax_no_cache(), video);
        assert!(
            cached.stats.network_micros < uncached.stats.network_micros,
            "caching must reduce network time"
        );
    }

    #[test]
    fn max_states_cap_respected() {
        let (video, pages) = multi_page_video();
        assert!(pages >= 3);
        let result = crawl(CrawlConfig::ajax().with_max_states(2), video);
        assert_eq!(result.model.state_count(), 2);
    }

    #[test]
    fn ajax_overhead_vs_traditional_shape() {
        // Aggregate over several pages: the per-page overhead factor must be
        // substantially above 1 and per-state overhead around 2 (Table 7.2).
        let server = vidshare(50);
        let mut trad = Crawler::new(
            Arc::clone(&server) as Arc<dyn Server>,
            LatencyModel::thesis_default(1),
            CrawlConfig::traditional(),
        );
        let mut ajax = Crawler::new(server, LatencyModel::thesis_default(1), CrawlConfig::ajax());
        let mut trad_total = 0u64;
        let mut ajax_total = 0u64;
        let mut states = 0u64;
        for v in 0..20 {
            let url = Url::parse(&format!("http://vidshare.example/watch?v={v}"));
            trad_total += trad.crawl_page(&url).unwrap().stats.crawl_micros;
            let pc = ajax.crawl_page(&url).unwrap();
            ajax_total += pc.stats.crawl_micros;
            states += pc.stats.states;
        }
        let per_page = ajax_total as f64 / trad_total as f64;
        let per_state = (ajax_total as f64 / states as f64) / (trad_total as f64 / 20.0);
        assert!(
            per_page > 3.0,
            "AJAX must cost much more per page (got {per_page:.2})"
        );
        assert!(
            (1.2..=5.0).contains(&per_state),
            "per-state overhead should be moderate (got {per_state:.2})"
        );
    }

    #[test]
    fn http_error_is_reported() {
        let server = vidshare(5);
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let err = crawler
            .crawl_page(&Url::parse("http://vidshare.example/watch?v=99999"))
            .unwrap_err();
        assert!(matches!(err, CrawlError::Http { status: 404, .. }));
    }

    #[test]
    fn store_dom_keeps_replay_data() {
        let (video, _) = multi_page_video();
        let result = crawl(CrawlConfig::ajax().storing_dom(), video);
        assert!(result.model.page_html.is_some());
        assert!(result.model.states.iter().all(|s| s.dom_html.is_some()));
        assert!(!result.model.fetches.is_empty());
    }

    #[test]
    fn trace_matches_stats() {
        let (video, _) = multi_page_video();
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(
            result.trace.net_total(),
            result.stats.network_micros,
            "trace network total must equal measured network time"
        );
        assert_eq!(
            result.trace.duration(),
            result.stats.crawl_micros,
            "trace duration must equal crawl time"
        );
    }

    #[test]
    fn crawl_is_deterministic() {
        let (video, _) = multi_page_video();
        let a = crawl(CrawlConfig::ajax(), video);
        let b = crawl(CrawlConfig::ajax(), video);
        assert_eq!(a.model, b.model);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn static_prune_cuts_events_without_changing_the_model() {
        let (video, _) = multi_page_video();
        let pruned = crawl(CrawlConfig::ajax(), video);
        let unpruned = crawl(CrawlConfig::ajax().without_static_prune(), video);
        // The title-hover handler is proven stateless once per state.
        assert!(pruned.stats.pruned_events > 0, "hover must be pruned");
        assert_eq!(unpruned.stats.pruned_events, 0);
        assert!(
            pruned.stats.events_fired < unpruned.stats.events_fired,
            "pruning must fire fewer events: {} !< {}",
            pruned.stats.events_fired,
            unpruned.stats.events_fired
        );
        // Soundness: the discovered application model is identical.
        assert_eq!(pruned.model.states, unpruned.model.states);
        assert_eq!(pruned.model.transitions, unpruned.model.transitions);
    }

    #[test]
    fn verify_prune_finds_no_mismatches() {
        let (video, _) = multi_page_video();
        let verified = crawl(CrawlConfig::ajax().verifying(), video);
        assert!(verified.stats.pruned_events > 0, "candidates exist");
        assert_eq!(verified.stats.prune_mismatches, 0, "analysis is sound");
        // Verify mode fires everything, so it matches the no-prune crawl.
        let baseline = crawl(CrawlConfig::ajax().without_static_prune(), video);
        assert_eq!(verified.stats.events_fired, baseline.stats.events_fired);
        assert_eq!(verified.model.states, baseline.model.states);
        assert_eq!(verified.model.transitions, baseline.model.transitions);
    }

    #[test]
    fn single_page_video_has_one_state() {
        let spec = VidShareSpec::small(50);
        let video = (0..50)
            .find(|&v| ajax_webgen::video_meta(&spec, v).comment_pages == 1)
            .expect("some single-page video");
        let result = crawl(CrawlConfig::ajax(), video);
        assert_eq!(result.model.state_count(), 1);
        assert_eq!(result.stats.ajax_network_calls, 0);
    }
}

#[cfg(test)]
mod guard_and_recrawl_tests {
    use super::*;
    use ajax_net::server::{FnServer, Request, Response};
    use ajax_webgen::{VidShareServer, VidShareSpec};
    use std::sync::Arc;

    /// A page with a destructive handler among the navigation.
    fn destructive_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                     var items = ['a', 'b'];\
                     function deleteItem() { items.pop(); poisonTheWell(); }\
                     function fetchMore(p) {\
                       var xhr = new XMLHttpRequest();\
                       xhr.open('GET', '/more?p=' + p, false);\
                       xhr.send(null);\
                       document.getElementById('box').innerHTML = xhr.responseText;\
                     }\
                     </script></head><body>\
                     <span id=\"kill\" onclick=\"deleteItem()\">Delete</span>\
                     <span id=\"more\" onclick=\"fetchMore(2)\">more</span>\
                     <div id=\"box\">first</div>\
                     </body></html>",
            ),
            "/more" => Response::html("<p>second batch</p>"),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn update_events_never_fired() {
        let mut crawler = Crawler::new(
            destructive_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax(),
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        // deleteItem calls an undefined function; had it run, js_errors > 0.
        assert_eq!(crawl.stats.js_errors, 0, "Delete handler must not run");
        // The Delete control exists in both discovered states, so it is
        // skipped once per state.
        assert_eq!(crawl.stats.events_skipped, 2);
        assert_eq!(crawl.model.state_count(), 2, "fetchMore still crawled");
    }

    #[test]
    fn guard_patterns_match_in_any_case_anywhere() {
        for (code, pattern, hit) in [
            ("doDELETE(3)", "delete", true),
            ("logout()", "LogOut", true),
            ("del", "delete", false), // pattern longer than the code
            ("remov e()", "remove", false),
            ("anything", "", false), // an empty pattern guards nothing
            ("", "", false),
            // Bytes, not characters: a window may start inside one.
            ("löschen('é') // DÉLETE delete", "delete", true),
            ("naïve", "ïV", true),
            ("日本語", "delete", false),
        ] {
            assert_eq!(
                contains_ignore_case(code, pattern),
                hit,
                "{code:?} {pattern:?}"
            );
        }
    }

    #[test]
    fn guard_disabled_fires_everything() {
        let mut crawler = Crawler::new(
            destructive_server(),
            LatencyModel::Zero,
            CrawlConfig {
                avoid_actions: Vec::new(),
                ..CrawlConfig::ajax()
            },
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert!(crawl.stats.js_errors > 0, "destructive handler ran");
    }

    /// A page whose pure handler arrives only in a server-injected
    /// fragment — it is absent from the initial DOM, so the planner must
    /// summarize and memoize it mid-crawl.
    fn injected_handler_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                     function noop(tag) { var t = tag; return t; }\
                     function fetchMore(p) {\
                       var xhr = new XMLHttpRequest();\
                       xhr.open('GET', '/more?p=' + p, false);\
                       xhr.send(null);\
                       document.getElementById('box').innerHTML = xhr.responseText;\
                     }\
                     </script></head><body>\
                     <span id=\"more\" onclick=\"fetchMore(2)\">more</span>\
                     <div id=\"box\">first</div>\
                     </body></html>",
            ),
            "/more" => Response::html("<p onmouseover=\"noop('late')\">second batch</p>"),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn planner_memoizes_handlers_injected_mid_crawl() {
        let mut crawler = Crawler::new(
            injected_handler_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax(),
        );
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert_eq!(crawl.model.state_count(), 2);
        // noop('late') exists only in the injected fragment, yet it is
        // proven pure and pruned on the second state.
        assert!(crawl.stats.pruned_events > 0, "injected handler pruned");

        let unpruned = Crawler::new(
            injected_handler_server(),
            LatencyModel::Zero,
            CrawlConfig::ajax().without_static_prune(),
        )
        .crawl_page(&Url::parse("http://x/page"))
        .unwrap();
        assert_eq!(crawl.model.states, unpruned.model.states);
        assert_eq!(crawl.model.transitions, unpruned.model.transitions);
        assert!(crawl.stats.events_fired < unpruned.stats.events_fired);
    }

    #[test]
    fn script_parse_failures_surface_in_stats() {
        let server: Arc<dyn Server> = Arc::new(FnServer(|req: &Request| {
            if req.url.path == "/page" {
                Response::html(
                    "<html><head><script>function broken( {</script></head>\
                     <body><div id=\"box\">x</div></body></html>",
                )
            } else {
                Response::not_found()
            }
        }));
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let crawl = crawler.crawl_page(&Url::parse("http://x/page")).unwrap();
        assert_eq!(crawl.stats.script_errors, 1);
    }

    #[test]
    fn recrawl_with_history_skips_barren_events() {
        let spec = VidShareSpec::small(50);
        let video = (0..50)
            .find(|&v| (3..=6).contains(&ajax_webgen::video_meta(&spec, v).comment_pages))
            .unwrap();
        let url = Url::parse(&spec.watch_url(video));
        let server = Arc::new(VidShareServer::new(spec));
        // Static pruning already removes the statically-provable barren
        // events (the title mouseover); disable it so this test isolates
        // the *runtime* history mechanism, which also catches events that
        // are barren for dynamic reasons the analysis cannot see.
        let mut crawler = Crawler::new(
            server,
            LatencyModel::Fixed(1_000),
            CrawlConfig::ajax().without_static_prune(),
        );

        let (first, history) = crawler.crawl_page_with_history(&url, None).unwrap();
        let (barren, productive) = history.counts();
        assert!(barren > 0, "the title mouseover is barren");
        assert!(productive > 0);

        let (second, _) = crawler
            .crawl_page_with_history(&url, Some(&history))
            .unwrap();
        // Timing differs (fewer events, different jitter sequence); the
        // *content* must not.
        assert_eq!(first.model.states, second.model.states);
        assert_eq!(first.model.transitions, second.model.transitions);
        assert!(
            second.stats.events_fired < first.stats.events_fired,
            "history must cut events: {} !< {}",
            second.stats.events_fired,
            first.stats.events_fired
        );
        assert!(second.stats.events_skipped > 0);
        assert!(
            second.stats.crawl_micros < first.stats.crawl_micros,
            "skipping events must save time"
        );
    }

    #[test]
    fn history_roundtrip_stable() {
        // Crawling with the produced history and collecting a new history
        // must reach a fixpoint (barren keys stay known via carry-over: an
        // event skipped as known barren is recorded barren again), with
        // the planner on and off.
        let spec = VidShareSpec::small(50);
        let url = Url::parse(&spec.watch_url(3));
        let server = Arc::new(VidShareServer::new(spec));
        for config in [
            CrawlConfig::ajax(),
            CrawlConfig::ajax().without_static_prune(),
        ] {
            let mut crawler = Crawler::new(server.clone(), LatencyModel::Zero, config);
            let (_, h1) = crawler.crawl_page_with_history(&url, None).unwrap();
            let (m2, h2) = crawler.crawl_page_with_history(&url, Some(&h1)).unwrap();
            assert_eq!(h1.counts(), h2.counts());
            let (m3, _) = crawler.crawl_page_with_history(&url, Some(&h2)).unwrap();
            assert_eq!(m2.model.states, m3.model.states);
            assert_eq!(m2.model.transitions, m3.model.transitions);
            assert!(
                m3.stats.events_fired <= m2.stats.events_fired,
                "session 3 fired {} events, session 2 {}",
                m3.stats.events_fired,
                m2.stats.events_fired
            );
        }
    }
}

#[cfg(test)]
mod equiv_tests {
    use super::*;
    use ajax_net::server::{FnServer, Request, Response};
    use std::sync::Arc;

    fn crawl_with(server: Arc<dyn Server>, config: CrawlConfig) -> PageCrawl {
        let mut crawler = Crawler::new(server, LatencyModel::Zero, config);
        crawler.crawl_page(&Url::parse("http://x/page")).unwrap()
    }

    /// The photo-viewer fragment for photo `i` of 3: hero content plus the
    /// prev/next controls (constant-argument handlers, like VidShare's
    /// comment nav — the current photo is never linked, so hero events are
    /// productive in every state).
    fn photo_fragment(i: u32) -> String {
        let mut html = format!("<p>photo {i}</p>");
        if i > 0 {
            html.push_str(&format!(
                "<span class=\"nav\" onclick=\"loadPhoto({})\">prev</span>",
                i - 1
            ));
        }
        if i < 2 {
            html.push_str(&format!(
                "<span class=\"nav\" onclick=\"loadPhoto({})\">next</span>",
                i + 1
            ));
        }
        html
    }

    /// A gallery-style page: one AJAX hero region (productive nav events)
    /// plus redundant per-row caption handlers that are barren everywhere
    /// (each caption div is pre-filled with exactly what its handler
    /// writes) and live in one equivalence class.
    fn gallery_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| {
            match req.url.path.as_str() {
            "/page" => Response::html(format!(
                "<html><head><script>\
                 function loadPhoto(i) {{\
                   var xhr = new XMLHttpRequest();\
                   xhr.open('GET', '/photo?i=' + i, false);\
                   xhr.send(null);\
                   document.getElementById('hero').innerHTML = xhr.responseText;\
                 }}\
                 function showCaption(i) {{ document.getElementById('cap_' + i).innerHTML = 'caption ' + i; }}\
                 </script></head><body>\
                 <div id=\"hero\">{}</div>\
                 <div id=\"caps\">\
                 <div id=\"cap_0\" onclick=\"showCaption(0)\">caption 0</div>\
                 <div id=\"cap_1\" onclick=\"showCaption(1)\">caption 1</div>\
                 <div id=\"cap_2\" onclick=\"showCaption(2)\">caption 2</div>\
                 </div></body></html>",
                photo_fragment(0)
            )),
            "/photo" => match req.url.param("i").and_then(|i| i.parse::<u32>().ok()) {
                Some(i) if i < 3 => Response::html(photo_fragment(i)),
                _ => Response::not_found(),
            },
            _ => Response::not_found(),
        }
        }))
    }

    #[test]
    fn equiv_and_commute_pruning_cut_events_without_changing_the_model() {
        let off = crawl_with(gallery_server(), CrawlConfig::ajax());
        let on = crawl_with(gallery_server(), CrawlConfig::ajax().with_equiv_prune());

        // One caption representative fires in the initial state; its class
        // siblings inherit the barren verdict there, and all captions are
        // carried barren into the photo states across the commuting hero
        // events.
        assert!(on.stats.equiv_pruned_events > 0, "{:?}", on.stats);
        assert!(on.stats.commute_pruned_events > 0, "{:?}", on.stats);
        // Every skipped event is an event the baseline fired.
        assert_eq!(
            on.stats.events_fired + on.stats.equiv_pruned_events + on.stats.commute_pruned_events,
            off.stats.events_fired
        );
        // The acceptance bar: ≥ 40% fewer fired events.
        assert!(
            on.stats.events_fired * 5 <= off.stats.events_fired * 3,
            "expected >=40% reduction: {} vs {}",
            on.stats.events_fired,
            off.stats.events_fired
        );
        // Soundness on this site: the discovered model is identical.
        assert_eq!(on.model.states, off.model.states);
        assert_eq!(on.model.transitions, off.model.transitions);

        // Verify mode fires everything and confirms every claim.
        let verify = crawl_with(
            gallery_server(),
            CrawlConfig::ajax().with_equiv_prune().verifying(),
        );
        assert_eq!(verify.stats.equiv_mismatches, 0);
        assert_eq!(verify.stats.events_fired, off.stats.events_fired);
        assert!(verify.stats.equiv_pruned_events + verify.stats.commute_pruned_events > 0);
        assert_eq!(verify.model.states, off.model.states);
        assert_eq!(verify.model.transitions, off.model.transitions);
    }

    /// Two handlers with isomorphic summaries but different runtime
    /// behavior: `setA` rewrites its slot with the content it already has
    /// (barren), `setB` actually changes its slot. The class heuristic
    /// wrongly collapses them — which is exactly why `Prune::Equiv` is not
    /// the default and verify mode exists.
    fn twin_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(
                "<html><head><script>\
                 function setA() { document.getElementById('slot_a').innerHTML = 'alpha'; }\
                 function setB() { document.getElementById('slot_b').innerHTML = 'beta'; }\
                 </script></head><body>\
                 <div id=\"slot_a\" onclick=\"setA()\">alpha</div>\
                 <div id=\"slot_b\" onclick=\"setB()\">other</div>\
                 </body></html>",
            ),
            _ => Response::not_found(),
        }))
    }

    #[test]
    fn verify_equiv_counts_mismatches_on_unsound_classes() {
        let off = crawl_with(twin_server(), CrawlConfig::ajax());
        assert_eq!(off.model.state_count(), 2, "setB is productive");

        // Blind pruning loses the state — the documented failure mode.
        let on = crawl_with(twin_server(), CrawlConfig::ajax().with_equiv_prune());
        assert!(on.stats.equiv_pruned_events > 0);
        assert_eq!(on.model.state_count(), 1, "heuristic overreach");

        // Verify mode counts the overreach and keeps the model intact.
        // Every claim is attributed to the rule that made it: the class
        // claim fails, and no purity claim does.
        let verify = crawl_with(
            twin_server(),
            CrawlConfig::ajax().with_equiv_prune().verifying(),
        );
        assert_eq!(verify.stats.equiv_mismatches, 1, "{:?}", verify.stats);
        assert_eq!(verify.stats.prune_mismatches, 0, "{:?}", verify.stats);
        assert_eq!(verify.model.states, off.model.states);
        assert_eq!(verify.model.transitions, off.model.transitions);
    }

    /// The list fragment: version `i` of the wrapper content. The rows are
    /// byte-identical across versions (their handlers are barren
    /// everywhere); only the header paragraph changes.
    fn list_fragment(i: u32) -> String {
        format!(
            "<p>list {i}</p>\
             <div id=\"row_0\" onclick=\"touchRow(0)\">row 0</div>\
             <div id=\"row_1\" onclick=\"touchRow(1)\">row 1</div>\
             <span onclick=\"swapList({})\">flip</span>",
            1 - i
        )
    }

    /// A page whose productive event rewrites the *ancestor* of the barren
    /// rows: `swapList` writes `#wrap`, which contains `#row_*`. String
    /// overlap alone would call them disjoint; the document-containment
    /// refinement must block barren inheritance across the swap.
    fn nested_server() -> Arc<dyn Server> {
        Arc::new(FnServer(|req: &Request| {
            match req.url.path.as_str() {
            "/page" => Response::html(format!(
                "<html><head><script>\
                 function swapList(i) {{\
                   var xhr = new XMLHttpRequest();\
                   xhr.open('GET', '/list?i=' + i, false);\
                   xhr.send(null);\
                   document.getElementById('wrap').innerHTML = xhr.responseText;\
                 }}\
                 function touchRow(i) {{ document.getElementById('row_' + i).innerHTML = 'row ' + i; }}\
                 </script></head><body>\
                 <div id=\"wrap\">{}</div>\
                 </body></html>",
                list_fragment(1)
            )),
            "/list" => match req.url.param("i").and_then(|i| i.parse::<u32>().ok()) {
                Some(i) if i < 2 => Response::html(list_fragment(i)),
                _ => Response::not_found(),
            },
            _ => Response::not_found(),
        }
        }))
    }

    #[test]
    fn ancestor_write_blocks_commute_inheritance() {
        let off = crawl_with(nested_server(), CrawlConfig::ajax());
        let on = crawl_with(nested_server(), CrawlConfig::ajax().with_equiv_prune());
        // The row verdicts must NOT ride across the wrap rewrite: each new
        // state re-fires a row representative instead of inheriting.
        assert_eq!(on.stats.commute_pruned_events, 0, "{:?}", on.stats);
        // Within each state the class still collapses the second row.
        assert_eq!(on.stats.equiv_pruned_events, 2, "{:?}", on.stats);
        assert_eq!(on.model.states, off.model.states);
        assert_eq!(on.model.transitions, off.model.transitions);
        let verify = crawl_with(
            nested_server(),
            CrawlConfig::ajax().with_equiv_prune().verifying(),
        );
        assert_eq!(verify.stats.equiv_mismatches, 0);
    }
}

#[cfg(test)]
mod focused_tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};
    use std::sync::Arc;

    fn crawl_many(config: CrawlConfig, n: u32) -> PageStats {
        let server = Arc::new(VidShareServer::new(VidShareSpec::small(n)));
        let mut crawler = Crawler::new(server, LatencyModel::Fixed(1_000), config);
        let mut total = PageStats::default();
        for v in 0..n {
            let url = Url::parse(&format!("http://vidshare.example/watch?v={v}"));
            total.merge(&crawler.crawl_page(&url).unwrap().stats);
        }
        total
    }

    #[test]
    fn focused_crawl_saves_work() {
        let full = crawl_many(CrawlConfig::ajax(), 30);
        // "unknown" appears only in the showcase video's description —
        // unlike title words, it never leaks into other pages via
        // related-link anchor text — so every other page is off-topic.
        let focused = crawl_many(CrawlConfig::ajax().focused_on(["unknown"]), 30);
        assert!(
            focused.ajax_network_calls < full.ajax_network_calls / 3,
            "focused {} vs full {}",
            focused.ajax_network_calls,
            full.ajax_network_calls
        );
        assert!(focused.states_not_expanded > 0);
        assert!(focused.crawl_micros < full.crawl_micros);
        assert!(focused.states <= full.states);
    }

    #[test]
    fn focused_crawl_keeps_relevant_states() {
        // The showcase video mentions morcheeba in every state (title), so a
        // morcheeba-focused crawl must discover all of its comment pages.
        let spec = VidShareSpec::small(30);
        let pages = ajax_webgen::video_meta(&spec, 0).comment_pages;
        let server = Arc::new(VidShareServer::new(spec));
        let mut crawler = Crawler::new(
            server,
            LatencyModel::Zero,
            CrawlConfig::ajax().focused_on(["morcheeba"]),
        );
        let crawl = crawler
            .crawl_page(&Url::parse("http://vidshare.example/watch?v=0"))
            .unwrap();
        assert_eq!(crawl.model.state_count(), pages as usize);
        assert_eq!(crawl.stats.states_not_expanded, 0);
    }

    #[test]
    fn unfocused_config_expands_everything() {
        let stats = crawl_many(CrawlConfig::ajax(), 10);
        assert_eq!(stats.states_not_expanded, 0);
    }
}

#[cfg(test)]
mod hot_node_tests {
    use super::*;
    use ajax_net::server::{FnServer, Request, Response};
    use std::sync::Arc;

    fn crawl_with(server: Arc<dyn Server>, config: CrawlConfig) -> PageCrawl {
        let mut crawler = Crawler::new(server, LatencyModel::Zero, config);
        crawler.crawl_page(&Url::parse("http://x/page")).unwrap()
    }

    /// Serves `page` at `/page` and comment page `n` at `/c?p=n`.
    fn server_with(page: &'static str) -> Arc<dyn Server> {
        Arc::new(FnServer(move |req: &Request| match req.url.path.as_str() {
            "/page" => Response::html(page),
            "/c" => Response::html(format!(
                "<p>comments page {}</p>",
                req.url.param("p").unwrap_or("?")
            )),
            _ => Response::not_found(),
        }))
    }

    /// `load()` takes no arguments: the URL it fetches comes from the global
    /// `page`, which `more()` advances before every call.
    const GLOBAL_PAGE: &str = "<html><head><script>\
         var page = 1;\
         function load() {\
           var xhr = new XMLHttpRequest();\
           xhr.open('GET', '/c?p=' + page, false);\
           xhr.send(null);\
           document.getElementById('comments').innerHTML = xhr.responseText;\
         }\
         function more() { page = page + 1; load(); }\
         </script></head><body>\
         <div id=\"comments\"><p>comments page 1</p></div>\
         <span onclick=\"more()\">more</span>\
         </body></html>";

    #[test]
    fn hot_call_is_keyed_by_the_url_it_fetches() {
        let cached = crawl_with(server_with(GLOBAL_PAGE), CrawlConfig::ajax());
        let uncached = crawl_with(server_with(GLOBAL_PAGE), CrawlConfig::ajax_no_cache());
        assert_eq!(uncached.model.state_count(), 11, "one state per page, capped");
        assert_eq!(cached.model.state_count(), 11, "{:?}", cached.stats);
        assert_eq!(
            cached.model.graph_signature(),
            uncached.model.graph_signature()
        );
        assert_eq!(cached.model.states, uncached.model.states);
        assert_eq!(cached.model.transitions, uncached.model.transitions);
    }

    #[test]
    fn two_functions_fetching_one_url_share_its_entry() {
        // Each handler replaces the box that holds both spans, so the
        // crawl fires each once, from the initial state.
        const PAGE: &str = "<html><head><script>\
             function loadA() { var xhr = new XMLHttpRequest(); xhr.open('GET', '/c?p=1', false); xhr.send(null); document.getElementById('box').innerHTML = xhr.responseText; }\
             function loadB() { var xhr = new XMLHttpRequest(); xhr.open('GET', '/c?p=1', false); xhr.send(null); document.getElementById('box').innerHTML = xhr.responseText; }\
             </script></head><body>\
             <div id=\"box\"><span onclick=\"loadA()\">a</span><span onclick=\"loadB()\">b</span></div>\
             </body></html>";
        let crawl = crawl_with(server_with(PAGE), CrawlConfig::ajax());
        assert_eq!(crawl.stats.ajax_network_calls, 1, "{:?}", crawl.stats);
        assert_eq!(crawl.stats.cache_hits, 1, "{:?}", crawl.stats);
        let hot: Vec<&str> = crawl.stats.hot_functions.iter().map(String::as_str).collect();
        assert_eq!(hot, ["loadA", "loadB"], "the hit counts its sender");
        assert_eq!(crawl.stats.hot_nodes, 2);
    }

    #[test]
    fn a_send_outside_any_function_is_cached_by_its_url() {
        const PAGE: &str = "<html><body><div id=\"box\">\
             <span onclick=\"var x = new XMLHttpRequest(); x.open('GET', '/c?p=1', false); x.send(null); document.getElementById('box').innerHTML = x.responseText;\">a</span>\
             <span onclick=\"var y = new XMLHttpRequest(); y.open('GET', '/c?p=1', false); y.send(null); document.getElementById('box').innerHTML = y.responseText;\">b</span>\
             </div></body></html>";
        let crawl = crawl_with(server_with(PAGE), CrawlConfig::ajax());
        assert_eq!(crawl.stats.ajax_network_calls, 1, "{:?}", crawl.stats);
        assert_eq!(crawl.stats.cache_hits, 1, "{:?}", crawl.stats);
        let hot: Vec<&str> = crawl.stats.hot_functions.iter().map(String::as_str).collect();
        assert_eq!(hot, ["<inline>"]);
    }
}
