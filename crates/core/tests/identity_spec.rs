//! What a state *is*, and what it is *called*.
//!
//! The crawler tells states apart by the normalized text of their DOM and
//! stores each under the FNV-64 of that text (`State::hash`): model files,
//! the index and replay's divergence check all read the name. Two things
//! are pinned here. The name is still exactly the FNV of the text, for
//! every state of every synthetic site, as replayed from the stored model —
//! whatever way the crawler came by the text (spliced views, memoized
//! fragments). And the name is not the identity: two pages whose texts
//! collide under FNV-64 are two states.

use ajax_crawl::crawler::{CrawlConfig, Crawler};
use ajax_crawl::replay::reconstruct_state;
use ajax_crawl::AppModel;
use ajax_dom::fnv64_str;
use ajax_net::server::{FnServer, Request, Response};
use ajax_net::{LatencyModel, Server, Url};
use ajax_webgen::{
    video_meta, GalleryServer, GallerySpec, NewsShareServer, NewsSpec, VidShareServer, VidShareSpec,
};
use std::sync::Arc;

fn crawl(server: Arc<dyn Server>, urls: Vec<String>, config: CrawlConfig) -> Vec<AppModel> {
    let mut crawler = Crawler::new(server, LatencyModel::Zero, config.storing_dom());
    urls.iter()
        .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl").model)
        .collect()
}

fn assert_hashes_name_the_replayed_text(site: &str, models: &[AppModel], min_states: usize) {
    let states: usize = models.iter().map(AppModel::state_count).sum();
    assert!(states >= min_states, "{site}: only {states} states crawled");
    for model in models {
        for state in &model.states {
            let doc = reconstruct_state(model, state.id)
                .unwrap_or_else(|e| panic!("{site} {} {}: {e}", model.url, state.id));
            assert_eq!(
                state.hash,
                fnv64_str(&doc.normalized()),
                "{site} {} {}",
                model.url,
                state.id
            );
            assert_eq!(state.dom_html.as_deref(), Some(doc.to_html().as_str()));
        }
    }
}

#[test]
fn every_state_hash_is_the_fnv_of_its_replayed_text() {
    let spec = VidShareSpec::small(40);
    let urls = (0..40)
        .filter(|&v| video_meta(&spec, v).comment_pages >= 2)
        .take(6)
        .map(|v| spec.watch_url(v))
        .collect();
    let models = crawl(
        Arc::new(VidShareServer::new(spec)),
        urls,
        CrawlConfig::ajax(),
    );
    assert_hashes_name_the_replayed_text("vidshare", &models, 12);

    let spec = NewsSpec::small(30);
    let urls = [3, 7, 11].iter().map(|&p| spec.page_url(p)).collect();
    let config = CrawlConfig::ajax().with_max_states(20);
    let models = crawl(Arc::new(NewsShareServer::new(spec)), urls, config);
    assert_hashes_name_the_replayed_text("newsshare", &models, 12);

    let spec = GallerySpec::small(6);
    let urls = (0..4).map(|a| spec.page_url(a)).collect();
    let config = CrawlConfig::ajax().with_equiv_prune();
    let models = crawl(Arc::new(GalleryServer::new(spec)), urls, config);
    assert_hashes_name_the_replayed_text("gallery", &models, 12);
}

/// Two words with `fnv64("<div id=\"b\" onclick=\"flip()\">" + word)` equal
/// (found by a cycle search over 11-letter words, about 2^33 hashes), so
/// the two pages below normalize to different texts with one FNV-64.
const COLLIDING: [&str; 2] = ["36WmboDZSWb", "oHcXjjVM8Fc"];

#[test]
fn texts_that_collide_under_fnv_are_two_states() {
    let [first, second] = COLLIDING;
    let page = format!(
        "<div id=\"b\" onclick=\"flip()\">{first}</div>\
         <script>function flip() {{ document.getElementById('b').innerHTML = '{second}'; }}</script>"
    );
    let server = Arc::new(FnServer(move |_: &Request| Response::html(page.clone())));
    let models = crawl(
        server,
        vec!["http://x/page".to_string()],
        CrawlConfig::ajax(),
    );
    let model = &models[0];

    // The click leads somewhere new, though it leads to the same hash.
    assert_eq!(model.state_count(), 2, "{:?}", model.states);
    assert_eq!(model.transitions.len(), 1);
    let [before, after] = [&model.states[0], &model.states[1]];
    assert_eq!((before.text.as_str(), after.text.as_str()), (first, second));
    assert_eq!(before.hash, after.hash, "the collision is what is tested");
    for state in &model.states {
        let text = reconstruct_state(model, state.id)
            .expect("replays")
            .normalized();
        assert_eq!(state.hash, fnv64_str(&text));
        assert!(text.contains(&state.text));
    }
}
