//! State reconstruction (thesis §5.4, "Result Aggregation").
//!
//! A search result is a `(URL, state)` pair, but a state has no URL of its
//! own — to present it, the engine must *reconstruct* it: load the page's
//! initial DOM and re-invoke the annotated events along the path from the
//! initial state to the target state. Because the crawler recorded every
//! `(url, body)` it fetched, replay runs fully offline against a
//! [`ReplayServer`] — no network, no staleness.

use crate::browser::{Browser, CrawlEnv};
use crate::crawler::CpuCostModel;
use crate::hotnode::HotNodeCache;
use crate::model::{AppModel, StateId};
use ajax_dom::Document;
use ajax_net::server::{Request, Response, Server};
use ajax_net::{LatencyModel, NetClient, Url};
use std::collections::HashMap;
use std::sync::Arc;

/// Serves the responses recorded during crawling (plus the page itself).
pub(crate) struct ReplayServer {
    bodies: HashMap<String, String>,
}

impl ReplayServer {
    /// Builds a replay server from a crawled model.
    pub(crate) fn from_model(model: &AppModel) -> Self {
        let mut bodies = HashMap::new();
        if let Some(page) = &model.page_html {
            bodies.insert(model.url.clone(), page.clone());
        }
        for fetch in &model.fetches {
            bodies.insert(fetch.url.clone(), fetch.body.clone());
        }
        Self { bodies }
    }
}

impl Server for ReplayServer {
    fn handle(&self, request: &Request) -> Response {
        match self.bodies.get(&request.url.to_string()) {
            Some(body) => Response::html(body.clone()),
            None => Response::not_found(),
        }
    }

    fn name(&self) -> &str {
        "replay"
    }
}

/// Why replay failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The model was crawled without `store_dom`, so there is no page HTML.
    NoPageHtml,
    /// No event path leads from the initial state to the target.
    Unreachable(StateId),
    /// Replaying the path produced a different state than the crawl did
    /// (would indicate non-determinism; surfaced for honesty).
    Diverged {
        expected_hash: u64,
        actual_hash: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NoPageHtml => write!(f, "model has no stored page HTML"),
            ReplayError::Unreachable(s) => write!(f, "state {s} is unreachable"),
            ReplayError::Diverged {
                expected_hash,
                actual_hash,
            } => write!(
                f,
                "replay diverged: expected {expected_hash:#x}, got {actual_hash:#x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Reconstructs the DOM of `target` by replaying the shortest event path
/// from the initial state (steps 1–3 of the §5.4 algorithm). Returns the
/// reconstructed document; "presenting it in a browser" is the caller's job.
pub fn reconstruct_state(model: &AppModel, target: StateId) -> Result<Document, ReplayError> {
    let page_html = model.page_html.as_ref().ok_or(ReplayError::NoPageHtml)?;
    let path = model
        .event_path(target)
        .ok_or(ReplayError::Unreachable(target))?;

    let server: Arc<dyn Server> = Arc::new(ReplayServer::from_model(model));
    let mut net = NetClient::new(server, LatencyModel::Zero);
    let mut cache = HotNodeCache::new();
    let costs = CpuCostModel::free();
    let mut trace = Vec::new();
    let mut rec = ajax_obs::Recorder::Off;
    // Replay runs against the recorded fetches: no faults, no retries.
    let mut env = CrawlEnv::new(
        &mut net,
        &mut cache,
        true,
        &costs,
        crate::crawler::RetryPolicy::none(),
        &mut trace,
        &mut rec,
    );

    let url = Url::parse(&model.url);
    let (mut browser, _errors) = Browser::load(url, page_html, 2_000_000, &mut env);

    for transition in &path {
        // JS errors during replay surface as divergence below.
        let _ = browser.fire_event(&transition.action, &mut env);
    }

    let actual_hash = browser.state_hash(&mut env);
    let expected_hash = model
        .state(target)
        .map(|s| s.hash)
        .ok_or(ReplayError::Unreachable(target))?;
    if actual_hash != expected_hash {
        return Err(ReplayError::Diverged {
            expected_hash,
            actual_hash,
        });
    }
    Ok(browser.doc().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::{CrawlConfig, Crawler};
    use ajax_webgen::{VidShareServer, VidShareSpec};

    fn crawl_with_dom(video: u32) -> AppModel {
        let spec = VidShareSpec::small(50);
        let server = Arc::new(VidShareServer::new(spec));
        let mut crawler = Crawler::new(
            server,
            LatencyModel::Zero,
            CrawlConfig::ajax().storing_dom(),
        );
        crawler
            .crawl_page(&Url::parse(&format!(
                "http://vidshare.example/watch?v={video}"
            )))
            .unwrap()
            .model
    }

    fn multi_page_video() -> u32 {
        let spec = VidShareSpec::small(50);
        (0..50)
            .find(|&v| (3..=6).contains(&ajax_webgen::video_meta(&spec, v).comment_pages))
            .unwrap()
    }

    #[test]
    fn reconstructs_every_state() {
        let model = crawl_with_dom(multi_page_video());
        for state in &model.states {
            let doc = reconstruct_state(&model, state.id)
                .unwrap_or_else(|e| panic!("state {} failed: {e}", state.id));
            assert_eq!(
                doc.content_hash(),
                state.hash,
                "reconstructed DOM must hash to the crawled state"
            );
            assert_eq!(doc.document_text(), state.text);
        }
    }

    #[test]
    fn initial_state_needs_no_events() {
        let model = crawl_with_dom(multi_page_video());
        let doc = reconstruct_state(&model, StateId::INITIAL).unwrap();
        assert_eq!(doc.content_hash(), model.states[0].hash);
    }

    #[test]
    fn missing_page_html_reported() {
        let spec = VidShareSpec::small(10);
        let server = Arc::new(VidShareServer::new(spec));
        let mut crawler = Crawler::new(server, LatencyModel::Zero, CrawlConfig::ajax());
        let model = crawler
            .crawl_page(&Url::parse("http://vidshare.example/watch?v=1"))
            .unwrap()
            .model;
        assert_eq!(
            reconstruct_state(&model, StateId::INITIAL).unwrap_err(),
            ReplayError::NoPageHtml
        );
    }

    #[test]
    fn unreachable_state_reported() {
        let mut model = crawl_with_dom(multi_page_video());
        let lonely = model.add_state(0xDEAD, "orphan".into(), None);
        assert_eq!(
            reconstruct_state(&model, lonely).unwrap_err(),
            ReplayError::Unreachable(lonely)
        );
    }

    #[test]
    fn replay_makes_no_live_network_calls() {
        // The replay server only knows recorded URLs; if replay tried to
        // fetch anything else it would get 404s and diverge. Passing the
        // reconstruction test above implies offline-completeness; here we
        // additionally check the recorded fetch set is minimal but complete.
        let model = crawl_with_dom(multi_page_video());
        assert!(!model.fetches.is_empty());
        let urls: std::collections::HashSet<_> =
            model.fetches.iter().map(|f| f.url.as_str()).collect();
        assert_eq!(urls.len(), model.fetches.len(), "no duplicate records");
    }
}
