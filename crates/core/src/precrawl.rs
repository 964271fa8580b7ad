//! The Precrawling phase (thesis §6.2): build the traditional hyperlink
//! graph breadth-first from a start URL, then compute PageRank over it.
//!
//! Precrawling is deliberately *traditional* — it fetches pages without
//! executing JavaScript and only extracts `<a href>` links — so it is cheap,
//! and it is what lets the expensive AJAX crawl be partitioned into fully
//! independent process lines afterwards.

use crate::crawler::{CpuCostModel, RetryPolicy};
use crate::pagerank::pagerank_default;
use ajax_dom::parse_document;
use ajax_net::fault::FaultPlan;
use ajax_net::{LatencyModel, Micros, NetClient, NetError, Response, Server, Url};
use ajax_obs::{AttrValue, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The hyperlink structure produced by precrawling: the thesis'
/// `HashMap<String, ArrayList<String>>` plus PageRank values.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinkGraph {
    /// Discovered page URLs in BFS order (the crawl list for partitioning).
    pub urls: Vec<String>,
    /// `url -> outbound urls` (only edges between discovered pages).
    pub edges: HashMap<String, Vec<String>>,
    /// `url -> PageRank`.
    pub pagerank: HashMap<String, f64>,
    /// Virtual time the precrawl took.
    pub precrawl_micros: Micros,
}

impl LinkGraph {
    /// Number of discovered pages.
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    /// True when nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }
}

/// The `Precrawler` (thesis §6.2.1): BFS over hyperlinks up to a page limit.
pub struct Precrawler {
    net: NetClient,
    costs: CpuCostModel,
    /// Only follow links whose path matches this prefix (e.g. `/watch`),
    /// mirroring how the thesis restricted itself to video pages.
    pub path_filter: Option<String>,
    /// Retry policy for page GETs (a transiently-failing page would
    /// otherwise silently vanish from the crawl list).
    pub retry: RetryPolicy,
    recorder: Recorder,
}

impl Precrawler {
    /// Creates a precrawler.
    pub fn new(server: Arc<dyn Server>, latency: LatencyModel) -> Self {
        Self {
            net: NetClient::new(server, latency),
            costs: CpuCostModel::thesis_default(),
            path_filter: Some("/watch".to_string()),
            retry: RetryPolicy::default(),
            recorder: Recorder::Off,
        }
    }

    /// Attaches a span recorder (one `precrawl.page` span per visited page).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Drains the recorded spans, leaving the recorder armed.
    pub fn take_spans(&mut self) -> Vec<ajax_obs::SpanEvent> {
        self.recorder.take()
    }

    /// Attaches a deterministic fault plan to the precrawler's client.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.net = self.net.with_fault_plan(plan);
        self
    }

    /// Returns a copy with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// BFS from `start`, visiting at most `max_pages` pages
    /// (`NUM_OF_PAGES_TO_PRECRAWL`), then computes PageRank.
    pub fn run(&mut self, start: &Url, max_pages: usize) -> LinkGraph {
        let t0 = self.net.now();
        let mut graph = LinkGraph::default();
        if max_pages == 0 {
            return graph;
        }

        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut queue = VecDeque::from([start.clone()]);
        seen.insert(start.to_string(), 0);
        graph.urls.push(start.to_string());

        while let Some(url) = queue.pop_front() {
            let page_start = self.net.now();
            // Retry under the policy: a transport fault retries like a
            // retryable status.
            let retry = self.retry;
            let retryable = |fetched: &Result<(Response, Micros), NetError>| match fetched {
                Ok((response, _)) => !response.is_ok() && retry.retry_status(response.status),
                Err(_) => true,
            };
            let mut fetched = self.net.try_fetch_timed(&url);
            let mut attempt = 1;
            while retryable(&fetched) && attempt < retry.max_attempts {
                self.net
                    .charge_wait(retry.backoff(&url.to_string(), attempt));
                fetched = self.net.try_fetch_timed(&url);
                attempt += 1;
            }
            let response = match fetched {
                Ok((response, _)) if response.is_ok() => response,
                failed => {
                    graph.edges.entry(url.to_string()).or_default();
                    if self.recorder.is_on() {
                        let end = self.net.now();
                        let why = match failed {
                            Ok((response, _)) => ("status", AttrValue::U64(response.status as u64)),
                            Err(e) => ("error", AttrValue::str(e.to_string())),
                        };
                        self.recorder.push(
                            "precrawl.page",
                            page_start,
                            end,
                            vec![("url", AttrValue::str(url.to_string())), why],
                        );
                    }
                    continue;
                }
            };
            self.net
                .charge_cpu(self.costs.parse_cost(response.body.len()));
            let doc = parse_document(&response.body);

            let mut out = Vec::new();
            for href in doc.hyperlinks() {
                let target = url.resolve(&href);
                if let Some(filter) = &self.path_filter {
                    if !target.path.starts_with(filter.as_str()) {
                        continue;
                    }
                }
                let target_str = target.to_string();
                if !seen.contains_key(&target_str) && seen.len() < max_pages {
                    seen.insert(target_str.clone(), graph.urls.len());
                    graph.urls.push(target_str.clone());
                    queue.push_back(target);
                }
                // Record the edge whenever the target is a discovered page.
                if seen.contains_key(&target_str) && !out.contains(&target_str) {
                    out.push(target_str);
                }
            }
            if self.recorder.is_on() {
                let end = self.net.now();
                self.recorder.push(
                    "precrawl.page",
                    page_start,
                    end,
                    vec![
                        ("url", AttrValue::str(url.to_string())),
                        ("links", AttrValue::U64(out.len() as u64)),
                    ],
                );
            }
            graph.edges.insert(url.to_string(), out);
        }

        // PageRank over the discovered subgraph.
        let index: HashMap<&String, usize> =
            graph.urls.iter().enumerate().map(|(i, u)| (u, i)).collect();
        let adjacency: Vec<Vec<usize>> = graph
            .urls
            .iter()
            .map(|u| {
                graph
                    .edges
                    .get(u)
                    .map(|targets| {
                        targets
                            .iter()
                            .filter_map(|t| index.get(t).copied())
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        let ranks = pagerank_default(&adjacency);
        graph.pagerank = graph
            .urls
            .iter()
            .cloned()
            .zip(ranks.iter().copied())
            .collect();
        graph.precrawl_micros = self.net.now() - t0;
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_webgen::{VidShareServer, VidShareSpec};

    fn precrawl(n_videos: u32, max_pages: usize) -> LinkGraph {
        let server = Arc::new(VidShareServer::new(VidShareSpec::small(n_videos)));
        let mut pre = Precrawler::new(server, LatencyModel::Fixed(1_000));
        pre.run(&Url::parse("http://vidshare.example/watch?v=0"), max_pages)
    }

    #[test]
    fn discovers_up_to_limit() {
        let graph = precrawl(200, 50);
        assert_eq!(graph.len(), 50);
        assert_eq!(graph.urls[0], "http://vidshare.example/watch?v=0");
        // All URLs unique.
        let unique: std::collections::HashSet<_> = graph.urls.iter().collect();
        assert_eq!(unique.len(), 50);
    }

    #[test]
    fn small_site_fully_discovered() {
        let graph = precrawl(20, 500);
        assert!(
            graph.len() >= 19,
            "tiny site should be (almost) fully reachable, got {}",
            graph.len()
        );
    }

    #[test]
    fn pagerank_assigned_to_every_url() {
        let graph = precrawl(60, 30);
        assert_eq!(graph.pagerank.len(), graph.len());
        let sum: f64 = graph.pagerank.values().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(graph.pagerank.values().all(|r| *r > 0.0));
    }

    #[test]
    fn edges_point_to_discovered_pages_only() {
        let graph = precrawl(100, 25);
        let known: std::collections::HashSet<_> = graph.urls.iter().collect();
        for (src, targets) in &graph.edges {
            assert!(known.contains(src));
            for t in targets {
                assert!(known.contains(t), "{src} links to undiscovered {t}");
            }
        }
    }

    #[test]
    fn zero_limit() {
        let graph = precrawl(10, 0);
        assert!(graph.is_empty());
    }

    #[test]
    fn transport_faults_retry_like_retryable_statuses() {
        use ajax_net::{Fault, FaultRule};
        let start = Url::parse("http://vidshare.example/watch?v=0");
        let server = || Arc::new(VidShareServer::new(VidShareSpec::small(10)));
        // Every attempt times out: the page is lost after the policy's
        // attempts, each charged its timeout and backoff, and its span
        // names the error.
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::any(1.0, Fault::Timeout))
            .with_timeout_micros(1_000);
        let mut pre = Precrawler::new(server(), LatencyModel::Fixed(1_000))
            .with_fault_plan(plan)
            .with_recorder(Recorder::enabled());
        let graph = pre.run(&start, 5);
        assert_eq!(graph.urls, vec![start.to_string()]);
        assert_eq!(graph.edges[&start.to_string()], Vec::<String>::new());
        let retry = RetryPolicy::default();
        let backoff: Micros = (1..retry.max_attempts)
            .map(|attempt| retry.backoff(&start.to_string(), attempt))
            .sum();
        assert_eq!(
            graph.precrawl_micros,
            1_000 * u64::from(retry.max_attempts) + backoff
        );
        let spans = pre.take_spans();
        assert_eq!(spans.len(), 1);
        assert!(
            matches!(&spans[0].args[1], ("error", AttrValue::Str(e)) if e.contains("timeout")),
            "{:?}",
            spans[0].args
        );
        // Drops on half the attempts: retries recover the site.
        let plan = FaultPlan::new(7).with_rule(FaultRule::any(0.5, Fault::Drop));
        let faulty = Precrawler::new(server(), LatencyModel::Fixed(1_000))
            .with_fault_plan(plan)
            .with_retry(RetryPolicy::default().with_max_attempts(8))
            .run(&start, 5);
        assert_eq!(faulty.urls, precrawl(10, 5).urls);
    }

    #[test]
    fn precrawl_time_accounted() {
        let graph = precrawl(50, 20);
        // 20 pages × 1 ms latency plus parse costs.
        assert!(graph.precrawl_micros >= 20_000);
    }
}
