//! The hot-node cache (thesis ch. 4).
//!
//! A *hot node* is a JavaScript function that performs a server call; a *hot
//! call* is one request it sends. The cache maps the URL a hot call fetched
//! to the content the server returned; a repeated request is served from the
//! cache, skipping the network round trip — the crawler's answer to "events
//! cannot be cached".
//!
//! The thesis keys a hot call by the function plus its rendered actual
//! arguments (`StackInfo.getHotnodeInfo()`), a stand-in for "the same server
//! request". Here the key is the request itself: the resolved URL, since the
//! page host ignores `open()`'s method and sends no body. The server must be
//! a pure function of the request (thesis §4.3, `ajax_net::Server`), so the
//! URL is a sound key. The arguments are not, once a URL is built from a
//! global: on a page with `function more() { page = page + 1; load(); }`,
//! every `load()` call has the same (empty) arguments but fetches another
//! comment page, and the thesis' key served every later call the first
//! call's response.

use ajax_dom::hash::FnvHashMap;
use std::collections::BTreeSet;

/// Counters for the caching experiments (Figs. 7.5–7.7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HotNodeStats {
    /// AJAX calls that actually reached the network.
    pub network_calls: u64,
    /// AJAX calls served from the hot-node cache.
    pub cache_hits: u64,
    /// Distinct hot nodes (functions) identified: `hot_functions.len()`.
    pub hot_nodes: u64,
    /// The functions that sent a request the cache served or stored.
    pub hot_functions: BTreeSet<String>,
}

/// The hot-node cache of Table 4.4, keyed by URL: `request → content`.
#[derive(Debug, Clone, Default)]
pub struct HotNodeCache {
    /// Response body per fetched URL.
    entries: FnvHashMap<String, String>,
    stats: HotNodeStats,
}

impl HotNodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the body fetched for `url`. A hit counts as a cache hit and
    /// marks `function`, the sender, as a hot node.
    pub(crate) fn lookup(&mut self, function: &str, url: &str) -> Option<String> {
        let body = self.entries.get(url)?.clone();
        self.stats.cache_hits += 1;
        self.mark_hot(function);
        Some(body)
    }

    /// Records the body `function` fetched from the network for `url`.
    pub(crate) fn insert(&mut self, function: &str, url: String, body: String) {
        self.mark_hot(function);
        self.stats.network_calls += 1;
        self.entries.insert(url, body);
    }

    /// Adds `function` to the hot nodes (the `hotNodes` set of Alg. 4.2.1,
    /// line 37).
    fn mark_hot(&mut self, function: &str) {
        if !self.stats.hot_functions.contains(function) {
            self.stats.hot_functions.insert(function.to_string());
            self.stats.hot_nodes += 1;
        }
    }

    /// Records a network call made while caching is *disabled* (the baseline
    /// crawler still counts its calls for the comparison experiments).
    pub(crate) fn record_uncached_call(&mut self) {
        self.stats.network_calls += 1;
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> &HotNodeStats {
        &self.stats
    }

    /// True when nothing is cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(url, body)` pairs, sorted by URL, for replay storage.
    pub(crate) fn fetch_records(&self) -> Vec<(String, String)> {
        let mut records: Vec<(String, String)> = self
            .entries
            .iter()
            .map(|(url, body)| (url.clone(), body.clone()))
            .collect();
        records.sort();
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::PageStats;

    #[test]
    fn miss_then_hit() {
        let mut cache = HotNodeCache::new();
        assert!(cache.lookup("getUrl", "/c?p=2").is_none());
        cache.insert("getUrl", "/c?p=2".into(), "<p>page2</p>".into());
        assert_eq!(
            cache.lookup("getUrl", "/c?p=2").as_deref(),
            Some("<p>page2</p>")
        );
        assert_eq!(
            cache.lookup("getUrl", "/c?p=2").as_deref(),
            Some("<p>page2</p>")
        );
        let stats = cache.stats();
        assert_eq!(stats.network_calls, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.network_calls + stats.cache_hits, 3);
    }

    #[test]
    fn distinct_urls_are_distinct_calls() {
        let mut cache = HotNodeCache::new();
        cache.insert("getUrl", "/c?p=2".into(), "two".into());
        assert!(cache.lookup("getUrl", "/c?p=3").is_none());
        assert_eq!(cache.lookup("getUrl", "/c?p=2").as_deref(), Some("two"));
    }

    #[test]
    fn hot_function_registry() {
        let mut cache = HotNodeCache::new();
        cache.insert("getUrl", "/a".into(), "x".into());
        cache.insert("getUrl", "/b".into(), "y".into());
        assert_eq!(cache.stats().hot_nodes, 1, "one distinct hot node");
        // Another function sending a request already fetched is a hot node
        // too, though it never reached the network.
        assert_eq!(cache.lookup("refresh", "/a").as_deref(), Some("x"));
        let stats = cache.stats();
        assert_eq!(stats.hot_nodes, 2);
        assert!(stats.hot_functions.contains("refresh"));
        // A miss serves nothing and marks nobody.
        assert!(cache.lookup("other", "/c").is_none());
        assert_eq!(cache.stats().hot_nodes, 2);
    }

    #[test]
    fn fetch_records_sorted_dedup() {
        let mut cache = HotNodeCache::new();
        cache.insert("f", "/b".into(), "y".into());
        cache.insert("f", "/a".into(), "x".into());
        cache.insert("g", "/b".into(), "y".into());
        let recs = cache.fetch_records();
        assert_eq!(recs, [("/a".into(), "x".into()), ("/b".into(), "y".into())]);
    }

    #[test]
    fn uncached_calls_counted() {
        let mut cache = HotNodeCache::new();
        cache.record_uncached_call();
        cache.record_uncached_call();
        assert_eq!(cache.stats().network_calls, 2);
        assert!(cache.is_empty());
    }

    /// Page stats carrying the hot-node counters of a cache.
    fn stats_with(calls: u64, hits: u64, functions: &[&str]) -> PageStats {
        PageStats {
            ajax_network_calls: calls,
            cache_hits: hits,
            hot_nodes: functions.len() as u64,
            hot_functions: functions.iter().map(|f| f.to_string()).collect(),
            ..PageStats::default()
        }
    }

    #[test]
    fn stats_merge_unions_hot_functions() {
        // Disjoint partitions: the old `max` semantics reported 2 here.
        let mut a = stats_with(3, 1, &["fetchA"]);
        let b = stats_with(2, 4, &["fetchB", "fetchC"]);
        a.merge(&b);
        assert_eq!(a.ajax_network_calls, 5);
        assert_eq!(a.cache_hits, 5);
        assert_eq!(a.hot_nodes, 3, "disjoint hot nodes must sum");
        assert_eq!(a.hot_functions.len(), 3);
    }

    #[test]
    fn stats_merge_dedups_shared_hot_functions() {
        let mut a = stats_with(3, 0, &["getUrl", "fetchA"]);
        let b = stats_with(2, 0, &["getUrl", "fetchB"]);
        a.merge(&b);
        assert_eq!(a.hot_nodes, 3, "shared function counted once");
    }

    #[test]
    fn stats_merge_without_names_sums_counts() {
        let mut a = PageStats {
            hot_nodes: 1,
            ..PageStats::default()
        };
        let b = PageStats {
            hot_nodes: 2,
            ..PageStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hot_nodes, 3, "nameless counters assume disjointness");
    }
}
