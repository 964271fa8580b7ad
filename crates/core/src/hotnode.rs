//! The hot-node cache (thesis ch. 4).
//!
//! A *hot node* is a JavaScript function that performs a server call; a *hot
//! call* is one invocation of it, keyed by the function name plus its
//! rendered actual arguments (`StackInfo.getHotnodeInfo()` in the thesis).
//! The cache maps hot calls to the server content they fetched; a repeated
//! hot call is served from the cache, skipping the network round trip — the
//! crawler's answer to "events cannot be cached".

use ajax_dom::hash::FnvHashMap;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// One cached hot call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct CachedCall {
    /// The URL the call fetched (diagnostics + replay).
    pub url: String,
    /// The response body.
    pub body: String,
    /// How many times the cache served this entry.
    pub hits: u32,
}

/// Counters for the caching experiments (Figs. 7.5–7.7).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HotNodeStats {
    /// AJAX calls that actually reached the network.
    pub network_calls: u64,
    /// AJAX calls served from the hot-node cache.
    pub cache_hits: u64,
    /// Distinct hot nodes (functions) identified. Kept equal to
    /// `hot_functions.len()` whenever the name set is populated.
    pub hot_nodes: u64,
    /// The names behind `hot_nodes`. Merging two stats blocks unions these
    /// sets, so aggregating disjoint partitions counts each distinct
    /// function exactly once (summing or taking `max` of the counts alone
    /// is wrong as soon as partitions overlap or differ).
    pub hot_functions: BTreeSet<String>,
}

impl HotNodeStats {
    /// Merges another stats block into this one. `hot_nodes` becomes the
    /// size of the unioned name set; when neither side carries names (e.g.
    /// hand-built counters) the counts are summed, which is exact for
    /// disjoint partitions.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &HotNodeStats) {
        self.network_calls += other.network_calls;
        self.cache_hits += other.cache_hits;
        self.hot_functions
            .extend(other.hot_functions.iter().cloned());
        self.hot_nodes = if self.hot_functions.is_empty() {
            self.hot_nodes + other.hot_nodes
        } else {
            self.hot_functions.len() as u64
        };
    }
}

/// The hot-node cache of Table 4.4: `(hot node, parameters) → content`.
#[derive(Debug, Clone, Default)]
pub struct HotNodeCache {
    entries: FnvHashMap<String, CachedCall>,
    /// Names of functions identified as hot nodes (they contained an AJAX
    /// call) — the `hotNodes` set of Alg. 4.2.1, line 37. Shared with the
    /// on-enter detector of every script run; it grows about once per page.
    hot_functions: Arc<HashSet<String>>,
    stats: HotNodeStats,
}

impl HotNodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a hot call. On a hit, bumps the hit counters and returns the
    /// cached body.
    pub(crate) fn lookup(&mut self, key: &str) -> Option<String> {
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.hits += 1;
                self.stats.cache_hits += 1;
                Some(entry.body.clone())
            }
            None => None,
        }
    }

    /// Peeks without touching counters.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// The set of functions identified as hot nodes so far.
    pub(crate) fn hot_functions(&self) -> &Arc<HashSet<String>> {
        &self.hot_functions
    }

    /// Records a fresh hot call result fetched from the network.
    /// `function` is the hot node, `key` the `(function, args)` rendering.
    pub(crate) fn insert(&mut self, function: &str, key: String, url: String, body: String) {
        if !self.hot_functions.contains(function) {
            Arc::make_mut(&mut self.hot_functions).insert(function.to_string());
        }
        if self.stats.hot_functions.insert(function.to_string()) {
            self.stats.hot_nodes += 1;
        }
        self.stats.network_calls += 1;
        self.entries.insert(key, CachedCall { url, body, hits: 0 });
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

    /// Drains all `(url, body)` pairs for replay storage.
    pub(crate) fn fetch_records(&self) -> Vec<(String, String)> {
        let mut records: Vec<(String, String)> = self
            .entries
            .values()
            .map(|c| (c.url.clone(), c.body.clone()))
            .collect();
        records.sort();
        records.dedup();
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut cache = HotNodeCache::new();
        let key = "getUrl(\"/c?p=2\", true)";
        assert!(cache.lookup(key).is_none());
        cache.insert(
            "getUrl",
            key.to_string(),
            "/c?p=2".into(),
            "<p>page2</p>".into(),
        );
        assert_eq!(cache.lookup(key).as_deref(), Some("<p>page2</p>"));
        assert_eq!(cache.lookup(key).as_deref(), Some("<p>page2</p>"));
        let stats = cache.stats();
        assert_eq!(stats.network_calls, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.network_calls + stats.cache_hits, 3);
    }

    #[test]
    fn distinct_args_are_distinct_calls() {
        let mut cache = HotNodeCache::new();
        cache.insert(
            "getUrl",
            "getUrl(\"/c?p=2\")".into(),
            "/c?p=2".into(),
            "two".into(),
        );
        assert!(cache.lookup("getUrl(\"/c?p=3\")").is_none());
        assert!(cache.contains("getUrl(\"/c?p=2\")"));
    }

    #[test]
    fn hot_function_registry() {
        let mut cache = HotNodeCache::new();
        assert!(!cache.hot_functions().contains("getUrl"));
        cache.insert("getUrl", "k1".into(), "/a".into(), "x".into());
        cache.insert("getUrl", "k2".into(), "/b".into(), "y".into());
        assert!(cache.hot_functions().contains("getUrl"));
        assert_eq!(cache.stats().hot_nodes, 1, "one distinct hot node");
    }

    #[test]
    fn fetch_records_sorted_dedup() {
        let mut cache = HotNodeCache::new();
        cache.insert("f", "k1".into(), "/b".into(), "y".into());
        cache.insert("f", "k2".into(), "/a".into(), "x".into());
        let recs = cache.fetch_records();
        assert_eq!(recs[0].0, "/a");
        assert_eq!(recs[1].0, "/b");
    }

    #[test]
    fn uncached_calls_counted() {
        let mut cache = HotNodeCache::new();
        cache.record_uncached_call();
        cache.record_uncached_call();
        assert_eq!(cache.stats().network_calls, 2);
        assert!(cache.is_empty());
    }

    fn stats_with(network_calls: u64, cache_hits: u64, functions: &[&str]) -> HotNodeStats {
        HotNodeStats {
            network_calls,
            cache_hits,
            hot_nodes: functions.len() as u64,
            hot_functions: functions.iter().map(|f| f.to_string()).collect(),
        }
    }

    #[test]
    fn stats_merge_unions_hot_functions() {
        // Disjoint partitions: the old `max` semantics reported 2 here.
        let mut a = stats_with(3, 1, &["fetchA"]);
        let b = stats_with(2, 4, &["fetchB", "fetchC"]);
        a.merge(&b);
        assert_eq!(a.network_calls, 5);
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
        let mut a = HotNodeStats {
            hot_nodes: 1,
            ..HotNodeStats::default()
        };
        let b = HotNodeStats {
            hot_nodes: 2,
            ..HotNodeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hot_nodes, 3, "nameless counters assume disjointness");
    }
}
