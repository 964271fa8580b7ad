//! LRU query-result cache.
//!
//! Keyed by the *normalized* query (the lowercased token list
//! `Query::parse` produces — order preserved, since term order feeds the
//! tf/proximity computation) plus the exact rank weights — two texts that
//! tokenize identically share an entry, but changing any weight changes the
//! key, since scores depend on it bit-for-bit. Values are `Arc`'d merged
//! result lists, so a hit is a clone of a pointer, not of the results.
//!
//! Implementation: a `HashMap` plus a recency `VecDeque` of
//! `(key, stamp)` pairs with lazy deletion — bumping an entry pushes a fresh
//! stamped pair instead of splicing the queue, and eviction pops pairs until
//! one's stamp matches the map's current stamp for that key. The queue is
//! additionally compacted (stale pairs swept) whenever it outgrows twice the
//! capacity, so hit-heavy workloads below capacity can't grow it without
//! bound. Amortized O(1), single `Mutex`, no dependency on an external LRU
//! crate.

use ajax_index::{BrokerResult, Query, RankWeights};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Builds the cache key for a parsed query under the given weights.
/// Weights are keyed by their bit patterns: equality of scores requires
/// exact equality of weights.
pub fn cache_key(query: &Query, weights: &RankWeights) -> String {
    let mut key = query.terms.join("\u{1f}");
    for w in [
        weights.pagerank,
        weights.ajaxrank,
        weights.tfidf,
        weights.proximity,
    ] {
        key.push('\u{1f}');
        key.push_str(&w.to_bits().to_string());
    }
    key
}

struct Entry {
    value: Arc<Vec<BrokerResult>>,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<String, Entry>,
    recency: VecDeque<(String, u64)>,
    next_stamp: u64,
}

impl Inner {
    fn bump(&mut self, key: &str, capacity: usize) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.map.get_mut(key) {
            e.stamp = stamp;
        }
        self.recency.push_back((key.to_string(), stamp));
        // Lazy deletion alone only sheds stale pairs under eviction
        // pressure; a hit-heavy workload whose working set stays below
        // capacity would grow the queue one pair per hit forever. Compact
        // whenever the queue outgrows a small multiple of capacity — the
        // O(len) sweep runs at most once per O(capacity) bumps, keeping the
        // amortized cost O(1).
        if self.recency.len() > capacity.saturating_mul(2).max(16) {
            self.compact();
        }
    }

    /// Drops every recency pair that is not its key's live (latest) stamp,
    /// leaving exactly one pair per cached entry.
    fn compact(&mut self) {
        let Inner { map, recency, .. } = self;
        recency.retain(|(key, stamp)| map.get(key).is_some_and(|e| e.stamp == *stamp));
    }

    /// Pops stale recency pairs until the front is the live pair of its key,
    /// then evicts that key. Returns whether an entry was evicted.
    fn evict_lru(&mut self) -> bool {
        while let Some((key, stamp)) = self.recency.pop_front() {
            match self.map.get(&key) {
                Some(e) if e.stamp == stamp => {
                    self.map.remove(&key);
                    return true;
                }
                _ => {} // stale pair from an earlier bump; skip
            }
        }
        false
    }
}

/// A thread-safe LRU cache of merged query results.
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries; 0 disables caching
    /// (lookups always miss, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<BrokerResult>>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.inner.lock().unwrap();
        let value = inner.map.get(key)?.value.clone();
        inner.bump(key, self.capacity);
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// beyond capacity. Returns how many entries were evicted.
    pub fn insert(&self, key: String, value: Arc<Vec<BrokerResult>>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.map.insert(key.clone(), Entry { value, stamp: 0 });
        inner.bump(&key, self.capacity);
        let mut evicted = 0;
        while inner.map.len() > self.capacity {
            if inner.evict_lru() {
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }

    /// Drops every entry — called on index reload, when cached results may
    /// no longer reflect the index.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_index::DocKey;

    fn val(n: u64) -> Arc<Vec<BrokerResult>> {
        Arc::new(vec![BrokerResult {
            shard: 0,
            url: format!("http://x/{n}").into(),
            doc: DocKey {
                page: n as u32,
                state: ajax_crawl::StateId(0),
            },
            score: n as f64,
        }])
    }

    #[test]
    fn key_depends_on_terms_and_weights() {
        let w = RankWeights::default();
        let a = cache_key(&Query::parse("Wow,   DANCE!"), &w);
        let b = cache_key(&Query::parse("wow dance"), &w);
        assert_eq!(a, b, "texts that tokenize identically share a key");
        assert_ne!(
            a,
            cache_key(&Query::parse("dance wow"), &w),
            "term order is part of the key"
        );
        let mut w2 = w;
        w2.tfidf += 1e-9;
        assert_ne!(b, cache_key(&Query::parse("wow dance"), &w2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        assert_eq!(cache.insert("a".into(), val(1)), 0);
        assert_eq!(cache.insert("b".into(), val(2)), 0);
        assert!(cache.get("a").is_some()); // a is now more recent than b
        assert_eq!(cache.insert("c".into(), val(3)), 1); // evicts b
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let cache = QueryCache::new(2);
        cache.insert("a".into(), val(1));
        cache.insert("a".into(), val(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").unwrap()[0].score, 2.0);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        assert_eq!(cache.insert("a".into(), val(1)), 0);
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let cache = QueryCache::new(4);
        cache.insert("a".into(), val(1));
        cache.insert("b".into(), val(2));
        for _ in 0..10_000 {
            assert!(cache.get("a").is_some());
            assert!(cache.get("b").is_some());
        }
        let inner = cache.inner.lock().unwrap();
        assert_eq!(inner.map.len(), 2);
        assert!(
            inner.recency.len() <= 16,
            "recency queue leaked: {} pairs for 2 live entries",
            inner.recency.len()
        );
    }

    #[test]
    fn clear_empties() {
        let cache = QueryCache::new(4);
        cache.insert("a".into(), val(1));
        cache.insert("b".into(), val(2));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        // still usable after clear
        cache.insert("c".into(), val(3));
        assert_eq!(cache.len(), 1);
    }
}
