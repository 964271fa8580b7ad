//! Repetitive crawling (thesis ch. 10, future work): "crawling AJAX can be
//! seen as a repetitive process, which can reduce the number of crawled
//! events, by ignoring events which did not cause large changes in previous
//! crawling sessions."
//!
//! [`EventHistory`] summarizes a previous session's per-page event outcomes:
//! which `(source, event, action)` triples were *productive* (caused a DOM
//! change) and which were *barren*. A re-crawl with the history skips barren
//! events, cutting both event invocations and their hashing/rollback cost,
//! while still discovering every state the fresh crawl would (under the
//! thesis' snapshot-isolation assumption; a changed application is detected
//! because productive events are re-fired and re-hashed).

use ajax_dom::hash::FnvHashSet;
use ajax_dom::EventType;
use serde::{Deserialize, Serialize};

/// A summary of a previous crawl session of one page.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventHistory {
    /// Keys of events that caused a DOM change somewhere on the page.
    productive: FnvHashSet<u64>,
    /// Keys of events that were fired and never changed the DOM.
    barren: FnvHashSet<u64>,
}

impl EventHistory {
    /// The lookup key of an event binding.
    pub(crate) fn key(source: &str, event: EventType, action: &str) -> u64 {
        let mut h = ajax_dom::hash::Fnv64::new();
        h.write_str(source);
        h.write_str(event.attr_name());
        h.write_str(action);
        h.finish()
    }

    /// Records a fired event and whether it changed the DOM. A key observed
    /// productive even once stays productive.
    pub(crate) fn record(&mut self, source: &str, event: EventType, action: &str, changed: bool) {
        let key = Self::key(source, event, action);
        if changed {
            self.barren.remove(&key);
            self.productive.insert(key);
        } else if !self.productive.contains(&key) {
            self.barren.insert(key);
        }
    }

    /// True when the event is known barren (safe to skip on re-crawl).
    pub(crate) fn is_barren(&self, source: &str, event: EventType, action: &str) -> bool {
        let key = Self::key(source, event, action);
        self.barren.contains(&key) && !self.productive.contains(&key)
    }

    /// Number of barren / productive keys.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.barren.len(), self.productive.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn productive_wins_over_barren() {
        let mut h = EventHistory::default();
        h.record("span#x", EventType::Click, "f()", false);
        assert!(h.is_barren("span#x", EventType::Click, "f()"));
        h.record("span#x", EventType::Click, "f()", true);
        assert!(!h.is_barren("span#x", EventType::Click, "f()"));
        // Later barren observation does not demote it.
        h.record("span#x", EventType::Click, "f()", false);
        assert!(!h.is_barren("span#x", EventType::Click, "f()"));
    }

    #[test]
    fn distinct_triples_distinct_keys() {
        assert_ne!(
            EventHistory::key("a", EventType::Click, "f()"),
            EventHistory::key("a", EventType::MouseOver, "f()")
        );
        assert_ne!(
            EventHistory::key("a", EventType::Click, "f()"),
            EventHistory::key("b", EventType::Click, "f()")
        );
        assert_ne!(
            EventHistory::key("a", EventType::Click, "f()"),
            EventHistory::key("a", EventType::Click, "g()")
        );
    }

    #[test]
    fn unknown_events_are_not_barren() {
        let h = EventHistory::default();
        assert!(!h.is_barren("new", EventType::Click, "h()"));
    }
}
