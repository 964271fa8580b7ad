//! `TapServer`: the system's outbound side, seen from outside.
//!
//! It wraps the site's `ajax_net::Server` and timestamps every `handle`
//! call. With one process line the crawl is serial, so the page GETs split a
//! build into its phases: the first half of them is the precrawl, the second
//! half the crawl, and the gap between successive crawl-phase page GETs is
//! the time the crawler spent on that page.

use ajax_net::{Request, Response, Server};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One request as the tap saw it.
#[derive(Debug, Clone)]
pub struct TapEvent {
    /// ns since the tap was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// A page GET (path = the site's page path), as opposed to an XHR.
    pub page: bool,
    /// FNV-64 of the query string: which page or fragment was asked for.
    pub query_hash: u64,
    /// `(url, body)`, kept only by a capturing tap.
    pub body: Option<(String, String)>,
}

pub struct TapServer {
    inner: Arc<dyn Server>,
    page_path: &'static str,
    capture: bool,
    t0: Instant,
    log: Mutex<Vec<TapEvent>>,
}

impl TapServer {
    /// `capture` keeps every response body for the `dom.*`/`js.*` replays.
    pub fn new(inner: Arc<dyn Server>, page_path: &'static str, capture: bool) -> Self {
        Self {
            inner,
            page_path,
            capture,
            t0: Instant::now(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The instant event timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Drains the log.
    pub fn take(&self) -> Vec<TapEvent> {
        std::mem::take(&mut *self.log.lock().expect("tap log poisoned"))
    }
}

impl Server for TapServer {
    fn handle(&self, request: &Request) -> Response {
        let start_ns = self.now_ns();
        let response = self.inner.handle(request);
        let end_ns = self.now_ns();
        let body = self
            .capture
            .then(|| (request.url.to_string(), response.body.clone()));
        self.log.lock().expect("tap log poisoned").push(TapEvent {
            start_ns,
            end_ns,
            page: request.url.path == self.page_path,
            query_hash: ajax_dom::fnv64_str(&request.url.query),
            body,
        });
        response
    }

    fn name(&self) -> &str {
        "tap"
    }
}

/// One build pass split at the page GETs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Per page, in crawl order: this page's GET → the next page's GET (for
    /// the last page: → the end of the last request; everything after that
    /// is invert + save).
    pub page_ns: Vec<u64>,
    pub page_gets: u64,
    pub xhr_gets: u64,
    /// Index into the event log of each crawl-phase page GET.
    pub crawl_page_events: Vec<usize>,
}

/// Splits a pass's events into precrawl / per-page crawl. `None` unless the
/// tap saw exactly two GETs per page: one in the precrawl, one in the crawl.
pub fn attribute(events: &[TapEvent]) -> Option<Timeline> {
    let page_idx: Vec<usize> = (0..events.len()).filter(|&i| events[i].page).collect();
    if page_idx.is_empty() || !page_idx.len().is_multiple_of(2) {
        return None;
    }
    let n = page_idx.len() / 2;
    let (precrawl, crawl) = page_idx.split_at(n);
    // Two GETs per page means the precrawl issues no XHR and is over before
    // the crawl starts: its page GETs are the first n events.
    if precrawl.last() != Some(&(n - 1)) {
        return None;
    }
    let pages_of = |half: &[usize]| {
        let mut pages: Vec<u64> = half.iter().map(|&i| events[i].query_hash).collect();
        pages.sort_unstable();
        pages
    };
    let precrawled = pages_of(precrawl);
    if precrawled.windows(2).any(|w| w[0] == w[1]) || precrawled != pages_of(crawl) {
        return None;
    }
    let crawl_end_ns = events.last()?.end_ns;
    let page_ns = (0..n)
        .map(|i| {
            let next = crawl
                .get(i + 1)
                .map_or(crawl_end_ns, |&j| events[j].start_ns);
            next - events[crawl[i]].start_ns
        })
        .collect();
    Some(Timeline {
        page_ns,
        page_gets: page_idx.len() as u64,
        xhr_gets: (events.len() - page_idx.len()) as u64,
        crawl_page_events: crawl.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_net::Url;

    /// A 5-page site: `/p?i=N` pages, `/x?i=N` fragments.
    struct FiveSite;
    impl Server for FiveSite {
        fn handle(&self, request: &Request) -> Response {
            Response::html(format!("<p>{}</p>", request.url))
        }
    }

    fn get(tap: &TapServer, path: &str) {
        tap.handle(&Request::get(Url::parse(&format!(
            "http://five.example{path}"
        ))));
    }

    #[test]
    fn attributes_phases_and_pages_on_a_five_page_site() {
        let tap = TapServer::new(Arc::new(FiveSite), "/p", true);
        for i in 0..5 {
            get(&tap, &format!("/p?i={i}"));
        }
        // Crawl: page i fetches i fragments.
        for i in 0..5 {
            get(&tap, &format!("/p?i={i}"));
            for _ in 0..i {
                get(&tap, &format!("/x?i={i}"));
            }
        }
        let events = tap.take();
        assert!(tap.take().is_empty(), "take drains");
        assert_eq!(events.len(), 5 + 5 + 10);
        assert!(events.iter().all(|e| e.body.is_some()));
        assert!(events.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));

        let t = attribute(&events).expect("two GETs per page");
        assert_eq!(t.page_gets, 10);
        assert_eq!(t.xhr_gets, 10);
        assert_eq!(t.page_ns.len(), 5);
        assert_eq!(t.crawl_page_events, vec![5, 6, 8, 11, 15]);
        assert_eq!(t.page_ns[1], events[8].start_ns - events[6].start_ns);
        assert_eq!(t.page_ns[4], events[19].end_ns - events[15].start_ns);
        // The pages tile the crawl phase exactly.
        assert_eq!(
            t.page_ns.iter().sum::<u64>(),
            events[19].end_ns - events[5].start_ns
        );
    }

    #[test]
    fn refuses_a_pass_without_two_gets_per_page() {
        let tap = TapServer::new(Arc::new(FiveSite), "/p", false);
        for i in 0..3 {
            get(&tap, &format!("/p?i={i}"));
        }
        let events = tap.take();
        assert!(events.iter().all(|e| e.body.is_none()));
        assert_eq!(attribute(&events), None, "odd number of page GETs");

        // An XHR during the "precrawl" half breaks the phase split.
        get(&tap, "/p?i=0");
        get(&tap, "/x?i=0");
        get(&tap, "/p?i=1");
        get(&tap, "/p?i=0");
        get(&tap, "/p?i=1");
        assert_eq!(attribute(&tap.take()), None);
        assert_eq!(attribute(&[]), None);

        // Two GETs, but of different pages.
        get(&tap, "/p?i=0");
        get(&tap, "/p?i=1");
        get(&tap, "/p?i=0");
        get(&tap, "/p?i=2");
        assert_eq!(attribute(&tap.take()), None);
    }
}
