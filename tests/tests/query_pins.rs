//! What a caller sees of every answer, pinned: for each of the 100
//! `query_workload()` phrases, one FNV-64 over `(url, state, score bits)` of
//! the merged results in rank order, on small VidShare, NewsShare and Gallery
//! crawls. The same table must come out of `QueryBroker::search` at 1, 2 and
//! 4 partitions, of `ShardServer` and of a loopback `DistCluster` at 2
//! shards: partitioning, worker pools and the wire are unobservable in the
//! ranking, and the scorer, the merge and the rank order may change how they
//! work, never what they return.
//!
//! The workload phrases rarely occur in Gallery captions, so each site also
//! pins one fold of the fingerprints of every single-word query over the
//! generators' filler vocabulary, which every site's text is drawn from.
//!
//! The constants were recorded before the broker's scoring loop and rank
//! order were rewritten.

use ajax_crawl::crawler::{CrawlConfig, Crawler};
use ajax_crawl::model::AppModel;
use ajax_dist::{ClusterConfig, DistCluster};
use ajax_dom::Fnv64;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::{Query, RankWeights};
use ajax_index::shard::{BrokerResult, QueryBroker};
use ajax_net::{LatencyModel, Server, Url};
use ajax_serve::{ServeConfig, ShardServer};
use ajax_webgen::text::VOCAB;
use ajax_webgen::{
    query_workload, video_meta, GalleryServer, GallerySpec, NewsShareServer, NewsSpec,
    VidShareServer, VidShareSpec,
};
use std::sync::Arc;

fn crawl(server: Arc<dyn Server>, urls: &[String], config: CrawlConfig) -> Vec<AppModel> {
    let mut crawler = Crawler::new(server, LatencyModel::Fixed(5_000), config);
    urls.iter()
        .map(|u| crawler.crawl_page(&Url::parse(u)).expect("crawl").model)
        .collect()
}

fn vidshare() -> Vec<AppModel> {
    let spec = VidShareSpec::small(40);
    let urls: Vec<String> = (0..40)
        .filter(|&v| video_meta(&spec, v).comment_pages >= 3)
        .take(4)
        .map(|v| spec.watch_url(v))
        .collect();
    crawl(
        Arc::new(VidShareServer::new(spec)),
        &urls,
        CrawlConfig::ajax(),
    )
}

fn newsshare() -> Vec<AppModel> {
    let spec = NewsSpec::small(30);
    let urls: Vec<String> = [3, 7].iter().map(|&p| spec.page_url(p)).collect();
    crawl(
        Arc::new(NewsShareServer::new(spec)),
        &urls,
        CrawlConfig::ajax().with_max_states(20),
    )
}

fn gallery() -> Vec<AppModel> {
    let spec = GallerySpec::small(6);
    let urls: Vec<String> = (0..3).map(|a| spec.page_url(a)).collect();
    crawl(
        Arc::new(GalleryServer::new(spec)),
        &urls,
        CrawlConfig::ajax().with_equiv_prune(),
    )
}

/// `models` split into `n` contiguous partitions (empty ones past the end),
/// each page with its own PageRank so the rank terms differ per page.
fn partitions(models: &[AppModel], n: usize) -> Vec<InvertedIndex> {
    let chunk = models.len().div_ceil(n).max(1);
    let mut shards: Vec<InvertedIndex> = models
        .chunks(chunk)
        .enumerate()
        .map(|(c, pages)| {
            let mut b = IndexBuilder::new();
            for (i, m) in pages.iter().enumerate() {
                b.add_model(m, Some(1.0 / (c * chunk + i + 2) as f64));
            }
            b.build()
        })
        .collect();
    shards.resize_with(n, InvertedIndex::default);
    shards
}

fn fingerprint(results: &[BrokerResult]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(results.len() as u64);
    for r in results {
        h.write_str(&r.url);
        h.write_u64(u64::from(r.doc.state.0));
        h.write_u64(r.score.to_bits());
    }
    h.finish()
}

/// One fingerprint per workload phrase, in workload order, then the fold
/// over the vocabulary words.
fn table(mut search: impl FnMut(&str) -> Vec<BrokerResult>) -> (Vec<u64>, u64) {
    let phrases = query_workload()
        .iter()
        .map(|q| fingerprint(&search(&q.text)))
        .collect();
    let mut fold = Fnv64::new();
    for word in VOCAB {
        fold.write_u64(fingerprint(&search(word)));
    }
    (phrases, fold.finish())
}

fn assert_pinned(site: &str, path: &str, got: (Vec<u64>, u64), want: (&[u64], u64)) {
    if got.0 == want.0 && got.1 == want.1 {
        return;
    }
    let rows: Vec<String> = got
        .0
        .chunks(4)
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|f| format!("0x{f:016x},")).collect();
            format!("    {}", cells.join(" "))
        })
        .collect();
    let moved: Vec<String> = query_workload()
        .into_iter()
        .zip(got.0.iter().zip(want.0))
        .filter(|(_, (g, w))| g != w)
        .map(|(q, _)| q.text)
        .take(5)
        .collect();
    panic!(
        "{site} through {path}: answers moved (phrases, first five: {moved:?}; \
         vocabulary fold 0x{:016x}, pinned 0x{:016x}); this build computes\n{}",
        got.1,
        want.1,
        rows.join("\n")
    );
}

fn check_site(site: &str, models: &[AppModel], phrases: &[u64; 100], vocabulary: u64) {
    let want = (&phrases[..], vocabulary);
    for n in [1, 2, 4] {
        let broker = QueryBroker::new(partitions(models, n));
        let got = table(|q| broker.search(&Query::parse(q)));
        assert_pinned(site, &format!("QueryBroker at {n} partitions"), got, want);
    }

    let server = ShardServer::new(
        QueryBroker::new(partitions(models, 2)),
        ServeConfig::default(),
    );
    let got = table(|q| server.search(q).expect("admitted").results);
    assert_pinned(site, "ShardServer at 2 shards", got, want);

    let mut cluster = DistCluster::launch_threads(
        partitions(models, 2),
        RankWeights::default(),
        ClusterConfig::default(),
    )
    .expect("launch the shard threads on loopback");
    let got = table(|q| cluster.server.search(q).expect("admitted").results);
    cluster.shutdown();
    assert_pinned(site, "DistCluster at 2 shards", got, want);
}

#[test]
fn vidshare_answers_are_pinned() {
    check_site("vidshare", &vidshare(), &VIDSHARE, 0xb63c_844e_de9f_748f);
}

#[test]
fn newsshare_answers_are_pinned() {
    check_site("newsshare", &newsshare(), &NEWSSHARE, 0x8b72_8a7d_2af4_6c5d);
}

#[test]
fn gallery_answers_are_pinned() {
    check_site("gallery", &gallery(), &GALLERY, 0xf377_8fa8_02e4_2902);
}

const VIDSHARE: [u64; 100] = [
    0x0d200d6b6723f5bd,
    0x011b7351c0eb2f5d,
    0x09b2e86e15e4c4ba,
    0x578cb8f3f4089893,
    0xe889d9b4e2af7146,
    0x17de61c097ea532c,
    0xd257643fd1c9f0e1,
    0xad4f573fb38599d3,
    0x8b968dffbc7065c8,
    0x26123ecd54879410,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xaf159c63f167abac,
    0x7a974f35d5d36d2a,
    0x713d63ce388b12cd,
    0x91375c86f7004ebd,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x0c24cd1c9b39eef5,
    0xabe5e74821e832bc,
    0xab1d657ee2e64699,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x5ad448fc5d21787a,
    0xce0734201ecf42ba,
    0xa8c7f832281a39c5,
    0x603758c5cb66ee1a,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xb83c2c180c8a2afa,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xf9ffacb62dcd7a39,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xcafdeec39f8b31d5,
    0xf8bfe7fa72dfede1,
    0xa8c7f832281a39c5,
    0xdeb38fc002f44535,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x9705d060dae0ca7b,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xab959e2a406de8cd,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xe4a481fa7794a47e,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x05d2db4e1704e1aa,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x3f0d0d85473b4b0b,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xee72a4969c1262f0,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xc70dc2a8b00ff425,
    0xa8c7f832281a39c5,
];
const NEWSSHARE: [u64; 100] = [
    0x6a767abb9234e27a,
    0x6a767abb9234e27a,
    0x90fda5a3f6536a60,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xcf1f799451a8ec45,
    0x95be1e6e96aa31dd,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x3d7f628c768e83ed,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x329dfaffb1d704a6,
    0x3eb271673c305768,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x8ac5e828c53cf18b,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xedcd5b120fd843a8,
    0x31422f5bf896dddb,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
];
const GALLERY: [u64; 100] = [
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0x00dae73d406128df,
    0x0ac6492877ddcf04,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
    0xa8c7f832281a39c5,
];
