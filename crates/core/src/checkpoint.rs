//! The crawl checkpoint journal (docs/robustness.md, "Durability &
//! recovery").
//!
//! A long crawl periodically commits a [`CrawlCheckpoint`] — the precrawl
//! link graph, every completed page's model/stats/history, and the failure
//! ledger — through the atomic framed-commit protocol of [`crate::durable`].
//! Snapshots are numbered `checkpoint-NNNNNN.ajx` inside a journal
//! directory; each write supersedes the previous one, and the two newest
//! generations are retained so a checkpoint that somehow fails validation
//! still leaves a valid predecessor to fall back to.
//!
//! Resume ([`Checkpointer::resume`]) loads the newest *valid* snapshot and
//! hands back a [`ResumeState`]: the saved link graph (skipping the
//! precrawl phase) and the completed pages keyed by URL (skipped by the
//! crawler). Pages that had *failed* are deliberately not skipped: every
//! fault decision is a pure function of `(seed, rule, url, attempt)`, so a
//! fresh process re-crawling them reproduces the identical outcome — which
//! is what makes a resumed crawl bit-equal to an uninterrupted one (the
//! kill-anywhere property pinned by `tests/tests/crash_recovery.rs`).

use crate::crawler::{CrawlConfig, CrawlError, PageStats};
use crate::durable::{self, DurableError, FrameRead};
use crate::model::AppModel;
use crate::precrawl::LinkGraph;
use crate::recrawl::EventHistory;
use ajax_obs::{AttrValue, SpanEvent};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The envelope magic for checkpoint files.
pub(crate) const CHECKPOINT_MAGIC: &str = "ajax-checkpoint";
/// The current checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u64 = 1;

/// One successfully crawled page, as preserved across a crash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PageRecord {
    pub url: String,
    /// The page's application model (visited state hashes included).
    pub model: AppModel,
    pub stats: PageStats,
    /// Page-level crawl attempts it took (1 = first pass; >1 = recovered).
    pub attempts: u32,
    /// Recrawl event history (productive/barren sets) for the next session.
    pub history: EventHistory,
}

/// One page the crawl had given up on by checkpoint time. Restored for
/// accounting and fsck visibility; resume re-crawls these URLs (the fault
/// plan is deterministic, so the outcome is reproduced, not guessed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FailureRecord {
    pub url: String,
    pub error: CrawlError,
    pub attempts: u32,
    pub quarantined: bool,
}

/// A full crawl snapshot: everything needed to resume without re-doing
/// completed work.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct CrawlCheckpoint {
    /// Fingerprint of the crawl parameters (config, seed URL, partition
    /// shape). Resuming under a different configuration is refused — the
    /// skip-set would silently corrupt the result.
    pub config_fingerprint: u64,
    /// Monotonic snapshot number within the journal.
    pub seq: u64,
    /// The precrawl hyperlink graph (frontier source), once known.
    pub graph: Option<LinkGraph>,
    /// Every page completed so far, in completion order.
    pub pages: Vec<PageRecord>,
    /// Every page given up on so far.
    pub failures: Vec<FailureRecord>,
}

/// Why checkpoint I/O failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Commit-protocol or corruption failure (carries the path).
    Durable(DurableError),
    /// The snapshot payload did not deserialize.
    Serde {
        path: PathBuf,
        source: serde::DeError,
    },
    /// A valid checkpoint exists but belongs to a different crawl setup.
    ConfigMismatch {
        path: PathBuf,
        expected: u64,
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Durable(e) => write!(f, "{e}"),
            CheckpointError::Serde { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            CheckpointError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {} belongs to a different crawl configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x}); \
                 use a fresh --checkpoint-dir or drop --resume",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DurableError> for CheckpointError {
    fn from(e: DurableError) -> Self {
        CheckpointError::Durable(e)
    }
}

/// What [`Checkpointer::resume`] restored.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// The saved link graph; when present the precrawl phase can be skipped.
    pub graph: Option<LinkGraph>,
    /// Completed pages keyed by URL — the crawler's skip set.
    pub pages: HashMap<String, PageRecord>,
}

/// Point-in-time checkpoint accounting, surfaced in `BuildReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointStats {
    /// Snapshots committed by this process.
    pub writes: u64,
    /// Pages restored from a previous process's snapshot.
    pub pages_restored: u64,
    /// True when this run started from an existing snapshot.
    pub resumed: bool,
    /// Wall-clock time spent committing snapshots, µs.
    pub write_wall_micros: u64,
}

struct Inner {
    seq: u64,
    graph: Option<LinkGraph>,
    pages: Vec<PageRecord>,
    seen: HashSet<String>,
    failures: Vec<FailureRecord>,
    pending: usize,
    writes: u64,
    write_wall_micros: u64,
    spans: Vec<SpanEvent>,
    /// First write error, surfaced at [`Checkpointer::flush`]; the crawl
    /// itself keeps going (losing durability, not data).
    deferred_error: Option<CheckpointError>,
}

/// The shared checkpoint sink: crawler threads record completed pages, and
/// every `every` new pages a full snapshot is committed atomically.
pub struct Checkpointer {
    dir: PathBuf,
    fingerprint: u64,
    every: usize,
    pages_restored: u64,
    resumed: bool,
    t0: Instant,
    inner: Mutex<Inner>,
}

/// Fingerprints crawl parameters: FNV-64 over the serialized config plus
/// whatever identifying strings the caller mixes in (seed URL, partition
/// shape, fault seed…). The snapshot cadence is excluded — it changes how
/// often the journal commits, never what gets crawled, so resuming with a
/// different `checkpoint_every` must not be a config mismatch.
pub fn config_fingerprint(config: &CrawlConfig, extra: &[&str]) -> u64 {
    let mut config = config.clone();
    config.checkpoint_every = 0;
    let mut text = serde_json::to_string(&config).unwrap_or_default();
    for part in extra {
        text.push('\u{1f}');
        text.push_str(part);
    }
    ajax_dom::fnv64_str(&text)
}

fn snapshot_name(seq: u64) -> String {
    format!("checkpoint-{seq:06}.ajx")
}

/// Numbered snapshot files in `dir`, newest first.
fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let seq: u64 = name
                .strip_prefix("checkpoint-")?
                .strip_suffix(".ajx")?
                .parse()
                .ok()?;
            Some((seq, entry.path()))
        })
        .collect();
    files.sort_by_key(|f| std::cmp::Reverse(f.0));
    files
}

impl Checkpointer {
    /// Opens a fresh journal in `dir`, clearing any previous generation's
    /// snapshots (a fresh build must not be resumable into stale state).
    pub fn fresh(
        dir: impl Into<PathBuf>,
        every: usize,
        fingerprint: u64,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            CheckpointError::Durable(DurableError::Io {
                path: dir.clone(),
                source: e,
            })
        })?;
        for (_, path) in snapshot_files(&dir) {
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(durable::tmp_path(&dir.join(snapshot_name(0)))).ok();
        Ok(Self::new(
            dir,
            every,
            fingerprint,
            0,
            None,
            Vec::new(),
            Vec::new(),
            false,
        ))
    }

    /// Opens the journal in `dir` and restores the newest valid snapshot.
    /// A torn or corrupt newest snapshot falls back to its predecessor; an
    /// empty or missing directory resumes from nothing (fresh crawl). A
    /// snapshot from a *different* crawl configuration is an error.
    pub fn resume(
        dir: impl Into<PathBuf>,
        every: usize,
        fingerprint: u64,
    ) -> Result<(Self, ResumeState), CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            CheckpointError::Durable(DurableError::Io {
                path: dir.clone(),
                source: e,
            })
        })?;
        let mut restored: Option<(u64, CrawlCheckpoint)> = None;
        for (seq, path) in snapshot_files(&dir) {
            match Self::load_snapshot(&path) {
                Ok(ckpt) => {
                    if ckpt.config_fingerprint != fingerprint {
                        return Err(CheckpointError::ConfigMismatch {
                            path,
                            expected: fingerprint,
                            found: ckpt.config_fingerprint,
                        });
                    }
                    restored = Some((seq, ckpt));
                    break;
                }
                // Corrupt / unreadable newest generation: fall back to the
                // previous snapshot — the journal property.
                Err(_) => continue,
            }
        }
        let (next_seq, graph, pages, failures, resumed) = match restored {
            Some((seq, ckpt)) => (seq + 1, ckpt.graph, ckpt.pages, ckpt.failures, true),
            None => (0, None, Vec::new(), Vec::new(), false),
        };
        let state = ResumeState {
            graph: graph.clone(),
            pages: pages.iter().map(|r| (r.url.clone(), r.clone())).collect(),
        };
        let mut me = Self::new(
            dir,
            every,
            fingerprint,
            next_seq,
            graph,
            pages,
            failures,
            resumed,
        );
        me.pages_restored = state.pages.len() as u64;
        Ok((me, state))
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        dir: PathBuf,
        every: usize,
        fingerprint: u64,
        seq: u64,
        graph: Option<LinkGraph>,
        pages: Vec<PageRecord>,
        failures: Vec<FailureRecord>,
        resumed: bool,
    ) -> Self {
        let seen = pages.iter().map(|r| r.url.clone()).collect();
        Self {
            dir,
            fingerprint,
            every: every.max(1),
            pages_restored: 0,
            resumed,
            t0: Instant::now(),
            inner: Mutex::new(Inner {
                seq,
                graph,
                pages,
                seen,
                failures,
                pending: 0,
                writes: 0,
                write_wall_micros: 0,
                spans: Vec::new(),
                deferred_error: None,
            }),
        }
    }

    fn load_snapshot(path: &Path) -> Result<CrawlCheckpoint, CheckpointError> {
        match durable::read_framed(path)? {
            FrameRead::Framed {
                magic,
                version,
                payload,
            } => {
                if magic != CHECKPOINT_MAGIC || version != CHECKPOINT_VERSION {
                    return Err(CheckpointError::Durable(DurableError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!(
                            "unexpected envelope {magic:?} v{version} (want \
                             {CHECKPOINT_MAGIC:?} v{CHECKPOINT_VERSION})"
                        ),
                    }));
                }
                let text = String::from_utf8(payload).map_err(|e| {
                    CheckpointError::Durable(DurableError::Corrupt {
                        path: path.to_path_buf(),
                        detail: format!("payload not utf-8: {e}"),
                    })
                })?;
                serde_json::from_str::<CrawlCheckpoint>(&text).map_err(|e| CheckpointError::Serde {
                    path: path.to_path_buf(),
                    source: serde::DeError::new(e.to_string()),
                })
            }
            FrameRead::NotFramed(_) => Err(CheckpointError::Durable(DurableError::Corrupt {
                path: path.to_path_buf(),
                detail: "not a framed checkpoint file".to_string(),
            })),
        }
    }

    /// Records the precrawl link graph and commits a snapshot immediately —
    /// the precrawl is one atomic unit of progress.
    pub fn record_graph(&self, graph: &LinkGraph) {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        inner.graph = Some(graph.clone());
        self.snapshot_locked(&mut inner);
    }

    /// Records one completed page; commits a snapshot after `every` new
    /// pages since the last one.
    pub(crate) fn record_page(&self, record: PageRecord) {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        if !inner.seen.insert(record.url.clone()) {
            return;
        }
        inner.pages.push(record);
        inner.pending += 1;
        if inner.pending >= self.every {
            self.snapshot_locked(&mut inner);
        }
    }

    /// Records one abandoned page (accounting; resume re-crawls it).
    pub(crate) fn record_failure(&self, record: FailureRecord) {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        if inner.failures.iter().any(|f| f.url == record.url) {
            return;
        }
        inner.failures.push(record);
    }

    /// Commits a final snapshot (even if nothing is pending) and surfaces
    /// any write error deferred during the crawl.
    pub fn flush(&self) -> Result<CheckpointStats, CheckpointError> {
        let mut inner = self.inner.lock().expect("checkpoint lock");
        self.snapshot_locked(&mut inner);
        if let Some(e) = inner.deferred_error.take() {
            return Err(e);
        }
        Ok(CheckpointStats {
            writes: inner.writes,
            pages_restored: self.pages_restored,
            resumed: self.resumed,
            write_wall_micros: inner.write_wall_micros,
        })
    }

    /// Current accounting without forcing a snapshot.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> CheckpointStats {
        let inner = self.inner.lock().expect("checkpoint lock");
        CheckpointStats {
            writes: inner.writes,
            pages_restored: self.pages_restored,
            resumed: self.resumed,
            write_wall_micros: inner.write_wall_micros,
        }
    }

    /// Drains the `checkpoint.write` spans recorded so far (wall-clock
    /// microseconds since the checkpointer was opened).
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.inner.lock().expect("checkpoint lock").spans)
    }

    fn snapshot_locked(&self, inner: &mut Inner) {
        let seq = inner.seq;
        let snapshot = CrawlCheckpoint {
            config_fingerprint: self.fingerprint,
            seq,
            graph: inner.graph.clone(),
            pages: inner.pages.clone(),
            failures: inner.failures.clone(),
        };
        let payload = match serde_json::to_string(&snapshot) {
            Ok(json) => json,
            Err(e) => {
                if inner.deferred_error.is_none() {
                    inner.deferred_error = Some(CheckpointError::Serde {
                        path: self.dir.join(snapshot_name(seq)),
                        source: serde::DeError::new(e.to_string()),
                    });
                }
                return;
            }
        };
        let path = self.dir.join(snapshot_name(seq));
        let started = self.t0.elapsed().as_micros() as u64;
        let result = durable::write_framed(
            &path,
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            payload.as_bytes(),
        );
        let ended = self.t0.elapsed().as_micros() as u64;
        match result {
            Ok(()) => {
                inner.seq += 1;
                inner.pending = 0;
                inner.writes += 1;
                inner.write_wall_micros += ended - started;
                inner.spans.push(SpanEvent {
                    name: "checkpoint.write",
                    track: 0,
                    start: started,
                    dur: ended - started,
                    args: vec![
                        ("seq", AttrValue::U64(seq)),
                        ("pages", AttrValue::U64(inner.pages.len() as u64)),
                        ("bytes", AttrValue::U64(payload.len() as u64)),
                    ],
                });
                // Retain the two newest generations; prune the rest.
                for (_, old) in snapshot_files(&self.dir).into_iter().skip(2) {
                    std::fs::remove_file(&old).ok();
                }
            }
            Err(e) => {
                if inner.deferred_error.is_none() {
                    inner.deferred_error = Some(CheckpointError::Durable(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ajax_ckpt_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn page(url: &str, states: u64) -> PageRecord {
        let mut model = AppModel::new(url);
        model.add_state(1, format!("state text of {url}"), None);
        PageRecord {
            url: url.to_string(),
            model,
            stats: PageStats {
                states,
                ..PageStats::default()
            },
            attempts: 1,
            history: EventHistory::default(),
        }
    }

    #[test]
    fn snapshot_roundtrip_restores_pages_and_graph() {
        let dir = temp_dir("roundtrip");
        let fp = 42;
        let ckpt = Checkpointer::fresh(&dir, 2, fp).unwrap();
        let mut graph = LinkGraph::default();
        graph.urls.push("http://x/watch?v=0".into());
        ckpt.record_graph(&graph);
        ckpt.record_page(page("http://x/watch?v=0", 3));
        ckpt.record_page(page("http://x/watch?v=1", 2));
        let stats = ckpt.flush().unwrap();
        assert!(stats.writes >= 2, "graph + cadence snapshots: {stats:?}");

        let (resumed, state) = Checkpointer::resume(&dir, 2, fp).unwrap();
        assert!(resumed.stats().resumed);
        assert_eq!(resumed.stats().pages_restored, 2);
        assert_eq!(state.pages.len(), 2);
        assert_eq!(
            state.graph.as_ref().map(|g| g.urls.len()),
            Some(1),
            "graph restored"
        );
        assert_eq!(state.pages["http://x/watch?v=1"].stats.states, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_empty_dir_is_fresh() {
        let dir = temp_dir("empty");
        let (ckpt, state) = Checkpointer::resume(&dir, 4, 7).unwrap();
        assert!(!ckpt.stats().resumed);
        assert!(state.pages.is_empty() && state.graph.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let fp = 9;
        let ckpt = Checkpointer::fresh(&dir, 1, fp).unwrap();
        ckpt.record_page(page("http://x/a", 1)); // snapshot 0
        ckpt.record_page(page("http://x/b", 1)); // snapshot 1
        drop(ckpt);
        // Tear the newest snapshot mid-payload.
        let files = snapshot_files(&dir);
        let newest = &files[0].1;
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

        let (ckpt, state) = Checkpointer::resume(&dir, 1, fp).unwrap();
        assert!(ckpt.stats().resumed, "fell back to snapshot 0");
        assert_eq!(state.pages.len(), 1, "only the older generation's page");
        assert!(state.pages.contains_key("http://x/a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_refused() {
        let dir = temp_dir("mismatch");
        let ckpt = Checkpointer::fresh(&dir, 1, 100).unwrap();
        ckpt.record_page(page("http://x/a", 1));
        drop(ckpt);
        let err = match Checkpointer::resume(&dir, 1, 200) {
            Err(e) => e,
            Ok(_) => panic!("resume under a different fingerprint must fail"),
        };
        assert!(matches!(err, CheckpointError::ConfigMismatch { .. }));
        let shown = format!("{err}");
        assert!(shown.contains("different crawl configuration"), "{shown}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_clears_previous_journal() {
        let dir = temp_dir("clears");
        let ckpt = Checkpointer::fresh(&dir, 1, 5).unwrap();
        ckpt.record_page(page("http://x/a", 1));
        drop(ckpt);
        let ckpt = Checkpointer::fresh(&dir, 1, 5).unwrap();
        drop(ckpt);
        let (_, state) = Checkpointer::resume(&dir, 1, 5).unwrap();
        assert!(state.pages.is_empty(), "fresh() wiped the old snapshots");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_page_records_are_ignored() {
        let dir = temp_dir("dedup");
        let ckpt = Checkpointer::fresh(&dir, 10, 1).unwrap();
        ckpt.record_page(page("http://x/a", 1));
        ckpt.record_page(page("http://x/a", 1));
        ckpt.flush().unwrap();
        let (_, state) = Checkpointer::resume(&dir, 10, 1).unwrap();
        assert_eq!(state.pages.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_spans_recorded() {
        let dir = temp_dir("spans");
        let ckpt = Checkpointer::fresh(&dir, 1, 3).unwrap();
        ckpt.record_page(page("http://x/a", 1));
        ckpt.flush().unwrap();
        let spans = ckpt.take_spans();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.name == "checkpoint.write"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_sensitive_to_config_and_extras() {
        let a = config_fingerprint(&CrawlConfig::ajax(), &["seed"]);
        let b = config_fingerprint(&CrawlConfig::ajax(), &["other"]);
        let c = config_fingerprint(&CrawlConfig::traditional(), &["seed"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, config_fingerprint(&CrawlConfig::ajax(), &["seed"]));
    }

    #[test]
    fn fingerprint_ignores_snapshot_cadence() {
        // Resuming with a different --checkpoint-every must not look like a
        // different crawl: cadence changes journal frequency, not output.
        let a = config_fingerprint(&CrawlConfig::ajax().with_checkpoint_every(4), &["seed"]);
        let b = config_fingerprint(&CrawlConfig::ajax().with_checkpoint_every(64), &["seed"]);
        assert_eq!(a, b);
    }
}
