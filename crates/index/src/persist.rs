//! Index and model persistence (thesis §8.3: "Saving an Index to disk for
//! later use" / "Loading an Index"; the crawler likewise serialized
//! application models per partition, §6.3.2).
//!
//! An index is saved as a binary segment; model files are JSON via serde.
//!
//! ## Durability
//!
//! All writes go through the crash-safe commit protocol in
//! [`ajax_crawl::durable`]: serialize to `<path>.tmp`, fsync, rename over
//! the destination, fsync the parent directory. A reader therefore sees
//! either the complete old file or the complete new file — never a torn
//! write.
//!
//! ## Index format
//!
//! An index file is the compressed binary segment of `segment.rs` (format
//! v4) inside the durable frame:
//!
//! ```text
//! {"magic":"ajax-index","version":4,"payload_crc32":C,"payload_len":L}
//! AJAXSEG4 ...binary segment...
//! #ajax-durable-eof
//! ```
//!
//! The CRC is computed over the raw payload bytes, so frame verification is
//! format-agnostic. Loading **maps** the file
//! ([`ajax_crawl::durable::map_framed`]) instead of deserializing: the
//! posting columns are addressed in place and decoded lazily per query.
//!
//! Truncated, over-long or bit-flipped files fail the length/marker/CRC
//! checks and surface as [`PersistError::Corrupt`] naming the file — they
//! are never silently loaded as a partial index. Every other file, including
//! the JSON indexes of formats v1–v3, is a [`PersistError::Format`] that
//! names the remedy: rebuild with `ajax-search build`.
//!
//! Model files use the same frame with magic `ajax-models` (legacy bare
//! JSON arrays remain loadable).

use crate::invert::InvertedIndex;
use crate::segment;
use ajax_crawl::durable::{self, DurableError, FrameRead};
use ajax_crawl::model::AppModel;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The envelope magic for index files.
pub const INDEX_MAGIC: &str = "ajax-index";
/// The index format version this build reads and writes (v4 = compressed
/// mmap-able segment + durable frame).
pub const INDEX_FORMAT_VERSION: u64 = 4;
/// The envelope magic for model files.
pub const MODELS_MAGIC: &str = "ajax-models";
/// The current model file format version.
pub const MODELS_FORMAT_VERSION: u64 = 1;

/// Why a save/load failed. Every variant names the offending file so a
/// multi-shard operator can tell *which* artifact is damaged.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// Models could not be written as, or parsed from, JSON.
    Serde {
        path: PathBuf,
        source: serde_json::Error,
    },
    /// The file is not a current-format artifact: not framed, wrong magic,
    /// or an old or unknown version.
    Format { path: PathBuf, detail: String },
    /// The file is a recognized artifact but physically damaged: truncated,
    /// carrying trailing garbage, or failing its checksum.
    Corrupt { path: PathBuf, detail: String },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            PersistError::Serde { path, source } => {
                write!(f, "serialization error on {}: {source}", path.display())
            }
            PersistError::Format { path, detail } => {
                write!(f, "format error on {}: {detail}", path.display())
            }
            PersistError::Corrupt { path, detail } => {
                write!(f, "corrupt file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<DurableError> for PersistError {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Io { path, source } => PersistError::Io { path, source },
            DurableError::Corrupt { path, detail } => PersistError::Corrupt { path, detail },
        }
    }
}

fn serde_err(path: &Path, source: serde_json::Error) -> PersistError {
    PersistError::Serde {
        path: path.to_path_buf(),
        source,
    }
}

fn format_err(path: &Path, detail: impl Into<String>) -> PersistError {
    PersistError::Format {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Saves an inverted file to `path` in the current (v4) format: the
/// compressed binary segment inside the durable frame (magic + version +
/// CRC32 over the raw payload bytes + EOF marker), atomically committed.
pub fn save_index(path: impl AsRef<Path>, index: &InvertedIndex) -> Result<(), PersistError> {
    let path = path.as_ref();
    let payload =
        segment::encode(index).map_err(|e| format_err(path, format!("segment encode: {e}")))?;
    durable::write_framed(path, INDEX_MAGIC, INDEX_FORMAT_VERSION, &payload)?;
    Ok(())
}

/// Loads an inverted file from `path`, verifying frame integrity (length,
/// EOF marker, CRC32) and the format envelope.
///
/// The file is **memory-mapped**: the call validates the segment's
/// structure (bounds, sentinels, dictionary coding, UTF-8) and returns an
/// index whose posting columns are decoded lazily from the mapping. Any file
/// but a v4 `ajax-index` frame is a [`PersistError::Format`] naming the
/// remedy.
pub fn load_index(path: impl AsRef<Path>) -> Result<InvertedIndex, PersistError> {
    let path = path.as_ref();
    let rebuild = |what: String| {
        format_err(
            path,
            format!(
                "{what}; this build reads only {INDEX_MAGIC} v{INDEX_FORMAT_VERSION} — rebuild \
                 the index with `ajax-search build`"
            ),
        )
    };
    let Some(frame) = durable::map_framed(path)? else {
        return Err(rebuild("not a framed index file".to_string()));
    };
    if frame.magic != INDEX_MAGIC || frame.version != INDEX_FORMAT_VERSION {
        return Err(rebuild(format!("{:?} v{}", frame.magic, frame.version)));
    }
    segment::open(Arc::new(frame)).map_err(|detail| PersistError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("v4 segment: {detail}"),
    })
}

/// Saves crawled application models to `path` — the per-partition
/// `*.bin` files of §6.3.2, unified into one framed, atomically committed
/// JSON document.
pub fn save_models(path: impl AsRef<Path>, models: &[AppModel]) -> Result<(), PersistError> {
    let path = path.as_ref();
    let payload = serde_json::to_string(models).map_err(|e| serde_err(path, e))?;
    durable::write_framed(
        path,
        MODELS_MAGIC,
        MODELS_FORMAT_VERSION,
        payload.as_bytes(),
    )?;
    Ok(())
}

/// Loads application models from `path` (framed current format, or a
/// legacy bare JSON array).
pub fn load_models(path: impl AsRef<Path>) -> Result<Vec<AppModel>, PersistError> {
    let path = path.as_ref();
    let bytes = match durable::read_framed(path)? {
        FrameRead::Framed {
            magic,
            version,
            payload,
        } => {
            if magic != MODELS_MAGIC {
                return Err(format_err(
                    path,
                    format!("wrong magic {magic:?} (expected {MODELS_MAGIC:?})"),
                ));
            }
            if version != MODELS_FORMAT_VERSION {
                return Err(format_err(
                    path,
                    format!(
                        "unsupported model file version {version} (this build reads \
                         v{MODELS_FORMAT_VERSION})"
                    ),
                ));
            }
            payload
        }
        FrameRead::NotFramed(bytes) => bytes,
    };
    let text = String::from_utf8(bytes)
        .map_err(|e| format_err(path, format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(&text).map_err(|e| serde_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invert::IndexBuilder;
    use crate::query::{search, Query, RankWeights};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ajax_persist_{}_{name}", std::process::id()));
        p
    }

    fn sample_model() -> AppModel {
        let mut m = AppModel::new("http://x/watch?v=1");
        m.add_state(
            1,
            "morcheeba enjoy the ride".into(),
            Some("<p>x</p>".into()),
        );
        m.add_state(2, "the singer is daisy".into(), None);
        m
    }

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_model(&sample_model(), Some(0.7));
        b.build()
    }

    #[test]
    fn index_roundtrip_preserves_search_results() -> Result<(), PersistError> {
        let index = sample_index();

        let path = temp_path("index.json");
        save_index(&path, &index)?;
        let loaded = load_index(&path)?;
        std::fs::remove_file(&path).ok();

        assert_eq!(index, loaded);
        let q = Query::parse("singer");
        let w = RankWeights::default();
        assert_eq!(search(&index, &q, &w), search(&loaded, &q, &w));
        Ok(())
    }

    #[test]
    fn envelope_carries_magic_and_version() -> Result<(), PersistError> {
        let index = sample_index();
        let path = temp_path("envelope.json");
        save_index(&path, &index)?;
        // The payload is binary — inspect the file as bytes, not a String.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
        assert!(header.contains("\"magic\""));
        assert!(header.contains(INDEX_MAGIC));
        assert!(header.contains("\"version\":4"));
        assert!(header.contains("payload_crc32"));
        let tail = format!("\n{}\n", ajax_crawl::durable::EOF_MARKER);
        assert!(bytes.ends_with(tail.as_bytes()));
        // The segment magic leads the binary payload.
        assert_eq!(&bytes[header_end + 1..header_end + 9], b"AJAXSEG4");
        Ok(())
    }

    #[test]
    fn v4_load_is_mapped_and_searches_identically() -> Result<(), PersistError> {
        let index = sample_index();
        let path = temp_path("v4_index.bin");
        save_index(&path, &index)?;
        let loaded = load_index(&path)?;
        std::fs::remove_file(&path).ok();
        assert!(loaded.is_mapped(), "v4 load must map, not deserialize");
        assert!(loaded.mapped_bytes() > 0);
        assert_eq!(index, loaded, "logical equality across backings");
        let w = RankWeights::default();
        for q in ["morcheeba", "the singer", "enjoy ride", "absent", ""] {
            let query = Query::parse(q);
            assert_eq!(
                search(&index, &query, &w),
                search(&loaded, &query, &w),
                "query {q:?} must be bit-identical on the mapped index"
            );
        }
        // Materializing the mapped index reproduces the original exactly.
        assert_eq!(loaded.into_owned(), index);
        Ok(())
    }

    #[test]
    fn empty_index_roundtrip() -> Result<(), PersistError> {
        // The degenerate case a fresh deployment starts from: zero pages,
        // zero states. Must survive persistence exactly and stay searchable.
        let index = IndexBuilder::new().build();
        assert_eq!(index.total_states, 0);

        let path = temp_path("empty_index.json");
        save_index(&path, &index)?;
        let loaded = load_index(&path)?;
        std::fs::remove_file(&path).ok();

        assert_eq!(index, loaded);
        assert_eq!(loaded.term_count(), 0);
        assert!(search(&loaded, &Query::parse("anything"), &RankWeights::default()).is_empty());
        Ok(())
    }

    #[test]
    fn models_roundtrip() -> Result<(), PersistError> {
        let models = vec![sample_model()];
        let path = temp_path("models.json");
        save_models(&path, &models)?;
        let loaded = load_models(&path)?;
        std::fs::remove_file(&path).ok();
        assert_eq!(models, loaded);
        assert_eq!(loaded[0].states[0].dom_html.as_deref(), Some("<p>x</p>"));
        Ok(())
    }

    #[test]
    fn legacy_bare_model_array_still_loads() {
        let models = vec![sample_model()];
        let path = temp_path("legacy_models.json");
        std::fs::write(&path, serde_json::to_string(&models).unwrap()).unwrap();
        let loaded = load_models(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(models, loaded);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_index("/nonexistent/definitely/missing.json").unwrap_err();
        match err {
            PersistError::Io { path, .. } => {
                assert!(path.to_string_lossy().contains("missing.json"));
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    /// Every file but a v4 frame loads as `Format`, naming the file and the
    /// remedy. `version` is the frame version, or `None` for an unframed file.
    fn assert_rejected_naming_rebuild(name: &str, version: Option<u64>, content: &str) {
        let path = temp_path(name);
        match version {
            Some(v) => durable::write_framed(&path, INDEX_MAGIC, v, content.as_bytes())
                .expect("write frame"),
            None => std::fs::write(&path, content).expect("write file"),
        }
        let err = load_index(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        let shown = err.to_string();
        assert!(
            matches!(err, PersistError::Format { .. }),
            "expected Format, got {err:?}"
        );
        assert!(shown.contains(name), "{shown}");
        assert!(shown.contains("rebuild"), "{shown}");
    }

    #[test]
    fn load_v1_file_rejected_with_clear_error() {
        let v1 = r#"{"postings":{"wow":[{"doc":{"page":0,"state":0},"count":1,"positions":[0]}]},"pages":[{"url":"http://x","pagerank":0.5,"ajaxrank":[1.0],"state_lengths":[1]}],"total_states":1}"#;
        assert_rejected_naming_rebuild("v1_index.json", None, v1);
    }

    #[test]
    fn load_v2_envelope_rejected_naming_rebuild() {
        let v2 = r#"{"magic":"ajax-index","version":2,"index":{}}"#;
        assert_rejected_naming_rebuild("v2_index.json", None, v2);
    }

    #[test]
    fn v3_file_rejected_naming_rebuild() {
        assert_rejected_naming_rebuild("v3_index.ajx", Some(3), "{}");
    }

    #[test]
    fn load_future_version_rejected() {
        assert_rejected_naming_rebuild("v99_index.ajx", Some(99), "{}");
    }

    #[test]
    fn load_garbage_errors() {
        assert_rejected_naming_rebuild("garbage_index.json", None, "{not json");
    }

    #[test]
    fn truncated_index_detected_as_corrupt() {
        let path = temp_path("truncated_index.json");
        save_index(&path, &sample_index()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = load_index(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            PersistError::Corrupt { path, detail } => {
                assert!(path.to_string_lossy().contains("truncated_index"));
                assert!(detail.contains("truncat"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bitflipped_index_detected_as_corrupt() {
        let path = temp_path("bitflip_index.json");
        save_index(&path, &sample_index()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the middle of the payload (after the header line).
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let mid = header_end + (bytes.len() - header_end) / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_index(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            PersistError::Corrupt { detail, .. } => {
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn save_commits_atomically_leaving_no_tmp() {
        let path = temp_path("atomic_index.json");
        save_index(&path, &sample_index()).unwrap();
        assert!(path.exists());
        assert!(!ajax_crawl::durable::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn display_names_the_offending_file() {
        let err = load_index("/nonexistent/definitely/missing.json").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing.json"), "message: {msg}");
    }
}
