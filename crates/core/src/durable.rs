//! Crash-safe file primitives shared by index persistence and crawl
//! checkpoints (docs/robustness.md, "Durability & recovery").
//!
//! Two layers:
//!
//! * **Atomic commit** ([`commit_bytes`]): serialize to `<path>.tmp`, fsync
//!   the file, rename over the target, fsync the parent directory. A reader
//!   observes either the old generation or the new one — never a torn mix —
//!   and a SIGKILL at any instruction leaves at worst a stale `.tmp` beside
//!   an intact target.
//! * **Framed envelope** ([`write_framed`] / [`read_framed`]): a one-line
//!   JSON header carrying magic, version, a CRC32 of the payload and the
//!   payload length, then the payload bytes, then a trailing end-of-file
//!   marker line. Truncation anywhere (missing marker, short payload) and
//!   bit rot anywhere (CRC mismatch) surface as [`DurableError::Corrupt`]
//!   with the offending path — never a panic, never silently-partial data.
//!
//! The header is its own line so sniffing is cheap: a file whose first line
//! is not a frame header is handed back verbatim ([`FrameRead::NotFramed`])
//! for the caller's legacy-format fallback.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The trailing end-of-file marker line. Its absence is how a truncated
/// file is detected even when the truncation point lands exactly on the
/// declared payload length.
pub const EOF_MARKER: &str = "#ajax-durable-eof";

/// Why a durable read or commit failed. Every variant names the file.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The file carries a frame header but the frame does not check out:
    /// truncated payload, missing end marker, CRC mismatch, trailing junk.
    Corrupt { path: PathBuf, detail: String },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            DurableError::Corrupt { path, detail } => {
                write!(f, "corrupt file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for DurableError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `T[0]` is the classic byte-at-a-time table; `T[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table reads advance the register
/// over eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes` — the checksum in every frame header. Catches
/// all single-bit flips and all burst errors up to 32 bits. Eight bytes a
/// step (slicing-by-8), then the tail bytewise; the value is that of the
/// one-table loop for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        // Byte `k` of the step has `7 - k` bytes after it, hence its table.
        let v = u64::from_le_bytes(w.try_into().expect("chunks of eight")) ^ u64::from(c);
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(v >> (8 * k)) as usize & 0xFF]);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Atomic commit.
// ---------------------------------------------------------------------------

/// The sibling temp file a commit stages through: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn io_err(path: &Path, source: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Atomically replaces `path` with `bytes`: write `<path>.tmp`, fsync,
/// rename over `path`, fsync the parent directory so the rename itself is
/// durable. A crash at any point leaves either the previous generation or
/// the new one, plus at worst a stale `.tmp` (which `fsck` calls
/// repairable).
pub fn commit_bytes(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), DurableError> {
    commit_parts(path.as_ref(), &[bytes])
}

/// [`commit_bytes`] of the concatenation of `parts`, written through one
/// `File` without joining them on the heap first.
fn commit_parts(path: &Path, parts: &[&[u8]]) -> Result<(), DurableError> {
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        for part in parts {
            file.write_all(part).map_err(|e| io_err(&tmp, e))?;
        }
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    // Durability of the rename needs the directory entry flushed too.
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = fs::File::open(parent).map_err(|e| io_err(parent, e))?;
        dir.sync_all().map_err(|e| io_err(parent, e))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed envelope.
// ---------------------------------------------------------------------------

/// Frames `payload` under `(magic, version)` and commits it atomically.
pub fn write_framed(
    path: impl AsRef<Path>,
    magic: &str,
    version: u64,
    payload: &[u8],
) -> Result<(), DurableError> {
    let mut header = format!(
        r#"{{"magic":"{magic}","version":{version},"payload_crc32":{},"payload_len":{}}}"#,
        crc32(payload),
        payload.len()
    );
    header.push('\n');
    let trailer = format!("\n{EOF_MARKER}\n");
    commit_parts(
        path.as_ref(),
        &[header.as_bytes(), payload, trailer.as_bytes()],
    )
}

/// What [`read_framed`] found on disk.
#[derive(Debug)]
pub enum FrameRead {
    /// A checksummed frame that validated end to end.
    Framed {
        magic: String,
        version: u64,
        payload: Vec<u8>,
    },
    /// The first line is not a frame header; here are the raw bytes for a
    /// legacy-format fallback parse.
    NotFramed(Vec<u8>),
}

/// Parses the first line of `bytes` as a frame header, if it is one.
fn parse_header(line: &str) -> Option<(String, u64, u32, usize)> {
    let value: serde::Value = serde_json::from_str(line).ok()?;
    let obj = value.as_object()?;
    let magic = obj.get("magic")?.as_str()?.to_string();
    let version = match obj.get("version")? {
        serde::Value::U64(v) => *v,
        _ => return None,
    };
    let crc = match obj.get("payload_crc32")? {
        serde::Value::U64(v) => u32::try_from(*v).ok()?,
        _ => return None,
    };
    let len = match obj.get("payload_len")? {
        serde::Value::U64(v) => usize::try_from(*v).ok()?,
        _ => return None,
    };
    Some((magic, version, crc, len))
}

/// Validates a frame in place: header sanity, declared payload length,
/// trailing end-of-file marker, CRC32 over the **raw payload bytes** (no
/// UTF-8 assumption — binary payloads are first-class). Returns the parsed
/// `(magic, version)` and the payload's byte range within `bytes`, or `None`
/// when the content is not framed at all (legacy fallback territory).
fn validate_frame(
    bytes: &[u8],
    path: &Path,
) -> Result<Option<(String, u64, std::ops::Range<usize>)>, DurableError> {
    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };

    // A file that *starts* like a frame header but never completes one is a
    // torn header from a crashed write, not a legacy file. Legacy envelopes
    // also open with `{"magic":` — but they are complete JSON documents, so
    // require the content to be unparseable before calling it torn.
    let torn_header = |content: &[u8]| {
        content.starts_with(br#"{"magic":"#)
            && std::str::from_utf8(content)
                .ok()
                .and_then(|text| serde_json::from_str::<serde::Value>(text).ok())
                .is_none()
    };

    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        if torn_header(bytes) {
            return Err(corrupt(
                "truncated frame header (file ends mid-header)".to_string(),
            ));
        }
        return Ok(None);
    };
    let Ok(header_line) = std::str::from_utf8(&bytes[..header_end]) else {
        return Ok(None);
    };
    let Some((magic, version, crc, len)) = parse_header(header_line) else {
        if torn_header(header_line.as_bytes()) {
            return Err(corrupt("malformed frame header".to_string()));
        }
        return Ok(None);
    };

    // From here on the file claims to be framed, so every deviation is
    // corruption, not a format question.
    let payload_start = header_end + 1;
    let trailer = format!("\n{EOF_MARKER}\n");
    let expected_total = payload_start + len + trailer.len();
    if bytes.len() < expected_total {
        return Err(corrupt(format!(
            "truncated: {} bytes on disk, frame declares {expected_total}",
            bytes.len()
        )));
    }
    if bytes.len() > expected_total {
        return Err(corrupt(format!(
            "trailing data: {} bytes on disk, frame declares {expected_total}",
            bytes.len()
        )));
    }
    if &bytes[payload_start + len..] != trailer.as_bytes() {
        return Err(corrupt("missing end-of-file marker".to_string()));
    }
    let payload = &bytes[payload_start..payload_start + len];
    let actual = crc32(payload);
    if actual != crc {
        return Err(corrupt(format!(
            "checksum mismatch: payload crc32 {actual:#010x}, header declares {crc:#010x}"
        )));
    }
    Ok(Some((magic, version, payload_start..payload_start + len)))
}

/// Reads `path` and validates its frame: header sanity, declared payload
/// length, trailing end-of-file marker, CRC32. Any violation is
/// [`DurableError::Corrupt`] naming the path and what failed; a file that
/// does not even start with a frame header comes back as
/// [`FrameRead::NotFramed`] so callers can run their legacy parser (and
/// produce their historical error messages).
pub fn read_framed(path: impl AsRef<Path>) -> Result<FrameRead, DurableError> {
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    match validate_frame(&bytes, path)? {
        Some((magic, version, payload)) => Ok(FrameRead::Framed {
            magic,
            version,
            payload: bytes[payload].to_vec(),
        }),
        None => Ok(FrameRead::NotFramed(bytes)),
    }
}

/// A validated frame over a memory-mapped file: the payload is a borrowed
/// window into the mapping, never copied to the heap. The frame (header,
/// marker, CRC) is verified once at open; afterwards [`MappedFrame::payload`]
/// is a plain slice whose pages fault in on demand.
#[derive(Debug)]
pub struct MappedFrame {
    buf: crate::mapfile::MappedFile,
    pub magic: String,
    pub version: u64,
    payload: std::ops::Range<usize>,
}

impl MappedFrame {
    /// The validated payload bytes, borrowed from the mapping.
    pub fn payload(&self) -> &[u8] {
        &self.buf[self.payload.clone()]
    }

    /// True when the backing is an actual kernel mapping.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }
}

/// [`read_framed`], zero-copy: memory-maps `path`, validates the frame in
/// place and hands back a [`MappedFrame`] whose payload borrows the mapping.
/// A file whose first line is not a frame header comes back as `None`; its
/// bytes are never copied.
pub fn map_framed(path: impl AsRef<Path>) -> Result<Option<MappedFrame>, DurableError> {
    let path = path.as_ref();
    let buf = crate::mapfile::MappedFile::open(path).map_err(|e| io_err(path, e))?;
    let Some((magic, version, payload)) = validate_frame(&buf, path)? else {
        return Ok(None);
    };
    Ok(Some(MappedFrame {
        buf,
        magic,
        version,
        payload,
    }))
}

/// What `fsck` learned about one file.
#[derive(Debug)]
pub enum Inspection {
    /// A valid frame: magic, version, payload bytes.
    Ok {
        magic: String,
        version: u64,
        payload_len: usize,
    },
    /// Not framed at all — a legacy or foreign file.
    Legacy { bytes: usize },
}

/// Validates `path` without knowing its expected magic — the `fsck`
/// primitive. Corruption comes back as the error; intact frames and
/// unframed (legacy) files as [`Inspection`].
pub fn inspect(path: impl AsRef<Path>) -> Result<Inspection, DurableError> {
    match read_framed(&path)? {
        FrameRead::Framed {
            magic,
            version,
            payload,
        } => Ok(Inspection::Ok {
            magic,
            version,
            payload_len: payload.len(),
        }),
        FrameRead::NotFramed(bytes) => Ok(Inspection::Legacy { bytes: bytes.len() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ajax_durable_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let path = temp("roundtrip");
        write_framed(&path, "ajax-test", 7, b"hello payload").unwrap();
        match read_framed(&path).unwrap() {
            FrameRead::Framed {
                magic,
                version,
                payload,
            } => {
                assert_eq!(magic, "ajax-test");
                assert_eq!(version, 7);
                assert_eq!(payload, b"hello payload");
            }
            other => panic!("expected framed, got {other:?}"),
        }
        assert!(!tmp_path(&path).exists(), "commit removed the temp file");
        // The frame is written in parts; on disk it is one concatenation:
        // header line, payload, end-marker line.
        let header = format!(
            r#"{{"magic":"ajax-test","version":7,"payload_crc32":{},"payload_len":13}}"#,
            crc32(b"hello payload")
        );
        let expected = format!("{header}\nhello payload\n{EOF_MARKER}\n");
        assert_eq!(fs::read(&path).unwrap(), expected.as_bytes());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_payload_roundtrips_and_maps() {
        // Non-UTF-8 payload containing newlines, NULs and the EOF marker's
        // own bytes: the frame must treat it as opaque binary.
        let path = temp("binary");
        let mut payload: Vec<u8> = (0u8..=255).collect();
        payload.extend_from_slice(b"\n#ajax-durable-eof\n");
        payload.extend_from_slice(&[0xFF, 0xFE, 0x00, b'\n']);
        write_framed(&path, "ajax-bin", 4, &payload).unwrap();
        match read_framed(&path).unwrap() {
            FrameRead::Framed {
                magic,
                version,
                payload: read_back,
            } => {
                assert_eq!(magic, "ajax-bin");
                assert_eq!(version, 4);
                assert_eq!(read_back, payload);
            }
            other => panic!("expected framed, got {other:?}"),
        }
        let frame = map_framed(&path).unwrap().expect("a mapped frame");
        assert_eq!(frame.magic, "ajax-bin");
        assert_eq!(frame.version, 4);
        assert_eq!(frame.payload(), payload.as_slice());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn map_framed_matches_read_framed_on_corruption() {
        let path = temp("map_corrupt");
        write_framed(&path, "ajax-bin", 4, b"some payload here").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mapped = map_framed(&path);
        let read = read_framed(&path);
        match (mapped, read) {
            (
                Err(DurableError::Corrupt { detail: a, .. }),
                Err(DurableError::Corrupt { detail: b, .. }),
            ) => {
                assert_eq!(a, b, "mapped and heap reads must agree on the diagnosis");
            }
            other => panic!("expected matching Corrupt errors, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn map_framed_reports_an_unframed_file_as_none() {
        let path = temp("map_unframed");
        fs::write(&path, b"{\"not\": \"framed\"}").unwrap();
        assert!(map_framed(&path).unwrap().is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_is_corrupt_or_legacy() {
        let path = temp("trunc_src");
        write_framed(&path, "ajax-test", 1, b"0123456789abcdef").unwrap();
        let full = fs::read(&path).unwrap();
        let cut = temp("trunc_cut");
        for n in 0..full.len() {
            fs::write(&cut, &full[..n]).unwrap();
            match read_framed(&cut) {
                Ok(FrameRead::Framed { .. }) => {
                    panic!("truncation to {n} bytes read back as a valid frame")
                }
                // Cut inside the header line: legacy fallback territory.
                Ok(FrameRead::NotFramed(_)) => {
                    assert!(n <= full.iter().position(|&b| b == b'\n').unwrap())
                }
                Err(DurableError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error at {n}: {e}"),
            }
        }
        fs::remove_file(&path).ok();
        fs::remove_file(&cut).ok();
    }

    #[test]
    fn bit_flip_never_validates() {
        let path = temp("flip_src");
        write_framed(&path, "ajax-test", 1, b"the quick brown fox").unwrap();
        let full = fs::read(&path).unwrap();
        let flipped = temp("flip_out");
        for (i, bit) in [(3usize, 0u8), (20, 3), (full.len() - 2, 7)] {
            let mut copy = full.clone();
            copy[i] ^= 1 << bit;
            fs::write(&flipped, &copy).unwrap();
            match read_framed(&flipped) {
                Ok(FrameRead::Framed { payload, .. }) => {
                    panic!("bit flip at byte {i} validated with payload {payload:?}")
                }
                Ok(FrameRead::NotFramed(_)) | Err(DurableError::Corrupt { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        fs::remove_file(&path).ok();
        fs::remove_file(&flipped).ok();
    }

    #[test]
    fn trailing_junk_is_corrupt() {
        let path = temp("junk");
        write_framed(&path, "ajax-test", 1, b"payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"extra");
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_framed(&path),
            Err(DurableError::Corrupt { .. })
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unframed_file_is_handed_back() {
        let path = temp("legacy");
        fs::write(&path, b"{\"some\":\"json\"}\nmore").unwrap();
        match read_framed(&path).unwrap() {
            FrameRead::NotFramed(bytes) => assert!(bytes.starts_with(b"{\"some\"")),
            other => panic!("expected NotFramed, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_replaces_previous_generation() {
        let path = temp("replace");
        commit_bytes(&path, b"generation 1").unwrap();
        commit_bytes(&path, b"generation 2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation 2");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_with_path() {
        let err = read_framed("/nonexistent/definitely/missing.ajx").unwrap_err();
        match err {
            DurableError::Io { path, .. } => {
                assert!(path.to_string_lossy().contains("missing.ajx"))
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let shown = format!(
            "{}",
            read_framed("/nonexistent/definitely/missing.ajx").unwrap_err()
        );
        assert!(
            shown.contains("missing.ajx"),
            "display names the path: {shown}"
        );
    }
}
