//! Crash-safe file primitives shared by index persistence and crawl
//! checkpoints (docs/robustness.md, "Durability & recovery").
//!
//! Two layers:
//!
//! * **Atomic commit** ([`commit_parts`]): serialize to `<path>.tmp`, fsync
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
// CRC32 (IEEE 802.3 polynomial, reflected): carry-less folding where the CPU
// has it, slicing-by-8 everywhere else.
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

/// Inputs shorter than this stay on slicing-by-8: the folding kernel's
/// fixed cost (loading constants, the final reduction) buys nothing there.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// CRC32 (IEEE) of `bytes` — the checksum in every frame header. Catches
/// all single-bit flips and all burst errors up to 32 bits. On x86_64 CPUs
/// with PCLMULQDQ and SSE4.1 (detected at run time) the 16-byte-aligned
/// bulk of an input of 128 bytes or more goes through the carry-less
/// folding kernel and the rest through slicing-by-8; the value is that of
/// the one-table loop for every input on every CPU.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        let (bulk, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: both target features were detected on this CPU just now,
        // and `bulk` is at least 128 bytes, a multiple of 16.
        let c = unsafe { clmul::fold(!0, bulk) };
        return !crc32_slicing_by_8(c, tail);
    }
    !crc32_slicing_by_8(!0, bytes)
}

/// Advances the CRC register `c` (pre- and post-inversion left to the
/// caller) over `bytes`, eight bytes a step, then the tail bytewise.
fn crc32_slicing_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        // Byte `k` of the step has `7 - k` bytes after it, hence its table.
        let v = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]) ^ u64::from(c);
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(v >> (8 * k)) as usize & 0xFF]);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC folding by carry-less multiplication, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
/// 2009), in the bit-reflected domain of the IEEE polynomial. Four 128-bit
/// lanes each fold 64 bytes ahead per step; the lanes fold into one, which
/// folds in the 16-byte blocks left over, to 64 bits, and is then
/// Barrett-reduced to the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Each `k` is the paper's `(x^n mod P << 32)' << 1`: `x^n mod P`
    // shifted up 32 bits, bit-reflected, then shifted left by one.

    /// `n = 4·128 + 32` and `4·128 - 32`: fold a lane 512 bits ahead.
    const K1_K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// `n = 128 + 32` and `128 - 32`: fold one lane into the next.
    const K3_K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// `n = 64`: fold the last 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P` and the Barrett constant `μ = x^64 / P`, both
    /// bit-reflected.
    const P_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// `x · k` folded onto `next`: the low halves multiplied, the high
    /// halves multiplied, the three XORed.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The 16 bytes of `bytes` at `at`, unaligned.
    #[inline]
    fn load(bytes: &[u8], at: usize) -> __m128i {
        let block = &bytes[at..at + 16];
        // SAFETY: `block` is 16 readable bytes, the unaligned load needs
        // no alignment, and SSE2 is part of every x86_64 CPU.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Advances the CRC register `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1. `bytes` must hold at
    /// least 64 bytes, a multiple of 16 (otherwise the result is wrong,
    /// though memory stays safe: every load is a bounds-checked slice).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64);
        debug_assert_eq!(bytes.len() % 16, 0);
        let (first, rest) = bytes.split_at(64);
        let mut lanes = [
            load(first, 0),
            load(first, 16),
            load(first, 32),
            load(first, 48),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k = _mm_set_epi64x(K1_K2.1, K1_K2.0);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_16(*lane, k, load(block, 16 * i));
            }
        }

        let k = _mm_set_epi64x(K3_K4.1, K3_K4.0);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold_16(x, k, lane);
        }
        for block in blocks.remainder().chunks_exact(16) {
            x = fold_16(x, k, load(block, 0));
        }

        // 128 bits to 64: the low half times x^(128-32) onto the high half,
        // then the low 32 bits times x^64 onto the 64 above them.
        let mask32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k, 0x10));
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
        );

        // Barrett reduction: q = (x mod x^32) · μ, then x + (q mod x^32) · P.
        let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), p_mu, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), p_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, r), 1) as u32
    }
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

/// Atomically replaces `path` with the concatenation of `parts`, written
/// through one `File` without joining them on the heap first: write
/// `<path>.tmp`, fsync, rename over `path`, fsync the parent directory so
/// the rename itself is durable. A crash at any point leaves either the
/// previous generation or the new one, plus at worst a stale `.tmp` (which
/// `fsck` calls repairable).
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

    /// CRC-32/IEEE one byte a step, one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// The fallback kernel, called directly: a CPU with PCLMULQDQ would
    /// otherwise never run it on an input of 128 bytes or more.
    #[test]
    fn slicing_by_8_is_the_bitwise_loop_at_every_length_and_alignment() {
        let bytes: Vec<u8> = (0..320u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                let window = &bytes[start..start + len];
                assert_eq!(
                    !crc32_slicing_by_8(!0, window),
                    crc32_bitwise(window),
                    "start {start} len {len}"
                );
            }
        }
    }

    /// The folding kernel, called directly at every length it accepts up
    /// to a few steps of each of its loops.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_fold_is_the_bitwise_loop_where_the_cpu_has_it() {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return;
        }
        let bytes: Vec<u8> = (0..600u32).map(|i| (i * 131 + 7) as u8).collect();
        for start in 0..16 {
            for len in (64..=576).step_by(16) {
                let window = &bytes[start..start + len];
                // SAFETY: both features were detected above; `len` is at
                // least 64 and a multiple of 16.
                let folded = unsafe { clmul::fold(!0, window) };
                assert_eq!(!folded, crc32_bitwise(window), "start {start} len {len}");
            }
        }
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
        commit_parts(&path, &[b"generation 1"]).unwrap();
        commit_parts(&path, &[b"generation 2"]).unwrap();
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
