//! What `load_index` accepts, as an executable specification.
//!
//! A v4 segment whose frame checksums can still be malformed inside. The
//! checks `segment::open` runs on the fixed-width columns and the
//! dictionary are stated here by a brute-force definition that decodes
//! everything into vectors first:
//!
//! * every offset column (S0, S1, S2, S5) ends in its sentinel — the
//!   posting count or the length of the stream it indexes — and is
//!   non-decreasing, by `windows(2)`;
//! * every dictionary block decodes inside its section, each front-coded
//!   `lcp` is at most the previous term's length, and every decoded term is
//!   UTF-8 as a whole string.
//!
//! The generated indexes hold terms of multi-byte chars that share a first
//! byte, so the bytewise `lcp` of two neighbours often splits a char. One
//! byte of a column or of the dictionary is then changed and the payload
//! re-framed with a valid CRC. `load_index` must answer `Ok` exactly when
//! the definition accepts, name the same defect in the same words when it
//! does not, and never panic.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_crawl::durable::{read_framed, write_framed, FrameRead};
use ajax_crawl::model::AppModel;
use ajax_index::persist::{INDEX_FORMAT_VERSION, INDEX_MAGIC};
use ajax_index::{load_index, save_index, IndexBuilder, PersistError};
use proptest::prelude::*;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    ProptestConfig::with_cases(cases)
}

/// SplitMix64: the tests' only source of choices, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ajax-segment-spec-{}-{tag}-{}.ajx",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

// ------------------------------------------------------------ generators

/// Letters that front-code mid-char: "è"/"é"/"ê" share their first byte,
/// "本"/"月" their first two, "𝒳"/"𝒴" their first three.
const WIDE: &[&str] = &["è", "é", "ê", "ß", "日", "本", "月", "𝒳", "𝒴"];
const ASCII: &[&str] = &["a", "b", "e", "z", "0", "9"];

/// 1–70 words of 1–4 letters (so one to five dictionary blocks of 16),
/// wide letters mixed in unless `ascii_only`.
fn gen_words(rng: &mut Rng, ascii_only: bool) -> Vec<String> {
    (0..1 + rng.below(70))
        .map(|_| {
            (0..1 + rng.below(4))
                .map(|_| {
                    if ascii_only || rng.below(2) == 0 {
                        ASCII[rng.below(ASCII.len())]
                    } else {
                        WIDE[rng.below(WIDE.len())]
                    }
                })
                .collect()
        })
        .collect()
}

/// Pages of one or two states whose texts are the words, spread round.
fn corpus(words: &[String]) -> Vec<AppModel> {
    words
        .chunks(7)
        .enumerate()
        .map(|(p, chunk)| {
            let mut model = AppModel::new(format!("http://site.example/p{p}"));
            model.add_state(1, chunk.join(" "), None);
            if p % 2 == 1 {
                model.add_state(2, format!("{} {}", chunk[0], words[0]), None);
            }
            model
        })
        .collect()
}

/// The v4 payload `save_index` writes for `models`.
fn saved_payload(models: &[AppModel]) -> Vec<u8> {
    let path = scratch_path("saved");
    let mut builder = IndexBuilder::new();
    for model in models {
        builder.add_model(model, Some(0.5));
    }
    save_index(&path, &builder.build()).expect("save v4");
    let read = read_framed(&path).expect("read the saved frame");
    let _ = std::fs::remove_file(&path);
    match read {
        FrameRead::Framed { payload, .. } => payload,
        FrameRead::NotFramed(_) => panic!("save_index wrote an unframed file"),
    }
}

// ------------------------------------------------------------ the layout

/// The header fields and sections the writer laid out (the tests never
/// change the header, the section table or the page section).
struct Layout {
    n_terms: usize,
    n_postings: usize,
    block: usize,
    secs: Vec<Range<usize>>,
}

fn le(bytes: &[u8], at: usize, width: usize) -> u64 {
    bytes[at..at + width]
        .iter()
        .rev()
        .fold(0, |v, &b| v << 8 | u64::from(b))
}

fn layout(payload: &[u8]) -> Layout {
    assert_eq!(&payload[..8], b"AJAXSEG4");
    let secs = (0..8)
        .map(|i| {
            let off = le(payload, 32 + 16 * i, 8) as usize;
            off..off + le(payload, 40 + 16 * i, 8) as usize
        })
        .collect();
    Layout {
        n_terms: le(payload, 8, 4) as usize,
        n_postings: le(payload, 12, 4) as usize,
        block: le(payload, 20, 4) as usize,
        secs,
    }
}

/// The fixed-width columns the open checks, with their names and
/// sentinels.
const COLUMNS: [(usize, &str); 4] = [
    (0, "term_offsets"),
    (1, "run_offsets"),
    (2, "dict_blocks"),
    (5, "term_pos"),
];

// ------------------------------------------------------- the definition

/// One LEB128 value: bytes with the high bit set continue it, and it runs
/// to ten bytes at most.
fn varint(bytes: &[u8], cur: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    for i in 0.. {
        let b = *bytes.get(*cur).ok_or("truncated varint in segment")?;
        *cur += 1;
        if i == 10 {
            return Err("oversized varint in segment".to_string());
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            break;
        }
    }
    Ok(v)
}

fn take<'a>(bytes: &'a [u8], cur: &mut usize, n: u64) -> Result<&'a [u8], String> {
    let run = usize::try_from(n)
        .ok()
        .and_then(|n| bytes.get(*cur..cur.checked_add(n)?))
        .ok_or("truncated byte run in segment")?;
    *cur += run.len();
    Ok(run)
}

/// What `load_index` must answer for `payload`: its terms, or the first
/// defect, checked in the order the open names them.
fn definition(payload: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let l = layout(payload);
    let column = |i: usize| -> Vec<u32> {
        payload[l.secs[i].clone()]
            .chunks(4)
            .map(|w| le(w, 0, 4) as u32)
            .collect()
    };
    let sentinels = [
        l.n_postings,
        l.secs[4].len(),
        l.secs[3].len(),
        l.secs[6].len(),
    ];
    for ((i, what), want) in COLUMNS.into_iter().zip(sentinels) {
        let got = *column(i).last().expect("a column holds its sentinel") as usize;
        if got != want {
            return Err(format!("{what} sentinel {got}, expected {want}"));
        }
    }
    for (i, what) in COLUMNS {
        if let Some(at) = column(i).windows(2).position(|w| w[1] < w[0]) {
            return Err(format!("{what} not monotone at {}", at + 1));
        }
    }

    let data = &payload[l.secs[3].clone()];
    let blocks = l.n_terms.div_ceil(l.block);
    let mut terms: Vec<Vec<u8>> = Vec::with_capacity(l.n_terms);
    for (b, &start) in column(2)[..blocks].iter().enumerate() {
        let mut cur = start as usize;
        let head_len = varint(data, &mut cur)?;
        let head = take(data, &mut cur, head_len)?.to_vec();
        if std::str::from_utf8(&head).is_err() {
            return Err(format!("dictionary block {b} head is not valid UTF-8"));
        }
        terms.push(head);
        for _ in 1..(l.n_terms - b * l.block).min(l.block) {
            let prev = terms.last().expect("the block head is in");
            let lcp = varint(data, &mut cur)?;
            if lcp > prev.len() as u64 {
                return Err("front-coded lcp exceeds previous term".to_string());
            }
            let suffix_len = varint(data, &mut cur)?;
            let suffix = take(data, &mut cur, suffix_len)?;
            let term = [&prev[..lcp as usize], suffix].concat();
            if std::str::from_utf8(&term).is_err() {
                return Err(format!("dictionary block {b} term is not valid UTF-8"));
            }
            terms.push(term);
        }
    }
    Ok(terms)
}

// ------------------------------------------------------------ the check

/// Frames `payload` with a valid CRC, opens it, and holds the answer to
/// [`definition`]. Returns the definition's verdict.
fn open_agrees(payload: &[u8]) -> Result<Result<(), String>, TestCaseError> {
    let want = definition(payload);
    let path = scratch_path("mutated");
    write_framed(&path, INDEX_MAGIC, INDEX_FORMAT_VERSION, payload).expect("re-frame");
    let got = load_index(&path);
    let _ = std::fs::remove_file(&path);
    match (got, &want) {
        (Ok(index), Ok(terms)) => {
            prop_assert_eq!(index.term_count(), terms.len());
            let mut buf = Vec::new();
            for (id, term) in terms.iter().enumerate() {
                let decoded = index.dict().decode_term(id as u32, &mut buf);
                prop_assert_eq!(decoded.as_bytes(), term.as_slice(), "term {}", id);
            }
        }
        (Err(PersistError::Corrupt { detail, .. }), Err(defect)) => {
            prop_assert_eq!(detail, format!("v4 segment: {defect}"));
        }
        (Ok(_), Err(defect)) => {
            prop_assert!(false, "opened a segment with a defect: {}", defect)
        }
        (Err(e), Ok(_)) => prop_assert!(false, "refused a segment the definition accepts: {}", e),
        (Err(e), Err(defect)) => {
            prop_assert!(false, "{} is not a Corrupt naming {}", e, defect)
        }
    }
    Ok(want.map(|_| ()))
}

/// Bytes a mutation writes: any, and those that make or break UTF-8 and
/// varints — ASCII, a continuation byte, lead bytes, a continuing varint.
const INTERESTING: &[u8] = &[
    0x00, 0x01, b'x', 0x7f, 0x80, 0xa9, 0xbf, 0xc3, 0xe6, 0xf0, 0xff,
];

/// Changes one byte of a column or of the dictionary in `payload`.
fn mutate(rng: &mut Rng, payload: &mut [u8]) {
    let l = layout(payload);
    // The dictionary as often as the four columns together.
    let sec = [0, 1, 2, 5, 3, 3, 3, 3][rng.below(8)];
    let range = l.secs[sec].clone();
    let at = range.start + rng.below(range.len());
    let old = payload[at];
    let new = match rng.below(3) {
        0 => rng.next() as u8,
        1 => old ^ (1 << rng.below(8)),
        _ => INTERESTING[rng.below(INTERESTING.len())],
    };
    payload[at] = if new == old { old ^ 0x80 } else { new };
}

proptest! {
    #![proptest_config(cases())]

    /// An unchanged segment opens, with the terms the definition decodes.
    /// Fails on: a UTF-8 check that starts past a split char's lead byte,
    /// an ASCII shortcut that skips a reconstruction it needed.
    #[test]
    fn a_written_segment_opens_with_the_defined_terms(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let ascii_only = rng.below(3) == 0;
        let payload = saved_payload(&corpus(&gen_words(&mut rng, ascii_only)));
        prop_assert_eq!(open_agrees(&payload)?, Ok(()));
    }

    /// One changed byte: `load_index` opens exactly when the definition
    /// accepts, names the same defect, and never panics. Fails on: a
    /// monotone check off by one column entry, a UTF-8 check that trusts a
    /// suffix after an lcp that split a char, a walk that reads past its
    /// section, an lcp bound against the wrong term.
    #[test]
    fn one_changed_byte_opens_exactly_when_the_definition_accepts(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let ascii_only = rng.below(3) == 0;
        let mut payload = saved_payload(&corpus(&gen_words(&mut rng, ascii_only)));
        mutate(&mut rng, &mut payload);
        let _verdict = open_agrees(&payload)?;
    }
}

/// Every byte of every checked section of one segment, changed to each
/// interesting value in turn, agrees with the definition, and between them
/// the changes reach each column's sentinel and monotone errors and every
/// dictionary error but a truncated varint (a block start must move to
/// exactly the end of the dictionary for that, which one byte rarely does).
#[test]
fn every_single_byte_change_of_one_segment_agrees_and_reaches_every_defect() {
    let words: Vec<String> = ["è", "é", "ée", "本", "月", "月a", "𝒳", "𝒴", "a", "ab", "b"]
        .iter()
        .cycle()
        .zip(0..40)
        .map(|(w, i)| format!("{w}{}", "z".repeat(i / 11)))
        .collect();
    let payload = saved_payload(&corpus(&words));
    let l = layout(&payload);
    let mut defects = std::collections::BTreeSet::new();
    for sec in [0, 1, 2, 3, 5] {
        for at in l.secs[sec].clone() {
            for &value in INTERESTING {
                if payload[at] == value {
                    continue;
                }
                let mut changed = payload.clone();
                changed[at] = value;
                let verdict = open_agrees(&changed)
                    .unwrap_or_else(|e| panic!("byte {at} of section {sec} to {value:#04x}: {e}"));
                if let Err(defect) = verdict {
                    defects.insert(defect);
                }
            }
        }
    }
    for (_, column) in COLUMNS {
        for kind in ["sentinel", "not monotone"] {
            let kind = format!("{column} {kind}");
            assert!(
                defects.iter().any(|d| d.starts_with(&kind)),
                "no change reached {kind:?}"
            );
        }
    }
    for kind in [
        "front-coded lcp exceeds previous term",
        "head is not valid UTF-8",
        "term is not valid UTF-8",
        "truncated byte run in segment",
    ] {
        assert!(
            defects.iter().any(|d| d.contains(kind)),
            "no change reached {kind:?}"
        );
    }
}

/// "è" is C3 A8 and "é" is C3 A9: their bytewise lcp of one splits the
/// char, so "é" is stored as lcp 1 and the lone suffix byte A9.
#[test]
fn a_pair_whose_lcp_splits_a_char_opens() {
    let payload = saved_payload(&corpus(&["è".to_string(), "é".to_string()]));
    let dict = layout(&payload).secs[3].clone();
    assert_eq!(
        &payload[dict],
        [2, 0xc3, 0xa8, 1, 1, 0xa9],
        "head \"è\", then lcp 1 and the one byte after it"
    );
    let path = scratch_path("split");
    write_framed(&path, INDEX_MAGIC, INDEX_FORMAT_VERSION, &payload).expect("frame");
    let index = load_index(&path).expect("the pair opens");
    let _ = std::fs::remove_file(&path);
    assert_eq!(index.term_id("è"), Some(0));
    assert_eq!(index.term_id("é"), Some(1));
}

/// The same split completed by an ASCII byte is C3 78: not UTF-8, though
/// the suffix byte alone is.
#[test]
fn the_same_split_completed_by_an_ascii_byte_fails() {
    let mut payload = saved_payload(&corpus(&["è".to_string(), "é".to_string()]));
    let dict = layout(&payload).secs[3].clone();
    payload[dict.end - 1] = b'x';
    let path = scratch_path("split-ascii");
    write_framed(&path, INDEX_MAGIC, INDEX_FORMAT_VERSION, &payload).expect("frame");
    let err = load_index(&path).expect_err("C3 78 is not UTF-8");
    let _ = std::fs::remove_file(&path);
    let shown = err.to_string();
    assert!(
        shown.contains("dictionary block 0 term is not valid UTF-8"),
        "{shown}"
    );
}
