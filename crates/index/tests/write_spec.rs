//! Executable specification of the index write side.
//!
//! The tokenizer scans bytes and hands out slices of its input, the checksum
//! folds 64 bytes a step by carry-less multiplication (eight by table
//! lookups on CPUs without it) and the builder hashes terms under a seed drawn
//! per builder. What each must do is stated here by the loop it replaced —
//! char by char, byte by byte — and by the bytes that reach the disk.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_crawl::durable::crc32;
use ajax_crawl::model::AppModel;
use ajax_index::tokenize::for_each_token;
use ajax_index::{save_index, IndexBuilder};
use proptest::prelude::*;

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    ProptestConfig::with_cases(cases)
}

// ---- the tokenizer --------------------------------------------------------

/// What a token is: a maximal run of alphanumeric `char`s, each lower-cased
/// by `char::to_lowercase`, numbered from 0. (The tokenizer as it stood
/// before it scanned bytes, verbatim.)
fn tokens_char_by_char(text: &str, scratch: &mut String, mut f: impl FnMut(&str, u32)) {
    scratch.clear();
    let mut position = 0u32;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lower in ch.to_lowercase() {
                scratch.push(lower);
            }
        } else if !scratch.is_empty() {
            f(scratch, position);
            scratch.clear();
            position += 1;
        }
    }
    if !scratch.is_empty() {
        f(scratch, position);
        scratch.clear();
    }
}

/// What state text is made of, and what could trip a scan on bytes: ASCII
/// in both cases, digits, separators, `İ` (lower-cases to two chars), `ß`,
/// the title-case `ǅ`, a combining mark (not alphanumeric), CJK, a 4-byte
/// letter, a 4-byte symbol, and non-ASCII separators of two and three bytes.
const PIECES: &[&str] = &[
    "a", "z", "A", "Z", "q", "Q", "0", "9", "wow", "Dance", "RIDE", "2", "11", " ", "  ", ",", "-",
    "'", "\n", "\t", "_", "\0", "\u{7f}", "İ", "ß", "ǅ", "é", "É", "\u{301}", "日", "本", "𝒳",
    "😀", "\u{a0}", "\u{2014}", "\u{3000}",
];

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

fn gen_text(rng: &mut Rng, max_pieces: usize) -> String {
    (0..rng.below(max_pieces + 1))
        .map(|_| PIECES[rng.below(PIECES.len())])
        .collect()
}

/// Any scalar values at all, weighted towards the short encodings.
fn gen_chars(rng: &mut Rng) -> String {
    (0..rng.below(33))
        .filter_map(|_| {
            let below = [0x80, 0x800, 0x1_0000, 0x11_0000][rng.below(4)];
            char::from_u32(rng.below(below) as u32)
        })
        .collect()
}

fn collect(
    tokenizer: impl Fn(&str, &mut String, &mut dyn FnMut(&str, u32)),
    text: &str,
) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    // A scratch with something in it: a tokenizer must not read what an
    // earlier call left there.
    let mut scratch = String::from("stale");
    tokenizer(text, &mut scratch, &mut |term, position| {
        out.push((term.to_string(), position));
    });
    out
}

proptest! {
    #![proptest_config(cases())]

    /// Terms, positions and count are those of the char-by-char definition.
    /// Fails on: an ASCII branch that forgets digits, a borrowed slice that
    /// skips lower-casing, a position that advances on an empty token (a
    /// non-alphanumeric wide char between separators).
    #[test]
    fn for_each_token_is_the_char_by_char_definition(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        // Text made of the pieces, and text nobody chose.
        for text in [gen_text(&mut rng, 40), gen_chars(&mut rng)] {
            let got = collect(|t, s, f| for_each_token(t, s, f), &text);
            let want = collect(|t, s, f| tokens_char_by_char(t, s, f), &text);
            prop_assert_eq!(got, want, "text {:?}", text);
        }
    }
}

// ---- the checksum ---------------------------------------------------------

/// CRC-32/IEEE one byte a step — the loop `durable::crc32` was.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
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

#[test]
fn crc32_known_vectors_hold() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

proptest! {
    #![proptest_config(cases())]

    /// Equal to the bytewise loop for lengths 0–4 097 at every start
    /// alignment 0–7. Fails on: tail bytes dropped, tables in the wrong
    /// order, a step that assumes an aligned start, a wrong folding
    /// constant.
    #[test]
    fn crc32_is_the_bytewise_loop(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (start, len) = (rng.below(8), rng.below(4098));
        let bytes: Vec<u8> = (0..start + len).map(|_| rng.next() as u8).collect();
        let window = &bytes[start..];
        prop_assert_eq!(crc32(window), crc32_bytewise(window), "start {} len {}", start, len);
    }
}

#[test]
fn crc32_is_the_bytewise_loop_at_every_short_length_and_alignment() {
    // Every length around the eight-byte step, the 128-byte switch to the
    // folding kernel, and its 64- and 16-byte fold steps, exhaustively.
    let bytes: Vec<u8> = (0..320u32).map(|i| (i * 37 + 11) as u8).collect();
    for start in 0..16 {
        for len in 0..=300 {
            let window = &bytes[start..start + len];
            assert_eq!(
                crc32(window),
                crc32_bytewise(window),
                "start {start} len {len}"
            );
        }
    }
}

// ---- the builder's seed ---------------------------------------------------

/// A few small pages, then one whose numbered terms outgrow the interner's
/// first table more often than not.
fn gen_corpus(rng: &mut Rng) -> Vec<AppModel> {
    let mut models: Vec<AppModel> = (0..rng.below(8))
        .map(|p| {
            let mut model = AppModel::new(format!("http://site.example/page?p={p}"));
            for s in 0..1 + rng.below(3) {
                model.add_state((p * 100 + s) as u64 + 1, gen_text(rng, 30), None);
            }
            model
        })
        .collect();
    let numbered: String = (0..rng.below(1500)).map(|i| format!("n{i} wow ")).collect();
    let mut model = AppModel::new("http://site.example/numbered");
    model.add_state(1, numbered, None);
    models.push(model);
    models
}

fn saved_bytes(models: &[AppModel], tag: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("ajax-write-spec-{}-{tag}.ajx", std::process::id()));
    let mut builder = IndexBuilder::new();
    for model in models {
        builder.add_model(model, Some(0.25));
    }
    save_index(&path, &builder.build()).expect("save v4");
    let bytes = std::fs::read(&path).expect("read the artifact back");
    let _ = std::fs::remove_file(&path);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases().cases.min(64)))]

    /// Two builders draw two hash seeds; what they save is the same file.
    /// Fails on: an output order that follows the hash table, a dictionary
    /// ranked by anything but the sorted terms.
    #[test]
    fn two_builders_save_identical_files(seed in any::<u64>()) {
        let models = gen_corpus(&mut Rng(seed));
        prop_assert_eq!(saved_bytes(&models, "a"), saved_bytes(&models, "b"));
    }
}
