//! Tokenization: lowercase alphanumeric words with positions.

/// One token: the word and its 0-based position in the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenAt {
    pub term: String,
    pub position: u32,
}

/// Byte classes of the scan: ASCII that separates tokens, ASCII a token
/// takes as it stands (digits, lower-case letters), ASCII to lower-case
/// first, and everything from 0x80 up.
const SEPARATOR: u8 = 0;
const PLAIN: u8 = 1;
const UPPER: u8 = 2;
const WIDE: u8 = 3;

static BYTE_CLASS: [u8; 256] = {
    let mut table = [SEPARATOR; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'0'..=b'9' | b'a'..=b'z' => PLAIN,
            b'A'..=b'Z' => UPPER,
            0x80..=0xFF => WIDE,
            _ => SEPARATOR,
        };
        b += 1;
    }
    table
};

/// Streams the lowercase alphanumeric tokens of `text` through `f`, each
/// with its 0-based position, without allocating a `String` per token.
/// Everything that is not alphanumeric separates tokens; tokens are
/// lowercased (ASCII + Unicode via `char::to_lowercase`).
///
/// The scan runs on bytes. A token of digits and lower-case ASCII — nearly
/// all of crawled state text — reaches `f` as a slice of `text` itself. One
/// with upper-case ASCII is lower-cased in `scratch` (reused across calls),
/// and only from a non-ASCII byte to the end of its token does the loop
/// decode `char`s and ask Unicode.
pub fn for_each_token(text: &str, scratch: &mut String, mut f: impl FnMut(&str, u32)) {
    let bytes = text.as_bytes();
    let mut position = 0u32;
    let mut i = 0;
    while i < bytes.len() {
        // The ASCII part of a token: [start, i).
        let start = i;
        let mut upper = false;
        let stop = loop {
            let class = bytes.get(i).map_or(SEPARATOR, |&b| BYTE_CLASS[b as usize]);
            match class {
                PLAIN => {}
                UPPER => upper = true,
                stop => break stop,
            }
            i += 1;
        };
        if stop == SEPARATOR && !upper {
            if i > start {
                f(&text[start..i], position);
                position += 1;
            }
            i += 1;
            continue;
        }
        scratch.clear();
        scratch.push_str(&text[start..i]);
        scratch.make_ascii_lowercase();
        if stop == WIDE {
            // `i` is on a lead byte: the rest of the token char by char.
            for ch in text[i..].chars() {
                i += ch.len_utf8();
                if !ch.is_alphanumeric() {
                    break;
                }
                scratch.extend(ch.to_lowercase());
            }
        } else {
            i += 1;
        }
        if !scratch.is_empty() {
            f(scratch, position);
            position += 1;
        }
    }
}

/// Splits `text` into lowercase alphanumeric tokens with positions.
/// Allocating wrapper over [`for_each_token`] for callers that want owned
/// tokens (queries, tests); the index build path streams instead.
pub fn tokenize(text: &str) -> Vec<TokenAt> {
    let mut out = Vec::new();
    let mut scratch = String::new();
    for_each_token(text, &mut scratch, |term, position| {
        out.push(TokenAt {
            term: term.to_string(),
            position,
        });
    });
    out
}

/// Tokenizes a query string into terms (no positions).
pub fn query_terms(text: &str) -> Vec<String> {
    tokenize(text).into_iter().map(|t| t.term).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(s: &str) -> Vec<String> {
        tokenize(s).into_iter().map(|t| t.term).collect()
    }

    #[test]
    fn basic_split_and_lowercase() {
        assert_eq!(
            terms("Morcheeba, Enjoy the RIDE!"),
            vec!["morcheeba", "enjoy", "the", "ride"]
        );
    }

    #[test]
    fn positions_are_sequential() {
        let toks = tokenize("a b  c");
        assert_eq!(toks[0].position, 0);
        assert_eq!(toks[1].position, 1);
        assert_eq!(toks[2].position, 2);
    }

    #[test]
    fn numbers_kept() {
        assert_eq!(terms("page 2 of 11"), vec!["page", "2", "of", "11"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(terms("").is_empty());
        assert!(terms("... !!! ---").is_empty());
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(terms("Größe"), vec!["größe"]);
    }

    #[test]
    fn apostrophes_split() {
        assert_eq!(terms("can't stop"), vec!["can", "t", "stop"]);
    }
}
