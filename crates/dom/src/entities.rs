//! Minimal HTML entity encoding/decoding.
//!
//! We support the named entities that occur in practice in text-centric pages
//! plus numeric character references. Unknown entities are passed through
//! verbatim (browser-like leniency).

use std::borrow::Cow;

/// Decodes HTML entities in `input` (`&amp;`, `&lt;`, `&gt;`, `&quot;`,
/// `&apos;`, `&nbsp;` and numeric `&#NN;` / `&#xHH;` references). Input
/// without an `&` comes back as it is, not copied.
pub fn decode(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some((replacement, consumed)) = decode_entity(&input[i..]) {
                out.push(replacement);
                i += consumed;
                continue;
            }
        }
        // Advance one full UTF-8 character.
        let ch_len = utf8_len(bytes[i]);
        out.push_str(&input[i..i + ch_len]);
        i += ch_len;
    }
    Cow::Owned(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

/// Attempts to decode one entity at the start of `s` (which begins with `&`).
/// Returns the replacement character and the number of input bytes consumed.
fn decode_entity(s: &str) -> Option<(char, usize)> {
    // An entity is at most 32 bytes to its `;` — look no further, or text
    // full of bare ampersands costs a scan to its end for each.
    let end = 1 + s.as_bytes()[1..].iter().take(32).position(|&b| b == b';')?;
    let name = &s[1..end];
    let consumed = end + 1;
    let ch = match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        "nbsp" => '\u{a0}',
        _ if name.starts_with("#x") || name.starts_with("#X") => {
            char::from_u32(u32::from_str_radix(&name[2..], 16).ok()?)?
        }
        _ if name.starts_with('#') => char::from_u32(name[1..].parse().ok()?)?,
        _ => return None,
    };
    Some((ch, consumed))
}

/// Encodes text content: escapes `&`, `<`, `>`.
pub fn encode_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Encodes an attribute value: like [`encode_text`] but also escapes `"`.
pub fn encode_attr(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    push_attr(&mut out, input);
    out
}

/// Appends the [`encode_attr`] encoding of `input` to `out`.
pub fn push_attr(out: &mut String, input: &str) {
    if !input
        .bytes()
        .any(|b| matches!(b, b'&' | b'<' | b'>' | b'"'))
    {
        out.push_str(input);
        return;
    }
    for ch in input.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_named() {
        assert_eq!(
            decode("a &amp; b &lt;c&gt; &quot;d&quot;"),
            "a & b <c> \"d\""
        );
    }

    #[test]
    fn decode_numeric() {
        assert_eq!(decode("&#65;&#x42;"), "AB");
        assert_eq!(decode("&#x1F600;"), "😀");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(decode("&bogus; & x"), "&bogus; & x");
        assert_eq!(decode("100% &"), "100% &");
    }

    #[test]
    fn encode_roundtrip() {
        let original = "a<b>&\"c\"";
        assert_eq!(decode(&encode_attr(original)), original);
        assert_eq!(decode(&encode_text("x & <y>")), "x & <y>");
    }

    #[test]
    fn decode_multibyte_passthrough() {
        assert_eq!(decode("héllo & wörld"), "héllo & wörld");
    }
}
