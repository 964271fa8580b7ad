//! Executable specification of the tokenizer and the tree builder.
//!
//! The tokenizer hands out slices of its input and the tree builder interns
//! names, so what must hold is stated against the input itself: tokens cover
//! it back to back, a token that borrows *is* the bytes it covers, parsing
//! the serialization of a parse changes nothing a crawler reads, and no
//! input — however malformed — panics either stage or makes one do more
//! than linear work.
//!
//! The allocation budgets (two allocations for a tag with attributes, one
//! for a text node, none for a bare tag or while tokenizing — the issue
//! asked for three and two) are counted by this file's own global
//! allocator, per thread, so tests running beside each other do not see
//! each other's.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_dom::parser::is_void_element;
use ajax_dom::{parse_document, Document, NodeData, Token, Tokenizer};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::time::{Duration, Instant};

// ---- counting allocations ------------------------------------------------

/// `(calls, bytes)` asked of the allocator by this thread.
struct Counting;

thread_local! {
    static ASKED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measures there.
    let _ = ASKED.try_with(|asked| {
        let (calls, total) = asked.get();
        asked.set((calls + 1, total + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches a `Cell` of plain
// integers and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` asked of the allocator: `(calls, bytes)`.
fn asked_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = ASKED.with(Cell::get);
    let out = f();
    let after = ASKED.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

#[test]
fn parsing_allocates_twice_per_tag_with_attributes_once_per_text() {
    // A comment page as VidShare serves it, and a Gallery strip: one to
    // three attributes a tag, names in and out of the static table, values
    // with and without entities.
    let mut html = String::from("<div class=\"comments\" data-page=\"2\">");
    for i in 0..200 {
        html.push_str(&format!(
            "<div class=\"comment\"><span class=\"author\">fan{i}</span>\
             <p class=ctext>so good &amp; loud {i}</p></div>\
             <x-chip id=\"tag_{i}\" CLASS=\"chip\" onclick=\"showTag({i})\">tag {i}</x-chip><br>"
        ));
    }
    html.push_str("</div>");

    let (doc, calls, _) = asked_by(|| parse_document(&html));
    let count =
        |want: fn(&NodeData) -> bool| doc.walk_all().filter(|&id| want(doc.data(id))).count();
    let elements = count(|data| matches!(data, NodeData::Element(_)));
    let texts = count(|data| matches!(data, NodeData::Text(_)));
    assert_eq!((elements, texts), (1001, 600));
    // A tag with attributes: their slots and their values. A text node:
    // its text. (All payloads of a parse share one chunk.) Beside those,
    // one lower-cased `CLASS` a chip, and per parse: the arena's and the
    // chunk's doublings, the open-element stack, the attribute buffer, the
    // interned `x-chip` and `data-page`.
    let with_attrs = elements - 200; // every tag but the `<br>`s
    assert!(
        calls <= 2 * with_attrs + texts + 200 + 40,
        "{calls} allocations for {elements} elements and {texts} text nodes"
    );
    // A bare tag allocates nothing of its own.
    let bare = "<p>t</p>".repeat(500);
    let (_, calls, _) = asked_by(|| parse_document(&bare));
    assert!(calls <= 500 + 40, "{calls} allocations for 500 bare <p>");
}

#[test]
fn twenty_thousand_scripts_tokenize_in_linear_work() {
    // Lower-casing the rest of the page to find each script's end copied
    // 3.4 GB here. Now: no copy at all, and each byte searched once.
    let page = "<script></script>".repeat(20_000);
    let (tokens, _, bytes) = asked_by(|| {
        let mut tokens = Tokenizer::new(&page);
        assert_eq!(tokens.by_ref().count(), 40_000);
        tokens
    });
    assert!(bytes <= 1024, "tokenizing allocated {bytes} bytes");
    assert!(tokens.raw_text_scanned() <= page.len());

    // Bodies full of things that only look like the end.
    let page = "<script>if (a</b) '</scrip' </style></SCRIPT >".repeat(20_000);
    let (tokens, _, bytes) = asked_by(|| {
        let mut tokens = Tokenizer::new(&page);
        assert_eq!(tokens.by_ref().count(), 60_000);
        tokens
    });
    // Six bytes a script: its end tag's name in lower case.
    assert!(
        bytes <= 6 * 20_000 + 1024,
        "tokenizing allocated {bytes} bytes"
    );
    assert!(tokens.raw_text_scanned() <= page.len());
    // The tree builder on top stays linear too: two nodes a script.
    let (doc, _, bytes) = asked_by(|| parse_document(&page));
    assert_eq!(doc.walk_all().count(), 40_000);
    assert!(bytes <= 40 * page.len(), "parsing allocated {bytes} bytes");
}

#[test]
fn a_hundred_thousand_stray_end_tags_parse_in_linear_work() {
    // The tree builder looked for each stray `</span>` through every open
    // `<div>`: 10^10 name compares, twelve seconds of them in a release build.
    // With the open elements counted per name each is one lookup. The
    // bound leaves a loaded machine two orders of magnitude and the
    // quadratic search none.
    let n = 100_000;
    let bound = Duration::from_secs(5);
    let chain_of_divs = |doc: &Document, extra: usize| {
        assert_eq!(doc.walk_all().count(), n + extra);
        let divs = doc.walk_all().take(n);
        assert!(divs.zip(doc.walk_all().skip(1)).all(|(outer, inner)| {
            doc.tag_name(outer) == Some("div") && doc.node(inner).parent == Some(outer)
        }));
    };

    let page = format!("{}{}", "<div>".repeat(n), "</span>".repeat(n));
    let started = Instant::now();
    let doc = parse_document(&page);
    assert!(started.elapsed() < bound, "{:?}", started.elapsed());
    chain_of_divs(&doc, 0);

    // A name that opens and closes above the deep stack is stray again each
    // time it has closed: its count must come back down to zero.
    let page = format!("{}{}", "<div>".repeat(n), "<i></i></i>".repeat(n));
    let started = Instant::now();
    let doc = parse_document(&page);
    assert!(started.elapsed() < bound, "{:?}", started.elapsed());
    chain_of_divs(&doc, n);
    let innermost = doc.walk_all().nth(n - 1).expect("the last div");
    assert_eq!(doc.children(innermost).count(), n, "every <i> is its child");
}

/// A page of 200 000 elements whose tag or attribute names are all
/// distinct. A name interner that compares each new name with every name
/// met before it makes 2·10^10 compares here, half a minute in a release
/// build; the interner hashes them. Same bound as the stray end tags.
fn parse_distinct_names(element: impl Fn(usize) -> String) -> Document {
    let page: String = (0..200_000).map(element).collect();
    let started = Instant::now();
    let doc = parse_document(&page);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
    assert_eq!(doc.walk_all().count(), 200_000);
    doc
}

#[test]
fn two_hundred_thousand_distinct_tag_names_parse_in_linear_work() {
    let doc = parse_distinct_names(|i| format!("<x-{i}></x-{i}>"));
    let last = doc.walk_all().last().expect("a node");
    assert_eq!(doc.tag_name(last), Some("x-199999"));
}

#[test]
fn two_hundred_thousand_distinct_attribute_names_parse_in_linear_work() {
    let doc = parse_distinct_names(|i| format!("<p data-{i}=v></p>"));
    let last = doc.walk_all().last().expect("a node");
    assert_eq!(doc.attr(last, "data-199999"), Some("v"));
}

// ---- inputs ---------------------------------------------------------------

/// SplitMix64: the test's only source of choices, seeded by proptest.
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

/// Pieces markup is made of, whole and broken, to be strung together.
const PIECES: &[&str] = &[
    "<div>",
    "</div>",
    "<p class=\"a b\">",
    "</p>",
    "<SPAN ID=x onclick='go(1)'>",
    "</Span >",
    "<br>",
    "<br/>",
    "<img src=i.png alt>",
    "<script>",
    "</script>",
    "</SCRIPT",
    "<style>",
    "</style >",
    "<!-- c -->",
    "<!--",
    "-->",
    "<!DOCTYPE html>",
    "<!x",
    "<",
    ">",
    "</",
    "/>",
    "=",
    "\"",
    "'",
    "&amp;",
    "&lt;",
    "&#65;",
    "&#x1F600;",
    "&bogus;",
    "&",
    ";",
    " ",
    "\n",
    "text",
    "if (a < b)",
    "é",
    "日本",
    "\u{a0}",
    "x-widget",
    "<x-widget data-k=v>",
    "</x-widget>",
    "<a href=\"/w?v=1&amp;p=2\">",
    "</a>",
    "<input disabled>",
    "<ul><li>",
    "</li></ul>",
];

fn gen_markup(rng: &mut Rng) -> String {
    (0..rng.below(24))
        .map(|_| PIECES[rng.below(PIECES.len())])
        .collect()
}

/// Bytes as a network would deliver them — markup, cut and corrupted —
/// decoded the way a crawler decodes what it cannot trust.
fn gen_bytes(rng: &mut Rng) -> String {
    let mut bytes = gen_markup(rng).into_bytes();
    for _ in 0..rng.below(6) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(3) {
            0 => bytes[at] = rng.next() as u8,
            1 => bytes.truncate(at),
            _ => bytes.insert(at, rng.next() as u8),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every node of `doc` in document order: how deep it sits and what it is.
fn outline(doc: &Document) -> Vec<(usize, String)> {
    doc.walk_all()
        .map(|id| {
            let depth = std::iter::successors(doc.node(id).parent, |&up| doc.node(up).parent);
            let label = match doc.data(id) {
                NodeData::Element(element) => format!("<{}>", element.name()),
                NodeData::Text(text) => text.clone(),
                NodeData::Comment(body) => format!("<!--{body}-->"),
                NodeData::Root => unreachable!("the walk leaves the root out"),
            };
            (depth.count(), label)
        })
        .collect()
}

/// The same outline from the token stream by the tree builder's rule, said
/// as plainly as it can be: an end tag closes up to and including the
/// nearest open element of its name, found by looking, or nothing.
fn outline_by_the_rule(input: &str) -> Vec<(usize, String)> {
    let mut open: Vec<String> = Vec::new();
    let mut out = Vec::new();
    let mut tokens = Tokenizer::new(input);
    while let Some(token) = tokens.next_token() {
        let depth = open.len() + 1;
        match token {
            Token::Doctype(_) => {}
            Token::Comment(body) => out.push((depth, format!("<!--{body}-->"))),
            Token::Text(text) if text.is_empty() => {}
            Token::Text(text) => out.push((depth, text.into_owned())),
            Token::StartTag { name, self_closing } => {
                out.push((depth, format!("<{name}>")));
                if !self_closing && !is_void_element(&name) {
                    open.push(name.into_owned());
                }
            }
            Token::EndTag { name } => {
                if let Some(at) = open.iter().rposition(|open| *open == *name) {
                    open.truncate(at);
                }
            }
        }
    }
    out
}

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    ProptestConfig::with_cases(cases)
}

fn without_whitespace(s: &str) -> String {
    s.split_whitespace().collect()
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn tokens_tile_their_input(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let input = if rng.below(2) == 0 { gen_markup(&mut rng) } else { gen_bytes(&mut rng) };
        let mut tokens = Tokenizer::new(&input);
        let mut covered = String::new();
        loop {
            let start = tokens.pos();
            let Some(token) = tokens.next_token() else { break };
            let source = &input[start..tokens.pos()];
            prop_assert!(!source.is_empty(), "a token covers at least a byte");
            covered.push_str(source);
            // What a token borrows is in the bytes it covers; text that
            // borrows is those bytes exactly.
            match &token {
                Token::Text(Cow::Borrowed(text)) => prop_assert_eq!(*text, source),
                Token::Text(Cow::Owned(text)) => prop_assert!(source.contains('&'), "{}", text),
                Token::StartTag { name: Cow::Borrowed(name), .. }
                | Token::EndTag { name: Cow::Borrowed(name) } => {
                    prop_assert!(source.contains(*name))
                }
                Token::StartTag { name, .. } | Token::EndTag { name } => {
                    prop_assert!(source.to_ascii_lowercase().contains(&**name))
                }
                Token::Comment(body) | Token::Doctype(body) => prop_assert!(source.contains(*body)),
            }
            let is_start = matches!(token, Token::StartTag { .. });
            prop_assert!(is_start || tokens.attrs().is_empty());
            for attr in tokens.attrs() {
                prop_assert!(!attr.name.is_empty());
                prop_assert!(source.to_ascii_lowercase().contains(&*attr.name));
            }
        }
        prop_assert_eq!(tokens.pos(), input.len());
        prop_assert_eq!(covered, input);
        prop_assert!(tokens.raw_text_scanned() <= tokens.pos());
    }

    #[test]
    fn end_tags_close_what_looking_through_the_open_elements_would(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let input: String = (0..3).map(|_| gen_markup(&mut rng)).collect();
        prop_assert_eq!(outline(&parse_document(&input)), outline_by_the_rule(&input));
    }

    #[test]
    fn reparsing_a_serialization_changes_nothing_a_crawler_reads(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let doc = parse_document(&gen_markup(&mut rng));
        let again = parse_document(&doc.to_html());
        prop_assert_eq!(again.to_html(), doc.to_html());
        // Two text nodes side by side (a stray `<` starts the second) are
        // trimmed each on its own, read with a space between them, and
        // reparse as one node: equal but for white space.
        prop_assert_eq!(
            without_whitespace(&again.normalized()),
            without_whitespace(&doc.normalized())
        );
        prop_assert_eq!(
            without_whitespace(&again.document_text()),
            without_whitespace(&doc.document_text())
        );
    }

    #[test]
    fn no_bytes_panic_the_tokenizer_or_the_tree_builder(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let input = gen_bytes(&mut rng);
        let tokens = Tokenizer::new(&input).count();
        prop_assert!(tokens <= input.len());
        let mut doc = parse_document(&input);
        prop_assert!(doc.walk_all().count() <= tokens);
        // And everything derived from the tree stays total too.
        let view = doc.take_view(None);
        prop_assert_eq!(view.text(), doc.normalized());
        let _ = (doc.to_html(), doc.document_text(), doc.script_sources(), doc.hyperlinks());
        let first = doc.walk().next();
        if let Some(first) = first {
            doc.set_inner_html(first, &input);
            prop_assert_eq!(doc.take_view(Some(&view)), doc.normalized_view());
        }
    }
}
