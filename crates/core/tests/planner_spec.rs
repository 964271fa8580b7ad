//! Executable specification of the crawl planner.
//!
//! The planner answers by dense ids what `PageAnalysis` defines over
//! strings: a handler's purity is `EffectSummary::is_pure`, its class is
//! its `canonical_signature`, and two handlers commute when
//! `PageAnalysis::summaries_commute` says so — with DOM locations expanded
//! over the document's ids and refined by its ancestor/descendant relation.
//! Those definitions are the oracle here; property tests hold the planner's
//! interned tables, its precomputed footprints and its id sets (one word up
//! to 64 ids, a sorted list beyond) to them over random id trees, random
//! effect summaries and random pages of scripts and handlers.
//!
//! Case counts are bounded for tier-1; `PROPTEST_CASES` raises them in CI.

use ajax_crawl::planner::{DomIds, Planner};
use ajax_crawl::{analyze_page, canonical_signature, ParsedPage};
use ajax_js::EffectSummary;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(192);
    ProptestConfig::with_cases(cases)
}

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

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn subset(&mut self, items: &[&str], at_most: usize) -> BTreeSet<String> {
        (0..self.below(at_most + 1))
            .map(|_| self.pick(items).to_string())
            .collect()
    }
}

// ---- id trees ------------------------------------------------------------

/// Ids that are prefixes of one another, families under one prefix, and
/// loners; `ghost` never occurs in a document.
const IDS: &[&str] = &[
    "a", "ab", "abc", "box", "inner", "hero", "row_0", "row_1", "row_2", "cap_0", "cap_1", "wrap",
];
const PREFIXES: &[&str] = &["", "a", "ab", "row_", "cap_", "n_", "n_1", "zz"];

/// Nested `<div>`s: some without an id, ids repeating across and inside
/// one another.
fn gen_tree(rng: &mut Rng, depth: usize, html: &mut String) {
    for _ in 0..1 + rng.below(2) {
        if rng.one_in(3) {
            html.push_str("<div>");
        } else {
            html.push_str(&format!("<div id=\"{}\">", rng.pick(IDS)));
        }
        if depth > 0 {
            gen_tree(rng, depth - 1, html);
        } else {
            html.push_str("leaf");
        }
        html.push_str("</div>");
    }
}

/// More than 64 distinct ids, in chains a few levels deep.
fn gen_wide_section(rng: &mut Rng, html: &mut String) {
    let ids = 60 + rng.below(60);
    let mut open = 0;
    for i in 0..ids {
        html.push_str(&format!("<div id=\"n_{i}\">"));
        open += 1;
        while open > 0 && rng.one_in(2) {
            html.push_str("</div>");
            open -= 1;
        }
        if rng.one_in(8) {
            gen_tree(rng, 1, html);
        }
    }
    html.push_str(&"</div>".repeat(open));
}

fn gen_document(rng: &mut Rng) -> String {
    let mut html = String::new();
    gen_tree(rng, 4, &mut html);
    if rng.one_in(3) {
        gen_wide_section(rng, &mut html);
        gen_tree(rng, 2, &mut html);
    }
    html
}

// ---- effect summaries ----------------------------------------------------

const LOC_IDS: &[&str] = &[
    "a", "ab", "box", "inner", "hero", "row_1", "cap_0", "wrap", "n_3", "n_17", "n_70", "ghost",
];
const GLOBALS: &[&str] = &["g", "h", "n"];

fn gen_summary(rng: &mut Rng) -> EffectSummary {
    let params = |rng: &mut Rng| -> BTreeSet<usize> {
        if rng.one_in(8) {
            [rng.below(2)].into()
        } else {
            BTreeSet::new()
        }
    };
    EffectSummary {
        dom_write_ids: rng.subset(LOC_IDS, 2),
        dom_write_prefixes: if rng.one_in(5) {
            rng.subset(PREFIXES, 2)
        } else {
            BTreeSet::new()
        },
        dom_write_params: params(rng),
        dom_write_dynamic: rng.one_in(16),
        dom_read_ids: rng.subset(LOC_IDS, 2),
        dom_read_prefixes: if rng.one_in(6) {
            rng.subset(PREFIXES, 1)
        } else {
            BTreeSet::new()
        },
        dom_read_params: params(rng),
        dom_read_dynamic: rng.one_in(16),
        xhr_const_urls: rng.subset(&["/x", "/y"], 1),
        xhr_url_prefixes: BTreeSet::new(),
        xhr_url_params: params(rng),
        xhr_dynamic: rng.one_in(10),
        reads_globals: rng.subset(GLOBALS, 2),
        writes_globals: if rng.one_in(2) {
            rng.subset(GLOBALS, 1)
        } else {
            BTreeSet::new()
        },
        calls_undefined: if rng.one_in(10) {
            ["ghostFn".to_string()].into()
        } else {
            BTreeSet::new()
        },
        may_not_terminate: rng.one_in(6),
        opaque: rng.one_in(12),
    }
}

// ---- pages of scripts and handlers ---------------------------------------

/// Function definitions whose summaries cover the lattice: constant ids,
/// prefixes from concatenation, parameters, dynamic ids, globals, XHR,
/// undefined callees, purity.
fn gen_script(rng: &mut Rng) -> String {
    let mut js = String::from(
        "function noop(t) { var u = t; return u; }\n\
         function fetchInto(i) {\n\
           var xhr = new XMLHttpRequest();\n\
           xhr.open('GET', '/part?i=' + i, false);\n\
           xhr.send(null);\n\
           document.getElementById('hero').innerHTML = xhr.responseText;\n\
         }\n\
         function lost() { nowhere(); }\n\
         function anyId(e) { document.getElementById(e).innerHTML = 'x'; }\n",
    );
    for id in IDS {
        if rng.one_in(2) {
            js.push_str(&format!(
                "function set_{id}() {{ document.getElementById('{id}').innerHTML = 'v'; }}\n"
            ));
            js.push_str(&format!(
                "function get_{id}() {{ var t = document.getElementById('{id}').innerHTML; return t; }}\n"
            ));
        }
    }
    for (name, prefix) in [("row", "row_"), ("cap", "cap_"), ("wide", "n_")] {
        js.push_str(&format!(
            "function fill_{name}(i) {{ document.getElementById('{prefix}' + i).innerHTML = 'r' + i; }}\n"
        ));
    }
    for g in GLOBALS {
        js.push_str(&format!("function bump_{g}() {{ {g} = {g} + 1; }}\n"));
        js.push_str(&format!(
            "function show_{g}() {{ document.getElementById('box').innerHTML = {g}; }}\n"
        ));
    }
    js
}

fn gen_handler(rng: &mut Rng) -> String {
    let call = |rng: &mut Rng| match rng.below(12) {
        0 => "noop('x')".to_string(),
        1 => format!("fetchInto({})", rng.below(3)),
        2 => "lost()".to_string(),
        3 => "anyId(v)".to_string(),
        4 | 5 => format!("set_{}()", rng.pick(IDS)),
        6 => format!("get_{}()", rng.pick(IDS)),
        7 => format!(
            "fill_{}({})",
            rng.pick(&["row", "cap", "wide"]),
            rng.below(3)
        ),
        8 => format!("bump_{}()", rng.pick(GLOBALS)),
        9 => format!("show_{}()", rng.pick(GLOBALS)),
        10 => "1 + 1".to_string(),
        _ => "broken(".to_string(),
    };
    if rng.one_in(4) {
        format!("{}; {}", call(rng), call(rng))
    } else {
        call(rng)
    }
}

fn gen_page(rng: &mut Rng) -> String {
    let mut html = format!("<script>{}</script>", gen_script(rng));
    html.push_str(&gen_document(rng));
    for _ in 0..2 + rng.below(8) {
        let event = rng.pick(&["onclick", "onmouseover", "onload"]);
        html.push_str(&format!("<span {event}=\"{}\">h</span>", gen_handler(rng)));
    }
    html
}

proptest! {
    #![proptest_config(cases())]

    /// A footprint pair decides what `summaries_commute` decides, in both
    /// argument orders, whatever the document's id tree.
    #[test]
    fn footprints_commute_exactly_when_the_summaries_do(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let html = gen_document(&mut rng);
        let oracle = analyze_page(&html);
        let dom = DomIds::of(&ParsedPage::parse(&html).doc);

        let summaries: Vec<EffectSummary> = (0..6).map(|_| gen_summary(&mut rng)).collect();
        let footprints: Vec<_> = summaries.iter().map(|s| dom.footprint(s)).collect();
        for (a, fa) in summaries.iter().zip(&footprints) {
            for (b, fb) in summaries.iter().zip(&footprints) {
                prop_assert_eq!(
                    fa.commutes(fb),
                    oracle.summaries_commute(a, b),
                    "a: {:?}\nb: {:?}\nids: {:?}\nhtml: {}",
                    a, b, oracle.dom_ids, html
                );
            }
        }
    }

    /// The interned planner tables say what the string-keyed analysis
    /// says, for handlers of the initial document and for handlers that
    /// only show up later.
    #[test]
    fn planner_tables_equal_the_page_analysis(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let html = gen_page(&mut rng);
        let oracle = analyze_page(&html);
        let mut planner = Planner::new(ParsedPage::parse(&html));

        let mut codes: BTreeSet<String> =
            oracle.bindings.iter().map(|b| b.code.clone()).collect();
        for _ in 0..3 {
            codes.insert(gen_handler(&mut rng)); // an injected fragment's
        }
        let codes: Vec<String> = codes.into_iter().collect();
        let summaries: Vec<Option<EffectSummary>> = codes
            .iter()
            .map(|code| oracle.effects.snippet_summary_src(code).ok())
            .collect();
        let ids: Vec<_> = codes.iter().map(|code| planner.intern(code)).collect();

        for (i, code) in codes.iter().enumerate() {
            prop_assert_eq!(planner.intern(code), ids[i], "interning is stable");
            let pure = summaries[i].as_ref().is_some_and(EffectSummary::is_pure);
            prop_assert_eq!(planner.is_pure(ids[i]), pure, "{}", code);
            if let Some(verdict) = oracle.verdict(code) {
                prop_assert_eq!(planner.is_pure(ids[i]), verdict.is_pure(), "{}", code);
            }
            prop_assert_eq!(planner.class_of(ids[i]).is_some(), summaries[i].is_some());
        }
        for i in 0..codes.len() {
            for j in 0..codes.len() {
                let same_signature = match (&summaries[i], &summaries[j]) {
                    (Some(a), Some(b)) => canonical_signature(a) == canonical_signature(b),
                    _ => false,
                };
                let same_class = planner.class_of(ids[i]).is_some()
                    && planner.class_of(ids[i]) == planner.class_of(ids[j]);
                prop_assert_eq!(same_class, same_signature, "{} / {}", codes[i], codes[j]);

                let commute = match (&summaries[i], &summaries[j]) {
                    (Some(a), Some(b)) => oracle.summaries_commute(a, b),
                    _ => false,
                };
                // Asked twice: the second answer comes from the memo.
                for _ in 0..2 {
                    prop_assert_eq!(
                        planner.commutes(ids[i], ids[j]),
                        commute,
                        "{} / {} on {}",
                        codes[i], codes[j], html
                    );
                }
                if oracle.verdict(&codes[i]).is_some() && oracle.verdict(&codes[j]).is_some() {
                    prop_assert_eq!(commute, oracle.commutes(&codes[i], &codes[j]));
                }
            }
        }
    }
}

/// The generators reach what the properties are about: documents on both
/// sides of the 64-id line, ancestor/descendant conflicts between
/// string-disjoint locations, and every kind of verdict.
#[test]
fn the_generators_cover_the_interesting_cases() {
    let (mut small, mut wide, mut both, mut ancestry_only) = (0, 0, 0, 0);
    for seed in 0..400u64 {
        let mut rng = Rng(seed);
        let html = gen_document(&mut rng);
        let oracle = analyze_page(&html);
        if oracle.dom_ids.len() > 64 {
            wide += 1;
        } else {
            small += 1;
        }
        let summaries: Vec<EffectSummary> = (0..6).map(|_| gen_summary(&mut rng)).collect();
        for a in &summaries {
            for b in &summaries {
                if oracle.summaries_commute(a, b) {
                    both += 1;
                }
                let (w, r) = (a.write_locs(), b.read_locs());
                if !w.overlaps(&r) && oracle.locs_conflict(&w, &r) {
                    ancestry_only += 1;
                }
            }
        }
    }
    assert!(small > 100 && wide > 50, "{small} small, {wide} wide");
    assert!(both > 1000, "{both} commuting pairs");
    assert!(
        ancestry_only > 300,
        "{ancestry_only} conflicts by ancestry alone"
    );
}
