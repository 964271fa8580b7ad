//! `ajax-search` driven as a subprocess: how `query` reads its text from the
//! arguments, what happens when the reader of stdout goes away, how a
//! subcommand answers a flag it does not take, and how `build --verify`
//! reports the planner's mismatches.

mod support;

use ajax_crawl::model::AppModel;
use ajax_index::{save_index, IndexBuilder};
use std::process::{Command, Stdio};
use support::{find_ajax_search, ScratchDir};

/// Saves a one-page index in which only the first state holds "morcheeba
/// enjoy", and returns its path.
fn saved_index(scratch: &ScratchDir) -> String {
    let mut model = AppModel::new("http://site.example/watch?v=0");
    model.add_state(1, "morcheeba enjoy the ride".to_string(), None);
    model.add_state(2, "morcheeba singer".to_string(), None);
    let mut builder = IndexBuilder::new();
    builder.add_model(&model, None);
    let path = scratch.path("index.ajx");
    save_index(&path, &builder.build()).expect("save the test index");
    path.to_str().expect("UTF-8 temp path").to_string()
}

#[test]
fn query_text_is_every_argument_but_the_index_flag() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("cli_query_args");
    let index = saved_index(&scratch);
    let query = |args: &[&str]| {
        let out = Command::new(&bin).arg("query").args(args).output();
        out.expect("run ajax-search query")
    };

    for args in [
        &["morcheeba enjoy", "--index", &index][..],
        &["--index", &index, "morcheeba", "enjoy"],
        &["morcheeba", "--index", &index, "enjoy"],
    ] {
        let out = query(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: exited with {}", out.status);
        assert!(
            stdout.starts_with("1 results for \"morcheeba enjoy\""),
            "{args:?}: {stdout}"
        );
    }

    let out = query(&["--index", &index]);
    assert!(!out.status.success(), "an empty query must be an error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing query text"));
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("cli_unknown_flag");
    let out = scratch.path("index.ajx");
    let out = out.to_str().expect("UTF-8 temp path");
    for args in [
        &["build", "--videos", "1", "--verfy-prune", "--out", out][..],
        &["build", "--videos=1", "--out", out],
        &["analyze", "--videos", "1", "--site=news"],
        &["shard", "--index", out, "--verbose"],
        &["fsck", "--all", out],
        &["demo", "--videos", "1"],
        // The four planner flags that `--prune` and `--verify` replaced, a
        // level that does not exist, and a level left out.
        &["build", "--videos", "1", "--no-static-prune", "--out", out],
        &["build", "--videos", "1", "--verify-prune", "--out", out],
        &["build", "--videos", "1", "--equiv-prune", "--out", out],
        &["build", "--videos", "1", "--verify-equiv", "--out", out],
        &["build", "--videos", "1", "--prune", "maybe", "--out", out],
        &["build", "--videos", "1", "--out", out, "--prune"],
    ] {
        let run = Command::new(&bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run ajax-search");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(
            !scratch.path("index.ajx").exists(),
            "{args:?} built an index"
        );
    }
}

#[test]
fn verify_names_the_mismatches_of_each_rule() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("cli_verify");
    let out = scratch.path("index.ajx");
    // NewsShare is where equivalence overreaches (docs/static-analysis.md).
    let run = Command::new(&bin)
        .args(["build", "--site", "news", "--videos", "30"])
        .args(["--prune", "equiv", "--verify", "--out"])
        .arg(&out)
        .stdin(Stdio::null())
        .output()
        .expect("run ajax-search build");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("0 purity mismatches, 180 equivalence/commutativity mismatches"),
        "{stderr}"
    );
    assert!(!out.exists(), "a failed verify saved an index");
}

#[test]
fn a_closed_stdout_ends_query_quietly() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("cli_closed_stdout");
    let index = saved_index(&scratch);

    let mut child = Command::new(&bin)
        .args(["query", "--index", &index, "morcheeba"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ajax-search query");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("reap ajax-search query");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "query panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "exited with {}: {stderr}", out.status);
}
