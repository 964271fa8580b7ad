//! `exp` driven as a subprocess: every usage error exits 2 with the usage
//! text, before any experiment runs.

use std::process::Command;

fn exp(args: &str, scale: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.args(args.split_whitespace());
    match scale {
        Some(scale) => cmd.env("AJAX_CRAWL_SCALE", scale),
        None => cmd.env_remove("AJAX_CRAWL_SCALE"),
    };
    cmd.output().expect("run exp")
}

fn assert_usage_error(args: &str, scale: Option<&str>) {
    let out = exp(args, scale);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {scale:?}: {stderr}");
    assert!(
        stderr.contains("usage: exp"),
        "{args:?} {scale:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} {scale:?} ran something");
}

#[test]
fn a_bad_command_line_exits_2() {
    for args in [
        "",
        "fig7_12",
        "table7_1 --bogus 3",
        "all --videos 3",
        "distributed static_prune --videos 3",
        "table7_1 --videos 3",
        "distributed --videos",
        "distributed --videos ten",
        "distributed --videos=10",
        "fault_sweep --rates 0,,1",
    ] {
        assert_usage_error(args, None);
    }
}

#[test]
fn an_unknown_scale_exits_2() {
    for scale in ["full", "Paper", ""] {
        assert_usage_error("fig7_1", Some(scale));
    }
}
