//! Kill-anywhere crash/recovery torture tests.
//!
//! The durability tentpole's headline guarantee: a build killed with
//! SIGKILL at an arbitrary point and resumed from its checkpoint journal
//! produces an index **bit-equal** to an uninterrupted run. These tests
//! drive the real `ajax-search` binary as a subprocess (real fsync, real
//! rename, real SIGKILL — not a simulated crash), plus the orphan-reaping
//! guarantees of the distributed cluster launcher.
//!
//! Seed count is bounded by default and overridable: set
//! `CRASH_SEEDS=0,1,2` (comma-separated) to pick seeds, and
//! `AJAX_SEARCH_BIN` to point at a prebuilt binary (what CI's crash-smoke
//! job does).

mod support;

use ajax_index::persist::load_index;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use support::{find_ajax_search, ScratchDir};

const VIDEOS: u32 = 12;

fn seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => (0..8).collect(),
    }
}

/// Deterministic per-seed kill fraction in [0.02, 0.92].
fn kill_fraction(seed: u64) -> f64 {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    0.02 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.9
}

fn build_command(bin: &Path, out: &Path, ckpt: Option<&Path>, resume: bool) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("build")
        .arg("--videos")
        .arg(VIDEOS.to_string())
        .arg("--out")
        .arg(out)
        .arg("--checkpoint-every")
        .arg("2")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(dir) = ckpt {
        cmd.arg("--checkpoint-dir").arg(dir);
        if resume {
            cmd.arg("--resume");
        }
    }
    cmd
}

fn run_to_completion(bin: &Path, out: &Path, ckpt: Option<&Path>, resume: bool) {
    let status = build_command(bin, out, ckpt, resume)
        .status()
        .expect("spawn ajax-search build");
    assert!(status.success(), "build exited with {status}");
}

#[test]
fn kill_anywhere_resume_is_bit_equal() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("kill_anywhere");

    // The uninterrupted reference run, timed so kills land inside the
    // build's actual duration.
    let ref_out = scratch.path("reference.ajx");
    let t0 = Instant::now();
    run_to_completion(&bin, &ref_out, None, false);
    let ref_wall = t0.elapsed().max(Duration::from_millis(50));
    let reference = load_index(&ref_out).expect("reference index loads");
    assert!(reference.total_states > 0);

    let mut killed_mid_build = 0usize;
    let seeds = seeds();
    for &seed in &seeds {
        let ckpt = scratch.path(&format!("ckpt_{seed}"));
        let out = scratch.path(&format!("out_{seed}.ajx"));

        // Start a checkpointed build and SIGKILL it at a seeded point.
        let mut child = build_command(&bin, &out, Some(&ckpt), false)
            .spawn()
            .expect("spawn checkpointed build");
        std::thread::sleep(ref_wall.mul_f64(kill_fraction(seed)));
        let already_done = child.try_wait().expect("try_wait").is_some();
        if !already_done {
            child.kill().expect("SIGKILL build");
            killed_mid_build += 1;
        }
        child.wait().expect("reap build");

        // Resume must finish cleanly from whatever the journal holds —
        // including a torn snapshot from the kill — and reproduce the
        // reference index bit for bit.
        run_to_completion(&bin, &out, Some(&ckpt), true);
        let resumed = load_index(&out)
            .unwrap_or_else(|e| panic!("seed {seed}: resumed index unreadable: {e}"));
        assert_eq!(
            resumed, reference,
            "seed {seed}: resumed index differs from uninterrupted build"
        );
    }
    eprintln!(
        "kill-anywhere: {}/{} seeds killed mid-build (reference wall {:?})",
        killed_mid_build,
        seeds.len(),
        ref_wall
    );
    assert!(
        killed_mid_build >= 1,
        "every build finished before its kill — kill fractions are miscalibrated"
    );
}

#[test]
fn double_kill_resume_still_recovers() {
    // Killing the *resume* run too must not corrupt the journal: resume is
    // itself checkpointed, so a second resume completes the build.
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("double_kill");

    let ref_out = scratch.path("reference.ajx");
    let t0 = Instant::now();
    run_to_completion(&bin, &ref_out, None, false);
    let ref_wall = t0.elapsed().max(Duration::from_millis(50));
    let reference = load_index(&ref_out).expect("reference index loads");

    let ckpt = scratch.path("ckpt");
    let out = scratch.path("out.ajx");
    for (attempt, fraction) in [(0usize, 0.35), (1, 0.55)] {
        let mut child = build_command(&bin, &out, Some(&ckpt), attempt > 0)
            .spawn()
            .expect("spawn build");
        std::thread::sleep(ref_wall.mul_f64(fraction));
        if child.try_wait().expect("try_wait").is_none() {
            child.kill().expect("SIGKILL build");
        }
        child.wait().expect("reap build");
    }
    run_to_completion(&bin, &out, Some(&ckpt), true);
    assert_eq!(
        load_index(&out).expect("final index loads"),
        reference,
        "index after two kills and a final resume differs from reference"
    );
}

#[test]
fn fsck_passes_on_journal_and_flags_corruption() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let scratch = ScratchDir::new("fsck");
    let ckpt = scratch.path("ckpt");
    let out = scratch.path("out.ajx");
    run_to_completion(&bin, &out, Some(&ckpt), false);

    // A healthy journal and artifact pass fsck.
    for target in [&ckpt, &out] {
        let status = Command::new(&bin)
            .arg("fsck")
            .arg(target)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run fsck");
        assert!(
            status.success(),
            "fsck failed on healthy {}",
            target.display()
        );
    }

    // A torn index artifact is fatal damage: nonzero exit.
    let bytes = std::fs::read(&out).expect("read index");
    std::fs::write(&out, &bytes[..bytes.len() / 3]).expect("tear index");
    let status = Command::new(&bin)
        .arg("fsck")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run fsck");
    assert!(!status.success(), "fsck must flag a torn index as fatal");

    // An intact index of an older format is fatal too, and names the remedy.
    let v3 = scratch.path("v3.ajx");
    ajax_crawl::durable::write_framed(&v3, ajax_index::INDEX_MAGIC, 3, b"{}")
        .expect("write v3 frame");
    let out = Command::new(&bin)
        .arg("fsck")
        .arg(&v3)
        .output()
        .expect("run fsck");
    let shown = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "fsck must flag a v3 index as fatal");
    assert!(shown.contains("rebuild"), "fsck output: {shown}");
}

/// Builds a couple of tiny models for cluster-launch tests.
fn tiny_partitions(shards: usize) -> Vec<ajax_index::InvertedIndex> {
    let models: Vec<_> = (0..4)
        .map(|i| {
            let mut m = ajax_crawl::model::AppModel::new(format!("http://x/{i}"));
            m.add_state(i + 1, format!("state text {i}"), None);
            m
        })
        .collect();
    ajax_dist::partition_models(&models, |_| None, shards, None)
}

#[test]
fn failed_cluster_launch_leaves_no_temp_indexes() {
    // `/bin/cat` accepts the spawn but never prints a LISTENING banner, so
    // the launch fails after the child is already running — the guard must
    // reap it and remove the shard index it had been given.
    let exe = Path::new("/bin/cat");
    if !exe.exists() {
        eprintln!("skipping: /bin/cat not available");
        return;
    }
    let err = ajax_dist::DistCluster::launch_processes(
        exe,
        tiny_partitions(2),
        ajax_index::RankWeights::default(),
        ajax_dist::ClusterConfig::default(),
        None,
    );
    assert!(err.is_err(), "cat cannot serve shards");
    for i in 0..2 {
        let leftover: PathBuf =
            std::env::temp_dir().join(format!("ajax-dist-{}-shard{i}.json", std::process::id()));
        assert!(
            !leftover.exists(),
            "failed launch leaked {}",
            leftover.display()
        );
    }
}

#[test]
fn dropped_cluster_reaps_shard_processes() {
    let Some(bin) = find_ajax_search() else {
        eprintln!("skipping: ajax-search binary not found (set AJAX_SEARCH_BIN)");
        return;
    };
    let cluster = ajax_dist::DistCluster::launch_processes(
        &bin,
        tiny_partitions(2),
        ajax_index::RankWeights::default(),
        ajax_dist::ClusterConfig::default(),
        None,
    )
    .expect("launch process cluster");
    let pids = cluster.process_pids();
    assert_eq!(pids.len(), 2);
    #[cfg(target_os = "linux")]
    for pid in &pids {
        assert!(
            Path::new(&format!("/proc/{pid}")).exists(),
            "shard {pid} should be running"
        );
    }
    // Drop without an explicit shutdown(): children must still be killed
    // AND waited on (no zombies — a zombie keeps its /proc entry).
    drop(cluster);
    #[cfg(target_os = "linux")]
    for pid in &pids {
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "orphaned shard process {pid} after cluster drop"
        );
    }
}
