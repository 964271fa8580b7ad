//! Many runs: each workload in a child process of its own, workloads in the
//! inner loop (A B C D E F, A B C …) so a disturbed minute cannot land on
//! all runs of one workload; medians per (workload, metric); and
//! `--selfcheck`, two such sets compared against the benchmark's own bounds.

use crate::schema::{Workload, END_TO_END, RUN_SECONDS};
use crate::stats::{iqr_share, median};
use crate::RunArgs;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    selfcheck: bool,
    quick: bool,
    out: PathBuf,
}

impl Cli {
    /// `--trace` takes `0` or `1` (the driver's form) or nothing (= 1).
    pub fn parse(argv: &[String]) -> Option<Self> {
        let mut cli = Self {
            workload: None,
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            repeat: None,
            selfcheck: false,
            quick: false,
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = argv.iter().map(String::as_str).peekable();
        while let Some(flag) = it.next() {
            match flag {
                "--workload" => cli.workload = Some(Workload::parse(it.next()?)?),
                "--seed" => cli.seed = it.next()?.parse().ok()?,
                "--seconds" => {
                    cli.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?;
                }
                "--repeat" => cli.repeat = Some(it.next()?.parse().ok().filter(|&k| k > 0)?),
                "--out" => cli.out = PathBuf::from(it.next()?),
                "--selfcheck" => cli.selfcheck = true,
                "--quick" => cli.quick = true,
                "--trace" => {
                    cli.trace = it.peek() != Some(&"0");
                    if matches!(it.peek(), Some(&"0") | Some(&"1")) {
                        it.next();
                    }
                }
                _ => return None,
            }
        }
        if cli.quick {
            // One set-up pass and two rounds, whatever the clock says.
            cli.seconds = 0.0;
        }
        Some(cli)
    }

    /// The driver's form — one workload, one run — happens in this process.
    pub fn single_run(&self) -> Option<RunArgs> {
        if self.repeat.is_some() || self.selfcheck {
            return None;
        }
        Some(RunArgs {
            workload: self.workload?,
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            quick: self.quick,
            out: self.out.clone(),
        })
    }
}

/// `(name, value, unit)` of every metric one child run printed, or why it
/// failed.
fn child_run(
    cli: &Cli,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out);
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if trace {
        eprint!("{stderr}");
    }
    if !output.status.success() {
        return Err(format!("exit {}\n{stderr}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let metrics: Vec<(String, f64, String)> = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split(' ');
            Some((
                words.next()?.to_string(),
                words.next()?.parse().ok()?,
                words.next()?.to_string(),
            ))
        })
        .collect();
    if metrics.is_empty() {
        return Err("no metrics printed".to_string());
    }
    Ok(metrics)
}

/// `values[workload][metric]` = one value per run of the set.
type SetValues = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

pub fn run(cli: &Cli) -> ExitCode {
    let workloads: Vec<Workload> = cli
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let sets = if cli.selfcheck { 2 } else { 1 };
    let repeat = cli.repeat.unwrap_or(if cli.selfcheck { 5 } else { 1 });
    let mut failed_runs = 0u32;
    let mut total_runs = 0u32;
    let mut values: Vec<SetValues> = vec![SetValues::new(); sets];

    for (set, set_values) in values.iter_mut().enumerate() {
        for r in 0..repeat {
            for &w in &workloads {
                let seed = cli.seed + r as u64;
                let traces: &[bool] = if cli.trace { &[false, true] } else { &[false] };
                for &trace in traces {
                    total_runs += 1;
                    match child_run(cli, w, seed, trace) {
                        Err(why) => {
                            failed_runs += 1;
                            println!("FAIL {} seed {seed} trace {}: {why}", w.name(), trace as u8);
                        }
                        Ok(_) if cli.quick => {
                            println!("PASS {} seed {seed} trace {}", w.name(), trace as u8);
                        }
                        Ok(metrics) => {
                            println!(
                                "set {} run {r} {} seed {seed} trace {}",
                                set + 1,
                                w.name(),
                                trace as u8
                            );
                            for (name, value, unit) in &metrics {
                                println!("  {name} {value} {unit}");
                                if !trace {
                                    set_values
                                        .entry(w.name())
                                        .or_default()
                                        .entry(name.clone())
                                        .or_default()
                                        .push(*value);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // The table the driver's acceptance rule reads: per (workload, metric)
    // the median of each set, the drift between them, and each set's spread
    // (inter-quartile distance ÷ median). A cell passes when drift and
    // spreads stay within the metric's bound; `setup_s` is held to the
    // drift only.
    let mut disagreements = 0u32;
    if !cli.quick {
        println!();
        if cli.selfcheck {
            println!("| workload | metric | median A | median B | B/A - 1 | spread A | spread B | bound | ok |");
            println!("|---|---|---|---|---|---|---|---|---|");
        } else {
            println!("| workload | metric | median | unit | runs | spread |");
            println!("|---|---|---|---|---|---|");
        }
        for &w in &workloads {
            for m in &END_TO_END {
                let of = |set: usize| -> &[f64] {
                    values[set]
                        .get(w.name())
                        .and_then(|by| by.get(m.name))
                        .map_or(&[], Vec::as_slice)
                };
                let a = of(0);
                if !cli.selfcheck {
                    println!(
                        "| {} | {} | {:.4} | {} | {} | {:.4} |",
                        w.name(),
                        m.name,
                        median(a),
                        m.unit,
                        a.len(),
                        iqr_share(a)
                    );
                    continue;
                }
                let b = of(1);
                let (ma, mb) = (median(a), median(b));
                let drift = if ma == 0.0 { 0.0 } else { mb / ma - 1.0 };
                let (sa, sb) = (iqr_share(a), iqr_share(b));
                let steady = m.name == "setup_s" || sa.max(sb) <= m.bound;
                let ok = !a.is_empty() && !b.is_empty() && drift.abs() <= m.bound && steady;
                if !ok {
                    disagreements += 1;
                }
                println!(
                    "| {} | {} | {ma:.4} | {mb:.4} | {drift:+.4} | {sa:.4} | {sb:.4} | {} | {} |",
                    w.name(),
                    m.name,
                    m.bound,
                    if ok { "yes" } else { "NO" }
                );
            }
        }
    }

    let selfcheck = match (cli.selfcheck, disagreements) {
        (false, _) => "null".to_string(),
        (true, 0) => "\"within bounds\"".to_string(),
        (true, n) => format!("\"{n} cells out of bounds\""),
    };
    // This benchmark defines a baseline; it never claims a gain.
    println!(
        "{{\"runs\": {total_runs}, \"failed_runs\": {failed_runs}, \"selfcheck\": {selfcheck}, \"claim\": null}}"
    );
    if failed_runs == 0 && disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<Cli> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_is_a_single_run() {
        let cli = parse(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "0",
        ])
        .unwrap();
        let run = cli.single_run().expect("one workload, no repeat");
        assert_eq!(run.workload, Workload::ServeZipf);
        assert_eq!((run.seed, run.seconds, run.trace), (7, 8.0, false));
        assert!(
            parse(&["--workload", "serve-zipf", "--trace", "1"])
                .unwrap()
                .single_run()
                .unwrap()
                .trace
        );
    }

    #[test]
    fn bare_trace_means_on_and_need_not_come_last() {
        let cli = parse(&["--trace", "--workload", "dist-2shard"]).unwrap();
        assert!(cli.trace);
        assert_eq!(cli.workload, Some(Workload::Dist2Shard));
        assert!(
            parse(&["--workload", "dist-2shard", "--trace"])
                .unwrap()
                .trace
        );
    }

    #[test]
    fn suites_and_bad_input() {
        assert!(parse(&[]).unwrap().single_run().is_none(), "all workloads");
        let cli = parse(&["--workload", "query-direct", "--repeat", "3"]).unwrap();
        assert!(cli.single_run().is_none());
        assert_eq!(cli.repeat, Some(3));
        assert!(parse(&["--selfcheck"]).unwrap().selfcheck);
        assert_eq!(parse(&["--quick"]).unwrap().seconds, 0.0);
        assert!(parse(&["--workload", "nope"]).is_none());
        assert!(parse(&["--seed"]).is_none());
        assert!(parse(&["--seconds", "-1"]).is_none());
        assert!(parse(&["--repeat", "0"]).is_none());
        assert!(parse(&["--frobnicate"]).is_none());
    }
}
