//! The command line of `exp`: experiment names, then flags.
//!
//! ```sh
//! exp NAME... [--flag value...]
//! AJAX_CRAWL_SCALE=paper exp all
//! ```
//!
//! Flags are accepted only when exactly one experiment is named, and only
//! the ones that experiment takes. Anything else is a usage error.

use crate::exp::{Experiment, EXPERIMENTS};
use std::str::FromStr;

/// The flags given; each experiment reads the ones it takes and falls back
/// to its own defaults for the rest.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Flags {
    pub videos: Option<u32>,
    pub pages: Option<u32>,
    pub albums: Option<u32>,
    pub repeats: Option<u32>,
    pub seeds: Option<Vec<u64>>,
    pub rates: Option<Vec<f64>>,
    pub every: Option<Vec<usize>>,
}

/// The experiments to run, in order, and the flags they read.
pub struct Invocation {
    pub experiments: Vec<&'static Experiment>,
    pub flags: Flags,
}

fn value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn list<T: FromStr>(flag: &str, values: &str) -> Result<Vec<T>, String> {
    values.split(',').map(|v| value(flag, v.trim())).collect()
}

/// Reads `exp`'s arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut experiments = Vec::new();
    let mut flags = Flags::default();
    let mut given = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            let e = crate::exp::find(arg).ok_or_else(|| format!("unknown experiment {arg:?}"))?;
            experiments.push(e);
            continue;
        }
        let mut next = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--videos" => flags.videos = Some(value(arg, next()?)?),
            "--pages" => flags.pages = Some(value(arg, next()?)?),
            "--albums" => flags.albums = Some(value(arg, next()?)?),
            "--repeats" => flags.repeats = Some(value(arg, next()?)?),
            "--seeds" => flags.seeds = Some(list(arg, next()?)?),
            "--rates" => flags.rates = Some(list(arg, next()?)?),
            "--every" => flags.every = Some(list(arg, next()?)?),
            _ => return Err(format!("unknown flag {arg}")),
        }
        given.push(arg.as_str());
    }
    match (experiments.as_slice(), given.first()) {
        ([], _) => return Err("name an experiment".to_string()),
        ([_, _, ..], Some(flag)) => {
            return Err(format!("{flag} needs exactly one experiment named"))
        }
        ([one], Some(_)) => {
            if let Some(flag) = given.iter().find(|f| !one.flags.contains(f)) {
                return Err(format!("{} does not take {flag}", one.name));
            }
        }
        (_, None) => {}
    }
    Ok(Invocation { experiments, flags })
}

/// What `exp` prints on a usage error.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: exp NAME... [--flag value...]   (flags only with one NAME)\n\
         scale: AJAX_CRAWL_SCALE=small (default) or paper\n\
         names:",
    );
    for e in EXPERIMENTS {
        out.push_str("\n  ");
        out.push_str(e.name);
        for flag in e.flags {
            out.push_str(&format!(" [{flag} V]"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn names(s: &str) -> Vec<&'static str> {
        let inv = parse(&args(s)).expect("a valid command line");
        inv.experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn reads_names_and_the_flags_of_one_experiment() {
        assert_eq!(names("fig7_3 table7_2"), ["fig7_3", "table7_2"]);
        assert_eq!(names("all"), ["all"]);
        let inv = parse(&args("fault_sweep --seeds 1,2 --rates 0,0.1 --videos 5"))
            .expect("fault_sweep takes these");
        assert_eq!(
            inv.flags,
            Flags {
                videos: Some(5),
                seeds: Some(vec![1, 2]),
                rates: Some(vec![0.0, 0.1]),
                ..Flags::default()
            }
        );
    }
}
