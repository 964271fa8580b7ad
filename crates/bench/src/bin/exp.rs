//! `exp NAME... [--flag value...]` — runs the named experiments in one
//! context, so a dataset several of them share is collected once.
//! `exp all` regenerates every table and figure of the thesis' evaluation;
//! `AJAX_CRAWL_SCALE=paper` runs it at thesis scale.
//!
//! Exits 0 when every invariant held, 1 when one failed (each prints
//! `FAIL: …`), and 2 on a usage error.

use ajax_bench::exp::Context;
use ajax_bench::{cli, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (invocation, scale) = match (cli::parse(&args), Scale::from_env()) {
        (Ok(invocation), Ok(scale)) => (invocation, scale),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    let mut ctx = Context::new(scale);
    for experiment in &invocation.experiments {
        (experiment.run)(&mut ctx, &invocation.flags);
    }
    if ctx.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
