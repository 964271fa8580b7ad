//! Index-layout performance: build throughput, query latency percentiles,
//! v4 bytes on disk and cold start, on both synthetic sites. Writes
//! `BENCH_index.json` in the
//! working directory (the repo's perf baseline) in addition to the usual
//! `target/experiments/index_perf.json` dump.
//!
//! ```sh
//! exp_index_perf [--pages N]    # default: the scale's query_pages
//! ```
use ajax_bench::exp::index_perf;
use ajax_bench::{util, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pages: u32 = args
        .iter()
        .position(|a| a == "--pages")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--pages must be a number"))
        .unwrap_or_else(|| Scale::from_env().query_pages);

    let data = index_perf::collect(pages);
    println!("{}", data.render());
    util::write_json("index_perf", &data);

    match serde_json::to_string_pretty(&data) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_index.json", json) {
                eprintln!("warning: cannot write BENCH_index.json: {e}");
            } else {
                eprintln!("(baseline dump: BENCH_index.json)");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize baseline: {e}"),
    }
}
