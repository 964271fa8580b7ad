//! # ajax-bench
//!
//! The experiment harness: one module per table/figure of the thesis' ch. 7
//! evaluation and per subsystem experiment, all run by one command,
//! `exp NAME...` (`exp all` runs the evaluation). Every experiment prints
//! the same rows or series the paper reports and writes a JSON dump to
//! `target/experiments/<name>.json`.
//!
//! All timings inside the experiments are **virtual** (from `ajax-net`'s
//! clock), so the regenerated numbers are deterministic; only the
//! query-processing experiments additionally report wall-clock times, as the
//! thesis did. Scale is controlled by the `AJAX_CRAWL_SCALE` environment
//! variable: `small` (default; seconds on a laptop) or `paper` (the thesis'
//! 10 000-video / 2 500-video setup).

pub mod cli;
pub mod exp;
pub mod scale;
pub mod util;

pub use scale::Scale;
