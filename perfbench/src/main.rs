//! Repository benchmark: three workloads driven through the public API.
//!
//! ```text
//! nfv-perfbench --workload serve_feeds|month_lstm|month_gru --seed N
//!     --seconds S --trace 0|1 [--size full|small] [--inject drop]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, timed around calls into each layer. The last line
//! of standard output is the result object; the exit code is 0 only
//! when every output check passed. See `NOTES.md` for what each
//! workload and metric stands for.

mod month;
mod report;
mod serve_feeds;

use std::process::ExitCode;

/// Run scale: `Full` is the benchmark proper, `Small` a quick smoke run
/// of the same code paths.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// Deliberately broken runs, used by the benchmark's own tests to show
/// that a failed output check fails the run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Serve: offer a burst the rings cannot hold, so lines are dropped.
    /// Pipeline: delete one checkpoint generation before it is counted.
    Drop,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub inject: Inject,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {}", msg);
    eprintln!(
        "usage: nfv-perfbench --workload serve_feeds|month_lstm|month_gru --seed N \
         --seconds S --trace 0|1 [--size full|small] [--inject drop]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        inject: Inject::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{} needs a value", flag)));
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--size" => {
                a.size = match value().as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => usage("--size takes full or small"),
                }
            }
            "--inject" => {
                a.inject = match value().as_str() {
                    "none" => Inject::None,
                    "drop" => Inject::Drop,
                    _ => usage("--inject takes none or drop"),
                }
            }
            other => usage(&format!("unknown flag {:?}", other)),
        }
    }
    a
}

fn main() -> ExitCode {
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "serve_feeds" => serve_feeds::run(&args),
        "month_lstm" => month::run(&args, month::Family::Lstm),
        "month_gru" => month::run(&args, month::Family::Gru),
        other => usage(&format!("unknown workload {:?}", other)),
    };
    report::emit(&args.workload, &outcome);
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
