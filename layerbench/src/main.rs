//! Layer-budget benchmark for the gpumr workspace.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload <paper-512|viewer-wire|sweep-tiny> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the same workload untraced and then traced for half the time each,
//! and reports the per-layer metrics. Every delivered frame is checked
//! bit-for-bit against a reference render made outside the timed phase.
//! The last line of standard output is the JSON result; the lines before
//! it are the human-readable report.

mod paper;
mod report;
mod rng;
mod stats;
mod sweep;
mod trace;
mod viewer;

use std::process::ExitCode;

/// Where traced runs write their spans, relative to the working directory.
pub const SPAN_DIR: &str = ".bench_out";

pub const WORKLOADS: [&str; 3] = ["paper-512", "viewer-wire", "sweep-tiny"];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "paper-512" => paper::run_workload(&args),
        "viewer-wire" => viewer::run_workload(&args),
        _ => sweep::run_workload(&args),
    };
    report.set("rss_peak_mib", report::rss_peak_mib());
    print!("{}", report.finish(&args.workload, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload sweep-tiny --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sweep-tiny".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload paper-512 --seed 1 --seconds 5")).is_err());
        assert!(parse(&argv("--workload paper-512 --seed 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload paper-512 --seed 1 --seconds")).is_err());
    }
}
