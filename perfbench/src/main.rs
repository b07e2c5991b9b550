//! The HEBS serve benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <photo_closed|video_1080p|display_server> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's frames from the seed, sets the system up (once
//! untimed, then nine times, reporting the median), serves for
//! `--seconds`, checks every
//! served outcome and reconciles the runtime's counters, and prints one
//! JSON result line last on stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` serves half the time untraced and half traced,
//! replays a sample of the traced frames through each layer's public
//! functions, writes the spans to `perfbench/out/` and reports per-layer
//! metrics. A run whose counters do not reconcile exits non-zero without
//! a result.

#![forbid(unsafe_code)]

mod common;
mod layers;
mod photo;
mod server;
mod video;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hebs_perfbench::report::result_line;

const USAGE: &str = "usage: hebs-perfbench --workload <photo_closed|video_1080p|display_server> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One workload's entry point.
type Workload = fn(&Args) -> Result<common::Finished, String>;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 3] = [
    ("photo_closed", photo::run),
    ("video_1080p", video::run),
    ("display_server", server::run),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// Per-layer tracing instead of end-to-end measurement.
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.unwrap_or(false),
        })
    }

    /// Where a traced run writes its spans (JSON lines).
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from("perfbench/out").join(format!("{}-{}.spans.jsonl", self.workload, self.seed))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("hebs-perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!(
            "hebs-perfbench: unknown workload {}\n{USAGE}",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(&args) {
        Ok(finished) => {
            for metric in &finished.metrics {
                eprintln!("{:<30} {:>16.3} {}", metric.name, metric.value, metric.unit);
            }
            println!(
                "{}",
                result_line(
                    finished.failed == 0,
                    finished.attempted,
                    finished.failed,
                    &finished.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("hebs-perfbench: {}: {err}", args.workload);
            ExitCode::FAILURE
        }
    }
}
