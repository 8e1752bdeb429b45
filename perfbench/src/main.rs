//! `perfbench`: the filter-placement benchmark harness.
//!
//! One process runs one workload:
//!
//! ```text
//! perfbench --workload powerlaw-1m|paper-sweep|serve-steady|online-drift
//!           --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! Untraced runs print the end-to-end metrics; traced runs repeat the
//! untraced phase's exact work with spans around every public call and
//! print the per-layer metrics. Either way the last stdout line is one
//! JSON object `{correct, attempted, failed, metrics}`, and the process
//! exits non-zero if any op failed verification. See README.md.

mod engine;
mod online;
mod paper_sweep;
mod powerlaw;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of one run's measurement, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// Length of the untraced timed phase: the whole measurement, or half
    /// of it when a traced phase repeats the same work afterwards.
    pub fn phase_len(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "powerlaw-1m" => powerlaw::run(&args),
        "paper-sweep" => paper_sweep::run(&args),
        "serve-steady" => serve::run(&args),
        "online-drift" => online::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (powerlaw-1m, paper-sweep, serve-steady, online-drift)"
        )),
    };
    let outcome = report.and_then(|mut report| {
        if let (Some(path), Some(tr)) = (&args.trace_out, report.tracer.take()) {
            tr.write_jsonl(path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        report::emit(&args.workload, args.trace, report)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
