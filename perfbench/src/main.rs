//! `perfbench` — the measuring half of the repository benchmark.
//!
//! `run.py` (beside this crate) builds this binary and calls it twice per
//! benchmark run, each call in its own process:
//!
//! ```text
//! perfbench measure --workload <name> --seed <n> --seconds <s>
//! perfbench trace   --workload <name> --seed <n> --seconds <s> [--min] [--spans FILE]
//! ```
//!
//! `measure` is the untraced timed run behind the end-to-end metrics;
//! `trace` wraps the public traits the layers meet at and splits the
//! same episodes into per-layer spans. `--min` runs the smallest run
//! that still feeds the identity gate (one episode, or one check);
//! `--spans` writes the traced run's first episode as JSON lines. Each
//! call prints one JSON object on its last stdout line; `run.py` compares
//! the two calls' reports with each other and with `experiments` before
//! it reports anything.
//!
//! Wall-clock timing lives only in this crate, which is outside every
//! workspace crate the determinism lint scopes, and no timing value ever
//! reaches a `RunReport`.

mod field_replay;
mod json;
mod measure;
mod model;
mod recorder;
mod traced;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Run only what the identity gate needs.
    pub minimal: bool,
    /// Where the traced run writes the first episode's spans.
    pub spans: Option<String>,
}

fn parse(args: &[String]) -> Result<(String, Args), String> {
    let mode = args.first().ok_or("missing mode (measure|trace)")?.clone();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut minimal = false;
    let mut spans = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--min" => minimal = true,
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((
        mode,
        Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            minimal,
            spans,
        },
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One explicit in-beat thread count for every simulation this
    // process builds, whatever BYZCLOCK_STEP_THREADS says.
    byzclock_sim::set_step_threads_override(Some(workload::STEP_THREADS));
    let out = match mode.as_str() {
        "measure" => measure::run(&args),
        "trace" => traced::run(&args),
        other => Err(format!("unknown mode `{other}`")),
    };
    match out {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
