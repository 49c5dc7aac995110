//! Command-line entry of the codec benchmark (see `README.md`).
//!
//! Prints a provenance line and then the result line, both JSON. Exits
//! 1 when a correctness check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use codecbench::{run, RunArgs, Workload, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "usage: codecbench --workload <chip64_video|tiled256_lossy|fleet32_cold> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--trace-out PATH]";

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut args, &flag)?;
                workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = value(&mut args, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value(&mut args, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                trace = match value(&mut args, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(PathBuf::from(value(&mut args, &flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("codecbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for failure in &outcome.failures {
        eprintln!("codecbench: correctness: {failure}");
    }
    println!("{}", outcome.provenance_line());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
