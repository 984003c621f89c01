//! Command-line driver of the flow benchmark.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload suite --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path flowbench/Cargo.toml -- --crosscheck
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it are the digest, sample counts and any failures.

use lowpower_flowbench::crosscheck::crosscheck;
use lowpower_flowbench::run::{run, Options};
use lowpower_flowbench::workload::{setup, Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: flowbench --workload suite|scale_opt|checked --seed N \
                     --seconds S --trace 0|1\n       flowbench --crosscheck [--seed N]";

enum Command {
    Run(Options),
    Crosscheck(u64),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = None;
    let mut trace = None;
    let mut cross = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--crosscheck" {
            cross = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` takes {what}, not `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if cross {
        return Ok(Command::Crosscheck(seed));
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size: Size::Full,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Crosscheck(seed) => {
            let w = Workload::Suite;
            let inputs = setup(w, Size::Full);
            print!("{}", crosscheck(w, &inputs, &w.config(seed)));
            ExitCode::SUCCESS
        }
        Command::Run(opts) => match run(&opts) {
            Ok(outcome) => {
                for note in &outcome.notes {
                    println!("# {note}");
                }
                println!("{}", outcome.to_json());
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
