//! `perfbench --cli <tristream-cli> --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints its metrics,
//! then one JSON result line. Exits 1 if any operation failed or gave a
//! wrong answer, 2 on bad arguments. `run.sh` builds the binaries and
//! supplies `--cli`.

use perfbench::report::{human_lines, json_line};
use perfbench::{procs, workload, RunConfig, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

/// A run that has not finished by now is killed with its children.
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cli = None;
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--cli" => cli = Some(PathBuf::from(value)),
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; workloads: {}", names.join(", "))
    })?;
    let cli = cli.ok_or("--cli is required")?;
    if !cli.is_file() {
        return Err(format!("{} is not a file", cli.display()));
    }
    Ok(RunConfig {
        cli,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --cli PATH --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    procs::start_watchdog(WATCHDOG);
    match perfbench::run(&cfg) {
        Ok(outcome) => {
            for line in human_lines(&outcome) {
                println!("{line}");
            }
            println!("{}", json_line(&outcome));
            std::process::exit(i32::from(outcome.failed > 0));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
