//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 0 only if
//! every operation returned a correct answer.

use std::process::ExitCode;

use sr_perfbench::plan::{Plan, Workload};
use sr_perfbench::{default_work_root, header, report, run, RunConfig};

const USAGE: &str = "usage: perfbench --workload <knn_scan_warm|knn_real_cold|serve_mixed> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        plan: Plan::for_run(workload, seconds.ok_or("--seconds is required")?),
        seed: seed.ok_or("--seed is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_root: default_work_root().to_path_buf(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&cfg));
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(spans) = &outcome.spans {
        eprintln!("perfbench: spans written to {}", spans.display());
    }
    if let Some(why) = &outcome.verdict.first_failure {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {why}",
            outcome.verdict.failed, outcome.verdict.attempted
        );
    }
    match report::result_json(&outcome.verdict, &outcome.metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
