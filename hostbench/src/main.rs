//! hostbench — run one workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload paper-grid --seed 0 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! describes the host and lists the raw per-pass times.
//! `--write-golden` regenerates `hostbench/golden/<workload>.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use hostbench::run::{golden_file, run, Options};
use hostbench::workload::Workload;
use simcore::json::Json;

const USAGE: &str = "usage: hostbench --workload paper-grid|wide-avg|multijob-rack \
    [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--write-golden]";

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut trace_out = None;
    let mut write_golden = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--write-golden" => write_golden = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;

    if write_golden {
        let path = PathBuf::from(format!("hostbench/golden/{}.json", workload.name()));
        let json = golden_file(workload)?;
        return std::fs::write(&path, json.to_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()));
    }

    let trace_out = trace_out.unwrap_or_else(|| {
        PathBuf::from(format!(
            ".hostbench/trace-{}-seed{seed}.json",
            workload.name()
        ))
    });
    let report = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    })?;
    println!("{}", report.context.to_compact());
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::from(unit)),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.correct)),
        ("attempted".to_string(), Json::from(report.attempted)),
        ("failed".to_string(), Json::from(report.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(())
}
