//! perfbench: the RP-BCM repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <infer_fx|stream_lstm|train_compress> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --quick
//! perfbench steady --workload <name> --runs <n> [--seconds <s>] [--trace <0|1>]
//!           [--first-seed <n>]
//! ```
//!
//! A run prints a header (host, thread and serving configuration, seed,
//! commit), a few `#` progress lines, and as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when an output check fails. `--quick`
//! runs every workload briefly with every check on. `steady` repeats a
//! workload in child processes with consecutive seeds and prints each
//! metric's median, quartiles and range. See README.md.

mod common;
mod infer_fx;
mod layers;
mod reference;
mod stream_lstm;
mod train_compress;
mod wire;

use common::{Outcome, RunArgs};
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["infer_fx", "stream_lstm", "train_compress"];

fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    // Measured runs keep the program's default: telemetry off. The traced
    // run switches it on for its traced phase only.
    telemetry::set_enabled(false);
    match name {
        "infer_fx" => infer_fx::run(args),
        "stream_lstm" => stream_lstm::run(args),
        "train_compress" => train_compress::run(args),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Prints a run's failures and result line; returns whether it passed.
fn finish(out: &Outcome) -> bool {
    for f in out.check_failures.iter().take(10) {
        println!("# CHECK FAILED: {f}");
    }
    println!("{}", out.to_json());
    out.check_failures.is_empty()
}

/// Value of `--name` in `argv`, if present.
fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(
    argv: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(argv, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn workload_arg(argv: &[String]) -> Result<&str, String> {
    let w = flag(argv, "--workload").ok_or("missing --workload")?;
    if WORKLOADS.contains(&w) {
        Ok(w)
    } else {
        Err(format!("unknown workload {w} (one of {WORKLOADS:?})"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("steady") => steady(&argv[1..]),
        Some("--quick") => quick(),
        _ => single(&argv),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn single(argv: &[String]) -> Result<bool, String> {
    let workload = workload_arg(argv)?;
    let args = RunArgs {
        seed: parse(argv, "--seed", None)?,
        seconds: parse(argv, "--seconds", None)?,
        trace: parse::<u8>(argv, "--trace", Some(0))? == 1,
        quick: false,
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    common::print_header(workload, &args);
    Ok(finish(&run_workload(workload, &args)))
}

/// Every workload, briefly, measured and traced, every check on.
fn quick() -> Result<bool, String> {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 1,
                seconds: 0.4,
                trace,
                quick: true,
            };
            common::print_header(workload, &args);
            ok &= finish(&run_workload(workload, &args));
        }
    }
    Ok(ok)
}

/// Repeats a workload in child processes and prints the spread of every
/// metric: median, quartiles (as Python's `statistics.quantiles`), range
/// and the interquartile range as a share of the median.
fn steady(argv: &[String]) -> Result<bool, String> {
    let workload = workload_arg(argv)?;
    let runs: u64 = parse(argv, "--runs", Some(10))?;
    let seconds: f64 = parse(argv, "--seconds", Some(30.0))?;
    let trace: u8 = parse(argv, "--trace", Some(0))?;
    let first_seed: u64 = parse(argv, "--first-seed", Some(1))?;
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for seed in first_seed..first_seed + runs {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                &trace.to_string(),
            ])
            .output()
            .map_err(|e| format!("could not run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let correct = output.status.success() && last.contains("\"correct\": true");
        all_correct &= correct;
        println!("seed {seed}: {last}");
        for (name, value, unit) in parse_metrics(last) {
            match table.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, values)) => values.push(value),
                None => table.push((name, unit, vec![value])),
            }
        }
    }
    println!(
        "{:<32} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (name, unit, values) in &table {
        let q = common::quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if q[1] != 0.0 {
            (q[2] - q[0]) / q[1].abs()
        } else {
            0.0
        };
        println!(
            "{name:<32} {unit:>8} {:>14.6} {:>14.6} {:>14.6} {min:>14.6} {max:>14.6} {spread:>8.4}",
            q[1], q[0], q[2]
        );
    }
    Ok(all_correct)
}

/// Reads `"name": {"value": v, "unit": "u"}` entries back from a result
/// line this program printed.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut rest = &line[start + "\"metrics\": {".len()..];
    let mut out = Vec::new();
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = after[..end].to_string();
        let body = &after[end..];
        let (Some(v), Some(u)) = (body.find("\"value\": "), body.find("\"unit\": \"")) else {
            break;
        };
        let value_text = &body[v + 9..];
        let value_end = value_text.find(',').unwrap_or(value_text.len());
        let unit_text = &body[u + 9..];
        let unit_end = unit_text.find('"').unwrap_or(unit_text.len());
        if let Ok(value) = value_text[..value_end].trim().parse() {
            out.push((name, value, unit_text[..unit_end].to_string()));
        }
        rest = &unit_text[unit_end + 1..];
        match rest.find("}") {
            Some(close) => rest = &rest[close + 1..],
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let mut o = Outcome::default();
        o.metric("setup_s", 0.25, "s");
        o.metric("throughput_ops_s", 1234.5, "ops/s");
        let parsed = parse_metrics(&o.to_json());
        assert_eq!(
            parsed,
            vec![
                ("setup_s".to_string(), 0.25, "s".to_string()),
                ("throughput_ops_s".to_string(), 1234.5, "ops/s".to_string()),
            ]
        );
    }
}
