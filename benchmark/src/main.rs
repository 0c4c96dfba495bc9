//! `perf_ledger`: the repository's benchmark. Drives the simulator through
//! its public functions only, measures host time, and checks every simulated
//! output row for exact identity. See `benchmark/README.md`.

mod compare;
mod contract;
mod host;
mod json;
mod ledger;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use ledger::Metric;

/// `--seconds` when not given; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  perf_ledger run --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
                  [--out <dir>] [--commit <id>] [--write-golden <dir>]
  perf_ledger compare <set-a-dir> <set-b-dir>
workloads: env_worlds, player_crowd, sharded_horde, campaign_sweep";

struct RunArgs {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
    write_golden: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: workloads::WORKLOADS[0],
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        commit: "unknown".into(),
        write_golden: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(workloads::find(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--commit" => parsed.commit = value.clone(),
            "--write-golden" => parsed.write_golden = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Prints every metric as `name unit value`, then — as the last line of
/// standard output — the result object the driver reads.
fn print_result(metrics: &[Metric], tally: ledger::Tally) {
    for (name, unit, value) in metrics {
        println!("{name} {unit} {value}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", ledger::metrics_json(metrics)),
    ]);
    println!("{result}");
}

fn run(args: &RunArgs) -> Result<(), String> {
    let name = args.workload.name;
    if args.trace {
        let traced = trace::measure_traced(args.workload, args.seed, args.seconds);
        traced.mismatches.iter().for_each(|m| eprintln!("{m}"));
        if let Some(dir) = &args.out {
            write_file(
                dir,
                &format!("{name}.traced.json"),
                &format!("{}\n", traced.to_json(&args.commit)),
            )?;
            write_file(
                dir,
                &format!("trace_{name}.json"),
                &format!("{}\n", traced.trace_file()),
            )?;
        }
        print_result(&traced.metrics, traced.tally);
        return Ok(());
    }
    let ledger = ledger::measure(args.workload, args.seed, args.seconds);
    ledger.mismatches.iter().for_each(|m| eprintln!("{m}"));
    if let Some(dir) = &args.write_golden {
        let mut text = ledger::csv_header();
        for row in &ledger.first_rows {
            text.push('\n');
            text.push_str(row);
        }
        text.push('\n');
        write_file(dir, &format!("{name}.csv"), &text)?;
    }
    if let Some(dir) = &args.out {
        write_file(
            dir,
            &format!("{name}.json"),
            &format!("{}\n", ledger.to_json(&args.commit)),
        )?;
    }
    print_result(&ledger.metrics(), ledger.tally);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| run(&a)),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(Path::new(a), Path::new(b)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}
