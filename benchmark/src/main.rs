//! `mpps-benchmark`: one workload (`--workload`, as the driver runs it), the
//! whole suite (no `--workload`), or `compare A.json B.json`.

use mpps_benchmark::harness::Opts;
use mpps_benchmark::{compare, metrics, run_workload, suite, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mpps-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out-dir DIR]
  mpps-benchmark [--seed N] [--out FILE] [--quick] [--out-dir DIR]
  mpps-benchmark compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let Some(workload) = &args.workload else {
        return suite::run(args.seed, args.quick, &args.out_dir, args.out.as_deref());
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 0.4 } else { 10.0 }),
        trace: args.trace,
        quick: args.quick,
        out_dir: args.out_dir,
    };
    let Some(outcome) = run_workload(workload, &opts) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {workload}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "{workload} seed {} {} run, {:.1} s",
        opts.seed,
        if opts.trace { "traced" } else { "timed" },
        opts.seconds
    );
    metrics::print_table(&outcome, opts.quick);
    println!("detail {}", metrics::detail_json(&outcome));
    println!("{}", metrics::contract_line(&outcome, opts.trace));
    // A failed output check is in the result (`correct`, `failed`); the
    // exit code stays 0 so that the result is read.
    ExitCode::SUCCESS
}
