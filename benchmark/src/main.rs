//! The repo's benchmark. One command generates inputs from a seed, runs a
//! workload against the public API of the `wdpt-*` crates, checks every
//! answer against an oracle and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name>|all [--seed S] [--seconds N] [--trace 0|1]
//!         [--quick] [--check-determinism] [--json OUT]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the run
//! discipline.

mod alloc;
mod compare;
mod metrics;
mod oracle;
mod pin;
mod probes;
mod procfs;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  wdpt-benchmark run --workload <name>|all [--seed S] [--seconds N] [--trace 0|1]
                     [--quick] [--check-determinism] [--json OUT]
      workloads: fig1-repeat point-hit point-miss star-join update-cycle paper-decide
      --seed S               every generator draws from it [default: 7]
      --seconds N            measured rounds run until N seconds have passed,
                             never fewer than 9 rounds [default: 8]
      --trace 1 (--traced)   per-layer metrics from a traced run instead of
                             the end-to-end metrics
      --quick                tiny data, 3 rounds: all six workloads in seconds
      --check-determinism    (with --trace 1) run twice at the same seed and
                             fail unless every work count is bit-identical
      --json OUT             append one JSON line per run to OUT
  wdpt-benchmark compare A.json B.json
      judge B's runs against the baseline A's; exits non-zero on a regression
";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    check_determinism: bool,
    json: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 7,
        seconds: 8.0,
        traced: false,
        quick: false,
        check_determinism: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds expects a non-negative number")?
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--check-determinism" => parsed.check_determinism = true,
            "--json" => parsed.json = Some(value()?),
            name if !name.starts_with("--") && parsed.workload.is_empty() => {
                parsed.workload = name.to_string()
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !workloads::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?} or \"all\", got {:?}",
            workloads::WORKLOADS,
            parsed.workload
        ));
    }
    if parsed.check_determinism && !parsed.traced {
        return Err("--check-determinism needs --trace 1".to_string());
    }
    Ok(parsed)
}

/// A scratch directory inside the checkout: under the cargo target
/// directory, which `.gitignore` already covers.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target
        .join("bench-work")
        .join(std::process::id().to_string())
}

/// The work counts of two traced runs at one seed that differ.
fn nondeterministic(a: &run::RunResult, b: &run::RunResult) -> Vec<String> {
    a.metrics
        .iter()
        .zip(&b.metrics)
        .filter(|((name, x, _), (_, y, _))| {
            metrics::is_exact_count(name) && x.to_bits() != y.to_bits()
        })
        .map(|((name, x, _), (_, y, _))| format!("{}/{name}: {x} vs {y}", a.workload))
        .collect()
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cores = pin::choose_cores().filter(|c| pin::pin_current_thread(c.client));
    let fingerprint = report::Fingerprint::take(nproc, cores);
    fingerprint.print(args.seed, args.seconds, args.quick);

    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let names: Vec<&str> = if args.workload == "all" {
        workloads::WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    let mut clean = true;
    let outcome = (|| -> Result<(), String> {
        for workload in names {
            let opts = run::RunOptions {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                quick: args.quick,
                cores,
                dir: &dir,
            };
            let result = run::run(&opts)?;
            report::print_run(&result);
            if let Some(path) = &args.json {
                report::append_record(path, &result, &fingerprint)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            if args.check_determinism {
                let again = run::run(&opts)?;
                let differing = nondeterministic(&result, &again);
                if differing.is_empty() {
                    println!("   determinism: every work count repeated exactly");
                } else {
                    clean = false;
                    for d in differing {
                        println!("   determinism: {d}");
                    }
                }
            }
            clean &= result.failed == 0;
            results.push(result);
        }
        Ok(())
    })();
    // Generated files go whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;
    println!("{}", report::final_line(&results));
    Ok(clean)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare takes exactly two files".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_records(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(base)?, &load(new)?);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".to_string());
    }
    Ok(!compare::print_rows(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
