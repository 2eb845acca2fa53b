//! What a run prints: the machine fingerprint, every metric by name with
//! its unit, the JSON-lines record `compare` reads, and the one-line result
//! the pipeline reads.

use crate::pin::Cores;
use crate::run::RunResult;
use crate::workloads::serve_config;
use std::io::Write;
use std::process::Command;
use wdpt_obs::Json;

/// Where the numbers were measured. Recorded with every run, because a
/// number without its machine is not comparable to anything.
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub cores: Option<Cores>,
}

/// First line of a command's standard output, or `unknown` (the pipeline's
/// checkout is not a git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    /// `nproc` is the CPU count read before the caller pinned itself.
    pub fn take(nproc: usize, cores: Option<Cores>) -> Fingerprint {
        Fingerprint {
            nproc,
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            cores,
        }
    }

    pub fn pinned(&self) -> bool {
        self.cores.is_some()
    }

    pub fn print(&self, seed: u64, seconds: f64, quick: bool) {
        println!(
            "# machine: nproc={} rustc={:?} commit={}",
            self.nproc, self.rustc, self.commit
        );
        match self.cores {
            Some(c) => println!(
                "# pinned=true (server on core {}, client on core {})",
                c.server, c.client
            ),
            None => {
                println!("# pinned=false (fewer than two CPUs allowed, or no sched_setaffinity)")
            }
        }
        println!("# serve: {:?}", serve_config());
        println!("# run: seed={seed} seconds={seconds} quick={quick}");
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::int(self.nproc as u64)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
            ("pinned", Json::Bool(self.pinned())),
            ("serve_config", Json::str(format!("{:?}", serve_config()))),
        ])
    }
}

fn metrics_json(result: &RunResult, prefix: &str) -> Vec<(String, Json)> {
    result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                format!("{prefix}{name}"),
                Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
            )
        })
        .collect()
}

/// Prints one run: header, every metric by name with its unit, notes.
pub fn print_run(result: &RunResult) {
    println!(
        "== {} ({}) seed={}: {} rounds x {} ops, {} latency samples; ops_attempted={} ops_failed={}",
        result.workload,
        if result.traced { "traced" } else { "untraced" },
        result.seed,
        result.rounds,
        result.ops_per_round,
        result.samples,
        result.attempted,
        result.failed,
    );
    for (name, value, unit) in &result.metrics {
        println!("   {name:<34} {value:>16.6} {unit}");
    }
    for note in &result.notes {
        println!("   {note}");
    }
    if let Some(e) = &result.first_error {
        println!("   first failure: {e}");
    }
}

/// Appends one JSON line describing `result` to `path`.
pub fn append_record(
    path: &str,
    result: &RunResult,
    fingerprint: &Fingerprint,
) -> std::io::Result<()> {
    let record = Json::obj([
        ("workload", Json::str(&result.workload)),
        ("traced", Json::Bool(result.traced)),
        ("seed", Json::int(result.seed)),
        ("rounds", Json::int(result.rounds as u64)),
        ("ops_per_round", Json::int(result.ops_per_round as u64)),
        ("samples", Json::int(result.samples as u64)),
        ("ops_attempted", Json::int(result.attempted)),
        ("ops_failed", Json::int(result.failed)),
        ("fingerprint", fingerprint.to_json()),
        ("metrics", Json::obj(metrics_json(result, ""))),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    wdpt_obs::write_json_line(&mut file, &record)?;
    file.flush()
}

/// The last line of standard output: the result object the pipeline reads.
/// A single workload's metrics go by their own names; `--workload all`
/// prefixes each with `<workload>/`.
pub fn final_line(results: &[RunResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let metrics: Vec<(String, Json)> = match results {
        [only] => metrics_json(only, ""),
        many => many
            .iter()
            .flat_map(|r| metrics_json(r, &format!("{}/", r.workload)))
            .collect(),
    };
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}
