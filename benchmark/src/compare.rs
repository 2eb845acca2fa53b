//! `compare A.json B.json`: judge B against the baseline A.
//!
//! Both files are what `run --json` appends: one JSON line per run, any
//! number of runs per workload. One row per workload × end-to-end metric
//! (from the untraced runs) with both medians, the ratio with its base, the
//! bound and a verdict:
//!
//! * `unresolved` — the run-to-run spread (interquartile range over the
//!   median, the wider of the two sides) exceeds the bound, so the files
//!   cannot tell a regression from noise;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise.
//!
//! The deterministic work counts of the traced runs get a row each as well,
//! with bound 0: any increase is a regression.

use crate::metrics::{is_exact_count, Better, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use wdpt_obs::Json;

/// `(workload, traced, metric) → values`, one per run in the file.
type Values = BTreeMap<(String, bool, String), Vec<f64>>;

pub fn parse_records(text: &str) -> Result<Values, String> {
    let mut values = Values::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let traced = doc.get("traced") == Some(&Json::Bool(true));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            values
                .entry((workload.to_string(), traced, name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One comparison row.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges `new` against `base` for one metric.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> (f64, f64, f64, Verdict) {
    let a = median(&mut base.to_vec());
    let b = median(&mut new.to_vec());
    let spread = iqr_share(base).max(iqr_share(new));
    let worse_by = if a == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (a, b, spread, verdict)
}

pub fn compare(base: &Values, new: &Values) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut push = |workload: &str, traced: bool, metric: &str, better: Better, bound: f64| {
        let key = (workload.to_string(), traced, metric.to_string());
        if let (Some(a), Some(b)) = (base.get(&key), new.get(&key)) {
            let (base, new, spread, verdict) = judge(a, b, better, bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                base,
                new,
                spread,
                bound,
                verdict,
            });
        }
    };
    for workload in WORKLOADS {
        for m in END_TO_END {
            push(workload, false, m.name, m.better, m.bound);
        }
        for (name, _, better) in PER_LAYER {
            if is_exact_count(name) {
                push(workload, true, name, better, 0.0);
            }
        }
    }
    rows
}

/// Prints the table; returns whether any row regressed.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>10} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "spread", "bound"
    );
    for r in rows {
        let ratio = if r.base == 0.0 { 1.0 } else { r.new / r.base };
        println!(
            "{:<14} {:<30} {:>14.6} {:>14.6} {:>9.4}x {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            ratio,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    count(Verdict::Regressed) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // 4% slower under a 10% bound: ok. 12% slower: regressed.
        assert_eq!(judge(&[100.0], &[104.0], Lower, 0.10).3, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[112.0], Lower, 0.10).3, Verdict::Regressed);
        // Faster is never a regression, whichever way "better" points.
        assert_eq!(judge(&[100.0], &[50.0], Lower, 0.10).3, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[150.0], Higher, 0.10).3, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[85.0], Higher, 0.10).3, Verdict::Regressed);
        // Exact counts: bound 0, any increase regresses, equality is ok.
        assert_eq!(judge(&[4096.0], &[4096.0], Lower, 0.0).3, Verdict::Ok);
        assert_eq!(
            judge(&[4096.0], &[4097.0], Lower, 0.0).3,
            Verdict::Regressed
        );
        // Runs that disagree with each other by more than the bound cannot
        // resolve a difference, even a large one.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&noisy, &[130.0], Lower, 0.10).3, Verdict::Unresolved);
    }

    fn record(workload: &str, traced: bool, metric: &str, value: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","traced":{traced},"metrics":{{"{metric}":{{"value":{value},"unit":"x"}}}}}}"#
        )
    }

    #[test]
    fn compare_groups_runs_by_workload_and_metric() {
        let a = [
            record("point-hit", false, "op_p50_ms", 0.120),
            record("point-hit", false, "op_p50_ms", 0.122),
            record("point-hit", false, "op_p50_ms", 0.121),
            record("star-join", true, "cq.nodes_expanded_per_op", 1000.0),
            record("star-join", true, "core.eval_ms", 5.0),
        ]
        .join("\n");
        let b = [
            record("point-hit", false, "op_p50_ms", 0.160),
            record("star-join", true, "cq.nodes_expanded_per_op", 1000.0),
            record("star-join", true, "core.eval_ms", 50.0),
        ]
        .join("\n");
        let rows = compare(&parse_records(&a).unwrap(), &parse_records(&b).unwrap());
        // Timings from traced runs are not judged; exact counts are.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "op_p50_ms");
        assert_eq!(rows[0].base, 0.121);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].metric, "cq.nodes_expanded_per_op");
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(print_rows(&rows));
    }

    #[test]
    fn malformed_records_are_reported_with_their_line() {
        assert!(parse_records("{\"workload\":\"x\"}")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_records("not json").is_err());
    }
}
