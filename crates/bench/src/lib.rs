//! # wdpt-bench — harness utilities for regenerating the paper's tables
//!
//! The binaries `table1`, `table2`, and `figure2` print measured versions
//! of Tables 1–2 and Figure 2 of the paper (see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for recorded results). This
//! library holds the shared measurement plumbing: wall-clock sampling,
//! growth-shape classification (the paper's "tables" are complexity
//! classes, so the reproducible observable is *how runtimes scale*), and a
//! plain-text table printer.

use std::time::Instant;
use wdpt_obs::{Json, MetricsSnapshot, QueryProfile};

/// One measured series: parameter values and mean runtimes (seconds).
#[derive(Debug, Clone)]
pub struct Series {
    /// Label shown in reports.
    pub label: String,
    /// Swept parameter values.
    pub xs: Vec<f64>,
    /// Mean runtime in seconds per parameter value.
    pub secs: Vec<f64>,
}

impl Series {
    /// One machine-readable object per row: label, sweep points, and the
    /// fitted growth verdict.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str("series")),
            ("label", Json::str(self.label.clone())),
            (
                "xs",
                Json::Arr(self.xs.iter().map(|&x| Json::num(x)).collect()),
            ),
            (
                "secs",
                Json::Arr(self.secs.iter().map(|&t| Json::num(t)).collect()),
            ),
            ("growth", Json::str(classify(self).to_string())),
        ])
    }
}

/// Output sink shared by the table binaries: human-readable blocks by
/// default, or — under `--json` — exactly one JSON object per emitted row on
/// stdout, with all prose suppressed so the stream stays parseable
/// line-by-line (the contract `json_check` validates in CI).
pub struct Report {
    json: bool,
}

impl Report {
    /// `json = true` switches every emit to one-JSON-object-per-line.
    pub fn new(json: bool) -> Report {
        Report { json }
    }

    /// Whether this report emits JSON lines.
    pub fn is_json(&self) -> bool {
        self.json
    }

    /// A section header (prose; suppressed in JSON mode).
    pub fn section(&self, title: &str) {
        if !self.json {
            section(title);
        }
    }

    /// A free-form commentary line (prose; suppressed in JSON mode).
    pub fn note(&self, text: &str) {
        if !self.json {
            println!("{text}");
        }
    }

    /// Emits one JSON line via the shared `wdpt_obs::json` framing helper —
    /// the same writer the `wdpt-serve` wire protocol uses, so `json_check`
    /// validates both streams against one implementation.
    fn emit(&self, value: &Json) {
        let stdout = std::io::stdout();
        wdpt_obs::write_json_line(&mut stdout.lock(), value).expect("stdout is writable");
    }

    /// One measured series: a rendered block, or one `kind:"series"` line.
    pub fn series(&self, s: &Series) {
        if self.json {
            self.emit(&s.to_json());
        } else {
            print!("{}", render(s));
        }
    }

    /// A per-query profile: the EXPLAIN-style text, or one `kind:"profile"`
    /// line wrapping [`QueryProfile::to_json`].
    pub fn profile(&self, profile: &QueryProfile) {
        if self.json {
            self.emit(&Json::obj([
                ("kind", Json::str("profile")),
                ("profile", profile.to_json()),
            ]));
        } else {
            print!("{}", profile.render());
        }
    }

    /// Engine-counter totals over a sweep: a summary line, or one
    /// `kind:"counters"` line.
    pub fn counters(&self, context: &str, delta: &MetricsSnapshot) {
        if self.json {
            self.emit(&Json::obj([
                ("kind", Json::str("counters")),
                ("context", Json::str(context)),
                (
                    "counters",
                    Json::obj(
                        delta
                            .counters
                            .iter()
                            .filter(|(_, v)| *v > 0)
                            .map(|(n, v)| (n.clone(), Json::int(*v))),
                    ),
                ),
            ]));
        } else {
            let body: Vec<String> = delta
                .counters
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            println!("  engine counters over {context}: {}", body.join(" "));
        }
    }
}

/// Fitted growth shape of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Growth {
    /// Runtime ≈ c·xᵈ — reported with the fitted degree.
    Polynomial(f64),
    /// Runtime ≈ c·bˣ — reported with the fitted base.
    Exponential(f64),
    /// Too little signal (e.g. all runtimes tiny or non-monotone).
    Flat,
}

impl std::fmt::Display for Growth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Growth::Polynomial(d) => write!(f, "poly(deg≈{d:.1})"),
            Growth::Exponential(b) => write!(f, "exp(base≈{b:.2})"),
            Growth::Flat => write!(f, "flat"),
        }
    }
}

/// Least-squares slope of `y` against `x`.
fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

/// Classifies a series as polynomial or exponential by comparing the fit
/// quality of `log t` against `log x` (power law) versus `log t` against
/// `x` (exponential).
pub fn classify(series: &Series) -> Growth {
    let pts: Vec<(f64, f64)> = series
        .xs
        .iter()
        .zip(&series.secs)
        .filter(|&(&x, &t)| x > 0.0 && t > 1e-7)
        .map(|(&x, &t)| (x, t))
        .collect();
    if pts.len() < 3 {
        return Growth::Flat;
    }
    let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let lts: Vec<f64> = pts.iter().map(|p| p.1.ln()).collect();
    let lxs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let r2 = |px: &[f64], py: &[f64]| -> f64 {
        let s = slope(px, py);
        let n = px.len() as f64;
        let mx = px.iter().sum::<f64>() / n;
        let my = py.iter().sum::<f64>() / n;
        let ss_res: f64 = px
            .iter()
            .zip(py)
            .map(|(x, y)| {
                let pred = my + s * (x - mx);
                (y - pred) * (y - pred)
            })
            .sum();
        let ss_tot: f64 = py.iter().map(|y| (y - my) * (y - my)).sum();
        if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        }
    };
    let total_growth = pts.last().unwrap().1 / pts.first().unwrap().1;
    if total_growth < 4.0 {
        return Growth::Flat;
    }
    let r2_poly = r2(&lxs, &lts);
    let r2_exp = r2(&xs, &lts);
    let deg = slope(&lxs, &lts);
    let base = slope(&xs, &lts).exp();
    // Prefer the model that explains the data better; a power-law fit with
    // a huge degree is exponential in disguise, and an "exponential" with
    // base ≈ 1 is polynomial in disguise.
    if (r2_exp > r2_poly || deg > 6.0) && base >= 1.25 {
        Growth::Exponential(base)
    } else {
        Growth::Polynomial(deg)
    }
}

/// Measures `f` at each parameter value, repeating until `min_runtime`
/// seconds per point (at least once), and returns the mean-time series.
pub fn measure<F: FnMut(usize)>(
    label: &str,
    params: &[usize],
    min_runtime: f64,
    mut f: F,
) -> Series {
    let mut xs = Vec::with_capacity(params.len());
    let mut secs = Vec::with_capacity(params.len());
    for &p in params {
        // Untimed warmup: populates lazy indexes and caches.
        f(p);
        let mut iters = 0u32;
        let start = Instant::now();
        loop {
            f(p);
            iters += 1;
            if start.elapsed().as_secs_f64() >= min_runtime || iters >= 1000 {
                break;
            }
        }
        xs.push(p as f64);
        secs.push(start.elapsed().as_secs_f64() / f64::from(iters));
    }
    Series {
        label: label.to_owned(),
        xs,
        secs,
    }
}

/// Renders a series as a fixed-width table block with its growth verdict.
pub fn render(series: &Series) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {}\n", series.label));
    out.push_str("      n        time\n");
    for (x, t) in series.xs.iter().zip(&series.secs) {
        out.push_str(&format!("  {x:7.0}  {}\n", human_time(*t)));
    }
    out.push_str(&format!("    shape: {}\n", classify(series)));
    out
}

/// Human-readable duration.
pub fn human_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:8.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:8.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:8.2}ms", secs * 1e3)
    } else {
        format!("{secs:8.2}s ")
    }
}

/// Prints a section header used by the table binaries.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(xs: Vec<f64>, secs: Vec<f64>) -> Series {
        Series {
            label: "test".into(),
            xs,
            secs,
        }
    }

    #[test]
    fn classifies_quadratic_as_polynomial() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let secs: Vec<f64> = xs.iter().map(|x| 1e-3 * x * x).collect();
        match classify(&series(xs, secs)) {
            Growth::Polynomial(d) => assert!((d - 2.0).abs() < 0.2, "degree {d}"),
            other => panic!("expected polynomial, got {other}"),
        }
    }

    #[test]
    fn classifies_doubling_as_exponential() {
        let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let secs: Vec<f64> = xs.iter().map(|x| 1e-5 * 2f64.powf(*x)).collect();
        match classify(&series(xs, secs)) {
            Growth::Exponential(b) => assert!((b - 2.0).abs() < 0.2, "base {b}"),
            other => panic!("expected exponential, got {other}"),
        }
    }

    #[test]
    fn classifies_noise_as_flat() {
        let xs: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let secs = vec![1e-6; 8];
        assert_eq!(classify(&series(xs, secs)), Growth::Flat);
    }

    #[test]
    fn measure_returns_one_point_per_param() {
        let s = measure("noop", &[1, 2, 3], 0.0, |_| {});
        assert_eq!(s.xs.len(), 3);
        assert!(s.secs.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(5e-9).contains("ns"));
        assert!(human_time(5e-6).contains("µs"));
        assert!(human_time(5e-3).contains("ms"));
        assert!(human_time(5.0).contains('s'));
    }

    #[test]
    fn series_json_is_parseable_and_complete() {
        let s = series(vec![1.0, 2.0, 3.0], vec![1e-6, 2e-6, 3e-6]);
        let line = s.to_json().to_string();
        let parsed = wdpt_obs::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("series"));
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("test"));
        assert_eq!(parsed.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(parsed.get("secs").unwrap().as_arr().unwrap().len(), 3);
        assert!(parsed.get("growth").unwrap().as_str().is_some());
    }

    #[test]
    fn render_contains_label_and_shape() {
        let s = series(vec![1.0, 2.0, 3.0], vec![1e-6, 1e-6, 1e-6]);
        let r = render(&s);
        assert!(r.contains("test"));
        assert!(r.contains("shape"));
    }
}
