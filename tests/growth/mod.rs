//! Tests of work growth: a deterministic count swept over a parameter, and
//! the shape its growth must keep. Shared by `paper_tables.rs` (the paper's
//! tables) and `served_growth.rs` (the served executor's); each uses its
//! own part of it.
#![allow(dead_code)]

use wdpt_obs::{delta_scope, MetricsSnapshot};

/// One swept count: the parameter and the count at each point.
pub struct Series {
    label: String,
    points: Vec<(usize, u64)>,
}

impl Series {
    /// The count `name` read from each point's window.
    pub fn of(label: &str, windows: &[(usize, MetricsSnapshot)], name: &str) -> Series {
        let points = windows.iter().map(|(x, w)| (*x, w.counter(name))).collect();
        Series::new(&format!("{label} · {name}"), points)
    }

    pub fn new(label: &str, points: Vec<(usize, u64)>) -> Series {
        let s = Series {
            label: label.to_owned(),
            points,
        };
        println!("{s}");
        s
    }

    /// Consecutive points as `(x₀, y₀, x₁, y₁)`.
    fn steps(&self) -> impl Iterator<Item = (f64, f64, f64, f64)> + '_ {
        self.points
            .windows(2)
            .map(|w| (w[0].0 as f64, w[0].1 as f64, w[1].0 as f64, w[1].1 as f64))
    }

    /// Hard cell: every step multiplies the count by at least `base` per
    /// unit of the parameter.
    pub fn floor(&self, base: f64) {
        for (x0, y0, x1, y1) in self.steps() {
            assert!(
                y1 >= y0 * base.powf(x1 - x0),
                "{}: {y0} → {y1} from {x0} to {x1} grows slower than {base}^x",
                self.label
            );
        }
    }

    /// Tractable cell: between consecutive points the count grows at most
    /// like `x^degree`.
    pub fn ceiling(&self, degree: f64) {
        if let Some(why) = self.steeper_than(degree) {
            panic!("{why}");
        }
    }

    /// The first step between consecutive points at which the count grows
    /// faster than `x^degree`, described; `None` if there is none.
    pub fn steeper_than(&self, degree: f64) -> Option<String> {
        let (x0, y0, x1, y1) = self
            .steps()
            .find(|&(x0, y0, x1, y1)| y1 > y0 * (x1 / x0).powf(degree))?;
        Some(format!(
            "{}: {y0} → {y1} from {x0} to {x1} grows faster than x^{degree}",
            self.label
        ))
    }

    /// Tractable in the swept size: the count does not move at all.
    pub fn flat(&self) {
        let first = self.points[0].1;
        assert!(
            self.points.iter().all(|&(_, y)| y == first),
            "{}: not flat",
            self.label
        );
    }
}

impl std::fmt::Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:", self.label)?;
        for (x, y) in &self.points {
            write!(f, " {x}→{y}")?;
        }
        Ok(())
    }
}

/// Runs `measure` at every parameter, each call in its own counting window.
pub fn sweep(xs: &[usize], mut measure: impl FnMut(usize)) -> Vec<(usize, MetricsSnapshot)> {
    xs.iter()
        .map(|&x| (x, delta_scope(|| measure(x)).1))
        .collect()
}
