//! The benchmark's own span recorder.
//!
//! Per-layer numbers come from spans the benchmark records around its calls
//! into each crate's public functions — never from edits inside the crates.
//! Spans stay in memory and are summarised when the run ends. When the
//! tracer is off (`--trace 0`) a span costs one branch.

use crate::stats::median;
use std::time::Instant;

/// One completed span: what ran, for how long, and under which span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` under a span called `name`, nested in whatever span is open.
    /// `f` receives the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every completed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in nanoseconds; 0 when
    /// none were recorded.
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&mut self.durations_ns(name))
    }

    /// Every span's self time — its duration minus what its direct children
    /// cover — indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(t.durations_ns("inner").len(), 2);
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            t.self_times_ns(),
            [
                outer - inner,
                spans[1].end_ns - spans[1].start_ns,
                spans[2].end_ns - spans[2].start_ns
            ]
        );
        assert!(t.median_ns("outer") >= 2e6);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_ns("x"), 0.0);
    }
}
