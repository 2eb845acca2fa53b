//! Per-request stage-timed traces for the serving layer.
//!
//! A [`RequestTrace`] rides along with one served request and attributes its
//! wall time to pipeline stages: socket **read** → **admission** checks →
//! **plan** (cache lookup or build) → **queue** (the wait for an evaluation
//! permit) → **eval** → **respond** (encoding and writing the response).
//! The one thread that serves the request marks each stage's end with
//! [`RequestTrace::stage_done`]; the stages are consecutive intervals of
//! its wall time, so *sum of stage times ≤ total wall time* holds by
//! construction. [`RequestTrace::record`] publishes the stage times into
//! the `serve.request.*_us` histograms that the `metrics` admin op exposes.

use crate::histogram;
use crate::json::Json;
use std::time::Instant;

/// The pipeline stages of one served request, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing the request line off the socket.
    Read,
    /// Admission control: size caps, symbol budget.
    Admission,
    /// Plan-cache lookup, or the (cancellable) plan build on a miss.
    Plan,
    /// Waiting for an evaluation permit.
    Queue,
    /// Evaluation proper (backtracking / parallel enumeration).
    Eval,
    /// Encoding the response lines and writing them to the socket.
    Respond,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Read,
        Stage::Admission,
        Stage::Plan,
        Stage::Queue,
        Stage::Eval,
        Stage::Respond,
    ];

    /// Stable lower-case name (used as the JSON key suffix).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "read",
            Stage::Admission => "admission",
            Stage::Plan => "plan",
            Stage::Queue => "queue",
            Stage::Eval => "eval",
            Stage::Respond => "respond",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Read => 0,
            Stage::Admission => 1,
            Stage::Plan => 2,
            Stage::Queue => 3,
            Stage::Eval => 4,
            Stage::Respond => 5,
        }
    }

    fn histogram(self) -> &'static crate::metrics::Histogram {
        match self {
            Stage::Read => histogram!("serve.request.read_us"),
            Stage::Admission => histogram!("serve.request.admission_us"),
            Stage::Plan => histogram!("serve.request.plan_us"),
            Stage::Queue => histogram!("serve.request.queue_us"),
            Stage::Eval => histogram!("serve.request.eval_us"),
            Stage::Respond => histogram!("serve.request.respond_us"),
        }
    }
}

/// Stage-timed trace of one served request. See the module docs for the
/// ownership protocol; the key invariant is that the attributed stage times
/// never sum past the wall-clock total.
#[derive(Debug)]
pub struct RequestTrace {
    started: Instant,
    mark: Instant,
    stage_ns: [u64; STAGE_COUNT],
}

impl Default for RequestTrace {
    fn default() -> Self {
        RequestTrace::start()
    }
}

impl RequestTrace {
    /// Begins a trace; the wall clock and the first stage both start now.
    pub fn start() -> RequestTrace {
        let now = Instant::now();
        RequestTrace {
            started: now,
            mark: now,
            stage_ns: [0; STAGE_COUNT],
        }
    }

    /// Attributes the time since the previous mark to `stage` (accumulating
    /// if the stage was already marked) and advances the mark. Returns the
    /// nanoseconds attributed.
    pub fn stage_done(&mut self, stage: Stage) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        self.stage_ns[stage.index()] += ns;
        self.mark = now;
        ns
    }

    /// Nanoseconds attributed to `stage` so far.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Microseconds attributed to `stage` so far.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stage_ns(stage) / 1_000
    }

    /// Sum of all attributed stage times, in nanoseconds. Always ≤
    /// [`RequestTrace::total_ns`].
    pub fn sum_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Wall-clock time since the trace started, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Publishes the trace into the `serve.request.{stage}_us` histograms
    /// plus `serve.request.total_us`, and returns the total microseconds.
    pub fn record(&self) -> u64 {
        for s in Stage::ALL {
            s.histogram().record(self.stage_us(s));
        }
        let total_us = self.total_ns() / 1_000;
        histogram!("serve.request.total_us").record(total_us);
        total_us
    }

    /// The trace as a JSON object: `{"read_us":..,"admission_us":..,
    /// "plan_us":..,"queue_us":..,"eval_us":..,"respond_us":..,
    /// "total_us":..}` — the shape embedded in `explain` responses and
    /// slowlog entries.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Stage::ALL
            .iter()
            .map(|s| (format!("{}_us", s.name()), Json::int(self.stage_us(*s))))
            .collect();
        pairs.push(("total_us".to_owned(), Json::int(self.total_ns() / 1_000)));
        Json::obj(pairs)
    }
}

/// RAII guard pairing [`Gauge::incr`] with a [`Gauge::decr`] on drop, for
/// live levels like in-flight requests and busy workers that must come back
/// down on every exit path, including panics and early returns.
///
/// [`Gauge::incr`]: crate::metrics::Gauge::incr
/// [`Gauge::decr`]: crate::metrics::Gauge::decr
#[derive(Debug)]
pub struct GaugeGuard {
    gauge: &'static crate::metrics::Gauge,
}

impl GaugeGuard {
    /// Raises `gauge` now; lowers it when the guard drops.
    pub fn raise(gauge: &'static crate::metrics::Gauge) -> GaugeGuard {
        gauge.incr();
        GaugeGuard { gauge }
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge.decr();
    }
}

/// Raises the named gauge for the current lexical scope.
#[macro_export]
macro_rules! gauge_scope {
    ($name:expr) => {
        $crate::trace::GaugeGuard::raise($crate::gauge!($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::delta_scope;
    use std::time::Duration;

    #[test]
    fn stages_partition_the_wall_clock() {
        let mut t = RequestTrace::start();
        std::thread::sleep(Duration::from_millis(2));
        t.stage_done(Stage::Read);
        t.stage_done(Stage::Admission);
        std::thread::sleep(Duration::from_millis(1));
        t.stage_done(Stage::Plan);
        std::thread::sleep(Duration::from_millis(1));
        let queue = t.stage_done(Stage::Queue);
        std::thread::sleep(Duration::from_millis(1));
        let eval = t.stage_done(Stage::Eval);
        t.stage_done(Stage::Respond);
        assert!(t.stage_ns(Stage::Read) >= 2_000_000);
        assert!(queue >= 1_000_000 && eval >= 1_000_000);
        assert_eq!(t.stage_ns(Stage::Queue), queue);
        assert_eq!(t.stage_ns(Stage::Eval), eval);
        assert!(t.sum_ns() <= t.total_ns(), "stage sum must not exceed wall");
        // ... and ≈ wall: the stages are consecutive, nothing falls between.
        assert!(t.sum_ns() >= t.total_ns() / 2);
    }

    #[test]
    fn record_feeds_stage_histograms() {
        let ((), d) = delta_scope(|| {
            let mut t = RequestTrace::start();
            std::thread::sleep(Duration::from_millis(1));
            t.stage_done(Stage::Read);
            t.stage_done(Stage::Queue);
            t.stage_done(Stage::Eval);
            t.stage_done(Stage::Respond);
            t.record();
        });
        for name in [
            "serve.request.read_us",
            "serve.request.admission_us",
            "serve.request.plan_us",
            "serve.request.queue_us",
            "serve.request.eval_us",
            "serve.request.respond_us",
            "serve.request.total_us",
        ] {
            assert_eq!(d.histogram(name).unwrap().count, 1, "{name}");
        }
        let total = d.histogram("serve.request.total_us").unwrap();
        assert!(total.sum >= 1_000, "total ≥ the 1ms sleep");
    }

    #[test]
    fn trace_json_has_every_stage_and_total() {
        let mut t = RequestTrace::start();
        t.stage_done(Stage::Read);
        let j = t.to_json();
        for s in Stage::ALL {
            assert!(j.get(&format!("{}_us", s.name())).is_some());
        }
        assert!(j.get("total_us").is_some());
    }

    #[test]
    fn gauge_guard_lowers_on_drop_and_panic() {
        let g = crate::metrics::register_gauge("test.trace.inflight");
        {
            let _a = GaugeGuard::raise(g);
            let _b = gauge_scope!("test.trace.inflight");
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
        let _ = std::panic::catch_unwind(|| {
            let _g = GaugeGuard::raise(g);
            panic!("boom");
        });
        assert_eq!(g.get(), 0);
    }
}
