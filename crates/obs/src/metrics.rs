//! Named counters, gauges, and log-scale histograms.
//!
//! A process-wide registry. Call sites use the [`counter!`] /
//! [`gauge!`] / [`histogram!`] macros, which resolve the metric once into a
//! static `OnceLock` and thereafter pay a single relaxed `fetch_add` per
//! event — cheap enough for hot paths, and correct across the worker
//! threads of the parallel evaluator (the metrics are monotone event
//! tallies with no synchronizing role). Snapshots taken while other threads
//! are mid-run are approximate; take them around joined work for exact
//! deltas — or through [`delta_scope`], which serializes such sections
//! process-wide so concurrently running tests cannot perturb each other.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// A monotone named event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Records one event.
    #[inline]
    pub fn incr(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// An instantaneous level (queue depth, in-flight requests, busy workers):
/// unlike a [`Counter`] it goes down as well as up, and a snapshot delta
/// keeps the *later* value rather than subtracting.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    /// Moves the level up.
    #[inline]
    pub fn incr(&self) {
        self.value.fetch_add(1, Relaxed);
    }

    /// Moves the level down.
    #[inline]
    pub fn decr(&self) {
        self.value.fetch_sub(1, Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// Number of log₂ buckets: bucket 0 holds value 0, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`, and the last bucket absorbs the tail.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket layout and atomics of a histogram, without a registry entry.
/// This is what [`Histogram`] wraps; it is public so dynamically created
/// aggregates (one per plan-cache entry, say) can reuse the layout without
/// leaking `&'static` registrations for values with bounded lifetimes.
#[derive(Debug)]
pub struct RawHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for RawHistogram {
    fn default() -> Self {
        RawHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl RawHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> RawHistogram {
        RawHistogram::default()
    }

    /// Index of the bucket holding `v`: 0 for 0, else `64 - leading_zeros`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// A point-in-time copy under `name`.
    pub fn snapshot(&self, name: impl Into<String>) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
}

/// A log₂-bucketed histogram of `u64` observations (decomposition widths,
/// request stage latencies, reload phases, ...), registered process-wide
/// under a static name.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    raw: RawHistogram,
}

impl Histogram {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.raw.record(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        self.raw.snapshot(self.name)
    }
}

/// Registry of all metrics created so far. Metrics are leaked (`&'static`)
/// so hot paths never touch the registry lock — only first-time
/// registration and snapshots do.
#[derive(Default)]
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Returns the counter named `name`, creating and registering it on first
/// use. Call sites should go through [`counter!`], which caches the result.
pub fn register_counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(c) = reg.counters.iter().find(|c| c.name == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
    }));
    reg.counters.push(c);
    c
}

/// Returns the gauge named `name`, creating and registering it on first
/// use. Call sites should go through [`gauge!`], which caches the result.
pub fn register_gauge(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(g) = reg.gauges.iter().find(|g| g.name == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        value: AtomicI64::new(0),
    }));
    reg.gauges.push(g);
    g
}

/// Returns the histogram named `name`, creating and registering it on first
/// use. Call sites should go through [`histogram!`], which caches the result.
pub fn register_histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    if let Some(h) = reg.histograms.iter().find(|h| h.name == name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram {
        name,
        raw: RawHistogram::new(),
    }));
    reg.histograms.push(h);
    h
}

/// Resolves a [`Counter`] by name once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::register_counter($name))
    }};
}

/// Resolves a [`Gauge`] by name once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::register_gauge($name))
    }};
}

/// Resolves a [`Histogram`] by name once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::register_histogram($name))
    }};
}

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// Maximum observation ever recorded (not delta-adjustable; a delta
    /// keeps the later snapshot's max).
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 < q ≤ 1`),
    /// e.g. `quantile_bound(0.5)` ≈ median. Exact to within the log₂ bucket.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }

    /// The derived `(p50, p90, p99)` bucket bounds — the summary quantiles
    /// every latency surface reports.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile_bound(0.50),
            self.quantile_bound(0.90),
            self.quantile_bound(0.99),
        )
    }

    /// The cumulative bucket view: `(upper_bound, count ≤ upper_bound)`
    /// pairs for every nonempty prefix, ending with `(None, count)` for the
    /// unbounded tail (`+Inf` in Prometheus exposition). Bucket `i ≥ 1`
    /// holds `[2^(i-1), 2^i)`, so its inclusive upper bound is `2^i - 1`;
    /// bucket 0 holds exactly the value 0. Counts are monotone
    /// non-decreasing by construction.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let highest = self.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        let mut out = Vec::with_capacity(highest + 2);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate().take(highest + 1) {
            seen += b;
            let le = if i == 0 {
                0
            } else if i >= 64 {
                // The tail bucket has no finite bound; fold it into +Inf.
                break;
            } else {
                (1u64 << i) - 1
            };
            out.push((Some(le), seen));
        }
        out.push((None, self.count));
        out
    }
}

/// A point-in-time copy of every registered metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `name → value`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `name → level`, sorted by name. Instantaneous, not cumulative: a
    /// delta keeps the later snapshot's level.
    pub gauges: Vec<(String, i64)>,
    /// One entry per histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Counter-wise difference of two snapshots (see [`MetricsSnapshot::since`]).
pub type CounterDelta = Vec<(String, u64)>;

/// Histogram-wise difference of two snapshots.
pub type HistogramDelta = Vec<HistogramSnapshot>;

impl MetricsSnapshot {
    /// Metric-wise saturating difference since `earlier`. Metrics absent
    /// from `earlier` (registered in between) keep their full value.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let base: HashMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                (
                    n.clone(),
                    v.saturating_sub(base.get(n.as_str()).copied().unwrap_or(0)),
                )
            })
            .collect();
        let hbase: HashMap<&str, &HistogramSnapshot> = earlier
            .histograms
            .iter()
            .map(|h| (h.name.as_str(), h))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| match hbase.get(h.name.as_str()) {
                None => h.clone(),
                Some(b) => HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count.saturating_sub(b.count),
                    sum: h.sum.saturating_sub(b.sum),
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .zip(&b.buckets)
                        .map(|(a, b)| a.saturating_sub(*b))
                        .collect(),
                },
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// The value of counter `name` in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The level of gauge `name` in this snapshot (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Copies every registered metric.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry().lock().expect("metrics registry poisoned");
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|c| (c.name.to_owned(), c.get()))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, i64)> = reg
        .gauges
        .iter()
        .map(|g| (g.name.to_owned(), g.get()))
        .collect();
    gauges.sort();
    let mut histograms: Vec<HistogramSnapshot> =
        reg.histograms.iter().map(|h| h.snapshot()).collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Runs `f` and returns its result together with the metric deltas it
/// produced, holding a process-wide lock for the duration: for tests of
/// the registry itself — what an entry point recorded, what a server
/// exports.
///
/// The registry is process-global, so two tests that each "snapshot,
/// mutate, diff" can interleave and see each other's events. Within one
/// process two scoped sections never overlap, so each delta reflects
/// exactly the work of its own closure plus any *un*-scoped concurrent
/// recording. A test of the engine's work reads the tally the work was
/// counted in instead (`wdpt_model::ProbeTally`), which needs no window.
pub fn delta_scope<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    static SCOPE: Mutex<()> = Mutex::new(());
    // A panic inside an earlier scope poisons the mutex but leaves the
    // registry itself consistent; later scopes can proceed.
    let _serial = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    let before = metrics_snapshot();
    let out = f();
    let delta = metrics_snapshot().since(&before);
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let c1 = register_counter("test.metrics.alpha");
        let c2 = register_counter("test.metrics.alpha");
        assert!(std::ptr::eq(c1, c2));
        let before = c1.get();
        counter!("test.metrics.alpha").add(3);
        counter!("test.metrics.alpha").incr();
        assert_eq!(c1.get(), before + 4);
    }

    #[test]
    fn snapshot_since_subtracts_per_name() {
        let c = register_counter("test.metrics.delta");
        let before = metrics_snapshot();
        c.add(7);
        let delta = metrics_snapshot().since(&before);
        assert_eq!(delta.counter("test.metrics.delta"), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(RawHistogram::bucket_of(0), 0);
        assert_eq!(RawHistogram::bucket_of(1), 1);
        assert_eq!(RawHistogram::bucket_of(2), 2);
        assert_eq!(RawHistogram::bucket_of(3), 2);
        assert_eq!(RawHistogram::bucket_of(4), 3);
        assert_eq!(RawHistogram::bucket_of(u64::MAX), 64);
        let h = register_histogram("test.metrics.hist");
        let before = metrics_snapshot();
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        let d = metrics_snapshot().since(&before);
        let hs = d.histogram("test.metrics.hist").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1011);
        assert!(hs.max >= 1000);
        assert_eq!(hs.buckets[0], 1); // the 0
        assert_eq!(hs.buckets[1], 1); // the 1
        assert_eq!(hs.buckets[3], 2); // the 5s ∈ [4,8)
        assert!((hs.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn quantile_bound_walks_buckets() {
        let h = register_histogram("test.metrics.quant");
        let before = metrics_snapshot();
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(4096);
        }
        let d = metrics_snapshot().since(&before);
        let hs = d.histogram("test.metrics.quant").unwrap();
        assert_eq!(hs.quantile_bound(0.5), 4); // 2 ∈ [2,4)
        assert!(hs.quantile_bound(0.99) >= 4096);
    }

    #[test]
    fn metrics_aggregate_across_threads() {
        let c = register_counter("test.metrics.threads");
        let before = c.get();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter!("test.metrics.threads").incr();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, 4000);
    }
}
