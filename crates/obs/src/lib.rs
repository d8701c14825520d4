//! Hand-rolled observability layer for the PropHunt suite.
//!
//! The crate provides a [`Registry`] of three typed instrument classes —
//! monotonic [`Counter`]s, last/max [`Gauge`]s and log2-bucketed
//! [`Histogram`]s. Every instrument is a named `Arc<AtomicU64>`-backed cell:
//! acquiring a handle takes a registry lock once, after which recording is a
//! single relaxed atomic op, safe to share across the deterministic worker
//! pool.
//!
//! The [`Obs`] wrapper is the form the rest of the workspace threads around:
//! a cloneable `Option<Arc<Registry>>` whose disabled state (the default)
//! turns every recording call into a branch on a `None` — instrumentation is
//! strictly out-of-band of the splitmix64 seed streams and costs near zero
//! when no registry is attached.
//!
//! # Timed regions
//!
//! [`Obs::span`] (and [`Obs::timer`] for regions opened in a hot loop) is the
//! one way a region is timed: a [`Span`] records its nanoseconds into the
//! histogram `<name>.ns` and, when a [`Tracer`] is attached, one trace span
//! `name` with the same start and end. With both attached, every span `X` in
//! a trace therefore has a histogram `X.ns` with one observation per event.
//!
//! # Determinism contract
//!
//! Counters are reserved for *deterministic* quantities: at a fixed
//! `(seed, chunk_size)` every counter must be bit-identical at any thread
//! count. Timings, occupancy and anything else thread-dependent must go to
//! gauges or histograms instead; [`Snapshot`] keeps the classes separate so
//! exporters can byte-compare the deterministic subset on its own.
//!
//! # Histogram buckets
//!
//! Histograms have [`HISTOGRAM_BUCKETS`] (65) fixed log2 buckets: bucket 0
//! holds exactly the value 0, and bucket `b >= 1` holds the values in
//! `[2^(b-1), 2^b - 1]` (bucket 64 is capped at `u64::MAX`). Bucket counts
//! plus a running sum are enough for p50/p90/p99 estimates to within a factor
//! of two, which is the resolution the report analyzer needs.

#![forbid(unsafe_code)]

mod trace;

pub use trace::{
    TraceEvent, TraceKind, TraceLog, TraceSpan, Tracer, WorkerScope, DIAG_CATEGORY, LOCAL_FLUSH,
    MAX_EVENTS,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of fixed log2 buckets in every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, `64 - leading_zeros` otherwise.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value in bucket `bucket` (0 for bucket 0, else `2^(bucket-1)`).
#[must_use]
pub fn bucket_lower(bucket: usize) -> u64 {
    assert!(bucket < HISTOGRAM_BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// Largest value in bucket `bucket` (0 for bucket 0, else `2^bucket - 1`,
/// saturating to `u64::MAX` for the final bucket).
#[must_use]
pub fn bucket_upper(bucket: usize) -> u64 {
    assert!(bucket < HISTOGRAM_BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        0
    } else if bucket == HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A [`Duration`] as whole nanoseconds, saturating at `u64::MAX` (~584 years).
#[must_use]
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Handle to a named monotonic counter. Cloning shares the same cell.
///
/// Counters carry the deterministic half of the observability contract: only
/// record quantities that are bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping, relaxed).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named gauge: a last-written or running-max `u64` cell.
///
/// Gauges live on the non-deterministic side of the contract (occupancy,
/// peak sizes) and are excluded from byte-compared exports.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the gauge with `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger than the current value.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Handle to a named log2-bucketed histogram. Cloning shares the same cells.
///
/// Histograms carry timings and other thread-dependent distributions; see the
/// crate docs for the bucket layout.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation of `v`.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0u64;
        let mut buckets = Vec::new();
        for (b, cell) in self.0.buckets.iter().enumerate() {
            let c = cell.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                buckets.push((b, c));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of one histogram: total count, running sum, and the
/// non-empty `(bucket_index, count)` pairs in ascending bucket order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded observations.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`. Returns 0 for an
    /// empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(self.buckets.last().map_or(0, |&(b, _)| b))
    }

    /// Mean of the recorded values (exact — uses the running sum), or 0.0 for
    /// an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of every instrument in a [`Registry`], each class
/// sorted by instrument name.
///
/// `counters` is the deterministic subset; `gauges` and `histograms` hold the
/// timing/occupancy side and are expected to vary run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of the named counter, or 0 if it was never created.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Snapshot of the named histogram, if it was ever created.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Named-instrument registry: the shared sink every instrumented layer
/// records into.
///
/// Instruments are created on first use and live for the registry's lifetime.
/// Handle acquisition takes a read lock (write lock only on first creation);
/// recording through a handle is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(cell) = map.read().expect("obs registry lock poisoned").get(name) {
        return cell.clone();
    }
    map.write()
        .expect("obs registry lock poisoned")
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Handle to the named counter, creating it at 0 on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(get_or_create(&self.counters, name))
    }

    /// Handle to the named gauge, creating it at 0 on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(get_or_create(&self.gauges, name))
    }

    /// Handle to the named histogram, creating it empty on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(get_or_create(&self.histograms, name))
    }

    /// Name-sorted point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("obs registry lock poisoned")
            .iter()
            .map(|(n, h)| (n.clone(), Histogram(h.clone()).snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The cloneable observability handle threaded through runtime, session, the
/// LER engine and search: either an attached shared [`Registry`] or disabled.
///
/// The default is disabled; every recording method then reduces to a branch
/// on `None`. Handles ([`Obs::counter`] etc.) come back as `Option`s so hot
/// loops can hoist the registry lookup out of the loop and skip timing work
/// entirely when disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
    tracer: Option<Tracer>,
}

impl Obs {
    /// A disabled handle: every recording call is a no-op.
    #[must_use]
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// An enabled handle backed by a fresh registry.
    #[must_use]
    pub fn enabled() -> Obs {
        Obs::with_registry(Arc::new(Registry::new()))
    }

    /// An enabled handle sharing the given registry.
    #[must_use]
    pub fn with_registry(registry: Arc<Registry>) -> Obs {
        Obs {
            registry: Some(registry),
            tracer: None,
        }
    }

    /// Returns the handle with a [`Tracer`] attached (builder-style). Every
    /// clone shares the tracer's sink, so one [`Obs::tracer`]`.drain()`
    /// collects events from every instrumented layer. Tracing composes with
    /// either registry state: a registry-less handle with a tracer records
    /// trace events and nothing else.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Obs {
        self.tracer = Some(tracer);
        self
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Whether a tracer is attached.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if any. Instrumented layers hoist this once
    /// (`obs.tracer().cloned()`) so the disabled path is a single `None`
    /// branch.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Counter handle, or `None` when disabled.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<Counter> {
        self.registry.as_ref().map(|r| r.counter(name))
    }

    /// Gauge handle, or `None` when disabled.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.registry.as_ref().map(|r| r.gauge(name))
    }

    /// Histogram handle, or `None` when disabled.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.registry.as_ref().map(|r| r.histogram(name))
    }

    /// Adds 1 to the named counter (no-op when disabled).
    pub fn inc(&self, name: &str) {
        if let Some(r) = &self.registry {
            r.counter(name).inc();
        }
    }

    /// Adds `n` to the named counter (no-op when disabled).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.counter(name).add(n);
        }
    }

    /// Raises the named gauge to at least `v` (no-op when disabled).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if let Some(r) = &self.registry {
            r.gauge(name).record_max(v);
        }
    }

    /// Records `v` into the named histogram (no-op when disabled).
    pub fn record(&self, name: &str, v: u64) {
        if let Some(r) = &self.registry {
            r.histogram(name).record(v);
        }
    }

    /// Opens a timed region `name` (trace category `cat`): on
    /// [`Span::finish`] or drop it records its nanoseconds into the histogram
    /// `<name>.ns` when a registry is attached, and one trace span `name` when
    /// a tracer is attached. The span measures wall time even when both are
    /// off — [`Span::finish`] still returns the elapsed duration — so callers
    /// report timing fields and export instruments through one code path.
    #[must_use]
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span {
        self.timer(name, cat).open(None)
    }

    /// A [`Span`] factory for a region opened many times (a pool task, a
    /// kernel stage): the `<name>.ns` histogram is looked up once here, and
    /// [`Timer::start`] reads no clock when both planes are off.
    #[must_use]
    pub fn timer(&self, name: &'static str, cat: &'static str) -> Timer {
        Timer {
            name,
            cat,
            hist: self
                .registry
                .as_ref()
                .map(|r| r.histogram(&format!("{name}.ns"))),
            tracer: self.tracer.clone(),
        }
    }

    /// Snapshot of the attached registry, or `None` when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(|r| r.snapshot())
    }
}

/// One timed region, hoisted out of a hot loop: from [`Obs::timer`].
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    cat: &'static str,
    hist: Option<Histogram>,
    tracer: Option<Tracer>,
}

impl Timer {
    /// Opens a span parented (in the trace) to the current thread's innermost
    /// open span, or `None` when neither a registry nor a tracer is attached.
    #[must_use]
    pub fn start(&self) -> Option<Span> {
        self.is_on().then(|| self.open(None))
    }

    /// As [`Timer::start`], with an explicit trace parent id (0 = none): the
    /// cross-thread form that parents worker-side spans under [`Span::id`].
    #[must_use]
    pub fn start_child_of(&self, parent: u64) -> Option<Span> {
        self.is_on().then(|| self.open(Some(parent)))
    }

    fn is_on(&self) -> bool {
        self.hist.is_some() || self.tracer.is_some()
    }

    fn open(&self, parent: Option<u64>) -> Span {
        let start = Instant::now();
        Span {
            hist: self.hist.clone(),
            trace: self
                .tracer
                .as_ref()
                .map(|t| t.open(self.name, self.cat, parent, start)),
            start,
        }
    }
}

/// An open timed region from [`Obs::span`] or a [`Timer`]: records both
/// planes — histogram and trace span — exactly once, on [`Span::finish`] or
/// on drop, with the same start and end instants.
#[derive(Debug)]
pub struct Span {
    hist: Option<Histogram>,
    trace: Option<TraceSpan>,
    start: Instant,
}

impl Span {
    /// Attaches a named `u64` argument to the trace span (no-op without a
    /// tracer).
    pub fn arg(&mut self, key: &str, value: u64) {
        if let Some(trace) = &mut self.trace {
            trace.arg(key, value);
        }
    }

    /// The trace span's id, for parenting spans on other threads (0 without a
    /// tracer).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceSpan::id)
    }

    /// Elapsed wall time so far, without ending the span.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span, records it, and returns the elapsed wall time.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let end = Instant::now();
        let elapsed = end.saturating_duration_since(self.start);
        if let Some(h) = self.hist.take() {
            h.record(duration_ns(elapsed));
        }
        if let Some(trace) = self.trace.take() {
            trace.finish_at(end);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.hist.is_some() || self.trace.is_some() {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn gauges_set_and_record_max() {
        let reg = Registry::new();
        let g = reg.gauge("workers");
        g.set(3);
        g.record_max(2);
        assert_eq!(g.get(), 3);
        g.record_max(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_math_covers_the_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_lower(1), 1);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_lower(64), 1u64 << 63);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_counts_sums_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("ns");
        for v in [0u64, 1, 1, 3, 100] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("ns").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 105);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (2, 1), (7, 1)]);
        assert_eq!(hs.quantile(0.0), 0);
        // rank ceil(0.5 * 5) = 3 lands in bucket 1 (values 1..=1).
        assert_eq!(hs.quantile(0.5), 1);
        assert_eq!(hs.quantile(1.0), bucket_upper(7));
        assert!((hs.mean() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let hs = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(hs.quantile(0.5), 0);
        assert_eq!(hs.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted_and_class_separated() {
        let reg = Registry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(2);
        reg.gauge("z.peak").set(9);
        reg.histogram("m.ns").record(10);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.count".to_string(), 2), ("b.count".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("z.peak".to_string(), 9)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("a.count"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn disabled_obs_is_a_no_op_and_spans_still_measure() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.inc("never");
        obs.record("never.ns", 1);
        assert!(obs.counter("never").is_none());
        assert!(obs.snapshot().is_none());
        let mut span = obs.span("never", "test");
        span.arg("k", 1);
        assert_eq!(span.id(), 0);
        let wall = span.finish();
        assert!(wall.as_nanos() > 0 || wall.is_zero());
    }

    #[test]
    fn a_timer_starts_nothing_when_both_planes_are_off() {
        let timer = Obs::disabled().timer("hot", "test");
        assert!(timer.start().is_none());
        assert!(timer.start_child_of(7).is_none());
        // Either plane alone turns the timer on.
        assert!(Obs::enabled().timer("hot", "test").start().is_some());
        let traced = Obs::disabled().with_tracer(Tracer::new());
        assert!(traced.timer("hot", "test").start().is_some());
    }

    #[test]
    fn spans_record_once_on_finish_or_drop() {
        let obs = Obs::enabled();
        let wall = obs.span("work", "test").finish();
        {
            let _guard = obs.span("work", "test");
        }
        let timer = obs.timer("work", "test");
        drop(timer.start());
        let snap = obs.snapshot().unwrap();
        let hs = snap.histogram("work.ns").unwrap();
        assert_eq!(hs.count, 3);
        assert!(wall.as_nanos() <= u128::from(u64::MAX));
    }

    #[test]
    fn one_span_records_the_histogram_and_the_trace_together() {
        let tracer = Tracer::new();
        let obs = Obs::enabled().with_tracer(tracer.clone());
        let mut outer = obs.span("job", "test");
        outer.arg("items", 3);
        let outer_id = outer.id();
        assert_ne!(outer_id, 0);
        let timer = obs.timer("task", "test");
        // Implicit parent: the innermost open span on this thread.
        timer.start().unwrap().finish();
        // Explicit parent: the cross-thread form.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The lane guard flushes this thread's events before the join.
                let _lane = tracer.worker_scope(1);
                let mut span = timer.start_child_of(outer_id).unwrap();
                span.arg("worker", 1);
            });
        });
        let wall = outer.finish();
        let snap = obs.snapshot().unwrap();
        let log = tracer.drain();
        let job = log.events.iter().find(|e| e.name == "job").unwrap();
        assert_eq!((job.cat.as_str(), job.id), ("test", outer_id));
        assert_eq!(job.args, vec![("items".to_string(), 3)]);
        // Both planes saw the same interval.
        assert_eq!(job.dur_ns, duration_ns(wall));
        assert_eq!(snap.histogram("job.ns").unwrap().sum, job.dur_ns);
        let tasks: Vec<_> = log.events.iter().filter(|e| e.name == "task").collect();
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|e| e.parent == outer_id && e.id != 0));
        assert!(tasks
            .iter()
            .any(|e| e.args == vec![("worker".to_string(), 1)]));
        assert_eq!(snap.histogram("task.ns").unwrap().count, 2);
    }

    #[test]
    fn tracer_rides_the_obs_handle_and_composes_with_either_registry_state() {
        let plain = Obs::disabled();
        assert!(!plain.trace_enabled());
        let traced = Obs::disabled().with_tracer(Tracer::new());
        assert!(traced.trace_enabled() && !traced.is_enabled());
        let clone = traced.clone();
        clone.span("work", "test").finish();
        let log = traced.tracer().unwrap().drain();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].name, "work");
        // Registry + tracer on one handle: both planes record.
        let both = Obs::enabled().with_tracer(Tracer::new());
        both.inc("jobs");
        both.span("job", "test").finish();
        assert_eq!(both.snapshot().unwrap().counter("jobs"), 1);
        assert_eq!(both.tracer().unwrap().drain().events.len(), 1);
    }

    #[test]
    fn shared_registry_obs_handles_record_into_the_same_instruments() {
        let reg = Arc::new(Registry::new());
        let a = Obs::with_registry(reg.clone());
        let b = a.clone();
        a.inc("jobs");
        b.inc("jobs");
        assert_eq!(reg.counter("jobs").get(), 2);
    }
}
