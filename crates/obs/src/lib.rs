//! # obs — lock-free telemetry substrate
//!
//! A minimal, dependency-free metrics layer for the workspace: atomic
//! counters and gauges, log-linear (HDR-style) latency histograms with
//! exact-bucket percentiles, a registry that hands out shared handles, and
//! a [`MetricsSnapshot`] that renders to Prometheus text format.
//!
//! ## Histogram layout
//!
//! Values `0..32` get one exact bucket each. Every power-of-two range above
//! that is split into 32 linear sub-buckets ([`SUB_BUCKETS`]), so the
//! relative quantisation error is at most 1/32 (~3.1 %) across the whole
//! `u64` range. That fixes the bucket count at [`BUCKETS`] = 1920, which
//! keeps recording a single `fetch_add` with no allocation and makes merges
//! a bucket-wise sum — the standard production-database scheme for cheap,
//! mergeable p50/p90/p99.
//!
//! ```
//! use obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let hits = registry.counter("cache_hits_total", "cache hits");
//! let latency = registry.histogram("req_latency_us", "request latency (µs)");
//! hits.inc();
//! latency.record(250);
//! let snap = registry.snapshot();
//! assert!(snap.to_prometheus().contains("# TYPE cache_hits_total counter"));
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Linear sub-buckets per power-of-two range (and the number of exact
/// buckets at the bottom of the scale).
pub const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// Total bucket count: 32 exact buckets for `0..32`, then 32 sub-buckets for
/// each of the 59 power-of-two groups covering `32..=u64::MAX`.
pub const BUCKETS: usize = 1920;

/// Bucket index for a recorded value. Values below [`SUB_BUCKETS`] map to an
/// exact bucket; larger values map to one of 32 linear sub-buckets within
/// their power-of-two range.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let group = exp - SUB_BITS;
    let sub = (value >> group) - SUB_BUCKETS;
    SUB_BUCKETS as usize + group as usize * SUB_BUCKETS as usize + sub as usize
}

/// Inclusive `(lower, upper)` value bounds of a bucket index.
///
/// Every value `v` satisfies `lower <= v <= upper` for
/// `bucket_bounds(bucket_index(v))`.
#[inline]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < SUB_BUCKETS as usize {
        return (index as u64, index as u64);
    }
    let group = ((index - SUB_BUCKETS as usize) / SUB_BUCKETS as usize) as u32;
    let sub = ((index - SUB_BUCKETS as usize) % SUB_BUCKETS as usize) as u64;
    let lower = (SUB_BUCKETS + sub) << group;
    let upper = lower + ((1u64 << group) - 1);
    (lower, upper)
}

/// A lock-free log-linear histogram. Recording is wait-free (three
/// `fetch_add`s and a `fetch_max`); reads produce a [`HistogramSnapshot`].
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed); // lint-ok(atomic-ordering): independent monotone bucket counter; RMW atomicity prevents lost increments
        self.sum.fetch_add(value, Ordering::Relaxed); // lint-ok(atomic-ordering): monotone sum; snapshots tolerate a sum/bucket skew of in-flight records
        self.max.fetch_max(value, Ordering::Relaxed); // lint-ok(atomic-ordering): fetch_max is order-insensitive — the high-water mark converges regardless
    }

    /// Point-in-time copy of all buckets. The observation count is derived
    /// from the bucket counts themselves so a snapshot is always internally
    /// coherent (`count == counts.iter().sum()`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // lint-ok(atomic-ordering): snapshot derives count from these same loads, so it is internally coherent
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed), // lint-ok(atomic-ordering): telemetry snapshot; may trail in-flight records by design
            max: self.max.load(Ordering::Relaxed), // lint-ok(atomic-ordering): telemetry snapshot; may trail in-flight records by design
        }
    }
}

/// Immutable view of a histogram at one point in time. Supports exact-bucket
/// percentiles and lossless merging with other snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values. 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the ceil-rank observation, clamped to the exact tracked
    /// maximum. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Folds another snapshot into this one. Bucket-wise addition is
    /// lossless: a merged snapshot is identical to recording both streams
    /// into a single histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A monotonically increasing counter handle. Cloning shares the underlying
/// atomic.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed); // lint-ok(atomic-ordering): monotone counter; RMW atomicity prevents lost increments, no decision reads it
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // lint-ok(atomic-ordering): monotone counter; RMW atomicity prevents lost increments, no decision reads it
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // lint-ok(atomic-ordering): scrape-time read of telemetry; staleness is acceptable
    }
}

/// A gauge handle: a value that can move in both directions. Cloning shares
/// the underlying atomic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (useful in tests).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed); // lint-ok(atomic-ordering): last-writer-wins gauge; readers are scrape-time only
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed); // lint-ok(atomic-ordering): gauge delta; RMW atomicity prevents lost updates, readers are scrape-time only
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed); // lint-ok(atomic-ordering): fetch_max is order-insensitive — the high-water mark converges regardless
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) // lint-ok(atomic-ordering): scrape-time read of telemetry; staleness is acceptable
    }
}

/// A histogram handle. Cloning shares the underlying buckets.
#[derive(Clone)]
pub struct Histogram(Arc<AtomicHistogram>);

impl Histogram {
    /// A histogram not attached to any registry (useful in tests).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicHistogram::new()))
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    label: Option<(String, String)>,
    help: String,
    instrument: Instrument,
}

/// A registry of named instruments. Registration takes a short lock;
/// recording through the returned handles is lock-free. Registering the same
/// `(name, label)` twice returns a handle to the same underlying instrument;
/// re-registering a name with a different instrument kind panics.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        make: impl FnOnce() -> (T, Instrument),
        get: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if e.name == name && e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label {
                return get(&e.instrument).unwrap_or_else(|| {
                    // lint-ok(panic-freedom): registration-time type conflict is a programming error caught in tests, not a query path
                    panic!(
                        "metric `{name}` already registered as a {}",
                        e.instrument.kind()
                    )
                });
            }
        }
        let (handle, instrument) = make();
        entries.push(Entry {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            help: help.to_string(),
            instrument,
        });
        handle
    }

    /// Gets or registers an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.register(
            name,
            None,
            help,
            || {
                let c = Counter::detached();
                (c.clone(), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers a counter carrying one `key="value"` label pair.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str, help: &str) -> Counter {
        self.register(
            name,
            Some((key, value)),
            help,
            || {
                let c = Counter::detached();
                (c.clone(), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.register(
            name,
            None,
            help,
            || {
                let g = Gauge::detached();
                (g.clone(), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers a gauge carrying one `key="value"` label pair.
    pub fn gauge_labeled(&self, name: &str, key: &str, value: &str, help: &str) -> Gauge {
        self.register(
            name,
            Some((key, value)),
            help,
            || {
                let g = Gauge::detached();
                (g.clone(), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.register(
            name,
            None,
            help,
            || {
                let h = Histogram::detached();
                (h.clone(), Instrument::Histogram(h))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers a histogram carrying one `key="value"` label pair.
    pub fn histogram_labeled(&self, name: &str, key: &str, value: &str, help: &str) -> Histogram {
        self.register(
            name,
            Some((key, value)),
            help,
            || {
                let h = Histogram::detached();
                (h.clone(), Instrument::Histogram(h))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Point-in-time copy of every registered instrument, in registration
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap();
        MetricsSnapshot {
            samples: entries
                .iter()
                .map(|e| MetricSample {
                    name: e.name.clone(),
                    label: e.label.clone(),
                    help: e.help.clone(),
                    value: match &e.instrument {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// The value of one metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric (name + optional label pair + value) inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name (Prometheus-style, e.g. `sgq_queries_total`).
    pub name: String,
    /// Optional single `(key, value)` label pair.
    pub label: Option<(String, String)>,
    /// Help text emitted as `# HELP`.
    pub help: String,
    /// The recorded value.
    pub value: MetricValue,
}

/// Point-in-time view of a registry, renderable as Prometheus text format.
/// Snapshots from several registries (e.g. a service and its scheduler) can
/// be combined with [`MetricsSnapshot::extend`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All samples, in registration order.
    pub samples: Vec<MetricSample>,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes `# HELP` text per the exposition format: only `\` and newline
/// (quotes stay literal — help text is not quoted). Help strings were all
/// static literals until the serving tier; now anything reaching a snapshot
/// must render to a single well-formed line.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn label_block(label: &Option<(String, String)>, extra: Option<(&str, &str)>) -> String {
    let mut pairs = Vec::new();
    if let Some((k, v)) = label {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl MetricsSnapshot {
    /// Appends all samples from another snapshot.
    pub fn extend(&mut self, other: MetricsSnapshot) {
        self.samples.extend(other.samples);
    }

    /// First sample with the given name (any label).
    pub fn find(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Sample with the given name and exact label pair.
    pub fn find_labeled(&self, name: &str, key: &str, value: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == Some((key, value))
        })
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Histograms are rendered as `summary` metrics with `quantile` labels
    /// 0.5 / 0.9 / 0.99 / 1 (the exact max) plus `_sum` and `_count` series
    /// — a full 1920-bucket `_bucket` dump would dwarf the payload for no
    /// scrape-side benefit. `# HELP` / `# TYPE` headers are emitted once per
    /// metric name even when several labeled variants share it.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                let kind = match &s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                out.push_str(&format!("# HELP {} {}\n", s.name, escape_help(&s.help)));
                out.push_str(&format!("# TYPE {} {}\n", s.name, kind));
                // Emit every variant of this name right after its header.
                for v in self.samples.iter().filter(|v| v.name == s.name) {
                    Self::render_prometheus_sample(&mut out, v);
                }
            }
        }
        out
    }

    fn render_prometheus_sample(out: &mut String, s: &MetricSample) {
        match &s.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.label, None),
                    v
                ));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.label, None),
                    v
                ));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [
                    ("0.5", h.p50()),
                    ("0.9", h.p90()),
                    ("0.99", h.p99()),
                    ("1", h.max()),
                ] {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.label, Some(("quantile", q))),
                        v
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    label_block(&s.label, None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    s.name,
                    label_block(&s.label, None),
                    h.count()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_edges_bracket_their_values() {
        for v in [
            32u64,
            33,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn buckets_tile_the_range_contiguously() {
        let mut expected_lower = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lower, "gap or overlap before bucket {i}");
            assert!(hi >= lo);
            if i + 1 < BUCKETS {
                expected_lower = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 1/32 for all log-linear buckets.
        for i in SUB_BUCKETS as usize..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = hi - lo;
            assert!(
                (width as f64) / (lo as f64) <= 1.0 / 32.0,
                "bucket {i} too wide: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let h = AtomicHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.max(), 100);
        // Values 1..=100; buckets are exact below 32 and ~3% wide above.
        assert_eq!(s.p50(), 50);
        assert!(s.p90() >= 90 && s.p90() <= 93, "p90 = {}", s.p90());
        assert!(s.p99() >= 99 && s.p99() <= 100, "p99 = {}", s.p99());
        assert_eq!(s.percentile(1.0), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn single_value_pins_every_percentile() {
        let h = Histogram::detached();
        h.record(1_000_000);
        let s = h.snapshot();
        // The bucket is ~3% wide but percentile clamps to the exact max.
        assert_eq!(s.p50(), 1_000_000);
        assert_eq!(s.p99(), 1_000_000);
        assert_eq!(s.max(), 1_000_000);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("hits", "hits");
        let b = r.counter("hits", "hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().samples.len(), 1);

        let g1 = r.gauge_labeled("depth", "queue", "normal", "queue depth");
        let g2 = r.gauge_labeled("depth", "queue", "low", "queue depth");
        g1.set(5);
        g2.set(7);
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(
            snap.find_labeled("depth", "queue", "low").map(|s| &s.value),
            Some(&MetricValue::Gauge(7))
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x", "");
        let _ = r.gauge("x", "");
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let g = Gauge::detached();
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = MetricsRegistry::new();
        r.counter("sgq_queries_total", "queries served").add(42);
        r.gauge("sgq_epoch", "published epoch").set(3);
        let h = r.histogram("sgq_latency_us", "latency");
        h.record(100);
        h.record(200);
        let lo = r.histogram_labeled("sgq_sched_latency_us", "priority", "low", "sched latency");
        lo.record(9);
        let hi = r.histogram_labeled("sgq_sched_latency_us", "priority", "high", "sched latency");
        hi.record(1);

        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE sgq_queries_total counter\n"));
        assert!(text.contains("sgq_queries_total 42\n"));
        assert!(text.contains("# TYPE sgq_epoch gauge\n"));
        assert!(text.contains("sgq_epoch 3\n"));
        assert!(text.contains("# TYPE sgq_latency_us summary\n"));
        // 100 lands in the log-linear bucket [100, 101]; quantiles report
        // the bucket upper bound (clamped to the exact max for the tail).
        assert!(text.contains("sgq_latency_us{quantile=\"0.5\"} 101\n"));
        assert!(text.contains("sgq_latency_us{quantile=\"1\"} 200\n"));
        assert!(text.contains("sgq_latency_us_sum 300\n"));
        assert!(text.contains("sgq_latency_us_count 2\n"));
        assert!(text.contains("sgq_sched_latency_us{priority=\"low\",quantile=\"0.5\"} 9\n"));
        assert!(text.contains("sgq_sched_latency_us{priority=\"high\",quantile=\"0.5\"} 1\n"));
        // HELP/TYPE once per name even with two labeled variants.
        assert_eq!(
            text.matches("# TYPE sgq_sched_latency_us summary").count(),
            1
        );
        // Every non-comment line belongs to a `# TYPE`-declared family.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name.trim_end_matches("_sum").trim_end_matches("_count");
            assert!(
                text.contains(&format!("# TYPE {base} ")),
                "no TYPE header for {line}"
            );
        }
    }

    #[test]
    fn prometheus_escapes_hostile_label_values_and_help() {
        // Regression for the serving tier: label values and help text can
        // now be peer/endpoint-derived, so quotes, backslashes, and
        // newlines must render per the exposition format instead of
        // corrupting the scrape line structure.
        let r = MetricsRegistry::new();
        r.counter_labeled(
            "srv_requests_total",
            "peer",
            "10.0.0.1 \"spoof\" \\ line\nbreak",
            "per-peer requests",
        )
        .inc();
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("peer=\"10.0.0.1 \\\"spoof\\\" \\\\ line\\nbreak\""),
            "{text}"
        );

        let r = MetricsRegistry::new();
        let _ = r.gauge("srv_info", "addr of listener\nsecond \\ line");
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("# HELP srv_info addr of listener\\nsecond \\\\ line\n"),
            "{text}"
        );
        // No raw newline may split a HELP header across scrape lines.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("srv_info"),
                "stray line {line:?} in {text}"
            );
        }
    }

    #[test]
    fn snapshots_extend_across_registries() {
        let service = MetricsRegistry::new();
        service.counter("a_total", "").inc();
        let sched = MetricsRegistry::new();
        sched.counter("b_total", "").inc();
        let mut snap = service.snapshot();
        snap.extend(sched.snapshot());
        assert!(snap.find("a_total").is_some());
        assert!(snap.find("b_total").is_some());
        assert_eq!(snap.samples.len(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::detached();
        let c = Counter::detached();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.max(), 39_999);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every recorded value lands in a bucket whose bounds bracket it.
            #[test]
            fn recorded_values_are_bracketed(v in 0u64..=u64::MAX) {
                let i = bucket_index(v);
                prop_assert!(i < BUCKETS);
                let (lo, hi) = bucket_bounds(i);
                prop_assert!(lo <= v && v <= hi);
            }

            /// Merging two snapshots is identical to recording both value
            /// streams into a single histogram.
            #[test]
            fn merge_equals_single_histogram(
                a in proptest::collection::vec(0u64..2_000_000, 0..64),
                b in proptest::collection::vec(0u64..2_000_000, 0..64),
            ) {
                let ha = AtomicHistogram::new();
                let hb = AtomicHistogram::new();
                let hall = AtomicHistogram::new();
                for &v in &a {
                    ha.record(v);
                    hall.record(v);
                }
                for &v in &b {
                    hb.record(v);
                    hall.record(v);
                }
                let mut merged = ha.snapshot();
                merged.merge(&hb.snapshot());
                prop_assert_eq!(merged, hall.snapshot());
            }

            /// p50 <= p90 <= p99 <= max on arbitrary data, and every
            /// percentile is bracketed by the recorded extremes.
            #[test]
            fn percentiles_are_monotone(
                values in proptest::collection::vec(0u64..=u64::MAX - 1, 1..128),
            ) {
                let h = AtomicHistogram::new();
                for &v in &values {
                    h.record(v);
                }
                let s = h.snapshot();
                let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
                prop_assert!(p50 <= p90);
                prop_assert!(p90 <= p99);
                prop_assert!(p99 <= s.max());
                let lo = *values.iter().min().unwrap();
                prop_assert!(p50 >= lo, "p50 {} below min {}", p50, lo);
                prop_assert_eq!(s.max(), *values.iter().max().unwrap());
            }
        }
    }
}
