//! Concurrent metrics registry: named counters, gauges, and fixed-bucket
//! histograms. Handles are cheap `Arc` clones of the registered metric, so
//! hot paths can cache one in a `OnceLock` and skip the registry lookup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing event tally.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Strictly increasing upper bounds; an implicit `+inf` bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; `buckets[i]` counts `v <= bounds[i]`
    /// (with `v > bounds[i-1]`), the last bucket counts the overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
    /// Largest finite value observed so far as `f64` bits (CAS-max);
    /// `f64::NEG_INFINITY` bits while empty. Lets quantile queries that
    /// land in the overflow bucket report a finite estimate instead of
    /// `+inf` (which the JSON sink would silently turn into `null`).
    max_bits: AtomicU64,
}

/// Fixed-bucket histogram with quantile queries.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

/// Default bucket ladder: a 1–2.5–5 progression from 1e-6 to 1e4 — wide
/// enough for both sub-millisecond timings (seconds) and batch-scale
/// counts.
pub fn default_bounds() -> Vec<f64> {
    let mut out = Vec::new();
    let mut decade = 1e-6;
    while decade < 1e5 {
        for m in [1.0, 2.5, 5.0] {
            out.push(decade * m);
        }
        decade *= 10.0;
    }
    out
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    pub fn observe(&self, v: f64) {
        let i = self.0.bounds.partition_point(|&b| v > b);
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if v.is_finite() {
            let mut cur = self.0.max_bits.load(Ordering::Relaxed);
            while v > f64::from_bits(cur) {
                match self.0.max_bits.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Largest finite value observed since creation/reset, if any.
    pub fn max_observed(&self) -> Option<f64> {
        let m = f64::from_bits(self.0.max_bits.load(Ordering::Relaxed));
        (m > f64::NEG_INFINITY).then_some(m)
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// The q-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// containing it — the standard fixed-bucket estimate. Returns 0 for an
    /// empty histogram. A quantile landing in the overflow bucket is
    /// clamped to the largest value observed (falling back to the largest
    /// finite bucket bound) so the estimate stays finite: downstream JSON
    /// sinks encode non-finite floats as `null`, which used to silently
    /// wipe p99 from events, manifests, and `/runs` whenever a single
    /// sample exceeded the bucket ladder.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return match self.0.bounds.get(i) {
                    Some(&bound) => bound,
                    None => self.overflow_estimate(),
                };
            }
        }
        self.overflow_estimate()
    }

    /// Finite stand-in for "above every bucket bound": the max observed
    /// value when one is known, else the largest finite bound.
    fn overflow_estimate(&self) -> f64 {
        let top = *self.0.bounds.last().expect("histogram has bounds");
        match self.max_observed() {
            Some(m) => m.max(top),
            None => top,
        }
    }

    /// `(upper_bound, count)` per bucket; the overflow bucket reports
    /// `+inf` as its bound.
    pub fn bucket_counts(&self) -> Vec<(f64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY),
                    b.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.0
            .max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

static COUNTERS: Mutex<BTreeMap<String, Counter>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, Gauge>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Get or register `name` in `map`. The metric is built only when it is
/// registered, and looking up a registered name allocates nothing.
fn get_or_register<T: Clone>(
    map: &Mutex<BTreeMap<String, T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    let mut m = lock(map);
    if let Some(metric) = m.get(name) {
        return metric.clone();
    }
    let metric = make();
    m.insert(name.to_string(), metric.clone());
    metric
}

/// Get or register the counter `name`.
pub fn counter(name: &str) -> Counter {
    get_or_register(&COUNTERS, name, Counter::default)
}

/// Get or register the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    get_or_register(&GAUGES, name, Gauge::default)
}

/// Get or register the histogram `name` with [`default_bounds`].
pub fn histogram(name: &str) -> Histogram {
    get_or_register(&HISTOGRAMS, name, || Histogram::new(&default_bounds()))
}

/// Get or register the histogram `name` with explicit bucket upper bounds
/// (strictly increasing). Bounds of an already-registered histogram win.
pub fn histogram_with(name: &str, bounds: &[f64]) -> Histogram {
    get_or_register(&HISTOGRAMS, name, || Histogram::new(bounds))
}

/// A metric handle for a `static` on a hot path: resolved from the
/// registry by `resolve(name)` on first use, then cached. It registers
/// exactly when a by-name lookup at the same place would have, so
/// `/metrics` shows the same metrics, and costs no lookup afterwards.
///
/// ```
/// use rckt_obs::{counter, Counter, LazyMetric};
/// static SERVED: LazyMetric<Counter> = LazyMetric::new("doc.lazy.served", counter);
/// SERVED.incr();
/// assert_eq!(counter("doc.lazy.served").get(), 1);
/// ```
pub struct LazyMetric<T> {
    name: &'static str,
    resolve: fn(&str) -> T,
    handle: OnceLock<T>,
}

impl<T> LazyMetric<T> {
    pub const fn new(name: &'static str, resolve: fn(&str) -> T) -> Self {
        LazyMetric {
            name,
            resolve,
            handle: OnceLock::new(),
        }
    }
}

impl<T> std::ops::Deref for LazyMetric<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.handle.get_or_init(|| (self.resolve)(self.name))
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(upper_bound, count)` per bucket, overflow bound `+inf` — the raw
    /// (non-cumulative) counts from [`Histogram::bucket_counts`].
    pub buckets: Vec<(f64, u64)>,
}

/// Point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSummary>,
}

impl MetricsSnapshot {
    /// The snapshot as one JSON object — the `metrics` section of a
    /// postmortem bundle. Counters and gauges become name→value maps;
    /// histograms keep their quantile summary and raw bucket counts.
    pub fn to_json(&self) -> String {
        let mut counters = crate::json::Obj::new();
        for (name, v) in &self.counters {
            counters.field(name, v);
        }
        let mut gauges = crate::json::Obj::new();
        for (name, v) in &self.gauges {
            gauges.field(name, v);
        }
        let histograms = crate::json::array(self.histograms.iter().map(|h| {
            let buckets =
                crate::json::array(h.buckets.iter().map(|(bound, count)| {
                    format!("[{},{}]", crate::json::to_string(bound), count)
                }));
            let mut o = crate::json::Obj::new();
            o.field("name", &h.name)
                .field("count", &h.count)
                .field("sum", &h.sum)
                .field("mean", &h.mean)
                .field("p50", &h.p50)
                .field("p90", &h.p90)
                .field("p99", &h.p99)
                .raw("buckets", &buckets);
            o.finish()
        }));
        let mut out = crate::json::Obj::new();
        out.raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms);
        out.finish()
    }
}

pub fn metrics_snapshot() -> MetricsSnapshot {
    let counters = lock(&COUNTERS)
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect();
    let gauges = lock(&GAUGES)
        .iter()
        .map(|(k, g)| (k.clone(), g.get()))
        .collect();
    let histograms = lock(&HISTOGRAMS)
        .iter()
        .map(|(k, h)| HistogramSummary {
            name: k.clone(),
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            buckets: h.bucket_counts(),
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zero every registered metric **in place** — existing handles stay valid
/// and keep pointing at the same metric.
pub fn reset_metrics() {
    for c in lock(&COUNTERS).values() {
        c.reset();
    }
    for g in lock(&GAUGES).values() {
        g.reset();
    }
    for h in lock(&HISTOGRAMS).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_handles_alias() {
        let a = counter("test.metrics.counter_alias");
        let b = counter("test.metrics.counter_alias");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = gauge("test.metrics.gauge");
        g.set(1.5);
        g.set(-2.0);
        assert_eq!(gauge("test.metrics.gauge").get(), -2.0);
    }

    #[test]
    fn histogram_bucketing_boundaries() {
        let h = histogram_with("test.metrics.hist_edges", &[1.0, 2.0, 4.0]);
        // v <= bound goes into that bucket; above every bound → overflow.
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0] {
            h.observe(v);
        }
        let counts: Vec<u64> = h.bucket_counts().iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - 21.0).abs() < 1e-12);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let h = histogram_with("test.metrics.hist_quant", &[1.0, 2.0, 4.0, 8.0]);
        // 90 observations <= 1, 9 in (1,2], 1 in (4,8]
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(1.5);
        }
        h.observe(5.0);
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.9), 1.0);
        assert_eq!(h.quantile(0.95), 2.0);
        assert_eq!(h.quantile(1.0), 8.0);
        // overflow bucket clamps to the max observed value
        let h2 = histogram_with("test.metrics.hist_over", &[1.0]);
        h2.observe(5.0);
        assert_eq!(h2.quantile(0.5), 5.0);
        // empty histogram → 0
        let h3 = histogram_with("test.metrics.hist_empty", &[1.0]);
        assert_eq!(h3.quantile(0.99), 0.0);
    }

    #[test]
    fn overflow_quantile_stays_finite_and_json_numeric() {
        // Regression: a sample above every bucket bound used to make the
        // quantile +inf, which the JSON sink encodes as null — p99 then
        // silently vanished from events, manifests, and /runs.
        let h = histogram_with("test.metrics.hist_overfix", &[1e-3, 1.0]);
        h.observe(0.5);
        h.observe(120.0);
        h.observe(450.0);
        assert_eq!(h.quantile(0.99), 450.0);
        assert_eq!(h.max_observed(), Some(450.0));
        assert_ne!(crate::json::to_string(&h.quantile(0.99)), "null");
        let s = metrics_snapshot();
        let hs = s
            .histograms
            .iter()
            .find(|x| x.name == "test.metrics.hist_overfix")
            .unwrap();
        assert!(hs.p50.is_finite() && hs.p90.is_finite() && hs.p99.is_finite());

        // A non-finite observation never poisons the max estimate.
        let h2 = histogram_with("test.metrics.hist_overinf", &[1.0]);
        h2.observe(f64::INFINITY);
        assert_eq!(h2.quantile(0.99), 1.0, "falls back to the largest bound");

        // reset() also clears the tracked max.
        h.reset();
        assert_eq!(h.max_observed(), None);
        h.observe(2.0);
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0, including the degenerate q values.
        let h = histogram_with("test.metrics.edge_empty", &[1.0, 2.0]);
        for q in [0.0, 0.5, 1.0, -3.0, 7.0] {
            assert_eq!(h.quantile(q), 0.0);
        }

        // Single sample: every quantile lands in that sample's bucket.
        let h = histogram_with("test.metrics.edge_single", &[1.0, 2.0, 4.0]);
        h.observe(1.5);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 2.0);
        }
        // q is clamped, so out-of-range requests behave like 0 and 1.
        assert_eq!(h.quantile(-1.0), 2.0);
        assert_eq!(h.quantile(2.0), 2.0);

        // All-equal samples: the distribution is a point mass; every
        // quantile reports the one occupied bucket's upper bound.
        let h = histogram_with("test.metrics.edge_equal", &[1.0, 2.0, 4.0]);
        for _ in 0..1000 {
            h.observe(3.0);
        }
        for q in [0.001, 0.25, 0.5, 0.75, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 4.0);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 3.0).abs() < 1e-9);

        // Sample exactly on a bucket bound belongs to that bucket.
        let h = histogram_with("test.metrics.edge_bound", &[1.0, 2.0]);
        h.observe(1.0);
        assert_eq!(h.quantile(0.5), 1.0);
    }

    #[test]
    fn snapshot_summary_carries_sum_and_buckets() {
        let h = histogram_with("test.metrics.snap_detail", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        let s = metrics_snapshot();
        let hs = s
            .histograms
            .iter()
            .find(|h| h.name == "test.metrics.snap_detail")
            .unwrap();
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 11.0).abs() < 1e-12);
        let counts: Vec<u64> = hs.buckets.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![1, 1, 1]);
        assert!(hs.buckets.last().unwrap().0.is_infinite());
    }

    #[test]
    fn default_bounds_are_strictly_increasing() {
        let b = default_bounds();
        assert!(b.len() > 20);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b[0] <= 1e-6 * 1.0001 && *b.last().unwrap() >= 1e4);
    }

    #[test]
    fn reset_zeroes_in_place_keeping_handles() {
        let c = counter("test.metrics.reset_keep");
        let h = histogram_with("test.metrics.reset_hist", &[1.0]);
        c.add(7);
        h.observe(0.5);
        reset_metrics();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.add(2);
        assert_eq!(
            counter("test.metrics.reset_keep").get(),
            2,
            "handle still registered"
        );
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test.metrics.snap_c").add(5);
        gauge("test.metrics.snap_g").set(2.5);
        histogram_with("test.metrics.snap_h", &[1.0, 10.0]).observe(0.5);
        let s = metrics_snapshot();
        assert!(s
            .counters
            .iter()
            .any(|(k, v)| k == "test.metrics.snap_c" && *v >= 5));
        assert!(s
            .gauges
            .iter()
            .any(|(k, v)| k == "test.metrics.snap_g" && *v == 2.5));
        let h = s
            .histograms
            .iter()
            .find(|h| h.name == "test.metrics.snap_h")
            .unwrap();
        assert!(h.count >= 1);
        assert_eq!(h.p50, 1.0);
    }

    #[test]
    fn concurrent_counter_updates_preserve_total() {
        let c = counter("test.metrics.concurrent");
        c.reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn concurrent_histogram_preserves_count_and_sum() {
        let h = histogram_with("test.metrics.concurrent_hist", &[0.5, 1.0]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..5_000 {
                        h.observe(0.25);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
        assert!((h.sum() - 5_000.0).abs() < 1e-6);
    }
}
