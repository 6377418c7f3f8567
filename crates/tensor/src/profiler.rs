//! Per-op profiling and tensor allocation tracking for the graph.
//!
//! Everything here is gated on [`rckt_obs::profiling`] — one relaxed
//! atomic load per op when disabled — and publishes into the `rckt-obs`
//! metrics registry under a naming contract the profile report renders
//! as the `-- tensor ops --` table:
//!
//! * histogram `op.<kind>.secs`      — forward wall time (count = calls)
//! * histogram `op.<kind>.bwd_secs`  — backward wall time per op kind
//! * counter   `op.<kind>.flops`     — forward FLOPs where meaningful
//! * counter   `op.<kind>.alloc_bytes` — bytes allocated for outputs
//!   (forward) and gradient buffers (backward)
//! * gauge     `tensor.mem.live_bytes` / `tensor.mem.peak_bytes`
//!
//! The allocation tracker counts the tensor storage a graph allocates, at
//! 4 bytes/element, attributed to the op kind of the node that owns it:
//! each op's output when the op runs, and each gradient buffer when
//! [`Graph::backward`](crate::Graph::backward) allocates it. A parameter
//! leaf shares the store's buffer and reports nothing. Reset and drop
//! release what the graph reported, so `live_bytes` returns to its
//! pre-run level after every step while `peak_bytes` keeps the
//! high-water mark.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rckt_obs::{Counter, Gauge, Histogram};

/// Finer-than-default bucket ladder for per-op timings: a 1–2.5–5
/// progression from 10 ns to 10 s.
fn secs_bounds() -> Vec<f64> {
    let mut out = Vec::new();
    let mut decade = 1e-8;
    while decade < 1e1 {
        for m in [1.0, 2.5, 5.0] {
            out.push(decade * m);
        }
        decade *= 10.0;
    }
    out
}

#[derive(Clone)]
struct OpHandles {
    fwd: Histogram,
    bwd: Histogram,
    flops: Counter,
    alloc: Counter,
}

fn handles(kind: &'static str) -> OpHandles {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, OpHandles>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    cache
        .entry(kind)
        .or_insert_with(|| {
            let bounds = secs_bounds();
            OpHandles {
                fwd: rckt_obs::histogram_with(&format!("op.{kind}.secs"), &bounds),
                bwd: rckt_obs::histogram_with(&format!("op.{kind}.bwd_secs"), &bounds),
                flops: rckt_obs::counter(&format!("op.{kind}.flops")),
                alloc: rckt_obs::counter(&format!("op.{kind}.alloc_bytes")),
            }
        })
        .clone()
}

/// RAII timer for one graph op. Inert (no clock read) unless profiling
/// is enabled when it is created.
pub struct OpTimer {
    armed: Option<(&'static str, Instant, bool)>,
}

/// Time the forward pass of op `kind` until the guard drops.
pub fn op_timer(kind: &'static str) -> OpTimer {
    OpTimer {
        armed: rckt_obs::profiling().then(|| (kind, Instant::now(), false)),
    }
}

/// Time one op's share of the backward sweep (recorded separately under
/// `op.<kind>.bwd_secs`).
pub fn op_timer_bwd(kind: &'static str) -> OpTimer {
    OpTimer {
        armed: rckt_obs::profiling().then(|| (kind, Instant::now(), true)),
    }
}

impl OpTimer {
    /// Attribute `n` FLOPs to this op (forward). No-op when inert.
    pub fn flops(&self, n: u64) {
        if let Some((kind, _, _)) = self.armed {
            handles(kind).flops.add(n);
        }
    }
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some((kind, start, backward)) = self.armed {
            let secs = start.elapsed().as_secs_f64();
            let h = handles(kind);
            if backward {
                h.bwd.observe(secs);
            } else {
                h.fwd.observe(secs);
            }
        }
    }
}

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn mem_gauges() -> &'static (Gauge, Gauge) {
    static GAUGES: OnceLock<(Gauge, Gauge)> = OnceLock::new();
    GAUGES.get_or_init(|| {
        (
            rckt_obs::gauge("tensor.mem.live_bytes"),
            rckt_obs::gauge("tensor.mem.peak_bytes"),
        )
    })
}

/// Record `bytes` of tensor storage allocated by op `kind`.
pub fn on_alloc(kind: &'static str, bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let (live_g, peak_g) = mem_gauges();
    live_g.set(live as f64);
    peak_g.set(PEAK_BYTES.load(Ordering::Relaxed) as f64);
    handles(kind).alloc.add(bytes);
}

/// Release `bytes` of tracked tensor storage (graph reset/drop).
pub fn on_free(bytes: u64) {
    let live = LIVE_BYTES
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        })
        .unwrap_or(0)
        .saturating_sub(bytes);
    mem_gauges().0.set(live as f64);
}

/// Currently tracked tensor bytes.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of tracked tensor bytes.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Reset the peak to the current live level (between independent runs).
pub fn reset_peak() {
    let live = live_bytes();
    PEAK_BYTES.store(live, Ordering::Relaxed);
    mem_gauges().1.set(live as f64);
}

/// Serializes tests (across this crate) that toggle the global profiling
/// flag, so profiling-sensitive assertions don't race.
#[cfg(test)]
pub(crate) static TEST_PROFILING_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn profiling_lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_PROFILING_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn timers_are_inert_when_profiling_off() {
        let _g = profiling_lock();
        rckt_obs::set_profiling(false);
        {
            let t = op_timer("test_prof_inert");
            t.flops(1_000_000);
        }
        assert_eq!(rckt_obs::counter("op.test_prof_inert.flops").get(), 0);
        assert_eq!(
            rckt_obs::histogram("op.test_prof_inert.secs").count(),
            0,
            "no observation recorded while disabled"
        );
    }

    #[test]
    fn timers_record_when_profiling_on() {
        let _g = profiling_lock();
        rckt_obs::set_profiling(true);
        {
            let t = op_timer("test_prof_live");
            t.flops(128);
        }
        {
            let _t = op_timer_bwd("test_prof_live");
        }
        rckt_obs::set_profiling(false);
        assert_eq!(rckt_obs::counter("op.test_prof_live.flops").get(), 128);
        assert_eq!(handles("test_prof_live").fwd.count(), 1);
        assert_eq!(handles("test_prof_live").bwd.count(), 1);
    }

    #[test]
    fn alloc_tracking_balances_and_keeps_peak() {
        let _g = profiling_lock();
        let peak0 = peak_bytes();
        let live0 = live_bytes();
        on_alloc("test_prof_alloc", 4096);
        on_alloc("test_prof_alloc", 1024);
        assert!(live_bytes() >= live0 + 5120);
        assert!(peak_bytes() >= peak0.max(live0 + 5120));
        on_free(5120);
        assert!(live_bytes() >= live0 && live_bytes() < live0 + 5120);
        assert!(
            rckt_obs::counter("op.test_prof_alloc.alloc_bytes").get() >= 5120,
            "per-kind attribution recorded"
        );
        // Over-free saturates instead of wrapping.
        on_free(u64::MAX);
        assert_eq!(live_bytes(), 0);
    }

    #[test]
    fn graph_ops_feed_profiler_and_release_memory() {
        let _g = profiling_lock();
        rckt_obs::set_profiling(true);
        let live0 = live_bytes();
        {
            let mut g = crate::Graph::new();
            let a = g.input(vec![1.0; 16], crate::Shape::matrix(4, 4));
            let b = g.leaf_grad(vec![0.5; 16], crate::Shape::matrix(4, 4));
            let c = g.matmul(a, b);
            let d = g.sigmoid(c);
            let loss = g.sum_all(d);
            g.backward(loss);
            assert!(
                live_bytes() > live0,
                "graph node storage is tracked while profiling"
            );
        }
        rckt_obs::set_profiling(false);
        // The graph dropped: its tracked bytes are released again.
        assert_eq!(live_bytes(), live0);
        assert!(
            rckt_obs::counter("op.matmul.flops").get() >= 128,
            "4x4x4 matmul attributes 2mkn flops"
        );
        assert!(handles("matmul").fwd.count() >= 1);
        assert!(
            handles("matmul").bwd.count() >= 1,
            "backward sweep timed per op kind"
        );
        assert!(rckt_obs::counter("op.matmul.alloc_bytes").get() > 0);
        assert!(peak_bytes() >= live0);
    }

    #[test]
    fn backward_reports_gradient_bytes_and_shared_leaves_report_none() {
        let _g = profiling_lock();
        let mut rng = rckt_obs::rng::SmallRng::seed_from_u64(1);
        let mut store = crate::ParamStore::new();
        let w = store.register("w", crate::Shape::matrix(4, 4), crate::Init::Ones, &mut rng);
        // No other test in this crate runs `segment_mean_rows`, so its
        // counter moves only with this graph.
        let seg = rckt_obs::counter("op.segment_mean_rows.alloc_bytes");
        let seg0 = seg.get();
        rckt_obs::set_profiling(true);
        let mut g = crate::Graph::new();
        let wt = store.leaf(&mut g, w);
        assert_eq!(
            g.tracked_bytes(),
            0,
            "a shared parameter leaf is not an allocation"
        );
        let m = g.segment_mean_rows(wt, &[1, 3]); // [2, 4]
        let loss = g.sum_all(m);
        assert_eq!(g.tracked_bytes(), 4 * (8 + 1), "forward: the two outputs");
        assert_eq!(seg.get() - seg0, 4 * 8);
        g.backward(loss);
        // Gradients for the leaf (16), the segment mean (8) and the loss (1).
        assert_eq!(g.tracked_bytes(), 4 * (8 + 1) + 4 * (16 + 8 + 1));
        assert_eq!(
            seg.get() - seg0,
            4 * (8 + 8),
            "gradient reported under its kind"
        );
        g.backward(loss);
        assert_eq!(
            g.tracked_bytes(),
            4 * (8 + 1) + 4 * (16 + 8 + 1),
            "a second sweep reuses the buffers"
        );
        rckt_obs::set_profiling(false);
    }
}
