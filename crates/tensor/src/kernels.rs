//! Dense f32 compute kernels shared by forward and backward passes.
//!
//! All kernels operate on row-major slices. Two matmul implementations
//! are provided, selectable at runtime (`RCKT_KERNEL=auto|naive|simd` or
//! [`set_kernel_variant`]):
//!
//! * **naive** — plain loops, kept as an always-correct, always-serial
//!   reference path (`naive_matmul_acc` and friends);
//! * **simd** (default via `auto`) — explicit `std::arch` microkernels
//!   (`simd`): AVX2+FMA 6×16 on x86-64, NEON 8×8 on aarch64, a portable
//!   4×16 scalar tile elsewhere, chosen by one-time runtime feature
//!   detection. Operands are packed into panels ([`pack`]) and work is
//!   split over *column panels* with the packed `A` shared read-only
//!   across tasks.
//!
//! The dispatch ladder for `auto` (the default when `RCKT_KERNEL` is unset)
//! resolves to `simd`, whose backend is the best the CPU supports; the
//! decision is logged once as a `kernel.dispatch` event. Tiny products
//! always take the naive loops — packing overhead dominates below
//! [`TILED_MIN_WORK`].
//!
//! Reduction spec: every kernel computes every output element the same
//! way, `acc = 0`, then `acc = fma(a_p, b_p, acc)` for `p` ascending over
//! the full depth, then `c += acc`. The fused multiply-add rounds once, so
//! the two variants, every simd backend and every shape dispatch produce
//! the same bits, and an output element depends only on its own row of `A`
//! and column of `B` — never on the batch rows beside it. The naive loops
//! use `f32::mul_add`: one instruction in a clone compiled with FMA,
//! picked at runtime when the CPU has it, and the exact but slower libm
//! routine elsewhere. Each element is also computed by exactly one task,
//! so results are bit-identical for any `RCKT_THREADS`.

pub mod pack;
mod simd;

pub use simd::{
    cpu_features, simd_backend, simd_matmul_acc, simd_matmul_at_acc, simd_matmul_bt_acc,
    SimdBackend,
};

use crate::pool;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ------------------------------------------------------------- selection

/// Which matmul implementation [`matmul_acc`] and friends dispatch to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelVariant {
    /// Original reference loops, always serial.
    Naive,
    /// Explicit-SIMD microkernels with runtime feature detection
    /// (default; see [`simd_backend`] for what this machine resolved to).
    Simd,
}

impl KernelVariant {
    /// `"naive"` or `"simd"`, the `RCKT_KERNEL` value that selects it.
    fn name(self) -> &'static str {
        match self {
            KernelVariant::Naive => "naive",
            KernelVariant::Simd => "simd",
        }
    }

    fn code(self) -> u8 {
        match self {
            KernelVariant::Naive => 1,
            KernelVariant::Simd => 2,
        }
    }
}

/// 0 = unresolved, otherwise [`KernelVariant::code`].
static VARIANT: AtomicU8 = AtomicU8::new(0);

/// Select the matmul implementation programmatically; overrides the
/// `RCKT_KERNEL` environment variable.
pub fn set_kernel_variant(v: KernelVariant) {
    VARIANT.store(v.code(), Ordering::SeqCst);
}

/// The variant an `RCKT_KERNEL` value selects, and the `requested` field
/// the `kernel.dispatch` event reports for it. Unset and `auto` report
/// `auto`. Any other unrecognised value — a typo, or the name of a kernel
/// that no longer exists — also runs simd, but is reported verbatim so the
/// log shows the stale setting.
fn resolve_env(value: Option<&str>) -> (KernelVariant, &str) {
    match value {
        Some("naive") => (KernelVariant::Naive, "naive"),
        Some("simd") => (KernelVariant::Simd, "simd"),
        None | Some("auto") => (KernelVariant::Simd, "auto"),
        Some(other) => (KernelVariant::Simd, other),
    }
}

/// The active variant, resolved in priority order: [`set_kernel_variant`],
/// then the `RCKT_KERNEL` env var (`naive`/`simd`), then `auto` (also what
/// `RCKT_KERNEL=auto` or an unrecognized value means). `auto` picks
/// [`KernelVariant::Simd`] — its microkernel is feature-detected per
/// machine and falls back to a portable tile when neither AVX2+FMA nor
/// NEON is available.
///
/// The first resolution (and only the first — later [`set_kernel_variant`]
/// calls are silent, they're test plumbing) emits a `kernel.dispatch`
/// event recording what was requested, what ran, and the detected CPU
/// features, so logs always pin down which kernel produced a run.
pub fn kernel_variant() -> KernelVariant {
    if VARIANT.load(Ordering::Relaxed) == 0 {
        let env = std::env::var("RCKT_KERNEL").ok();
        let (variant, requested) = resolve_env(env.as_deref());
        if VARIANT
            .compare_exchange(0, variant.code(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            rckt_obs::event(
                rckt_obs::Level::Info,
                "kernel.dispatch",
                &[
                    ("requested", requested.into()),
                    ("variant", variant.name().into()),
                    ("cpu", simd::cpu_features().into()),
                ],
            );
        }
    }
    match VARIANT.load(Ordering::Relaxed) {
        1 => KernelVariant::Naive,
        _ => KernelVariant::Simd,
    }
}

/// `"naive"` or `"simd"`, for run manifests and logs. Pair with
/// [`cpu_features`] to pin down which microkernel `"simd"` means on a
/// given machine.
pub fn kernel_variant_name() -> &'static str {
    kernel_variant().name()
}

// ------------------------------------------------------------- profiling

/// Tally one matmul of shape `(m×k)·(k×n)` into the profiling counters
/// (`kernel.matmul.calls` / `kernel.matmul.flops`, FLOPs as the usual
/// 2·m·k·n). Guarded by [`rckt_obs::profiling`], so the disabled cost is
/// one relaxed atomic load per kernel call; the counter handles are cached
/// in a `OnceLock` to keep the registry out of the hot path entirely.
#[inline]
fn record_matmul(m: usize, k: usize, n: usize) {
    if !rckt_obs::profiling() {
        return;
    }
    static COUNTERS: OnceLock<(rckt_obs::Counter, rckt_obs::Counter)> = OnceLock::new();
    let (calls, flops) = COUNTERS.get_or_init(|| {
        (
            rckt_obs::counter("kernel.matmul.calls"),
            rckt_obs::counter("kernel.matmul.flops"),
        )
    });
    calls.incr();
    flops.add(2 * (m as u64) * (k as u64) * (n as u64));
}

// ------------------------------------------------------------ dispatchers

/// Below this many `m·k·n` products the packing overhead of the simd
/// kernel outweighs its throughput and the naive loops win.
pub const TILED_MIN_WORK: usize = 16 * 1024;

/// Matmuls below this many FLOPs run the simd kernel on the calling
/// thread; above it, output column panels are split across the pool.
const PAR_MIN_FLOPS: u64 = 1 << 20;

/// The variant a product of this shape actually runs: tiny or skinny
/// outputs always take the naive loops regardless of the selected variant.
#[inline]
fn tiled_variant(m: usize, k: usize, n: usize) -> KernelVariant {
    if m < 8 || n < 8 || m * k * n < TILED_MIN_WORK {
        return KernelVariant::Naive;
    }
    kernel_variant()
}

/// `c += a (m×k) · b (k×n)`, accumulating into `c (m×n)`.
pub fn matmul_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    record_matmul(m, k, n);
    match tiled_variant(m, k, n) {
        KernelVariant::Naive => naive_matmul_acc(a, b, c, m, k, n),
        KernelVariant::Simd => simd_matmul_acc(a, b, c, m, k, n),
    }
}

/// `c += a (m×k) · bᵀ where b is (n×k)`, accumulating into `c (m×n)`.
pub fn matmul_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    record_matmul(m, k, n);
    match tiled_variant(m, k, n) {
        KernelVariant::Naive => naive_matmul_bt_acc(a, b, c, m, k, n),
        KernelVariant::Simd => simd_matmul_bt_acc(a, b, c, m, k, n),
    }
}

/// `c += aᵀ (k×m viewed from a m×k) · b (m×n)`, accumulating into `c (k×n)`.
pub fn matmul_at_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    record_matmul(m, k, n);
    match tiled_variant(k, m, n) {
        KernelVariant::Naive => naive_matmul_at_acc(a, b, c, m, k, n),
        KernelVariant::Simd => simd_matmul_at_acc(a, b, c, m, k, n),
    }
}

// --------------------------------------------------------- naive kernels

/// Defines a naive kernel as a dispatcher over two compilations of the same
/// loop body: an FMA-enabled clone, picked at runtime when the CPU has FMA,
/// in which `f32::mul_add` is one instruction and the row loops widen to
/// 256-bit vectors; and a baseline build, in which `mul_add` is the exact
/// libm routine. Both round each multiply-add once, so they give the same
/// bits.
macro_rules! fma_dispatch {
    ($(#[$doc:meta])* $name:ident => $body:ident) => {
        $(#[$doc])*
        pub fn $name(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
            // An empty output or an empty reduction leaves `c` untouched,
            // as the simd driver does.
            if m == 0 || k == 0 || n == 0 {
                return;
            }
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                /// The CPU must support FMA.
                #[target_feature(enable = "fma")]
                unsafe fn with_fma(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
                    $body(a, b, c, m, k, n)
                }
                if std::arch::is_x86_feature_detected!("fma") {
                    // SAFETY: the CPU supports FMA, checked just above.
                    return unsafe { with_fma(a, b, c, m, k, n) };
                }
            }
            $body(a, b, c, m, k, n)
        }
    };
}

fma_dispatch! {
    /// Reference implementation of [`matmul_acc`]: each output row is
    /// reduced into a zeroed scratch row in `p`-ascending order, then added
    /// to `c` (the module's reduction spec).
    naive_matmul_acc => naive_acc_body
}

fma_dispatch! {
    /// Reference implementation of [`matmul_bt_acc`].
    naive_matmul_bt_acc => naive_bt_acc_body
}

fma_dispatch! {
    /// Reference implementation of [`matmul_at_acc`]: the reduction runs
    /// over `a`'s rows, so the whole `k×n` output is reduced into scratch
    /// before it is added to `c`.
    naive_matmul_at_acc => naive_at_acc_body
}

#[inline(always)]
fn naive_acc_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    let mut acc = vec![0.0f32; n];
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        acc.fill(0.0);
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (x, &bv) in acc.iter_mut().zip(b_row) {
                *x = av.mul_add(bv, *x);
            }
        }
        for (cv, &x) in c_row.iter_mut().zip(&acc) {
            *cv += x;
        }
    }
}

#[inline(always)]
fn naive_bt_acc_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc = av.mul_add(bv, acc);
            }
            c[i * n + j] += acc;
        }
    }
}

#[inline(always)]
fn naive_at_acc_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut acc = vec![0.0f32; k * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (&av, acc_row) in a_row.iter().zip(acc.chunks_exact_mut(n)) {
            for (x, &bv) in acc_row.iter_mut().zip(b_row) {
                *x = av.mul_add(bv, *x);
            }
        }
    }
    for (cv, &x) in c.iter_mut().zip(&acc) {
        *cv += x;
    }
}

// ----------------------------------------------------- elementwise & rows

/// Below this many elements, fork/join overhead beats the memory-bound win
/// and elementwise kernels stay on the calling thread.
const PAR_MIN_ELEMS: usize = 32 * 1024;

/// `dst[i] = f(src[i])`, split across the pool for large tensors.
pub fn map_unary(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(src.len(), dst.len());
    if dst.len() < PAR_MIN_ELEMS || pool::threads() == 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
        return;
    }
    let chunk = pool::chunk_len_for(dst.len(), 4096);
    pool::parallel_chunks_mut(dst, chunk, &|ci, dchunk| {
        let off = ci * chunk;
        let len = dchunk.len();
        for (d, &s) in dchunk.iter_mut().zip(&src[off..off + len]) {
            *d = f(s);
        }
    });
}

/// `dst[i] = f(a[i], b[i])`, split across the pool for large tensors.
pub fn map_binary(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    if dst.len() < PAR_MIN_ELEMS || pool::threads() == 1 {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
        return;
    }
    let chunk = pool::chunk_len_for(dst.len(), 4096);
    pool::parallel_chunks_mut(dst, chunk, &|ci, dchunk| {
        let off = ci * chunk;
        let len = dchunk.len();
        for ((d, &x), &y) in dchunk
            .iter_mut()
            .zip(&a[off..off + len])
            .zip(&b[off..off + len])
        {
            *d = f(x, y);
        }
    });
}

/// Numerically stable softmax over each contiguous row of length `n`; rows
/// are independent, so large inputs are row-sharded across the pool.
pub fn softmax_rows(src: &[f32], dst: &mut [f32], n: usize) {
    debug_assert_eq!(src.len() % n, 0);
    debug_assert_eq!(src.len(), dst.len());
    if src.len() < PAR_MIN_ELEMS || pool::threads() == 1 {
        softmax_rows_serial(src, dst, n);
        return;
    }
    let rows = src.len() / n;
    let rows_per = pool::chunk_len_for(rows, 8);
    pool::parallel_chunks_mut(dst, rows_per * n, &|ci, dchunk| {
        let off = ci * rows_per * n;
        softmax_rows_serial(&src[off..off + dchunk.len()], dchunk, n);
    });
}

fn softmax_rows_serial(src: &[f32], dst: &mut [f32], n: usize) {
    for (s_row, d_row) in src.chunks_exact(n).zip(dst.chunks_exact_mut(n)) {
        let max = s_row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &s) in d_row.iter_mut().zip(s_row) {
            let e = (s - max).exp();
            *d = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for d in d_row.iter_mut() {
            *d *= inv;
        }
    }
}

/// Per-row layer normalization with affine transform:
/// `out[r][j] = gamma[j] · (x[r][j] − mean_r) / sqrt(var_r + eps) + beta[j]`.
/// Rows are independent and sharded across the pool.
pub fn layer_norm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    n: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len() % n, 0);
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(gamma.len(), n);
    debug_assert_eq!(beta.len(), n);
    if x.len() < PAR_MIN_ELEMS || pool::threads() == 1 {
        layer_norm_rows_serial(x, gamma, beta, out, n, eps);
        return;
    }
    let rows = x.len() / n;
    let rows_per = pool::chunk_len_for(rows, 8);
    pool::parallel_chunks_mut(out, rows_per * n, &|ci, ochunk| {
        let off = ci * rows_per * n;
        layer_norm_rows_serial(&x[off..off + ochunk.len()], gamma, beta, ochunk, n, eps);
    });
}

fn layer_norm_rows_serial(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    n: usize,
    eps: f32,
) {
    for (o_row, x_row) in out.chunks_exact_mut(n).zip(x.chunks_exact(n)) {
        let mean = x_row.iter().sum::<f32>() / n as f32;
        let var = x_row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for j in 0..n {
            o_row[j] = gamma[j] * (x_row[j] - mean) * inv + beta[j];
        }
    }
}

// -------------------------------------------------------------- transpose

/// Transpose `src (m×n)` into `dst (n×m)` with the cache-tiled strided
/// transpose from [`pack`] (the same routine that backs `Bᵀ` panel
/// packing, so remainder handling lives in one place); large matrices are
/// split across the pool by output-row bands.
pub fn transpose(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(src.len(), m * n);
    debug_assert_eq!(dst.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if m * n < PAR_MIN_ELEMS || pool::threads() == 1 || n < 2 * pack::TILE {
        pack::transpose_into(src, dst, m, n, n, m);
        return;
    }
    // Each band is `pack::TILE` source columns = that many contiguous
    // output rows; the last band may be narrower.
    pool::parallel_chunks_mut(dst, pack::TILE * m, &|band, chunk| {
        let j0 = band * pack::TILE;
        let jw = chunk.len() / m;
        pack::transpose_into(&src[j0..], chunk, m, jw, n, m);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift generator so kernel tests need no external
    /// crates and reproduce across runs.
    struct XorShift(u64);
    impl XorShift {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn next_f32(&mut self) -> f32 {
            // Uniform in [-1, 1).
            (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
        }
        fn next_range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() as usize) % (hi - lo)
        }
        fn vec(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| self.next_f32()).collect()
        }
    }

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 2x3, used as b^T: 3x2
        let mut c1 = [0.0; 4];
        matmul_bt_acc(&a, &b, &mut c1, 2, 3, 2);
        let mut bt = [0.0; 6];
        transpose(&b, &mut bt, 2, 3);
        let mut c2 = [0.0; 4];
        matmul_acc(&a, &bt, &mut c2, 2, 3, 2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3 -> a^T 3x2
        let b = [1.0, -1.0, 0.5, 2.0]; // 2x2
        let mut c1 = vec![0.0; 6];
        matmul_at_acc(&a, &b, &mut c1, 2, 3, 2);
        let mut at = [0.0; 6];
        transpose(&a, &mut at, 2, 3);
        let mut c2 = vec![0.0; 6];
        matmul_acc(&at, &b, &mut c2, 3, 2, 2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn transpose_blocked_roundtrip() {
        let mut rng = XorShift(11);
        for &(m, n) in &[(1, 1), (3, 200), (65, 33), (128, 128), (31, 257)] {
            let src = rng.vec(m * n);
            let mut t = vec![0.0; m * n];
            let mut back = vec![0.0; m * n];
            transpose(&src, &mut t, m, n);
            transpose(&t, &mut back, n, m);
            assert_eq!(src, back, "roundtrip failed at {m}x{n}");
            for i in 0..m.min(4) {
                for j in 0..n.min(4) {
                    assert_eq!(t[j * m + i], src[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn map_kernels_match_serial() {
        let mut rng = XorShift(13);
        let n = PAR_MIN_ELEMS + 517; // force the parallel path
        let a = rng.vec(n);
        let b = rng.vec(n);
        let mut out = vec![0.0; n];
        map_unary(&a, &mut out, |x| x.max(0.0));
        for (o, &x) in out.iter().zip(&a) {
            assert_eq!(*o, x.max(0.0));
        }
        map_binary(&a, &b, &mut out, |x, y| x * y);
        for ((o, &x), &y) in out.iter().zip(&a).zip(&b) {
            assert_eq!(*o, x * y);
        }
    }

    #[test]
    fn layer_norm_rows_matches_reference() {
        let mut rng = XorShift(17);
        let (rows, n) = (300, 64);
        let x = rng.vec(rows * n);
        let gamma = rng.vec(n);
        let beta = rng.vec(n);
        let mut out = vec![0.0; rows * n];
        layer_norm_rows(&x, &gamma, &beta, &mut out, n, 1e-5);
        let mut expect = vec![0.0; rows * n];
        layer_norm_rows_serial(&x, &gamma, &beta, &mut expect, n, 1e-5);
        assert_eq!(out, expect);
        // Row mean of the normalized (pre-affine) signal should be ~0: check
        // one row against a direct computation.
        let r0 = &x[..n];
        let mean = r0.iter().sum::<f32>() / n as f32;
        let var = r0.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + 1e-5f32).sqrt();
        for j in 0..n {
            let want = gamma[j] * (r0[j] - mean) * inv + beta[j];
            assert!((out[j] - want).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let src = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut dst = [0.0; 6];
        softmax_rows(&src, &mut dst, 3);
        for row in dst.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // monotone in logits
        assert!(dst[0] < dst[1] && dst[1] < dst[2]);
    }

    #[test]
    fn profiling_counts_matmul_flops() {
        let _g = crate::profiler::TEST_PROFILING_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        rckt_obs::set_profiling(true);
        let calls0 = rckt_obs::counter("kernel.matmul.calls").get();
        let flops0 = rckt_obs::counter("kernel.matmul.flops").get();
        matmul_acc(&a, &b, &mut c, 2, 2, 2);
        rckt_obs::set_profiling(false);
        // `>=`: other tests may run matmuls concurrently while profiling
        // is enabled here; this one contributes 1 call and 2·2·2·2 FLOPs.
        assert!(rckt_obs::counter("kernel.matmul.calls").get() - calls0 >= 1);
        assert!(rckt_obs::counter("kernel.matmul.flops").get() - flops0 >= 16);
    }

    #[test]
    fn softmax_handles_large_negatives() {
        let src = [0.0, -1e9, -1e9];
        let mut dst = [0.0; 3];
        softmax_rows(&src, &mut dst, 3);
        assert!((dst[0] - 1.0).abs() < 1e-6);
        assert!(dst[1] < 1e-9);
    }

    #[test]
    fn variant_name_matches_enum() {
        let before = kernel_variant();
        set_kernel_variant(KernelVariant::Naive);
        assert_eq!(kernel_variant_name(), "naive");
        set_kernel_variant(KernelVariant::Simd);
        assert_eq!(kernel_variant_name(), "simd");
        set_kernel_variant(before);
    }

    #[test]
    fn rckt_kernel_values_resolve_and_report() {
        assert_eq!(resolve_env(None), (KernelVariant::Simd, "auto"));
        assert_eq!(resolve_env(Some("auto")), (KernelVariant::Simd, "auto"));
        assert_eq!(resolve_env(Some("naive")), (KernelVariant::Naive, "naive"));
        assert_eq!(resolve_env(Some("simd")), (KernelVariant::Simd, "simd"));
        // Unrecognised values still run simd but are reported verbatim.
        assert_eq!(
            resolve_env(Some("blocked")),
            (KernelVariant::Simd, "blocked")
        );
        assert_eq!(resolve_env(Some("smid")), (KernelVariant::Simd, "smid"));
    }

    #[test]
    fn simd_matches_naive_across_random_shapes() {
        // Both variants follow the reduction spec, so they agree bit for
        // bit on arbitrary inputs and shapes.
        let mut rng = XorShift(0x243f6a8885a308d3);
        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for _ in 0..40 {
            let m = rng.next_range(1, 70);
            let k = rng.next_range(1, 70);
            let n = rng.next_range(1, 70);
            let a = rng.vec(m * k);
            let b = rng.vec(k * n);
            let mut c_naive = rng.vec(m * n);
            let mut c_simd = c_naive.clone();
            naive_matmul_acc(&a, &b, &mut c_naive, m, k, n);
            simd_matmul_acc(&a, &b, &mut c_simd, m, k, n);
            assert_eq!(
                bits(&c_naive),
                bits(&c_simd),
                "acc mismatch at m={m} k={k} n={n}"
            );

            let bt = rng.vec(n * k);
            let mut c1 = rng.vec(m * n);
            let mut c2 = c1.clone();
            naive_matmul_bt_acc(&a, &bt, &mut c1, m, k, n);
            simd_matmul_bt_acc(&a, &bt, &mut c2, m, k, n);
            assert_eq!(bits(&c1), bits(&c2), "bt mismatch at m={m} k={k} n={n}");

            let b2 = rng.vec(m * n);
            let mut c3 = rng.vec(k * n);
            let mut c4 = c3.clone();
            naive_matmul_at_acc(&a, &b2, &mut c3, m, k, n);
            simd_matmul_at_acc(&a, &b2, &mut c4, m, k, n);
            assert_eq!(bits(&c3), bits(&c4), "at mismatch at m={m} k={k} n={n}");
        }
    }

    #[test]
    fn zero_operands_take_the_same_path_in_both_variants() {
        // No zero-skip: a zero `a` still contributes `fma(0, b, acc)`, so a
        // `-0.0` in `c` becomes `+0.0` under both variants, and a zero
        // times an infinity is NaN under both.
        let (m, k, n) = (9usize, 3usize, 10usize);
        let a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        b[n - 1] = f32::INFINITY;
        let mut c1 = vec![-0.0f32; m * n];
        let mut c2 = c1.clone();
        naive_matmul_acc(&a, &b, &mut c1, m, k, n);
        simd_matmul_acc(&a, &b, &mut c2, m, k, n);
        assert_eq!(c1[0].to_bits(), 0.0f32.to_bits());
        assert!(c1[n - 1].is_nan());
        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn simd_handles_tile_edges_exactly() {
        // Integer-valued inputs: FMA and reassociation are exact, so the
        // SIMD path must agree bit-for-bit with naive on every remainder
        // combination of the microkernel tile — including degenerate
        // 1×K×1 and window-length-sized dims.
        let edges = [
            (1usize, 37usize, 1usize), // 1×K×1
            (1, 1, 1),
            (6, 128, 16), // exactly one AVX2 tile
            (7, 129, 17), // one past it in every dim
            (5, 50, 15),  // under it in every dim
            (8, 8, 8),    // exactly one NEON tile
            (9, 9, 9),
            (50, 200, 50), // window_len × max_len dims
            (3, 1, 31),
        ];
        for &(m, k, n) in &edges {
            let mut rng = XorShift((m * 1000 + k * 10 + n) as u64 | 1);
            let a: Vec<f32> = (0..m * k)
                .map(|_| rng.next_range(0, 7) as f32 - 3.0)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|_| rng.next_range(0, 7) as f32 - 3.0)
                .collect();
            let mut c1 = vec![0.5f32; m * n];
            let mut c2 = c1.clone();
            naive_matmul_acc(&a, &b, &mut c1, m, k, n);
            simd_matmul_acc(&a, &b, &mut c2, m, k, n);
            assert_eq!(c1, c2, "edge case m={m} k={k} n={n}");
        }
    }

    #[test]
    fn simd_is_bit_identical_across_thread_counts() {
        let mut rng = XorShift(23);
        let (m, k, n) = (97, 130, 53);
        let a = rng.vec(m * k);
        let b = rng.vec(k * n);
        let mut reference: Option<Vec<u32>> = None;
        let _g = pool::TEST_WIDTH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let before = pool::threads();
        for w in [1, 2, 4] {
            pool::set_threads(w);
            let mut c = vec![0.0f32; m * n];
            simd_matmul_acc(&a, &b, &mut c, m, k, n);
            let bits: Vec<u32> = c.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "results differ at {w} threads"),
            }
        }
        pool::set_threads(before);
    }
}
