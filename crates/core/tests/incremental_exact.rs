//! Exact-vs-incremental accuracy contract (see `docs/performance.md`):
//! incremental append-one scores must be **byte-identical** to the exact
//! single-sequence counterfactual fan-out at every prefix length, for every
//! kernel variant (`RCKT_KERNEL=naive|simd`) and pool width 1/2/4, on a
//! trained model (not just fresh weights).

use rckt::{Backbone, IncrementalState, Rckt, RcktConfig};
use rckt_data::{Batch, Dataset, SyntheticSpec, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::kernels::{self, KernelVariant};
use rckt_tensor::pool;
use std::sync::Mutex;

/// Serializes tests that mutate process-global state (pool width, kernel
/// variant).
static GLOBAL: Mutex<()> = Mutex::new(());

fn trained_uni_model(dim: usize) -> (Rckt, Dataset) {
    let ds = SyntheticSpec::assist09().scaled(0.03).generate();
    let cfg = RcktConfig {
        dim,
        unidirectional: true,
        ..Default::default()
    };
    let mut m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
    // A couple of optimization steps so the weights are not at init.
    let ws = rckt_data::windows(&ds, 20, 5);
    let idx: Vec<usize> = (0..ws.len().min(8)).collect();
    let batches = rckt_data::make_batches(&ws, &idx, &ds.q_matrix, 8);
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..2 {
        m.train_batch(&batches[0], 5.0, &mut rng);
    }
    (m, ds)
}

fn exact_score(m: &Rckt, ds: &Dataset, hist: &[(u32, bool)], target_q: u32, window: usize) -> f32 {
    let target = hist.len();
    let mut questions = vec![0u32; window];
    let mut correct = vec![0u8; window];
    for (i, &(q, c)) in hist.iter().enumerate() {
        questions[i] = q;
        correct[i] = c as u8;
    }
    questions[target] = target_q;
    let w = Window {
        student: 0,
        questions,
        correct,
        len: target + 1,
    };
    let b = Batch::from_windows(&[&w], &ds.q_matrix);
    m.predict_targets(&b, &[target])[0].prob
}

fn history(n: usize, num_questions: usize) -> Vec<(u32, bool)> {
    (0..n)
        .map(|i| ((1 + (i * 5 + 2) % (num_questions - 1)) as u32, i % 4 != 1))
        .collect()
}

#[test]
fn incremental_bit_identical_to_exact_across_kernels_and_widths() {
    let _g = GLOBAL.lock().unwrap();
    let (m, ds) = trained_uni_model(16);
    // Window 40 at dim 16 puts the exact path's head GEMM ([40, 32] ×
    // [32, 16], 20 K multiply-adds) past the tiny-product cutoff, so under
    // simd it runs the simd kernel while the warm head's one-row GEMMs run
    // the naive loops: the comparison crosses kernels.
    let window = 40;
    let hist = history(window - 1, ds.num_questions());

    let before = kernels::kernel_variant();
    for variant in [KernelVariant::Naive, KernelVariant::Simd] {
        kernels::set_kernel_variant(variant);
        for width in [1usize, 2, 4] {
            pool::set_threads(width);
            let mut state = IncrementalState::new(&m, window).expect("forward-only DKT");
            for n in 0..hist.len() {
                let warm = state.score();
                let exact = exact_score(&m, &ds, &hist[..n], hist[n].0, window);
                assert_eq!(
                    warm.to_bits(),
                    exact.to_bits(),
                    "prefix {n} diverged ({variant:?}, width {width}): \
                     warm {warm} vs exact {exact}"
                );
                state
                    .append_response(&m, &ds.q_matrix, hist[n].0, hist[n].1)
                    .unwrap();
            }
        }
    }
    kernels::set_kernel_variant(before);
    pool::set_threads(1);
}

/// The CI byte-compare geometry — dim 8, window 200 — checked at sampled
/// prefixes (a full per-prefix sweep of exact fan-outs at window 200 is too
/// slow for tier-1). At this shape the exact path's head GEMM is
/// `[200, 16] × [16, 8]` (25.6 K multiply-adds), which engages the
/// dispatched kernel under `RCKT_KERNEL=simd`.
#[test]
fn ci_geometry_window_200_bit_identical_at_sampled_prefixes() {
    let _g = GLOBAL.lock().unwrap();
    let (m, ds) = trained_uni_model(8);
    let window = 200;
    let hist = history(window - 1, ds.num_questions());
    let samples = [0usize, 1, 2, 50, 120, 198];

    let before = kernels::kernel_variant();
    for variant in [KernelVariant::Naive, KernelVariant::Simd] {
        kernels::set_kernel_variant(variant);
        pool::set_threads(4);
        let mut state = IncrementalState::new(&m, window).unwrap();
        let mut done = 0usize;
        for &n in &samples {
            state
                .append_responses(&m, &ds.q_matrix, &hist[done..n])
                .unwrap();
            done = n;
            let warm = state.score();
            let exact = exact_score(&m, &ds, &hist[..n], hist[n].0, window);
            assert_eq!(
                warm.to_bits(),
                exact.to_bits(),
                "prefix {n} diverged under {variant:?}: warm {warm} vs exact {exact}"
            );
        }
    }
    kernels::set_kernel_variant(before);
    pool::set_threads(1);
}

/// A forward-only encoder runs no backward LSTM at eval: against a
/// bidirectional model of the same shape, one `predict_targets` call saves
/// exactly the backward half's step GEMMs — two per step in each of the
/// four generator passes.
#[test]
fn forward_only_eval_skips_the_backward_lstm() {
    let _g = GLOBAL.lock().unwrap();
    let ds = SyntheticSpec::assist09().scaled(0.03).generate();
    let hist = history(11, ds.num_questions());
    let t_len = hist.len() + 1;
    let matmuls = |unidirectional: bool| {
        let cfg = RcktConfig {
            dim: 8,
            unidirectional,
            ..Default::default()
        };
        let m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
        let calls = rckt_obs::counter("kernel.matmul.calls");
        rckt_obs::set_profiling(true);
        let before = calls.get();
        exact_score(&m, &ds, &hist, 1, t_len);
        let n = calls.get() - before;
        rckt_obs::set_profiling(false);
        n
    };
    let (uni, bi) = (matmuls(true), matmuls(false));
    assert_eq!(bi - uni, 4 * 2 * t_len as u64, "uni {uni}, bi {bi}");
}

/// A warm append costs one position, not the history: at window 200 the
/// 199th append issues exactly the GEMM FLOPs of the 49th, and a cold
/// `predict_targets` over the same 199 responses issues at least 5× as
/// many. FLOP counts repeat exactly on any machine; perfbench's traced run
/// times both sides (`incremental.append_us_per_position`,
/// `model.predict_targets_solo_ms`).
#[test]
fn warm_append_costs_one_position_at_window_200() {
    let _g = GLOBAL.lock().unwrap();
    let ds = SyntheticSpec::assist09().scaled(0.03).generate();
    let cfg = RcktConfig {
        dim: 8,
        unidirectional: true,
        ..Default::default()
    };
    let m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
    let window = 200;
    let hist = history(window - 1, ds.num_questions());
    let flops = rckt_obs::counter("kernel.matmul.flops");
    let count = |run: &mut dyn FnMut()| {
        let before = flops.get();
        run();
        flops.get() - before
    };
    let append_at = |n: usize| {
        let mut state = IncrementalState::new(&m, window).unwrap();
        state
            .append_responses(&m, &ds.q_matrix, &hist[..n - 1])
            .unwrap();
        let (q, c) = hist[n - 1];
        count(&mut || {
            state.append_response(&m, &ds.q_matrix, q, c).unwrap();
        })
    };
    rckt_obs::set_profiling(true);
    let (append_49, append_199) = (append_at(49), append_at(199));
    let cold_199 = count(&mut || {
        exact_score(&m, &ds, &hist, 1, window);
    });
    rckt_obs::set_profiling(false);
    assert_eq!(
        append_49, append_199,
        "an append must not grow with the history"
    );
    assert!(
        cold_199 >= 5 * append_199,
        "cold {cold_199} FLOPs vs warm append {append_199}: under 5x"
    );
}
