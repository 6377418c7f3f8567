//! Finite-difference gradient checks for every differentiable op.
//!
//! Each check builds a scalar loss from a parameterized input, runs
//! `backward`, and compares the analytic gradient against central
//! differences. f32 arithmetic limits precision, so tolerances are relative
//! and loose-ish (1e-2 relative at 1e-3 step).

use rckt_obs::rng::SmallRng;
use rckt_tensor::{Graph, Shape, Tx};

/// Build loss = f(x) for given input values, return (loss, analytic grad of x).
fn run<F>(data: &[f32], shape: Shape, f: &F) -> (f32, Vec<f32>)
where
    F: Fn(&mut Graph, Tx) -> Tx,
{
    let mut g = Graph::new();
    let x = g.leaf_grad(data.to_vec(), shape);
    let loss = f(&mut g, x);
    assert_eq!(g.shape(loss).numel(), 1, "loss must be scalar");
    let val = g.value(loss);
    g.backward(loss);
    (val, g.grad(x).to_vec())
}

fn gradcheck<F>(data: &[f32], shape: Shape, f: F)
where
    F: Fn(&mut Graph, Tx) -> Tx,
{
    let (_, analytic) = run(data, shape, &f);
    let h = 1e-3f32;
    for i in 0..data.len() {
        let mut plus = data.to_vec();
        plus[i] += h;
        let mut minus = data.to_vec();
        minus[i] -= h;
        let (lp, _) = run(&plus, shape, &f);
        let (lm, _) = run(&minus, shape, &f);
        let numeric = (lp - lm) / (2.0 * h);
        let a = analytic[i];
        let denom = 1.0f32.max(a.abs()).max(numeric.abs());
        assert!(
            (a - numeric).abs() / denom < 2e-2,
            "grad mismatch at {i}: analytic {a}, numeric {numeric}"
        );
    }
}

fn rand_vec(rng: &mut SmallRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

#[test]
fn gc_matmul() {
    let mut rng = SmallRng::seed_from_u64(1);
    let x = rand_vec(&mut rng, 6);
    let other = rand_vec(&mut rng, 12);
    gradcheck(&x, Shape::matrix(2, 3), move |g, x| {
        let b = g.input(other.clone(), Shape::matrix(3, 4));
        let y = g.matmul(x, b);
        g.sum_all(y)
    });
    // also check grad w.r.t. the right operand
    let a = rand_vec(&mut rng, 6);
    let x2 = rand_vec(&mut rng, 12);
    gradcheck(&x2, Shape::matrix(3, 4), move |g, x| {
        let at = g.input(a.clone(), Shape::matrix(2, 3));
        let y = g.matmul(at, x);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
}

#[test]
fn gc_bmm() {
    let mut rng = SmallRng::seed_from_u64(2);
    let x = rand_vec(&mut rng, 2 * 2 * 3);
    let other = rand_vec(&mut rng, 2 * 3 * 2);
    gradcheck(&x, Shape::cube(2, 2, 3), move |g, x| {
        let b = g.input(other.clone(), Shape::cube(2, 3, 2));
        let y = g.bmm(x, b);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
    let a = rand_vec(&mut rng, 2 * 2 * 3);
    let x2 = rand_vec(&mut rng, 2 * 3 * 2);
    gradcheck(&x2, Shape::cube(2, 3, 2), move |g, x| {
        let at = g.input(a.clone(), Shape::cube(2, 2, 3));
        let y = g.bmm(at, x);
        let y2 = g.mul(y, y);
        g.sum_all(y2)
    });
}

#[test]
fn gc_transpose() {
    let mut rng = SmallRng::seed_from_u64(3);
    let x = rand_vec(&mut rng, 6);
    gradcheck(&x, Shape::matrix(2, 3), |g, x| {
        let t = g.transpose(x);
        let sq = g.mul(t, t);
        g.sum_all(sq)
    });
    let x3 = rand_vec(&mut rng, 12);
    gradcheck(&x3, Shape::cube(2, 2, 3), |g, x| {
        let t = g.transpose(x);
        let sq = g.mul(t, t);
        g.sum_all(sq)
    });
}

#[test]
fn gc_elementwise_chain() {
    let mut rng = SmallRng::seed_from_u64(4);
    let x = rand_vec(&mut rng, 8);
    gradcheck(&x, Shape::matrix(2, 4), |g, x| {
        let s = g.sigmoid(x);
        let t = g.tanh(s);
        let r = g.relu(t);
        let e = g.exp(r);
        let m = g.mul_scalar(e, 0.5);
        let a = g.add_scalar(m, 1.0);
        g.mean_all(a)
    });
}

#[test]
fn gc_add_sub_mul() {
    let mut rng = SmallRng::seed_from_u64(5);
    let x = rand_vec(&mut rng, 6);
    let other = rand_vec(&mut rng, 6);
    gradcheck(&x, Shape::matrix(2, 3), move |g, x| {
        let b = g.input(other.clone(), Shape::matrix(2, 3));
        let s = g.add(x, b);
        let d = g.sub(s, x);
        let m = g.mul(d, x);
        g.sum_all(m)
    });
}

#[test]
fn gc_add_row() {
    let mut rng = SmallRng::seed_from_u64(6);
    // gradient w.r.t. the broadcast row
    let row = rand_vec(&mut rng, 3);
    let base = rand_vec(&mut rng, 6);
    gradcheck(&row, Shape::vector(3), move |g, r| {
        let a = g.input(base.clone(), Shape::matrix(2, 3));
        let y = g.add_row(a, r);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn gc_ln_clamped() {
    let x = vec![0.5, 1.0, 2.0, 0.2];
    gradcheck(&x, Shape::vector(4), |g, x| {
        let l = g.ln_clamped(x, 1e-6);
        g.sum_all(l)
    });
}

#[test]
fn gc_softmax() {
    let mut rng = SmallRng::seed_from_u64(7);
    let x = rand_vec(&mut rng, 6);
    let w = rand_vec(&mut rng, 6);
    gradcheck(&x, Shape::matrix(2, 3), move |g, x| {
        let s = g.softmax_last(x);
        let wt = g.input(w.clone(), Shape::matrix(2, 3));
        let m = g.mul(s, wt);
        g.sum_all(m)
    });
}

#[test]
fn gc_layer_norm() {
    let mut rng = SmallRng::seed_from_u64(8);
    let x = rand_vec(&mut rng, 8);
    let gamma = rand_vec(&mut rng, 4);
    let beta = rand_vec(&mut rng, 4);
    // w.r.t. x
    {
        let (gamma, beta) = (gamma.clone(), beta.clone());
        gradcheck(&x, Shape::matrix(2, 4), move |g, x| {
            let ga = g.input(gamma.clone(), Shape::vector(4));
            let be = g.input(beta.clone(), Shape::vector(4));
            let y = g.layer_norm(x, ga, be, 1e-5);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }
    // w.r.t. gamma
    {
        let (x, beta) = (x.clone(), beta.clone());
        gradcheck(&gamma, Shape::vector(4), move |g, ga| {
            let xt = g.input(x.clone(), Shape::matrix(2, 4));
            let be = g.input(beta.clone(), Shape::vector(4));
            let y = g.layer_norm(xt, ga, be, 1e-5);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }
    // w.r.t. beta
    gradcheck(&beta, Shape::vector(4), move |g, be| {
        let xt = g.input(x.clone(), Shape::matrix(2, 4));
        let ga = g.input(gamma.clone(), Shape::vector(4));
        let y = g.layer_norm(xt, ga, be, 1e-5);
        let sq = g.mul(y, y);
        g.sum_all(sq)
    });
}

#[test]
fn gc_concat_slice_gather() {
    let mut rng = SmallRng::seed_from_u64(9);
    let x = rand_vec(&mut rng, 6);
    let other = rand_vec(&mut rng, 4);
    gradcheck(&x, Shape::matrix(2, 3), move |g, x| {
        let b = g.input(other.clone(), Shape::matrix(2, 2));
        let c = g.concat_cols(x, b);
        let s = g.slice_cols(c, 1, 4);
        let gth = g.gather_rows(s, &[1, 0, 1]);
        let sq = g.mul(gth, gth);
        g.sum_all(sq)
    });
    let x2 = rand_vec(&mut rng, 6);
    gradcheck(&x2, Shape::matrix(3, 2), |g, x| {
        let r = g.slice_rows(x, 1, 3);
        let c = g.concat_rows(&[r, x]);
        let sq = g.mul(c, c);
        g.sum_all(sq)
    });
}

#[test]
fn gc_segment_mean_rows() {
    let mut rng = SmallRng::seed_from_u64(21);
    let x = rand_vec(&mut rng, 6 * 2);
    gradcheck(&x, Shape::matrix(6, 2), |g, x| {
        let m = g.segment_mean_rows(x, &[1, 3, 2]);
        let sq = g.mul(m, m);
        g.sum_all(sq)
    });
}

#[test]
fn segment_mean_values() {
    let mut g = Graph::new();
    let x = g.input(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::matrix(3, 2));
    let m = g.segment_mean_rows(x, &[2, 1]);
    assert_eq!(g.data(m), &[2.0, 3.0, 5.0, 6.0]);
}

#[test]
fn gc_select_rows() {
    let mut rng = SmallRng::seed_from_u64(22);
    let x = rand_vec(&mut rng, 4 * 3);
    let other = rand_vec(&mut rng, 4 * 3);
    // x is both the chosen and the passed-over input, on different rows.
    gradcheck(&x, Shape::matrix(4, 3), move |g, x| {
        let y = g.input(other.clone(), Shape::matrix(4, 3));
        let sq = g.mul(x, x);
        let s1 = g.select_rows(&[true, false, true, false], sq, y);
        let s2 = g.select_rows(&[true, true, false, false], y, x);
        let both = g.add(s1, s2);
        let w = g.mul(both, both);
        g.sum_all(w)
    });
}

#[test]
fn select_rows_copies_bits_and_routes_gradient() {
    let mut g = Graph::new();
    let on = g.leaf_grad(vec![1.0, 2.0, -0.0, 4.0], Shape::matrix(2, 2));
    let off = g.leaf_grad(vec![5.0, 6.0, 7.0, 8.0], Shape::matrix(2, 2));
    let s = g.select_rows(&[false, true], on, off);
    assert_eq!(g.data(s), &[5.0, 6.0, -0.0, 4.0]);
    assert_eq!(g.data(s)[2].to_bits(), (-0.0f32).to_bits());
    let loss = g.sum_all(s);
    g.backward(loss);
    assert_eq!(g.grad(on), &[0.0, 0.0, 1.0, 1.0]);
    assert_eq!(g.grad(off), &[1.0, 1.0, 0.0, 0.0]);
}

#[test]
fn gc_sum_last_and_reshape() {
    let mut rng = SmallRng::seed_from_u64(10);
    let x = rand_vec(&mut rng, 12);
    gradcheck(&x, Shape::matrix(3, 4), |g, x| {
        let r = g.reshape(x, Shape::matrix(4, 3));
        let s = g.sum_last(r);
        let sq = g.mul(s, s);
        g.sum_all(sq)
    });
}

#[test]
fn gc_dropout_mask_is_linear() {
    let mut rng = SmallRng::seed_from_u64(11);
    let x = rand_vec(&mut rng, 6);
    let mask = vec![2.0, 0.0, 2.0, 2.0, 0.0, 2.0];
    gradcheck(&x, Shape::matrix(2, 3), move |g, x| {
        let d = g.dropout_mask(x, mask.clone());
        let sq = g.mul(d, d);
        g.sum_all(sq)
    });
}

#[test]
fn gc_bce_with_logits() {
    let mut rng = SmallRng::seed_from_u64(12);
    let z = rand_vec(&mut rng, 5);
    let targets = vec![1.0, 0.0, 1.0, 0.0, 1.0];
    let weights = vec![1.0, 1.0, 0.0, 2.0, 1.0];
    gradcheck(&z, Shape::vector(5), move |g, z| {
        g.bce_with_logits(z, &targets, &weights, 4.0)
    });
}

#[test]
fn bce_matches_manual_formula() {
    let mut g = Graph::new();
    let z = g.leaf_grad(vec![0.3, -1.2], Shape::vector(2));
    let loss = g.bce_with_logits(z, &[1.0, 0.0], &[1.0, 1.0], 2.0);
    let expected = {
        let p1 = 1.0 / (1.0 + (-0.3f32).exp());
        let p2 = 1.0 / (1.0 + (1.2f32).exp());
        (-(p1.ln()) - (1.0 - p2).ln()) / 2.0
    };
    assert!((g.value(loss) - expected).abs() < 1e-5);
}

#[test]
fn gc_full_mlp_like_composition() {
    // A composition resembling the RCKT prediction path.
    let mut rng = SmallRng::seed_from_u64(13);
    let x = rand_vec(&mut rng, 8);
    let w1 = rand_vec(&mut rng, 4 * 3);
    let w2 = rand_vec(&mut rng, 3);
    gradcheck(&x, Shape::matrix(2, 4), move |g, x| {
        let w1t = g.input(w1.clone(), Shape::matrix(4, 3));
        let w2t = g.input(w2.clone(), Shape::matrix(3, 1));
        let h = g.matmul(x, w1t);
        let h = g.relu(h);
        let z = g.matmul(h, w2t);
        let p = g.sigmoid(z);
        let lnp = g.ln_clamped(p, 1e-7);
        let neg = g.neg(lnp);
        g.mean_all(neg)
    });
}
