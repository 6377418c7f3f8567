//! First-order optimizers operating on a [`ParamStore`].
//!
//! Both write the weights through [`Arc::make_mut`]: a graph that still
//! holds a parameter keeps the values it was built with, and the store
//! gets a fresh buffer. Drop the step's graph before calling `step` and
//! every buffer is updated in place.

use crate::param::ParamStore;
use std::sync::Arc;

/// Adam with decoupled behaviour matching the paper's training setup
/// (Kingma & Ba 2014; L2 regularization added to the gradient, as in the
/// classic formulation the RCKT authors use for their `l2` hyper-parameter).
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Classic L2 penalty coefficient (adds `l2 * w` to the gradient).
    pub l2: f32,
    t: u64,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2: 0.0,
            t: 0,
        }
    }

    pub fn with_l2(mut self, l2: f32) -> Self {
        self.l2 = l2;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Adjust the learning rate (for warmup/decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update using the gradients currently stored in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in &mut store.params {
            for (i, w) in Arc::make_mut(&mut p.data).iter_mut().enumerate() {
                let mut g = p.grad[i];
                if self.l2 != 0.0 {
                    g += self.l2 * *w;
                }
                p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * g;
                p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * g * g;
                let mhat = p.m[i] / bc1;
                let vhat = p.v[i] / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain SGD, mostly useful for tests and sanity baselines.
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    pub fn step(&mut self, store: &mut ParamStore) {
        for p in &mut store.params {
            for (w, g) in Arc::make_mut(&mut p.data).iter_mut().zip(&p.grad) {
                *w -= self.lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Tx};
    use crate::param::{Init, ParamId};
    use crate::shape::Shape;
    use rckt_obs::rng::SmallRng;

    /// Minimize (w - 3)^2 with each optimizer; both must approach 3.
    fn quadratic_descent(use_adam: bool) -> f32 {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::scalar(), Init::Zeros, &mut rng);
        let mut adam = Adam::new(0.1);
        let mut sgd = Sgd::new(0.1);
        for _ in 0..200 {
            store.zero_grads();
            let mut g = Graph::new();
            let wt = store.leaf(&mut g, w);
            let shifted = g.add_scalar(wt, -3.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            store.accumulate_grads(&g);
            if use_adam {
                adam.step(&mut store);
            } else {
                sgd.step(&mut store);
            }
        }
        store.data(w)[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!((quadratic_descent(true) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!((quadratic_descent(false) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn set_lr_takes_effect() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::scalar(), Init::Zeros, &mut rng);
        let mut adam = Adam::new(0.1);
        adam.set_lr(0.0); // frozen
        store.zero_grads();
        let mut g = Graph::new();
        let wt = store.leaf(&mut g, w);
        let loss = g.sum_all(wt);
        g.backward(loss);
        store.accumulate_grads(&g);
        adam.step(&mut store);
        assert_eq!(store.data(w)[0], 0.0, "lr = 0 must freeze weights");
    }

    /// A store with two parameters and the loss `sum(w * 2) + sum(b)`
    /// built over them, swept backward and harvested.
    fn stepped_store() -> (ParamStore, Vec<ParamId>, Graph, Vec<Tx>) {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::matrix(2, 3), Init::Xavier, &mut rng);
        let b = store.register("b", Shape::vector(4), Init::Ones, &mut rng);
        let mut g = Graph::new();
        let (wt, bt) = (store.leaf(&mut g, w), store.leaf(&mut g, b));
        let w2 = g.mul_scalar(wt, 2.0);
        let (sw, sb) = (g.sum_all(w2), g.sum_all(bt));
        let loss = g.add(sw, sb);
        g.backward(loss);
        store.accumulate_grads(&g);
        (store, vec![w, b], g, vec![wt, bt])
    }

    #[test]
    fn a_graph_alive_across_a_step_keeps_the_old_values() {
        for use_adam in [true, false] {
            let (mut store, ids, g, leaves) = stepped_store();
            let old: Vec<Vec<f32>> = ids.iter().map(|&p| store.data(p).to_vec()).collect();
            if use_adam {
                Adam::new(0.1).step(&mut store);
            } else {
                Sgd::new(0.1).step(&mut store);
            }
            for ((&p, &t), old) in ids.iter().zip(&leaves).zip(&old) {
                assert_eq!(g.data(t), old.as_slice(), "copy on write");
                assert_ne!(store.data(p), old.as_slice(), "the store was updated");
            }
        }
    }

    #[test]
    fn a_step_with_no_graph_alive_updates_every_buffer_in_place() {
        for use_adam in [true, false] {
            let (mut store, ids, g, _) = stepped_store();
            drop(g);
            let ptrs: Vec<*const f32> = ids.iter().map(|&p| store.data(p).as_ptr()).collect();
            let old: Vec<Vec<f32>> = ids.iter().map(|&p| store.data(p).to_vec()).collect();
            if use_adam {
                Adam::new(0.1).step(&mut store);
            } else {
                Sgd::new(0.1).step(&mut store);
            }
            for ((&p, &ptr), old) in ids.iter().zip(&ptrs).zip(&old) {
                assert_eq!(store.data(p).as_ptr(), ptr, "no copy");
                assert_ne!(store.data(p), old.as_slice(), "updated");
            }
        }
    }

    #[test]
    fn graph_reset_reuses_arena() {
        let mut g = Graph::new();
        let a = g.leaf_grad(vec![1.0, 2.0], Shape::vector(2));
        let loss = g.sum_all(a);
        g.backward(loss);
        assert_eq!(g.len(), 2);
        g.reset();
        assert!(g.is_empty());
        // arena usable again
        let b = g.leaf_grad(vec![3.0], Shape::scalar());
        let l2 = g.sum_all(b);
        g.backward(l2);
        assert_eq!(g.grad(b), &[1.0]);
    }

    #[test]
    fn l2_shrinks_solution_toward_zero() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::scalar(), Init::Zeros, &mut rng);
        let mut adam = Adam::new(0.1).with_l2(1.0);
        for _ in 0..300 {
            store.zero_grads();
            let mut g = Graph::new();
            let wt = store.leaf(&mut g, w);
            let shifted = g.add_scalar(wt, -3.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            store.accumulate_grads(&g);
            adam.step(&mut store);
        }
        let val = store.data(w)[0];
        assert!(val < 2.9 && val > 1.0, "L2 should pull below 3, got {val}");
    }
}
