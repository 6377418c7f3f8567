//! The [`KtModel`] trait and the shared SGD training harness.

use crate::common::Prediction;
use rckt_data::{make_batches, Batch, QMatrix, Window};
use rckt_metrics::{accuracy, auc, EarlyStopping};
use rckt_obs::rng::SmallRng;
use rckt_tensor::{Adam, Graph, ParamStore, Tx};
use std::time::Instant;

/// Training hyper-parameters shared by all models.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub max_epochs: usize,
    pub patience: usize,
    pub batch_size: usize,
    pub clip_norm: f32,
    /// Print an epoch summary line to stderr.
    pub verbose: bool,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 40,
            patience: 10,
            batch_size: 16,
            clip_norm: 5.0,
            verbose: false,
            seed: 0,
        }
    }
}

/// Outcome of a fit.
#[derive(Clone, Debug)]
pub struct FitReport {
    pub epochs_run: usize,
    pub best_epoch: usize,
    pub best_val_auc: f64,
    pub train_losses: Vec<f32>,
}

/// A trainable/predictable knowledge-tracing model.
pub trait KtModel {
    fn name(&self) -> String;

    /// Fit on training windows with validation-based early stopping.
    fn fit(
        &mut self,
        windows: &[Window],
        train_idx: &[usize],
        val_idx: &[usize],
        qm: &QMatrix,
        cfg: &TrainConfig,
    ) -> FitReport;

    /// Next-step predictions for every evaluation position of the batch
    /// (valid positions with at least one history step), in
    /// [`crate::common::eval_positions`] order.
    fn predict(&self, batch: &Batch) -> Vec<Prediction>;
}

/// Evaluate a model over batches: (AUC, ACC at 0.5).
pub fn evaluate<M: KtModel + ?Sized>(model: &M, batches: &[Batch]) -> (f64, f64) {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for b in batches {
        for p in model.predict(b) {
            scores.push(p.prob);
            labels.push(p.label);
        }
    }
    (auc(&scores, &labels), accuracy(&scores, &labels, 0.5))
}

/// Sub-trait for SGD-trained (neural) models; provides `fit` generically.
pub trait SgdModel {
    /// One optimization step on the batch; returns the loss value.
    fn train_batch(&mut self, batch: &Batch, clip_norm: f32, rng: &mut SmallRng) -> f32;
    /// Snapshot the weights (for best-epoch restore).
    fn snapshot(&self) -> String;
    fn restore(&mut self, snapshot: &str);
}

/// One optimizer step on the scalar `loss` of `g`; returns its value.
///
/// The graph is taken by value and dropped once its gradients are
/// harvested, before Adam writes the weights: a graph still alive at that
/// point would share every parameter buffer it read, and each write would
/// copy one.
pub(crate) fn descend(
    mut g: Graph,
    loss: Tx,
    store: &mut ParamStore,
    adam: &mut Adam,
    clip_norm: f32,
) -> f32 {
    let val = g.value(loss);
    store.zero_grads();
    g.backward(loss);
    store.accumulate_grads(&g);
    drop(g);
    store.clip_grad_norm(clip_norm);
    adam.step(store);
    val
}

/// Generic epoch-loop driver shared by every trainable model: epoch
/// shuffling, early stopping on validation AUC (patience per the paper),
/// best-weight restore, and uniform observability (a `fit` span with
/// `epoch`/`validate` children, `train.start`/`train.done` events, and the
/// per-epoch [`rckt_obs::report_epoch`] record).
///
/// `ctx` carries the model (plus any shared state) through the hook
/// closures, which keeps the borrows disjoint: `train_epoch` may also
/// capture the shuffle order and batching inputs, `validate` the validation
/// batches. The RNG is seeded once from `cfg.seed` and threaded only
/// through `train_epoch`, so the random stream is identical to the historic
/// inline loops (shuffle, then per-batch training draws; validation never
/// consumes randomness).
#[allow(clippy::too_many_arguments)]
pub fn run_fit<C, S>(
    ctx: &mut C,
    model_name: &str,
    cfg: &TrainConfig,
    n_train: usize,
    n_val: usize,
    mut train_epoch: impl FnMut(&mut C, usize, &mut SmallRng) -> f32,
    mut validate: impl FnMut(&mut C) -> (f64, f64),
    mut snapshot: impl FnMut(&mut C) -> S,
    mut restore: impl FnMut(&mut C, S),
) -> FitReport {
    let _fit_span = rckt_obs::span("fit");
    let fit_start = Instant::now();
    rckt_obs::report_start(model_name, n_train, n_val, cfg.max_epochs);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut es = EarlyStopping::new(cfg.patience);
    let mut best: Option<S> = None;
    let mut train_losses = Vec::new();
    let mut epochs_run = 0;

    for epoch in 0..cfg.max_epochs {
        epochs_run = epoch + 1;
        let epoch_start = Instant::now();
        let mean_loss = {
            let _s = rckt_obs::span("epoch");
            train_epoch(ctx, epoch, &mut rng)
        };
        train_losses.push(mean_loss);

        let (val_auc, val_acc) = {
            let _s = rckt_obs::span("validate");
            validate(ctx)
        };
        rckt_obs::report_epoch(
            &rckt_obs::EpochReport {
                model: model_name,
                epoch,
                mean_loss,
                val_auc,
                val_acc,
                wall_secs: epoch_start.elapsed().as_secs_f64(),
            },
            cfg.verbose,
        );
        if es.update(val_auc) {
            best = Some(snapshot(ctx));
        }
        if es.should_stop() {
            break;
        }
    }
    if let Some(s) = best {
        restore(ctx, s);
    }
    rckt_obs::report_done(
        model_name,
        epochs_run,
        es.best_epoch(),
        es.best(),
        fit_start.elapsed().as_secs_f64(),
    );
    FitReport {
        epochs_run,
        best_epoch: es.best_epoch(),
        best_val_auc: es.best(),
        train_losses,
    }
}

/// Shared fit loop for [`SgdModel`]s, built on [`run_fit`]: standard
/// whole-batch training epochs and [`evaluate`]-based validation.
pub fn sgd_fit<M: KtModel + SgdModel>(
    model: &mut M,
    windows: &[Window],
    train_idx: &[usize],
    val_idx: &[usize],
    qm: &QMatrix,
    cfg: &TrainConfig,
) -> FitReport {
    let val_batches = make_batches(windows, val_idx, qm, cfg.batch_size);
    let mut order = train_idx.to_vec();
    let name = model.name();
    run_fit(
        model,
        &name,
        cfg,
        train_idx.len(),
        val_idx.len(),
        |m, _epoch, rng| {
            rng.shuffle(&mut order);
            let batches = make_batches(windows, &order, qm, cfg.batch_size);
            let mut loss_sum = 0.0f64;
            for b in &batches {
                loss_sum += m.train_batch(b, cfg.clip_norm, rng) as f64;
            }
            (loss_sum / batches.len().max(1) as f64) as f32
        },
        |m| evaluate(m, &val_batches),
        |m| m.snapshot(),
        |m, s| m.restore(&s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{eval_positions, Prediction};

    /// A constant-probability dummy model for harness tests.
    struct Dummy {
        p: f32,
        fitted: bool,
    }

    impl KtModel for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }

        fn fit(
            &mut self,
            _w: &[Window],
            _t: &[usize],
            _v: &[usize],
            _qm: &QMatrix,
            _cfg: &TrainConfig,
        ) -> FitReport {
            self.fitted = true;
            FitReport {
                epochs_run: 1,
                best_epoch: 1,
                best_val_auc: 0.5,
                train_losses: vec![],
            }
        }

        fn predict(&self, batch: &Batch) -> Vec<Prediction> {
            eval_positions(batch)
                .iter()
                .map(|&i| Prediction {
                    prob: self.p,
                    label: batch.correct[i] >= 0.5,
                })
                .collect()
        }
    }

    #[test]
    fn evaluate_constant_model_gets_chance_auc() {
        let qm = QMatrix::new(vec![vec![0], vec![0]], 1);
        let w = Window {
            student: 0,
            questions: vec![0, 1, 0, 1],
            correct: vec![1, 0, 1, 0],
            len: 4,
        };
        let batches = make_batches(&[w], &[0], &qm, 4);
        let m = Dummy {
            p: 0.5,
            fitted: false,
        };
        let (a, acc) = evaluate(&m, &batches);
        assert!((a - 0.5).abs() < 1e-9);
        // constant 0.5 >= 0.5 predicts "correct" everywhere; labels at eval
        // positions are [0, 1, 0] -> acc = 1/3
        assert!((acc - 1.0 / 3.0).abs() < 1e-9);
    }
}
