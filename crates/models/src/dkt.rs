//! DKT (Piech et al., NeurIPS 2015): LSTM over interaction embeddings with
//! an MLP head predicting the next response. This is the embedding-based
//! variant the RCKT paper uses as a baseline and as one of its adaptable
//! encoders.

use crate::common::{eval_positions, eval_weights, factual_cats, KtEmbedding, Prediction};
use crate::model::{descend, sgd_fit, FitReport, KtModel, SgdModel, TrainConfig};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{Lstm, PredictionMlp};
use rckt_tensor::{Adam, Graph, ParamStore, Tx};

/// Hyper-parameters for [`Dkt`].
#[derive(Clone, Debug)]
pub struct DktConfig {
    pub dim: usize,
    pub layers: usize,
    pub dropout: f32,
    pub lr: f32,
    pub l2: f32,
    pub seed: u64,
}

impl Default for DktConfig {
    fn default() -> Self {
        DktConfig {
            dim: 32,
            layers: 1,
            dropout: 0.2,
            lr: 1e-3,
            l2: 1e-5,
            seed: 0,
        }
    }
}

pub struct Dkt {
    pub cfg: DktConfig,
    emb: KtEmbedding,
    lstm: Lstm,
    head: PredictionMlp,
    store: ParamStore,
    adam: Adam,
}

impl Dkt {
    pub fn new(num_questions: usize, num_concepts: usize, cfg: DktConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.dim;
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let lstm = Lstm::new(&mut store, "lstm", d, d, cfg.layers, cfg.dropout, &mut rng);
        let head = PredictionMlp::new(&mut store, "head", 2 * d, d, cfg.dropout, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        Dkt {
            cfg,
            emb,
            lstm,
            head,
            store,
            adam,
        }
    }

    /// Next-step logits for all positions `[B*T, 1]`; position `(b, t)` uses
    /// the hidden state after `t-1` interactions plus the target question
    /// embedding `e_t`. Position `t = 0` is garbage and must be masked.
    fn logits(&self, g: &mut Graph, batch: &Batch, train: bool, rng: &mut SmallRng) -> Tx {
        let e = self.emb.questions(g, &self.store, batch);
        let cats = factual_cats(batch);
        let a = self.emb.interactions(g, &self.store, e, &cats);
        let h = self.lstm.forward(
            g,
            &self.store,
            a,
            batch.batch,
            batch.t_len,
            false,
            train,
            rng,
        );
        // shift hidden states one step right
        let prev_idx: Vec<usize> = (0..batch.batch)
            .flat_map(|b| {
                let t_len = batch.t_len;
                (0..t_len).map(move |t| b * t_len + t.saturating_sub(1))
            })
            .collect();
        let h_prev = g.gather_rows(h, &prev_idx);
        let x = g.concat_cols(h_prev, e);
        self.head.forward(g, &self.store, x, train, rng)
    }
}

impl SgdModel for Dkt {
    fn train_batch(&mut self, batch: &Batch, clip_norm: f32, rng: &mut SmallRng) -> f32 {
        let mut g = Graph::new();
        let logits = self.logits(&mut g, batch, true, rng);
        let (weights, norm) = eval_weights(batch);
        let loss = g.bce_with_logits(logits, &batch.correct, &weights, norm);
        descend(g, loss, &mut self.store, &mut self.adam, clip_norm)
    }

    fn snapshot(&self) -> String {
        self.store.save_json()
    }

    fn restore(&mut self, snapshot: &str) {
        self.store = ParamStore::load_json(snapshot).expect("valid snapshot");
    }
}

impl KtModel for Dkt {
    fn name(&self) -> String {
        "DKT".into()
    }

    fn fit(
        &mut self,
        windows: &[Window],
        train_idx: &[usize],
        val_idx: &[usize],
        qm: &QMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        sgd_fit(self, windows, train_idx, val_idx, qm, cfg)
    }

    fn predict(&self, batch: &Batch) -> Vec<Prediction> {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = Graph::new();
        let logits = self.logits(&mut g, batch, false, &mut rng);
        let probs = g.sigmoid(logits);
        let data = g.data(probs);
        eval_positions(batch)
            .into_iter()
            .map(|i| Prediction {
                prob: data[i],
                label: batch.correct[i] >= 0.5,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
    use rckt_data::{make_batches, synthetic::SyntheticSpec, windows};

    #[test]
    fn dkt_overfits_tiny_dataset() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len()).collect();
        let mut model = Dkt::new(
            ds.num_questions(),
            ds.num_concepts(),
            DktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            },
        );
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        let first_loss = model.train_batch(&batches[0], 5.0, &mut rng);
        let mut last = first_loss;
        for _ in 0..30 {
            last = model.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(
            last < first_loss,
            "loss should decrease: {first_loss} -> {last}"
        );
    }

    #[test]
    fn train_batch_updates_every_parameter_in_place() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len()).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut model = Dkt::new(ds.num_questions(), ds.num_concepts(), DktConfig::default());
        let store = &model.store;
        let before: Vec<(*const f32, Vec<f32>)> = store
            .ids()
            .map(|p| (store.data(p).as_ptr(), store.data(p).to_vec()))
            .collect();
        model.train_batch(&batches[0], 5.0, &mut SmallRng::seed_from_u64(1));
        let mut moved = 0;
        for (p, (ptr, old)) in model.store.ids().zip(&before) {
            assert_eq!(
                model.store.data(p).as_ptr(),
                *ptr,
                "parameter {p:?} was copied"
            );
            moved += usize::from(model.store.data(p) != old.as_slice());
        }
        assert!(moved > 0, "the step moved the weights");
    }

    #[test]
    fn dkt_beats_chance_after_fit() {
        let ds = SyntheticSpec::assist12().scaled(0.2).generate();
        let ws = windows(&ds, 50, 5);
        let n = ws.len();
        let train: Vec<usize> = (0..n * 8 / 10).collect();
        let val: Vec<usize> = (n * 8 / 10..n * 9 / 10).collect();
        let test: Vec<usize> = (n * 9 / 10..n).collect();
        let mut model = Dkt::new(
            ds.num_questions(),
            ds.num_concepts(),
            DktConfig {
                dim: 16,
                lr: 2e-3,
                ..Default::default()
            },
        );
        let cfg = TrainConfig {
            max_epochs: 12,
            patience: 6,
            batch_size: 16,
            ..Default::default()
        };
        let report = model.fit(&ws, &train, &val, &ds.q_matrix, &cfg);
        assert!(
            report.best_val_auc > 0.54,
            "val auc {}",
            report.best_val_auc
        );
        let test_batches = make_batches(&ws, &test, &ds.q_matrix, 16);
        let (auc, _) = evaluate(&model, &test_batches);
        assert!(auc > 0.54, "test auc {auc}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 20, 5);
        let model = Dkt::new(ds.num_questions(), ds.num_concepts(), DktConfig::default());
        let batches = make_batches(&ws, &[0, 1], &ds.q_matrix, 2);
        for p in model.predict(&batches[0]) {
            assert!(p.prob > 0.0 && p.prob < 1.0);
        }
    }
}
