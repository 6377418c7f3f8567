//! QIKT (Chen et al., AAAI 2023): ante-hoc interpretable knowledge tracing
//! with a question-centric IRT prediction layer.
//!
//! Instead of an opaque MLP score, the final probability is a *linear*
//! combination of three interpretable logits — a knowledge **acquisition**
//! score (how much the sequence suggests the student has learned for this
//! question), a knowledge **mastery** score (overall state), and a
//! **question** score (question-intrinsic easiness) — each supervised by an
//! auxiliary BCE loss, so every component keeps a calibrated meaning.

use crate::common::{eval_positions, eval_weights, factual_cats, KtEmbedding, Prediction};
use crate::model::{descend, sgd_fit, FitReport, KtModel, SgdModel, TrainConfig};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{Lstm, PredictionMlp};
use rckt_tensor::{Adam, Graph, Init, ParamId, ParamStore, Shape, Tx};

#[derive(Clone, Debug)]
pub struct QiktConfig {
    pub dim: usize,
    pub dropout: f32,
    pub lr: f32,
    pub l2: f32,
    /// Weight of the auxiliary per-head losses.
    pub aux_weight: f32,
    pub seed: u64,
}

impl Default for QiktConfig {
    fn default() -> Self {
        QiktConfig {
            dim: 32,
            dropout: 0.2,
            lr: 1e-3,
            l2: 1e-5,
            aux_weight: 0.3,
            seed: 0,
        }
    }
}

pub struct Qikt {
    pub cfg: QiktConfig,
    emb: KtEmbedding,
    lstm: Lstm,
    head_acquisition: PredictionMlp,
    head_mastery: PredictionMlp,
    head_question: PredictionMlp,
    /// The interpretable combination weights over the three logits.
    combine: ParamId,
    store: ParamStore,
    adam: Adam,
}

/// The three interpretable logits plus their combination.
struct QiktForward {
    final_logits: Tx,
    acquisition: Tx,
    mastery: Tx,
    question: Tx,
}

impl Qikt {
    pub fn new(num_questions: usize, num_concepts: usize, cfg: QiktConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.dim;
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let lstm = Lstm::new(&mut store, "lstm", d, d, 1, cfg.dropout, &mut rng);
        let head_acquisition =
            PredictionMlp::new(&mut store, "ka", 2 * d, d, cfg.dropout, &mut rng);
        let head_mastery = PredictionMlp::new(&mut store, "km", d, d, cfg.dropout, &mut rng);
        let head_question = PredictionMlp::new(&mut store, "kq", d, d, cfg.dropout, &mut rng);
        let combine = store.register("combine", Shape::matrix(3, 1), Init::Ones, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        Qikt {
            cfg,
            emb,
            lstm,
            head_acquisition,
            head_mastery,
            head_question,
            combine,
            store,
            adam,
        }
    }

    fn forward(
        &self,
        g: &mut Graph,
        batch: &Batch,
        train: bool,
        rng: &mut SmallRng,
    ) -> QiktForward {
        let store = &self.store;
        let (bsz, t_len) = (batch.batch, batch.t_len);
        let e = self.emb.questions(g, store, batch);
        let cats = factual_cats(batch);
        let a = self.emb.interactions(g, store, e, &cats);
        let h = self
            .lstm
            .forward(g, store, a, bsz, t_len, false, train, rng);
        let prev_idx: Vec<usize> = (0..bsz)
            .flat_map(|b| (0..t_len).map(move |t| b * t_len + t.saturating_sub(1)))
            .collect();
        let h_prev = g.gather_rows(h, &prev_idx);

        let he = g.concat_cols(h_prev, e);
        let acquisition = self.head_acquisition.forward(g, store, he, train, rng);
        let mastery = self.head_mastery.forward(g, store, h_prev, train, rng);
        let question = self.head_question.forward(g, store, e, train, rng);

        let am = g.concat_cols(acquisition, mastery);
        let amq = g.concat_cols(am, question); // [B*T, 3]
        let w = store.leaf(g, self.combine);
        let final_logits = g.matmul(amq, w); // [B*T, 1]
        QiktForward {
            final_logits,
            acquisition,
            mastery,
            question,
        }
    }

    /// The three interpretable component probabilities per position
    /// `(acquisition, mastery, question)` — the model's explanation output.
    pub fn explain(&self, batch: &Batch) -> Vec<(f32, f32, f32)> {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = Graph::new();
        let f = self.forward(&mut g, batch, false, &mut rng);
        let pa = g.sigmoid(f.acquisition);
        let pm = g.sigmoid(f.mastery);
        let pq = g.sigmoid(f.question);
        let (pa, pm, pq) = (
            g.data(pa).to_vec(),
            g.data(pm).to_vec(),
            g.data(pq).to_vec(),
        );
        eval_positions(batch)
            .into_iter()
            .map(|i| (pa[i], pm[i], pq[i]))
            .collect()
    }
}

impl SgdModel for Qikt {
    fn train_batch(&mut self, batch: &Batch, clip_norm: f32, rng: &mut SmallRng) -> f32 {
        let mut g = Graph::new();
        let f = self.forward(&mut g, batch, true, rng);
        let (weights, norm) = eval_weights(batch);
        let main = g.bce_with_logits(f.final_logits, &batch.correct, &weights, norm);
        let aux_a = g.bce_with_logits(f.acquisition, &batch.correct, &weights, norm);
        let aux_q = g.bce_with_logits(f.question, &batch.correct, &weights, norm);
        let aux = g.add(aux_a, aux_q);
        let aux = g.mul_scalar(aux, self.cfg.aux_weight);
        let loss = g.add(main, aux);
        descend(g, loss, &mut self.store, &mut self.adam, clip_norm)
    }

    fn snapshot(&self) -> String {
        self.store.save_json()
    }

    fn restore(&mut self, snapshot: &str) {
        self.store = ParamStore::load_json(snapshot).expect("valid snapshot");
    }
}

impl KtModel for Qikt {
    fn name(&self) -> String {
        "QIKT".into()
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
        let f = self.forward(&mut g, batch, false, &mut rng);
        let probs = g.sigmoid(f.final_logits);
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
    use rckt_data::{make_batches, synthetic::SyntheticSpec, windows};

    #[test]
    fn qikt_loss_decreases() {
        let ds = SyntheticSpec::assist09().scaled(0.03).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(8)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut m = Qikt::new(
            ds.num_questions(),
            ds.num_concepts(),
            QiktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let first = m.train_batch(&batches[0], 5.0, &mut rng);
        let mut last = first;
        for _ in 0..25 {
            last = m.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn explanations_align_with_eval_positions() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 20, 5);
        let batches = make_batches(&ws, &[0, 1], &ds.q_matrix, 2);
        let m = Qikt::new(ds.num_questions(), ds.num_concepts(), QiktConfig::default());
        let ex = m.explain(&batches[0]);
        let preds = m.predict(&batches[0]);
        assert_eq!(ex.len(), preds.len());
        for (a, mm, q) in ex {
            for v in [a, mm, q] {
                assert!(v > 0.0 && v < 1.0);
            }
        }
    }
}
