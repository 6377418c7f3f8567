//! DKVMN (Zhang et al., WWW 2017): Dynamic Key-Value Memory Networks — the
//! classic external-memory knowledge-tracing model. A static *key* memory
//! holds latent concepts; a per-student dynamic *value* memory holds mastery
//! of each. Reads and writes are addressed by softmax correlation between
//! the question embedding and the keys:
//!
//! ```text
//! w  = softmax(M^k · k_q)                    (addressing)
//! r  = Σᵢ wᵢ M^v_i                          (read → predict)
//! M^v_i ← M^v_i ∘ (1 − wᵢ e) + wᵢ a         (erase-then-add write)
//! ```
//!
//! Not one of the paper's six baselines, but a staple of the KT literature
//! a credible library release ships with.

use crate::common::{eval_positions, eval_weights, factual_cats, KtEmbedding, Prediction};
use crate::model::{descend, sgd_fit, FitReport, KtModel, SgdModel, TrainConfig};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{time_indices, Linear, PredictionMlp};
use rckt_tensor::{Adam, Graph, Init, ParamId, ParamStore, Shape, Tx};

#[derive(Clone, Debug)]
pub struct DkvmnConfig {
    /// Embedding width (key side).
    pub dim: usize,
    /// Value-memory slot width.
    pub value_dim: usize,
    /// Number of memory slots (latent concepts).
    pub slots: usize,
    pub dropout: f32,
    pub lr: f32,
    pub l2: f32,
    pub seed: u64,
}

impl Default for DkvmnConfig {
    fn default() -> Self {
        DkvmnConfig {
            dim: 32,
            value_dim: 32,
            slots: 10,
            dropout: 0.2,
            lr: 2e-3,
            l2: 1e-5,
            seed: 0,
        }
    }
}

pub struct Dkvmn {
    pub cfg: DkvmnConfig,
    emb: KtEmbedding,
    /// Static key memory `[slots, dim]`.
    key_memory: ParamId,
    /// Initial value memory `[slots, value_dim]` (learned).
    value_init: ParamId,
    erase: Linear,
    add: Linear,
    head: PredictionMlp,
    store: ParamStore,
    adam: Adam,
}

impl Dkvmn {
    pub fn new(num_questions: usize, num_concepts: usize, cfg: DkvmnConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let (d, dv, n) = (cfg.dim, cfg.value_dim, cfg.slots);
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let key_memory = store.register("mem.key", Shape::matrix(n, d), Init::Xavier, &mut rng);
        let value_init =
            store.register("mem.v0", Shape::matrix(n, dv), Init::Uniform(0.1), &mut rng);
        let erase = Linear::new(&mut store, "erase", d, dv, &mut rng);
        let add = Linear::new(&mut store, "add", d, dv, &mut rng);
        let head = PredictionMlp::new(&mut store, "head", dv + d, d, cfg.dropout, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        Dkvmn {
            cfg,
            emb,
            key_memory,
            value_init,
            erase,
            add,
            head,
            store,
            adam,
        }
    }

    /// Next-step logits `[B*T, 1]`; position t reads memory written by
    /// interactions 0..t−1 (t = 0 reads the learned initial memory).
    fn logits(&self, g: &mut Graph, batch: &Batch, train: bool, rng: &mut SmallRng) -> Tx {
        let store = &self.store;
        let (bsz, t_len) = (batch.batch, batch.t_len);
        let (dv, n) = (self.cfg.value_dim, self.cfg.slots);

        let e = self.emb.questions(g, store, batch); // [B*T, d]
        let cats = factual_cats(batch);
        let a = self.emb.interactions(g, store, e, &cats); // [B*T, d]

        // addressing weights for all positions at once: softmax(e · M^kᵀ)
        let mk = store.leaf(g, self.key_memory); // [n, d]
        let mkt = g.transpose(mk); // [d, n]
        let scores = g.matmul(e, mkt); // [B*T, n]
        let w_all = g.softmax_last(scores);

        // dynamic value memory [B, n, dv], starting from the learned init
        let v0 = store.leaf(g, self.value_init); // [n, dv]
        let reps: Vec<Tx> = (0..bsz).map(|_| v0).collect();
        let mut mv = g.concat_rows(&reps); // [B*n, dv]
        let mut mv3 = g.reshape(mv, Shape::cube(bsz, n, dv));

        let mut reads: Vec<Tx> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let idx = time_indices(bsz, t_len, t);
            let w_t = g.gather_rows(w_all, &idx); // [B, n]
            let w3 = g.reshape(w_t, Shape::cube(bsz, 1, n));
            // read before writing this step's interaction
            let r3 = g.bmm(w3, mv3); // [B, 1, dv]
            let r = g.reshape(r3, Shape::matrix(bsz, dv));
            reads.push(r);

            // write: erase-then-add with this step's interaction embedding
            let a_t = g.gather_rows(a, &idx); // [B, d]
            let e_gate = self.erase.forward(g, store, a_t);
            let e_gate = g.sigmoid(e_gate); // [B, dv]
            let a_vec = self.add.forward(g, store, a_t);
            let a_vec = g.tanh(a_vec); // [B, dv]
            let w_col = g.reshape(w_t, Shape::cube(bsz, n, 1));
            let e3 = g.reshape(e_gate, Shape::cube(bsz, 1, dv));
            let a3 = g.reshape(a_vec, Shape::cube(bsz, 1, dv));
            let outer_e = g.bmm(w_col, e3); // [B, n, dv]
            let outer_a = g.bmm(w_col, a3); // [B, n, dv]
                                            // M ← M ∘ (1 − w e) + w a  ≡  M − M ∘ (w e) + w a
            let m_we = g.mul(mv3, outer_e);
            let kept = g.sub(mv3, m_we);
            mv3 = g.add(kept, outer_a);
        }
        // b-major reads [B*T, dv]
        let stacked = g.concat_rows(&reads);
        let perm: Vec<usize> = (0..bsz)
            .flat_map(|b| (0..t_len).map(move |t| t * bsz + b))
            .collect();
        mv = g.gather_rows(stacked, &perm);

        let x = g.concat_cols(mv, e);
        self.head.forward(g, store, x, train, rng)
    }
}

impl SgdModel for Dkvmn {
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

impl KtModel for Dkvmn {
    fn name(&self) -> String {
        "DKVMN".into()
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
    use rckt_data::{make_batches, synthetic::SyntheticSpec, windows};

    #[test]
    fn dkvmn_loss_decreases() {
        let ds = SyntheticSpec::assist09().scaled(0.03).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(8)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut m = Dkvmn::new(
            ds.num_questions(),
            ds.num_concepts(),
            DkvmnConfig {
                dim: 16,
                value_dim: 16,
                slots: 5,
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

    /// The read at position t must not depend on the response at position t
    /// (memory is read before writing) — the no-leakage property.
    #[test]
    fn read_before_write_no_leak() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 10, 5);
        let m = Dkvmn::new(
            ds.num_questions(),
            ds.num_concepts(),
            DkvmnConfig {
                dim: 16,
                value_dim: 16,
                slots: 4,
                dropout: 0.0,
                ..Default::default()
            },
        );
        let batches = make_batches(&ws, &[0], &ds.q_matrix, 1);
        let b = &batches[0];
        let preds = m.predict(b);
        // flip the last response's label; prediction at that position must
        // be unchanged
        let mut flipped = b.clone();
        let last = b.seq_len(0) - 1;
        flipped.correct[last] = 1.0 - flipped.correct[last];
        let preds2 = m.predict(&flipped);
        let pos = eval_positions(b);
        let k = pos.iter().position(|&i| i == last).unwrap();
        assert!(
            (preds[k].prob - preds2[k].prob).abs() < 1e-6,
            "own response leaked into DKVMN read: {} vs {}",
            preds[k].prob,
            preds2[k].prob
        );
    }

    #[test]
    fn predictions_are_probabilities() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 10, 5);
        let m = Dkvmn::new(
            ds.num_questions(),
            ds.num_concepts(),
            DkvmnConfig::default(),
        );
        let batches = make_batches(&ws, &[0, 1], &ds.q_matrix, 2);
        for p in m.predict(&batches[0]) {
            assert!(p.prob > 0.0 && p.prob < 1.0);
        }
    }
}
