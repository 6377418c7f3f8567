//! SAINT (Choi et al., L@S 2020): Separated Self-Attentive Neural Knowledge
//! Tracing — the encoder-decoder transformer for KT. The encoder
//! self-attends over the *exercise* stream (questions only); the decoder
//! self-attends over the *response* stream and cross-attends to the encoder,
//! separating "what was asked" from "how the student answered". A staple
//! baseline of the attention-KT literature that a library release ships
//! with (not one of the paper's six comparators).

use crate::common::{eval_positions, eval_weights, factual_cats, KtEmbedding, Prediction};
use crate::model::{descend, sgd_fit, FitReport, KtModel, SgdModel, TrainConfig};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{
    causal_mask, padding_mask, AttentionBias, FeedForward, LayerNorm, MultiHeadAttention,
    PositionalEmbedding, PredictionMlp,
};
use rckt_tensor::{Adam, Graph, ParamStore, Tx};

#[derive(Clone, Debug)]
pub struct SaintConfig {
    pub dim: usize,
    pub heads: usize,
    /// Encoder/decoder blocks each.
    pub layers: usize,
    pub dropout: f32,
    pub lr: f32,
    pub l2: f32,
    pub max_len: usize,
    pub seed: u64,
}

impl Default for SaintConfig {
    fn default() -> Self {
        SaintConfig {
            dim: 32,
            heads: 4,
            layers: 1,
            dropout: 0.2,
            lr: 2e-3,
            l2: 1e-5,
            max_len: 200,
            seed: 0,
        }
    }
}

struct EncBlock {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

struct DecBlock {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ln3: LayerNorm,
}

pub struct Saint {
    pub cfg: SaintConfig,
    emb: KtEmbedding,
    pos: PositionalEmbedding,
    enc: Vec<EncBlock>,
    dec: Vec<DecBlock>,
    head: PredictionMlp,
    store: ParamStore,
    adam: Adam,
}

impl Saint {
    pub fn new(num_questions: usize, num_concepts: usize, cfg: SaintConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.dim;
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let pos = PositionalEmbedding::new(&mut store, "pos", cfg.max_len, d, &mut rng);
        let enc = (0..cfg.layers)
            .map(|l| EncBlock {
                attn: MultiHeadAttention::new(
                    &mut store,
                    &format!("enc{l}.attn"),
                    d,
                    cfg.heads,
                    false,
                    cfg.dropout,
                    &mut rng,
                ),
                ffn: FeedForward::new(
                    &mut store,
                    &format!("enc{l}.ffn"),
                    d,
                    2 * d,
                    cfg.dropout,
                    &mut rng,
                ),
                ln1: LayerNorm::new(&mut store, &format!("enc{l}.ln1"), d, &mut rng),
                ln2: LayerNorm::new(&mut store, &format!("enc{l}.ln2"), d, &mut rng),
            })
            .collect();
        let dec = (0..cfg.layers)
            .map(|l| DecBlock {
                self_attn: MultiHeadAttention::new(
                    &mut store,
                    &format!("dec{l}.self"),
                    d,
                    cfg.heads,
                    false,
                    cfg.dropout,
                    &mut rng,
                ),
                cross_attn: MultiHeadAttention::new(
                    &mut store,
                    &format!("dec{l}.cross"),
                    d,
                    cfg.heads,
                    false,
                    cfg.dropout,
                    &mut rng,
                ),
                ffn: FeedForward::new(
                    &mut store,
                    &format!("dec{l}.ffn"),
                    d,
                    2 * d,
                    cfg.dropout,
                    &mut rng,
                ),
                ln1: LayerNorm::new(&mut store, &format!("dec{l}.ln1"), d, &mut rng),
                ln2: LayerNorm::new(&mut store, &format!("dec{l}.ln2"), d, &mut rng),
                ln3: LayerNorm::new(&mut store, &format!("dec{l}.ln3"), d, &mut rng),
            })
            .collect();
        let head = PredictionMlp::new(&mut store, "head", 2 * d, d, cfg.dropout, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        Saint {
            cfg,
            emb,
            pos,
            enc,
            dec,
            head,
            store,
            adam,
        }
    }

    /// Next-step logits `[B*T, 1]` (position `t = 0` masked by the caller):
    /// decoder position `t` sees responses `< t` and exercises `≤ t`.
    fn logits(&self, g: &mut Graph, batch: &Batch, train: bool, rng: &mut SmallRng) -> Tx {
        let store = &self.store;
        let (bsz, t_len, d) = (batch.batch, batch.t_len, self.cfg.dim);
        let e = self.emb.questions(g, store, batch);
        let cats = factual_cats(batch);
        let a = self.emb.interactions(g, store, e, &cats);

        // response stream shifted right: position t holds interaction t−1
        let shift_idx: Vec<usize> = (0..bsz)
            .flat_map(|b| (0..t_len).map(move |t| b * t_len + t.saturating_sub(1)))
            .collect();
        let a_prev = g.gather_rows(a, &shift_idx);
        let mut zero_first = vec![1.0f32; bsz * t_len * d];
        for b in 0..bsz {
            zero_first[b * t_len * d..b * t_len * d + d]
                .iter_mut()
                .for_each(|v| *v = 0.0);
        }
        let a_prev = g.dropout_mask(a_prev, zero_first);

        let p = self.pos.forward(g, store, bsz, t_len);
        let mut enc_x = g.add(e, p);
        let mut dec_x = g.add(a_prev, p);

        // causal-inclusive masks (+ padding) for both streams
        let mut mask = causal_mask(bsz, t_len);
        for (m, pm) in mask
            .iter_mut()
            .zip(padding_mask(bsz, t_len, t_len, &batch.valid))
        {
            *m += pm;
        }
        let bias = AttentionBias {
            mask: Some(mask),
            distances: None,
        };

        for blk in &self.enc {
            let xn = blk.ln1.forward(g, store, enc_x);
            let att = blk
                .attn
                .forward(g, store, xn, xn, xn, bsz, t_len, t_len, &bias, train, rng);
            let x1 = g.add(enc_x, att.out);
            let x1n = blk.ln2.forward(g, store, x1);
            let ff = blk.ffn.forward(g, store, x1n, train, rng);
            enc_x = g.add(x1, ff);
        }
        for blk in &self.dec {
            let xn = blk.ln1.forward(g, store, dec_x);
            let att = blk
                .self_attn
                .forward(g, store, xn, xn, xn, bsz, t_len, t_len, &bias, train, rng);
            let x1 = g.add(dec_x, att.out);
            let x1n = blk.ln2.forward(g, store, x1);
            let enc_n = blk.ln2.forward(g, store, enc_x);
            let cross = blk.cross_attn.forward(
                g, store, x1n, enc_n, enc_n, bsz, t_len, t_len, &bias, train, rng,
            );
            let x2 = g.add(x1, cross.out);
            let x2n = blk.ln3.forward(g, store, x2);
            let ff = blk.ffn.forward(g, store, x2n, train, rng);
            dec_x = g.add(x2, ff);
        }
        let x = g.concat_cols(dec_x, e);
        self.head.forward(g, store, x, train, rng)
    }
}

impl SgdModel for Saint {
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

impl KtModel for Saint {
    fn name(&self) -> String {
        "SAINT".into()
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
    fn saint_loss_decreases() {
        let ds = SyntheticSpec::assist09().scaled(0.03).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(8)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut m = Saint::new(
            ds.num_questions(),
            ds.num_concepts(),
            SaintConfig {
                dim: 16,
                heads: 2,
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

    /// The decoder must not see the response at its own position: flipping
    /// r_t leaves the prediction at t unchanged.
    #[test]
    fn saint_no_response_leak() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 10, 5);
        let m = Saint::new(
            ds.num_questions(),
            ds.num_concepts(),
            SaintConfig {
                dim: 16,
                heads: 2,
                dropout: 0.0,
                ..Default::default()
            },
        );
        let batches = make_batches(&ws, &[0], &ds.q_matrix, 1);
        let b = &batches[0];
        let preds = m.predict(b);
        let mut flipped = b.clone();
        let last = b.seq_len(0) - 1;
        flipped.correct[last] = 1.0 - flipped.correct[last];
        let preds2 = m.predict(&flipped);
        let pos = eval_positions(b);
        let k = pos.iter().position(|&i| i == last).unwrap();
        assert!(
            (preds[k].prob - preds2[k].prob).abs() < 1e-6,
            "own response leaked: {} vs {}",
            preds[k].prob,
            preds2[k].prob
        );
    }

    #[test]
    fn saint_predictions_are_probabilities() {
        let ds = SyntheticSpec::assist09().scaled(0.02).generate();
        let ws = windows(&ds, 10, 5);
        let m = Saint::new(
            ds.num_questions(),
            ds.num_concepts(),
            SaintConfig::default(),
        );
        let batches = make_batches(&ws, &[0, 1], &ds.q_matrix, 2);
        for p in m.predict(&batches[0]) {
            assert!(p.prob > 0.0 && p.prob < 1.0);
        }
    }
}
