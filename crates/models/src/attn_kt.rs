//! Attention-based knowledge tracing: SAKT, SAKT+ and AKT.
//!
//! All three share one backbone: target-question queries cross-attend over
//! the (one-step-shifted, so strictly-past) interaction sequence through a
//! stack of pre-norm attention blocks.
//!
//! * **SAKT** (Pandey & Karypis 2019): plain scaled dot-product attention
//!   on concept-level embeddings.
//! * **SAKT+**: SAKT with question-ID embeddings added (the variant the
//!   paper compares against in Fig. 6); exposes its attention weights.
//! * **AKT** (Ghosh et al. 2020): adds the monotonic attention decay
//!   (learned per-head distance-decay rate θ) and Rasch embeddings
//!   (`e = c + μ_q · d`, a scalar question-difficulty factor μ times a
//!   concept variation vector).

use crate::common::{eval_positions, eval_weights, factual_cats, KtEmbedding, Prediction};
use crate::model::{descend, sgd_fit, FitReport, KtModel, SgdModel, TrainConfig};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{
    abs_distances, padding_mask, AttentionBias, Embedding, FeedForward, LayerNorm,
    MultiHeadAttention, PositionalEmbedding, PredictionMlp,
};
use rckt_tensor::{Adam, Graph, Init, ParamId, ParamStore, Shape, Tx};

/// Which published model this backbone instance reproduces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttnVariant {
    Sakt,
    SaktPlus,
    Akt,
}

#[derive(Clone, Debug)]
pub struct AttnKtConfig {
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    pub dropout: f32,
    pub lr: f32,
    pub l2: f32,
    pub max_len: usize,
    pub seed: u64,
}

impl Default for AttnKtConfig {
    fn default() -> Self {
        AttnKtConfig {
            dim: 32,
            heads: 4,
            layers: 1,
            dropout: 0.2,
            lr: 1e-3,
            l2: 1e-5,
            max_len: 200,
            seed: 0,
        }
    }
}

/// Rasch-model parameters (AKT): a scalar difficulty `μ_q` per question and
/// a variation vector `d_k` per concept.
struct Rasch {
    mu: ParamId,
    variation: Embedding,
}

struct Block {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln_q: LayerNorm,
    ln_kv: LayerNorm,
    ln_ff: LayerNorm,
}

pub struct AttnKt {
    pub cfg: AttnKtConfig,
    pub variant: AttnVariant,
    emb: KtEmbedding,
    pos: PositionalEmbedding,
    rasch: Option<Rasch>,
    blocks: Vec<Block>,
    head: PredictionMlp,
    store: ParamStore,
    adam: Adam,
}

impl AttnKt {
    pub fn new(
        variant: AttnVariant,
        num_questions: usize,
        num_concepts: usize,
        cfg: AttnKtConfig,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.dim;
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let pos = PositionalEmbedding::new(&mut store, "pos", cfg.max_len, d, &mut rng);
        let monotonic = variant == AttnVariant::Akt;
        let rasch = (variant == AttnVariant::Akt).then(|| Rasch {
            mu: store.register(
                "rasch.mu",
                Shape::matrix(num_questions, 1),
                Init::Zeros,
                &mut rng,
            ),
            variation: Embedding::new(&mut store, "rasch.d", num_concepts, d, &mut rng),
        });
        let blocks = (0..cfg.layers)
            .map(|l| Block {
                attn: MultiHeadAttention::new(
                    &mut store,
                    &format!("blk{l}.attn"),
                    d,
                    cfg.heads,
                    monotonic,
                    cfg.dropout,
                    &mut rng,
                ),
                ffn: FeedForward::new(
                    &mut store,
                    &format!("blk{l}.ffn"),
                    d,
                    2 * d,
                    cfg.dropout,
                    &mut rng,
                ),
                ln_q: LayerNorm::new(&mut store, &format!("blk{l}.ln_q"), d, &mut rng),
                ln_kv: LayerNorm::new(&mut store, &format!("blk{l}.ln_kv"), d, &mut rng),
                ln_ff: LayerNorm::new(&mut store, &format!("blk{l}.ln_ff"), d, &mut rng),
            })
            .collect();
        let head = PredictionMlp::new(&mut store, "head", 2 * d, d, cfg.dropout, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        AttnKt {
            cfg,
            variant,
            emb,
            pos,
            rasch,
            blocks,
            head,
            store,
            adam,
        }
    }

    /// Question-side embeddings: concept mean (+ question id for SAKT+/AKT,
    /// + Rasch term for AKT).
    fn question_embed(&self, g: &mut Graph, batch: &Batch) -> Tx {
        let store = &self.store;
        let mut e = match self.variant {
            AttnVariant::Sakt => self.emb.concepts_only(g, store, batch),
            AttnVariant::SaktPlus | AttnVariant::Akt => self.emb.questions(g, store, batch),
        };
        if let Some(rasch) = &self.rasch {
            let mu_table = store.leaf(g, rasch.mu);
            let mu = g.gather_rows(mu_table, &batch.questions); // [B*T, 1]
            let d_all = rasch.variation.forward(g, store, &batch.concept_flat);
            let d_mean = g.segment_mean_rows(d_all, &batch.concept_lens); // [B*T, d]
                                                                          // broadcast μ over columns: replicate the scalar with matmul by a
                                                                          // row of ones, then multiply elementwise.
            let ones = g.input(vec![1.0; self.cfg.dim], Shape::matrix(1, self.cfg.dim));
            let mu_b = g.matmul(mu, ones); // [B*T, d]
            let rasch_term = g.mul(mu_b, d_mean);
            e = g.add(e, rasch_term);
        }
        e
    }

    /// Forward pass producing next-step logits `[B*T, 1]` (position `t = 0`
    /// garbage/masked) and per-layer mean-over-heads attention maps.
    fn forward(
        &self,
        g: &mut Graph,
        batch: &Batch,
        train: bool,
        rng: &mut SmallRng,
    ) -> (Tx, Vec<Vec<f32>>) {
        let store = &self.store;
        let (bsz, t_len) = (batch.batch, batch.t_len);
        let e = self.question_embed(g, batch);
        let cats = factual_cats(batch);
        let a = self.emb.interactions(g, store, e, &cats);

        // Shift interactions one step right so queries only see strict past.
        let shift_idx: Vec<usize> = (0..bsz)
            .flat_map(|b| (0..t_len).map(move |t| b * t_len + t.saturating_sub(1)))
            .collect();
        let a_prev = g.gather_rows(a, &shift_idx);
        // Zero out the t = 0 rows (no history yet).
        let mut first_mask = vec![1.0f32; bsz * t_len * self.cfg.dim];
        for b in 0..bsz {
            for j in 0..self.cfg.dim {
                first_mask[(b * t_len) * self.cfg.dim + j] = 0.0;
            }
        }
        let a_prev = g.dropout_mask(a_prev, first_mask);

        let p = self.pos.forward(g, store, bsz, t_len);
        let mut q_stream = g.add(e, p);
        let kv = g.add(a_prev, p);

        // Causal-inclusive mask over shifted keys (key t holds a_{t-1}) plus
        // padding.
        let mut mask = rckt_tensor::layers::causal_mask(bsz, t_len);
        let pad = padding_mask(bsz, t_len, t_len, &batch.valid);
        for (m, p) in mask.iter_mut().zip(&pad) {
            *m += p;
        }
        // allow the diagonal (shifted key t == interaction t-1)
        let bias = AttentionBias {
            mask: Some(mask),
            distances: Some(abs_distances(t_len, t_len)),
        };

        let mut attention_maps = Vec::new();
        for blk in &self.blocks {
            let qn = blk.ln_q.forward(g, store, q_stream);
            let kvn = blk.ln_kv.forward(g, store, kv);
            let att = blk
                .attn
                .forward(g, store, qn, kvn, kvn, bsz, t_len, t_len, &bias, train, rng);
            attention_maps.push(mean_heads(g, &att.weights));
            let x1 = g.add(q_stream, att.out);
            let x1n = blk.ln_ff.forward(g, store, x1);
            let ff = blk.ffn.forward(g, store, x1n, train, rng);
            q_stream = g.add(x1, ff);
        }

        let x = g.concat_cols(q_stream, e);
        let logits = self.head.forward(g, store, x, train, rng);
        (logits, attention_maps)
    }

    /// Predictions plus the last layer's head-averaged attention map
    /// `[B, T, T]` flattened (query-major). Used by the Fig. 6 comparison.
    pub fn predict_with_attention(&self, batch: &Batch) -> (Vec<Prediction>, Vec<f32>) {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = Graph::new();
        let (logits, maps) = self.forward(&mut g, batch, false, &mut rng);
        let probs = g.sigmoid(logits);
        let data = g.data(probs);
        let preds = eval_positions(batch)
            .into_iter()
            .map(|i| Prediction {
                prob: data[i],
                label: batch.correct[i] >= 0.5,
            })
            .collect();
        (preds, maps.into_iter().next_back().unwrap_or_default())
    }
}

/// Mean of per-head post-softmax attention values, read out of the graph.
fn mean_heads(g: &Graph, weights: &[Tx]) -> Vec<f32> {
    if weights.is_empty() {
        return Vec::new();
    }
    let n = g.data(weights[0]).len();
    let mut mean = vec![0.0f32; n];
    for &w in weights {
        for (m, &v) in mean.iter_mut().zip(g.data(w)) {
            *m += v;
        }
    }
    let inv = 1.0 / weights.len() as f32;
    mean.iter_mut().for_each(|m| *m *= inv);
    mean
}

impl SgdModel for AttnKt {
    fn train_batch(&mut self, batch: &Batch, clip_norm: f32, rng: &mut SmallRng) -> f32 {
        let mut g = Graph::new();
        let (logits, _) = self.forward(&mut g, batch, true, rng);
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

impl KtModel for AttnKt {
    fn name(&self) -> String {
        match self.variant {
            AttnVariant::Sakt => "SAKT".into(),
            AttnVariant::SaktPlus => "SAKT+".into(),
            AttnVariant::Akt => "AKT".into(),
        }
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
        self.predict_with_attention(batch).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_data::{make_batches, synthetic::SyntheticSpec, windows};

    fn tiny() -> (rckt_data::Dataset, Vec<Window>) {
        let ds = SyntheticSpec::assist09().scaled(0.03).generate();
        let ws = windows(&ds, 20, 5);
        (ds, ws)
    }

    #[test]
    fn sakt_loss_decreases() {
        let (ds, ws) = tiny();
        let idx: Vec<usize> = (0..ws.len().min(8)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut m = AttnKt::new(
            AttnVariant::Sakt,
            ds.num_questions(),
            ds.num_concepts(),
            AttnKtConfig {
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

    #[test]
    fn akt_loss_decreases_with_monotonic_and_rasch() {
        let (ds, ws) = tiny();
        let idx: Vec<usize> = (0..ws.len().min(8)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        let mut m = AttnKt::new(
            AttnVariant::Akt,
            ds.num_questions(),
            ds.num_concepts(),
            AttnKtConfig {
                dim: 16,
                heads: 2,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert!(m.rasch.is_some());
        let mut rng = SmallRng::seed_from_u64(3);
        let first = m.train_batch(&batches[0], 5.0, &mut rng);
        let mut last = first;
        for _ in 0..25 {
            last = m.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn attention_rows_are_distributions() {
        let (ds, ws) = tiny();
        let batches = make_batches(&ws, &[0, 1], &ds.q_matrix, 2);
        let m = AttnKt::new(
            AttnVariant::SaktPlus,
            ds.num_questions(),
            ds.num_concepts(),
            AttnKtConfig {
                dim: 16,
                heads: 2,
                ..Default::default()
            },
        );
        let (preds, att) = m.predict_with_attention(&batches[0]);
        assert!(!preds.is_empty());
        let t = batches[0].t_len;
        assert_eq!(att.len(), batches[0].batch * t * t);
        for row in att.chunks(t) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "attention row sums to {s}");
        }
    }

    /// Queries must not attend to future interactions: the attention weight
    /// from query t to shifted key j > t must be ~0.
    #[test]
    fn attention_is_causal() {
        let (ds, ws) = tiny();
        let batches = make_batches(&ws, &[0], &ds.q_matrix, 1);
        let m = AttnKt::new(
            AttnVariant::Sakt,
            ds.num_questions(),
            ds.num_concepts(),
            AttnKtConfig {
                dim: 16,
                heads: 2,
                ..Default::default()
            },
        );
        let (_, att) = m.predict_with_attention(&batches[0]);
        let t = batches[0].t_len;
        for i in 0..t {
            for j in (i + 1)..t {
                assert!(
                    att[i * t + j] < 1e-6,
                    "future leak at ({i},{j}): {}",
                    att[i * t + j]
                );
            }
        }
    }
}
