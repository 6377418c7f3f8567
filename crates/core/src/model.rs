//! The RCKT model: adaptive bidirectional encoder-MLP response probability
//! generator + response influence-based counterfactual reasoning.
//!
//! Approximate (backward) inference — the paper's default — needs four
//! encoder passes per target (`F⁺`, `CF⁻`, `F⁻`, `CF⁺`, Fig. 2); exact
//! (forward) inference needs `t + 2` passes and exists for the Table VI
//! comparison.

use crate::config::{Backbone, RcktConfig};
use crate::counterfactual::{backward_quadruple, forward_intervention, joint_contexts, Cats};
use rckt_data::{make_batches, Batch, QMatrix, Window};
use rckt_metrics::{accuracy, auc};
use rckt_models::common::{factual_cats, ProbeSpec};
use rckt_models::model::{run_fit, FitReport, KtModel, TrainConfig};
use rckt_models::{BiAttnEncoder, BiEncoder, BiLstmEncoder, KtEmbedding, Prediction, ResponseCat};
use rckt_obs::json::{self, FromJson, JsonValue, ObjectReader, ToJson};
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::PredictionMlp;
use rckt_tensor::pool;
use rckt_tensor::{Adam, Graph, ParamStore, Shape, Tx};

pub(crate) enum Encoder {
    Lstm(BiLstmEncoder),
    Attn(BiAttnEncoder),
}

impl Encoder {
    #[allow(clippy::too_many_arguments)]
    fn encode(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        e: Tx,
        a: Tx,
        batch: usize,
        t_len: usize,
        valid: &[bool],
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        match self {
            Encoder::Lstm(enc) => enc.encode(g, store, e, a, batch, t_len, valid, train, rng),
            Encoder::Attn(enc) => enc.encode(g, store, e, a, batch, t_len, valid, train, rng),
        }
    }
}

/// Per-sequence influence attribution produced by [`Rckt::influences`].
#[derive(Clone, Debug)]
pub struct InfluenceRecord {
    /// Target position within the window.
    pub target: usize,
    /// `(position, was_correct, influence Δ)` for each past response.
    pub influences: Vec<(usize, bool, f32)>,
    /// Accumulated correct-response influence Δ⁺ (Eq. 22).
    pub total_correct: f32,
    /// Accumulated incorrect-response influence Δ⁻.
    pub total_incorrect: f32,
    /// Normalized margin `(Δ⁺ − Δ⁻)/(2t) + ½ ∈ (0, 1)`; ≥ ½ predicts
    /// correct (Eq. 13 with the threshold at 0).
    pub score: f32,
    /// Ground-truth correctness of the target.
    pub label: bool,
}

impl InfluenceRecord {
    pub fn predicted_correct(&self) -> bool {
        self.score >= 0.5
    }
}

impl ToJson for InfluenceRecord {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("target", &self.target)
            .field("influences", &self.influences)
            .field("total_correct", &self.total_correct)
            .field("total_incorrect", &self.total_incorrect)
            .field("score", &self.score)
            .field("label", &self.label)
            .write_to(out);
    }
}

impl FromJson for InfluenceRecord {
    fn from_json(v: &JsonValue) -> Result<InfluenceRecord, String> {
        let r = ObjectReader::new(v)?;
        Ok(InfluenceRecord {
            target: r.req("target")?,
            influences: r.req("influences")?,
            total_correct: r.req("total_correct")?,
            total_incorrect: r.req("total_incorrect")?,
            score: r.req("score")?,
            label: r.req("label")?,
        })
    }
}

/// A malformed inference query, detected at the prediction API boundary
/// before any embedding lookup can panic. Produced by the `*_checked`
/// entry points ([`Rckt::predict_targets_checked`],
/// [`Rckt::influences_exact_checked`]); online servers map it to a 400
/// response, the CLI to a contextual error and nonzero exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A question id at `position` is not in the model's vocabulary.
    QuestionOutOfRange {
        position: usize,
        id: usize,
        num_questions: usize,
    },
    /// A concept id at `position` is not in the model's vocabulary.
    ConceptOutOfRange {
        position: usize,
        id: usize,
        num_concepts: usize,
    },
    /// The target index for sequence `seq` is outside the window.
    TargetOutOfRange {
        seq: usize,
        target: usize,
        t_len: usize,
    },
    /// `targets.len()` does not match the batch's sequence count.
    TargetCountMismatch { targets: usize, batch: usize },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::QuestionOutOfRange {
                position,
                id,
                num_questions,
            } => write!(
                f,
                "question id {id} at position {position} is out of range (model knows {num_questions} questions)"
            ),
            QueryError::ConceptOutOfRange {
                position,
                id,
                num_concepts,
            } => write!(
                f,
                "concept id {id} at position {position} is out of range (model knows {num_concepts} concepts)"
            ),
            QueryError::TargetOutOfRange { seq, target, t_len } => write!(
                f,
                "target {target} for sequence {seq} is outside the window (t_len {t_len})"
            ),
            QueryError::TargetCountMismatch { targets, batch } => write!(
                f,
                "got {targets} targets for a batch of {batch} sequences"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// RCKT (the paper's model). Construct with [`Rckt::new`], train with
/// [`KtModel::fit`], explain with [`Rckt::influences`].
pub struct Rckt {
    pub cfg: RcktConfig,
    pub backbone: Backbone,
    pub(crate) emb: KtEmbedding,
    pub(crate) encoder: Encoder,
    pub(crate) head: PredictionMlp,
    pub(crate) store: ParamStore,
    adam: Adam,
    /// Question-vocabulary size the embeddings were built for; queries are
    /// validated against it by [`Rckt::validate_query`].
    num_questions: usize,
    /// Concept-vocabulary size the embeddings were built for.
    num_concepts: usize,
}

impl Rckt {
    pub fn new(
        backbone: Backbone,
        num_questions: usize,
        num_concepts: usize,
        cfg: RcktConfig,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.dim;
        let emb = KtEmbedding::new(&mut store, "emb", num_questions, num_concepts, d, &mut rng);
        let encoder = match backbone {
            Backbone::Dkt => {
                let mut enc =
                    BiLstmEncoder::new(&mut store, "enc", d, cfg.layers, cfg.dropout, &mut rng);
                if cfg.unidirectional {
                    enc = enc.forward_only();
                }
                Encoder::Lstm(enc)
            }
            Backbone::Sakt => Encoder::Attn(BiAttnEncoder::new(
                &mut store,
                "enc",
                d,
                cfg.heads,
                cfg.layers,
                false,
                cfg.dropout,
                cfg.max_len,
                &mut rng,
            )),
            Backbone::Akt => Encoder::Attn(BiAttnEncoder::new(
                &mut store,
                "enc",
                d,
                cfg.heads,
                cfg.layers,
                true,
                cfg.dropout,
                cfg.max_len,
                &mut rng,
            )),
        };
        let head = PredictionMlp::new(&mut store, "head", 2 * d, d, cfg.dropout, &mut rng);
        let adam = Adam::new(cfg.lr).with_l2(cfg.l2);
        Rckt {
            cfg,
            backbone,
            emb,
            encoder,
            head,
            store,
            adam,
            num_questions,
            num_concepts,
        }
    }

    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Question-vocabulary size this model was constructed for.
    pub fn num_questions(&self) -> usize {
        self.num_questions
    }

    /// Concept-vocabulary size this model was constructed for.
    pub fn num_concepts(&self) -> usize {
        self.num_concepts
    }

    /// Whether this model can serve incremental (append-one) inference via
    /// [`crate::incremental::IncrementalState`]: only forward-only LSTM
    /// encoders qualify, because appending a response leaves every earlier
    /// hidden state untouched. Bidirectional and attention backbones re-mix
    /// the whole window on append and must take the exact path.
    pub fn supports_incremental(&self) -> bool {
        matches!(&self.encoder, Encoder::Lstm(enc) if enc.is_forward_only())
    }

    /// Validate a query against the model's stored vocabulary sizes and the
    /// batch's own geometry, so out-of-range ids surface as a typed
    /// [`QueryError`] instead of a panic deep inside an embedding gather.
    pub fn validate_query(&self, batch: &Batch, targets: &[usize]) -> Result<(), QueryError> {
        if targets.len() != batch.batch {
            return Err(QueryError::TargetCountMismatch {
                targets: targets.len(),
                batch: batch.batch,
            });
        }
        for (seq, &t) in targets.iter().enumerate() {
            if t >= batch.t_len {
                return Err(QueryError::TargetOutOfRange {
                    seq,
                    target: t,
                    t_len: batch.t_len,
                });
            }
        }
        for (position, &q) in batch.questions.iter().enumerate() {
            if q >= self.num_questions {
                return Err(QueryError::QuestionOutOfRange {
                    position,
                    id: q,
                    num_questions: self.num_questions,
                });
            }
        }
        let mut flat = 0usize;
        for (position, &len) in batch.concept_lens.iter().enumerate() {
            for &k in &batch.concept_flat[flat..flat + len] {
                if k >= self.num_concepts {
                    return Err(QueryError::ConceptOutOfRange {
                        position,
                        id: k,
                        num_concepts: self.num_concepts,
                    });
                }
            }
            flat += len;
        }
        Ok(())
    }

    /// [`Rckt::predict_targets`] behind [`Rckt::validate_query`].
    pub fn predict_targets_checked(
        &self,
        batch: &Batch,
        targets: &[usize],
    ) -> Result<Vec<Prediction>, QueryError> {
        self.validate_query(batch, targets)?;
        Ok(self.predict_targets(batch, targets))
    }

    /// [`Rckt::influences`] behind [`Rckt::validate_query`].
    pub fn influences_checked(
        &self,
        batch: &Batch,
        targets: &[usize],
    ) -> Result<Vec<InfluenceRecord>, QueryError> {
        self.validate_query(batch, targets)?;
        Ok(self.influences(batch, targets))
    }

    /// [`Rckt::influences_exact`] behind [`Rckt::validate_query`].
    pub fn influences_exact_checked(
        &self,
        batch: &Batch,
        targets: &[usize],
    ) -> Result<Vec<InfluenceRecord>, QueryError> {
        self.validate_query(batch, targets)?;
        Ok(self.influences_exact(batch, targets))
    }

    /// Serialize weights; restore with [`Rckt::load_weights`].
    pub fn save_weights(&self) -> String {
        self.store.save_json()
    }

    /// Restore weights saved by [`Rckt::save_weights`]. They must be this
    /// model's parameters by name, order and shape
    /// ([`ParamStore::check_layout`]); otherwise the model is unchanged.
    pub fn load_weights(&mut self, json: &str) -> Result<(), String> {
        self.set_weights(ParamStore::load_json(json)?)
    }

    /// [`Rckt::load_weights`] for weights already parsed.
    pub(crate) fn set_weights(&mut self, saved: ParamStore) -> Result<(), String> {
        self.store.check_layout(&saved)?;
        self.store = saved;
        Ok(())
    }

    /// One probability-generator pass (Eq. 25–26): logits `[B*T, 1]` for
    /// every position, conditioned on the *other* positions' categories.
    #[allow(clippy::too_many_arguments)]
    fn logits_pass(
        &self,
        g: &mut Graph,
        batch: &Batch,
        cats: &[ResponseCat],
        valid: &[bool],
        probes: &[ProbeSpec],
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        let e = self
            .emb
            .questions_with_probes(g, &self.store, batch, probes);
        let a = self.emb.interactions(g, &self.store, e, cats);
        let h = self.encoder.encode(
            g,
            &self.store,
            e,
            a,
            batch.batch,
            batch.t_len,
            valid,
            train,
            rng,
        );
        let x = g.concat_cols(h, e);
        self.head.forward(g, &self.store, x, train, rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn probs_pass(
        &self,
        g: &mut Graph,
        batch: &Batch,
        cats: &[ResponseCat],
        valid: &[bool],
        probes: &[ProbeSpec],
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        let logits = self.logits_pass(g, batch, cats, valid, probes, train, rng);
        g.sigmoid(logits)
    }

    /// Assemble the four flat category sequences of the backward
    /// approximation for per-sequence targets.
    fn quadruple_cats(&self, batch: &Batch, targets: &[usize]) -> [Vec<ResponseCat>; 4] {
        assert_eq!(
            targets.len(),
            batch.batch,
            "one target position per sequence in the batch"
        );
        let t_len = batch.t_len;
        let mut out: [Vec<ResponseCat>; 4] = Default::default();
        for o in &mut out {
            o.reserve(batch.batch * t_len);
        }
        #[allow(clippy::needless_range_loop)]
        for b in 0..batch.batch {
            let factual: Cats = (0..t_len)
                .map(|t| {
                    let i = b * t_len + t;
                    if batch.valid[i] {
                        ResponseCat::from_correct(batch.correct[i] >= 0.5)
                    } else {
                        ResponseCat::Masked
                    }
                })
                .collect();
            let quad = backward_quadruple(&factual, targets[b], self.cfg.retention);
            for (o, q) in out.iter_mut().zip(quad) {
                o.extend(q);
            }
        }
        out
    }

    /// Visibility for a target-conditioned pass: positions after the target
    /// are hidden, everything else follows the batch's own validity.
    fn visibility(&self, batch: &Batch, targets: &[usize]) -> Vec<bool> {
        let t_len = batch.t_len;
        (0..batch.batch * t_len)
            .map(|i| batch.valid[i] && (i % t_len) <= targets[i / t_len])
            .collect()
    }

    /// Influence masks: which positions count as past correct (mc) or past
    /// incorrect (mi) responses for each sequence's target.
    fn influence_masks(&self, batch: &Batch, targets: &[usize]) -> (Vec<f32>, Vec<f32>) {
        let t_len = batch.t_len;
        let n = batch.batch * t_len;
        let mut mc = vec![0.0f32; n];
        let mut mi = vec![0.0f32; n];
        for i in 0..n {
            let (b, t) = (i / t_len, i % t_len);
            if batch.valid[i] && t < targets[b] {
                if batch.correct[i] >= 0.5 {
                    mc[i] = 1.0;
                } else {
                    mi[i] = 1.0;
                }
            }
        }
        (mc, mi)
    }

    /// Build the counterfactual-reasoning graph for the given targets.
    /// Returns `(Δ⁺ [B,1], Δ⁻ [B,1], Δ⁺-map [B,T], Δ⁻-map [B,T])`.
    #[allow(clippy::too_many_arguments)]
    fn delta_graph(
        &self,
        g: &mut Graph,
        batch: &Batch,
        targets: &[usize],
        probes: &[ProbeSpec],
        train: bool,
        rng: &mut SmallRng,
    ) -> (Tx, Tx, Tx, Tx) {
        let (bsz, t_len) = (batch.batch, batch.t_len);
        let [f_pos, cf_neg, f_neg, cf_pos] = self.quadruple_cats(batch, targets);
        let vis = self.visibility(batch, targets);
        let p_fp = self.probs_pass(g, batch, &f_pos, &vis, probes, train, rng);
        let p_cfn = self.probs_pass(g, batch, &cf_neg, &vis, probes, train, rng);
        let p_fn = self.probs_pass(g, batch, &f_neg, &vis, probes, train, rng);
        let p_cfp = self.probs_pass(g, batch, &cf_pos, &vis, probes, train, rng);

        let (mc, mi) = self.influence_masks(batch, targets);
        // Δ⁺ map: correct responses, Eq. 19; Δ⁻ map: incorrect, Eq. 20.
        let mut d_pos = g.sub(p_fp, p_cfn);
        d_pos = g.dropout_mask(d_pos, mc);
        let mut d_neg = g.sub(p_cfp, p_fn);
        d_neg = g.dropout_mask(d_neg, mi);
        if !train && self.cfg.clamp_inference {
            // Influences are probability drops, defined non-negative
            // (Eq. 10/11); negative measurements are generator noise.
            d_pos = g.relu(d_pos);
            d_neg = g.relu(d_neg);
        }
        let d_pos_map = g.reshape(d_pos, Shape::matrix(bsz, t_len));
        let d_neg_map = g.reshape(d_neg, Shape::matrix(bsz, t_len));
        let delta_pos = g.sum_last(d_pos_map);
        let delta_neg = g.sum_last(d_neg_map);
        (delta_pos, delta_neg, d_pos_map, d_neg_map)
    }

    /// Inference-only counterpart of [`Rckt::delta_graph`]: the four
    /// generator passes of the backward approximation are independent, so
    /// they run as separate graphs fanned out on the [`pool`]. Eval passes
    /// never consume randomness (dropout is a no-op), so every pass
    /// computes the same bits no matter which worker runs it, and the
    /// results are combined in fixed pass order — predictions are
    /// identical for any `RCKT_THREADS`.
    ///
    /// Returns `(Δ⁺ [B], Δ⁻ [B], Δ⁺-map [B*T], Δ⁻-map [B*T])` as plain
    /// data (no gradients flow at inference).
    fn delta_infer(
        &self,
        batch: &Batch,
        targets: &[usize],
        probes: &[ProbeSpec],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (bsz, t_len) = (batch.batch, batch.t_len);
        let [f_pos, cf_neg, f_neg, cf_pos] = self.quadruple_cats(batch, targets);
        let vis = self.visibility(batch, targets);
        if rckt_obs::profiling() {
            rckt_obs::counter("core.infer.passes").add(4);
        }
        let cats: [&[ResponseCat]; 4] = [&f_pos, &cf_neg, &f_neg, &cf_pos];
        let probs: Vec<Vec<f32>> = pool::parallel_map(4, |k| {
            let mut rng = SmallRng::seed_from_u64(0);
            let mut g = Graph::new();
            let p = self.probs_pass(&mut g, batch, cats[k], &vis, probes, false, &mut rng);
            g.data(p).to_vec()
        });
        let [p_fp, p_cfn, p_fn, p_cfp]: [Vec<f32>; 4] =
            probs.try_into().expect("four generator passes");

        // Combine with the same graph ops as delta_graph so the arithmetic
        // (and therefore the scores) matches the training-time definition.
        let mut g = Graph::new();
        let n = bsz * t_len;
        let t_fp = g.input(p_fp, Shape::matrix(n, 1));
        let t_cfn = g.input(p_cfn, Shape::matrix(n, 1));
        let t_fn = g.input(p_fn, Shape::matrix(n, 1));
        let t_cfp = g.input(p_cfp, Shape::matrix(n, 1));
        let (mc, mi) = self.influence_masks(batch, targets);
        let mut d_pos = g.sub(t_fp, t_cfn);
        d_pos = g.dropout_mask(d_pos, mc);
        let mut d_neg = g.sub(t_cfp, t_fn);
        d_neg = g.dropout_mask(d_neg, mi);
        if self.cfg.clamp_inference {
            d_pos = g.relu(d_pos);
            d_neg = g.relu(d_neg);
        }
        let d_pos_map = g.reshape(d_pos, Shape::matrix(bsz, t_len));
        let d_neg_map = g.reshape(d_neg, Shape::matrix(bsz, t_len));
        let delta_pos = g.sum_last(d_pos_map);
        let delta_neg = g.sum_last(d_neg_map);
        (
            g.data(delta_pos).to_vec(),
            g.data(delta_neg).to_vec(),
            g.data(d_pos_map).to_vec(),
            g.data(d_neg_map).to_vec(),
        )
    }

    /// Last valid position per sequence (the training target).
    fn last_targets(batch: &Batch) -> Vec<usize> {
        (0..batch.batch)
            .map(|b| batch.seq_len(b).saturating_sub(1))
            .collect()
    }

    /// One optimization step (Eq. 16–17 + Eq. 27–29). Returns the loss.
    ///
    /// Each sequence contributes one counterfactual training sample per
    /// step, at a freshly sampled target position (so over epochs every
    /// position serves as the target, matching the paper's
    /// one-sequence-one-target sample definition without starving the
    /// counterfactual loss of data).
    pub fn train_batch(&mut self, batch: &Batch, clip_norm: f32, rng: &mut SmallRng) -> f32 {
        self.store.zero_grads();
        let shards = self.cfg.grad_shards.max(1).min(batch.batch);
        let joint_norm = batch.num_valid().max(1) as f32;
        let val = if shards <= 1 {
            let (g, val) = self.batch_loss_graph(batch, 1.0, joint_norm, rng);
            self.store.accumulate_grads(&g);
            val
        } else {
            // Data-parallel gradient accumulation: each shard builds and
            // sweeps its own loss graph, scaled so the shard losses sum to
            // the full-batch loss. Seeds are drawn here in shard order and
            // gradients folded back in shard order, so the update depends
            // only on `grad_shards` — never on which worker ran a shard or
            // how many threads the pool has.
            let bsz = batch.batch;
            let bounds: Vec<(usize, usize)> = (0..shards)
                .map(|s| (s * bsz / shards, (s + 1) * bsz / shards))
                .collect();
            let seeds: Vec<u64> = (0..shards).map(|_| rng.next_u64()).collect();
            let subs: Vec<Batch> = bounds
                .iter()
                .map(|&(lo, hi)| batch.sub_batch(lo, hi))
                .collect();
            if rckt_obs::profiling() {
                rckt_obs::counter("core.train.shards").add(shards as u64);
            }
            let this: &Rckt = self;
            let results = pool::parallel_map(shards, |s| {
                let mut shard_rng = SmallRng::seed_from_u64(seeds[s]);
                let scale = subs[s].batch as f32 / bsz as f32;
                this.batch_loss_graph(&subs[s], scale, joint_norm, &mut shard_rng)
            });
            let mut val = 0.0f32;
            for (g, v) in &results {
                self.store.accumulate_grads(g);
                val += *v;
            }
            val
        };
        self.store.clip_grad_norm(clip_norm);
        self.adam.step(&mut self.store);
        val
    }

    /// Build the full training-loss graph for a (sub-)batch, run the
    /// backward sweep, and return the swept graph plus the loss value.
    ///
    /// `scale` re-weights the per-sequence mean terms (`L_CF`, `L*`) so
    /// that shard losses sum to the whole-batch mean (`1.0` for an unsharded
    /// batch — the scaling node is skipped entirely then, keeping the graph
    /// byte-identical to the historic inline path). `joint_norm` is the
    /// valid-position count of the *whole* batch, normalizing the joint BCE
    /// the same way regardless of sharding.
    fn batch_loss_graph(
        &self,
        batch: &Batch,
        scale: f32,
        joint_norm: f32,
        rng: &mut SmallRng,
    ) -> (Graph, f32) {
        let mut g = Graph::new();
        let (bsz, _t_len) = (batch.batch, batch.t_len);
        let targets: Vec<usize> = (0..bsz)
            .map(|b| {
                let len = batch.seq_len(b);
                if len <= 2 {
                    len.saturating_sub(1)
                } else {
                    rng.gen_range(1..len)
                }
            })
            .collect();

        let (delta_pos, delta_neg, d_pos_map, d_neg_map) =
            self.delta_graph(&mut g, batch, &targets, &[], true, rng);

        // L_CF = -log( (-1)^{r} (Δ⁻ − Δ⁺) / (2t) + ½ )
        let mut sign = vec![0.0f32; bsz];
        let mut inv2t = vec![0.0f32; bsz];
        for b in 0..bsz {
            let r = batch.correct[b * batch.t_len + targets[b]] >= 0.5;
            sign[b] = if r { -1.0 } else { 1.0 };
            inv2t[b] = 1.0 / (2.0 * targets[b].max(1) as f32);
        }
        let sign_t = g.input(sign, Shape::matrix(bsz, 1));
        let inv2t_t = g.input(inv2t, Shape::matrix(bsz, 1));
        let diff = g.sub(delta_neg, delta_pos);
        let signed = g.mul(diff, sign_t);
        let scaled = g.mul(signed, inv2t_t);
        let arg = g.add_scalar(scaled, 0.5);
        let logs = g.ln_clamped(arg, 1e-6);
        let neg_logs = g.neg(logs);
        let l_cf = g.mean_all(neg_logs);

        // Constraint L*: Σ max(−Δ_i, 0) (Eq. 17), scaled by α.
        let mut loss = l_cf;
        if self.cfg.alpha > 0.0 {
            let np = g.neg(d_pos_map);
            let rp = g.relu(np);
            let nn = g.neg(d_neg_map);
            let rn = g.relu(nn);
            let s = g.add(rp, rn);
            let per_seq = g.sum_last(s);
            let l_star = g.mean_all(per_seq);
            let l_star = g.mul_scalar(l_star, self.cfg.alpha);
            loss = g.add(loss, l_star);
        }
        if scale != 1.0 {
            loss = g.mul_scalar(loss, scale);
        }

        // Joint training (Eq. 27–29): BCE on the factual and two masked
        // contexts, over all valid positions (bidirectional encoders can
        // predict position 0 from future context). Already normalized by
        // the whole-batch valid count, so no extra shard scaling applies.
        if self.cfg.lambda > 0.0 {
            let factual: Vec<ResponseCat> = factual_cats(batch)
                .into_iter()
                .zip(&batch.valid)
                .map(|(c, &v)| if v { c } else { ResponseCat::Masked })
                .collect();
            let contexts = joint_contexts(&factual);
            let weights: Vec<f32> = batch.valid.iter().map(|&v| v as u8 as f32).collect();
            let mut joint = None;
            for ctx in &contexts {
                let logits = self.logits_pass(&mut g, batch, ctx, &batch.valid, &[], true, rng);
                let l = g.bce_with_logits(logits, &batch.correct, &weights, joint_norm);
                joint = Some(match joint {
                    None => l,
                    Some(j) => g.add(j, l),
                });
            }
            let j = g.mul_scalar(joint.expect("three contexts"), self.cfg.lambda);
            loss = g.add(loss, j);
        }

        let val = g.value(loss);
        g.backward(loss);
        (g, val)
    }

    /// Approximate-mode scores for explicit targets: `(score, label)` per
    /// sequence, where score is the normalized margin in `(0, 1)`.
    pub fn predict_targets(&self, batch: &Batch, targets: &[usize]) -> Vec<Prediction> {
        self.predict_targets_probed(batch, targets, &[])
    }

    /// [`Rckt::predict_targets`] with Eq. 30 concept probes substituted at
    /// chosen positions.
    pub fn predict_targets_probed(
        &self,
        batch: &Batch,
        targets: &[usize],
        probes: &[ProbeSpec],
    ) -> Vec<Prediction> {
        let _s = rckt_obs::span("rckt.infer.approx");
        let (dp, dn, _, _) = self.delta_infer(batch, targets, probes);
        (0..batch.batch)
            .map(|b| {
                let t = targets[b].max(1) as f32;
                let score = ((dp[b] - dn[b]) / (2.0 * t) + 0.5).clamp(0.0, 1.0);
                Prediction {
                    prob: score,
                    label: batch.correct[b * batch.t_len + targets[b]] >= 0.5,
                }
            })
            .collect()
    }

    /// Scores for each sequence's final response (the paper's per-student
    /// prediction setting).
    pub fn predict_last(&self, batch: &Batch) -> Vec<Prediction> {
        self.predict_targets(batch, &Self::last_targets(batch))
    }

    /// Full influence attribution for each sequence's target — the model's
    /// explanation output (Fig. 2 right, Table I).
    pub fn influences(&self, batch: &Batch, targets: &[usize]) -> Vec<InfluenceRecord> {
        self.influences_probed(batch, targets, &[])
    }

    /// [`Rckt::influences`] with Eq. 30 concept probes.
    pub fn influences_probed(
        &self,
        batch: &Batch,
        targets: &[usize],
        probes: &[ProbeSpec],
    ) -> Vec<InfluenceRecord> {
        let _s = rckt_obs::span("rckt.infer.approx");
        let (dp, dn, pm, nm) = self.delta_infer(batch, targets, probes);
        (0..batch.batch)
            .map(|b| {
                let target = targets[b];
                let mut influences = Vec::new();
                for t in 0..target {
                    let i = b * batch.t_len + t;
                    if !batch.valid[i] {
                        continue;
                    }
                    let correct = batch.correct[i] >= 0.5;
                    let delta = if correct { pm[i] } else { nm[i] };
                    influences.push((t, correct, delta));
                }
                let t = target.max(1) as f32;
                InfluenceRecord {
                    target,
                    influences,
                    total_correct: dp[b],
                    total_incorrect: dn[b],
                    score: ((dp[b] - dn[b]) / (2.0 * t) + 0.5).clamp(0.0, 1.0),
                    label: batch.correct[b * batch.t_len + target] >= 0.5,
                }
            })
            .collect()
    }

    /// Exact (forward/non-approximate) inference for each sequence's target:
    /// one factual pass plus one counterfactual pass per past response
    /// (Eq. 4–13). Exists to reproduce the Table VI before/after comparison.
    pub fn predict_exact_targets(&self, batch: &Batch, targets: &[usize]) -> Vec<Prediction> {
        self.influences_exact(batch, targets)
            .into_iter()
            .map(|r| Prediction {
                prob: r.score,
                label: r.label,
            })
            .collect()
    }

    /// Factual categories for exact inference: each sequence's real
    /// responses with the target masked (its response is what we predict).
    fn masked_factual_cats(&self, batch: &Batch, targets: &[usize]) -> Vec<Cats> {
        let t_len = batch.t_len;
        (0..batch.batch)
            .map(|b| {
                (0..t_len)
                    .map(|t| {
                        let i = b * t_len + t;
                        if batch.valid[i] && t != targets[b] {
                            ResponseCat::from_correct(batch.correct[i] >= 0.5)
                        } else {
                            ResponseCat::Masked
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The factual half of exact inference: one generator pass over the
    /// target-masked factual sequences, returning `p(correct)` at each
    /// sequence's target. This is the per-prefix state an online server
    /// caches; the counterfactual half (`Rckt::exact_influence_entries`)
    /// consumes it without recomputing the pass.
    pub fn factual_target_probs(&self, batch: &Batch, targets: &[usize]) -> Vec<f32> {
        let factual_per_seq = self.masked_factual_cats(batch, targets);
        let flat_factual: Vec<ResponseCat> = factual_per_seq.concat();
        let vis = self.visibility(batch, targets);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = Graph::new();
        let p = self.probs_pass(&mut g, batch, &flat_factual, &vis, &[], false, &mut rng);
        let d = g.data(p);
        (0..batch.batch)
            .map(|b| d[b * batch.t_len + targets[b]])
            .collect()
    }

    /// The counterfactual half of exact inference: one pass per
    /// intervention position against a precomputed factual target
    /// probability, returning `(position, was_correct, Δ)` entries per
    /// sequence (position-ascending).
    fn exact_influence_entries(
        &self,
        batch: &Batch,
        targets: &[usize],
        factual_per_seq: &[Cats],
        flat_factual: &[ResponseCat],
        p_target_factual: &[f32],
    ) -> Vec<Vec<(usize, bool, f32)>> {
        let t_len = batch.t_len;
        let vis = self.visibility(batch, targets);
        // One counterfactual pass per intervention position, fanned out on
        // the pool. Each pass is an independent eval-mode graph (no RNG
        // draws), and the per-response influences are folded back in index
        // order below, so the records are identical for any RCKT_THREADS.
        let max_target = targets.iter().copied().max().unwrap_or(0);
        if rckt_obs::profiling() {
            rckt_obs::counter("core.infer.passes").add(1 + max_target as u64);
        }
        let per_pos = pool::parallel_map(max_target, |i| {
            // intervene position i for every sequence where i is a valid
            // past response
            let mut cats = flat_factual.to_vec();
            let mut involved = vec![false; batch.batch];
            for b in 0..batch.batch {
                if i < targets[b] && batch.valid[b * t_len + i] {
                    let (_, cf) = forward_intervention(&factual_per_seq[b], i, self.cfg.retention);
                    cats[b * t_len..(b + 1) * t_len].copy_from_slice(&cf);
                    involved[b] = true;
                }
            }
            if !involved.iter().any(|&x| x) {
                return None;
            }
            let mut rng = SmallRng::seed_from_u64(0);
            let mut g = Graph::new();
            let p = self.probs_pass(&mut g, batch, &cats, &vis, &[], false, &mut rng);
            let d = g.data(p);
            let mut entries = Vec::new();
            for b in 0..batch.batch {
                if !involved[b] {
                    continue;
                }
                let p_cf = d[b * t_len + targets[b]];
                let correct = batch.correct[b * t_len + i] >= 0.5;
                let mut delta = if correct {
                    // Eq. 9: drop in p(correct) when a correct response flips
                    p_target_factual[b] - p_cf
                } else {
                    // Eq. 11: drop in p(incorrect) when an incorrect flips
                    p_cf - p_target_factual[b]
                };
                if self.cfg.clamp_inference {
                    delta = delta.max(0.0);
                }
                entries.push((b, correct, delta));
            }
            Some(entries)
        });
        let mut per_seq: Vec<Vec<(usize, bool, f32)>> = vec![Vec::new(); batch.batch];
        for (i, entries) in per_pos.into_iter().enumerate() {
            for (b, correct, delta) in entries.into_iter().flatten() {
                per_seq[b].push((i, correct, delta));
            }
        }
        per_seq
    }

    /// Exact-mode per-response influence attribution (Eq. 9/11): the
    /// non-approximate counterpart of [`Rckt::influences`], costing one
    /// forward pass per past response. Composed from the factual pass
    /// ([`Rckt::factual_target_probs`]), the per-position counterfactual
    /// deltas, and a plain assembly step — split so a serving layer can
    /// cache the factual state per history prefix; the composition is
    /// bit-identical to running the historic single-function path.
    pub fn influences_exact(&self, batch: &Batch, targets: &[usize]) -> Vec<InfluenceRecord> {
        let _s = rckt_obs::span("rckt.infer.exact");
        let t_len = batch.t_len;
        let factual_per_seq = self.masked_factual_cats(batch, targets);
        let flat_factual: Vec<ResponseCat> = factual_per_seq.concat();
        let p_target_factual = self.factual_target_probs(batch, targets);
        let per_seq = self.exact_influence_entries(
            batch,
            targets,
            &factual_per_seq,
            &flat_factual,
            &p_target_factual,
        );
        per_seq
            .into_iter()
            .enumerate()
            .map(|(b, influences)| {
                let total_correct: f32 = influences
                    .iter()
                    .filter(|(_, c, _)| *c)
                    .map(|(_, _, d)| d)
                    .sum();
                let total_incorrect: f32 = influences
                    .iter()
                    .filter(|(_, c, _)| !*c)
                    .map(|(_, _, d)| d)
                    .sum();
                let t = targets[b].max(1) as f32;
                InfluenceRecord {
                    target: targets[b],
                    influences,
                    total_correct,
                    total_incorrect,
                    score: ((total_correct - total_incorrect) / (2.0 * t) + 0.5).clamp(0.0, 1.0),
                    label: batch.correct[b * t_len + targets[b]] >= 0.5,
                }
            })
            .collect()
    }

    /// Exact-mode prediction at each sequence's final response.
    pub fn predict_exact_last(&self, batch: &Batch) -> Vec<Prediction> {
        self.predict_exact_targets(batch, &Self::last_targets(batch))
    }

    /// Raw generator probability at each sequence's target for an explicit
    /// category sequence (diagnostics; the influence machinery normally
    /// drives the generator internally).
    pub fn factual_pass_probs(
        &self,
        batch: &Batch,
        cats: &[ResponseCat],
        targets: &[usize],
    ) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(0);
        let vis = self.visibility(batch, targets);
        let mut g = Graph::new();
        let p = self.probs_pass(&mut g, batch, cats, &vis, &[], false, &mut rng);
        let d = g.data(p);
        (0..batch.batch)
            .map(|b| d[b * batch.t_len + targets[b]])
            .collect()
    }

    /// Predictions at strided positions (`t = stride−1, 2·stride−1, …` plus
    /// each sequence's final response). One 4-pass round per distinct `t`.
    pub fn predict_stride(&self, batch: &Batch, stride: usize) -> Vec<Prediction> {
        self.predict_stride_from(batch, stride, 0)
    }

    /// [`Rckt::predict_stride`] restricted to targets with at least `min_t`
    /// past responses. Influence aggregation is an ensemble over the past
    /// (see the paper's per-student setting), so very short histories are
    /// outside its intended regime.
    pub fn predict_stride_from(
        &self,
        batch: &Batch,
        stride: usize,
        min_t: usize,
    ) -> Vec<Prediction> {
        let stride = stride.max(2);
        let mut out = Vec::new();
        let mut by_t: Vec<Vec<usize>> = vec![Vec::new(); batch.t_len];
        for b in 0..batch.batch {
            let len = batch.seq_len(b);
            let mut t = stride - 1;
            while t < len {
                if t >= min_t {
                    by_t[t].push(b);
                }
                t += stride;
            }
            if len >= 2 && ((len - 1) % stride != stride - 1 || len - 1 < min_t) {
                by_t[len - 1].push(b);
            }
        }
        // One 4-pass round per distinct target index; the rounds are
        // independent, so they fan out on the pool and fold back in t
        // order (each round's own 4-pass fan-out runs inline when nested).
        let work: Vec<_> = by_t
            .iter()
            .enumerate()
            .filter(|(_, seqs)| !seqs.is_empty())
            .map(|(t, seqs)| {
                let targets: Vec<usize> = (0..batch.batch)
                    .map(|b| if seqs.contains(&b) { t } else { 1 })
                    .collect();
                (seqs, targets)
            })
            .collect();
        let preds_per_t: Vec<Vec<Prediction>> =
            pool::parallel_map(work.len(), |w| self.predict_targets(batch, &work[w].1));
        for ((seqs, _), preds) in work.iter().zip(&preds_per_t) {
            for &b in *seqs {
                out.push(preds[b]);
            }
        }
        out
    }

    /// Evaluate strided-target scores over batches: (AUC, ACC).
    pub fn evaluate_stride(&self, batches: &[Batch], stride: usize) -> (f64, f64) {
        self.evaluate_stride_from(batches, stride, 0)
    }

    /// [`Rckt::evaluate_stride`] with a minimum history length per target.
    pub fn evaluate_stride_from(
        &self,
        batches: &[Batch],
        stride: usize,
        min_t: usize,
    ) -> (f64, f64) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for b in batches {
            for p in self.predict_stride_from(b, stride, min_t) {
                scores.push(p.prob);
                labels.push(p.label);
            }
        }
        (auc(&scores, &labels), accuracy(&scores, &labels, 0.5))
    }

    /// Evaluate scores at last-position targets over batches: (AUC, ACC).
    pub fn evaluate_last(&self, batches: &[Batch]) -> (f64, f64) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for b in batches {
            for p in self.predict_last(b) {
                scores.push(p.prob);
                labels.push(p.label);
            }
        }
        (auc(&scores, &labels), accuracy(&scores, &labels, 0.5))
    }
}

impl KtModel for Rckt {
    fn name(&self) -> String {
        format!(
            "RCKT-{}",
            match self.backbone {
                Backbone::Dkt => "DKT",
                Backbone::Sakt => "SAKT",
                Backbone::Akt => "AKT",
            }
        )
    }

    fn fit(
        &mut self,
        windows: &[Window],
        train_idx: &[usize],
        val_idx: &[usize],
        qm: &QMatrix,
        cfg: &TrainConfig,
    ) -> FitReport {
        let val_batches = make_batches(windows, val_idx, qm, cfg.batch_size);
        // Validation at strided targets with at least half-window history —
        // the same regime the experiments test in.
        let min_t = val_batches.first().map(|b| b.t_len / 2).unwrap_or(0);
        let mut order = train_idx.to_vec();
        let name = self.name();
        run_fit(
            self,
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
            |m| m.evaluate_stride_from(&val_batches, 10, min_t),
            |m| m.save_weights(),
            |m, s| m.load_weights(&s).expect("snapshot restores"),
        )
    }

    /// All-position prediction (one 4-pass round per target index) — used
    /// for apples-to-apples evaluation against conventional models; costly,
    /// prefer [`Rckt::predict_last`] / [`Rckt::predict_targets`] in loops.
    fn predict(&self, batch: &Batch) -> Vec<Prediction> {
        let t_len = batch.t_len;
        let mut by_pos: Vec<Option<Prediction>> = vec![None; batch.batch * t_len];
        // One independent round per target position; fanned out on the
        // pool, results written back in t order.
        let work: Vec<_> = (1..t_len)
            .filter_map(|t| {
                // sequences for which position t is a real response
                let involved: Vec<usize> = (0..batch.batch)
                    .filter(|&b| batch.valid[b * t_len + t])
                    .collect();
                if involved.is_empty() {
                    return None;
                }
                let targets: Vec<usize> = (0..batch.batch)
                    .map(|b| if batch.valid[b * t_len + t] { t } else { 1 })
                    .collect();
                Some((t, involved, targets))
            })
            .collect();
        let preds_per_t: Vec<Vec<Prediction>> =
            pool::parallel_map(work.len(), |w| self.predict_targets(batch, &work[w].2));
        for ((t, involved, _), preds) in work.iter().zip(&preds_per_t) {
            for &b in involved {
                by_pos[b * t_len + t] = Some(preds[b]);
            }
        }
        rckt_models::common::eval_positions(batch)
            .into_iter()
            .map(|i| by_pos[i].expect("prediction computed for every eval position"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_data::{windows, SyntheticSpec};

    fn tiny(scale: f64, cap: usize) -> (rckt_data::Dataset, Vec<Window>, Vec<Batch>) {
        let ds = SyntheticSpec::assist09().scaled(scale).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(cap)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 8);
        (ds, ws, batches)
    }

    fn small_model(ds: &rckt_data::Dataset, backbone: Backbone) -> Rckt {
        Rckt::new(
            backbone,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 16,
                heads: 2,
                lr: 3e-3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn rckt_dkt_loss_decreases() {
        let (ds, _, batches) = tiny(0.03, 8);
        let mut m = small_model(&ds, Backbone::Dkt);
        let mut rng = SmallRng::seed_from_u64(1);
        let first = m.train_batch(&batches[0], 5.0, &mut rng);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(last < first, "{first} -> {last}");
    }

    /// Each parameter's buffer address and values, in registration order.
    fn buffers(store: &ParamStore) -> Vec<(*const f32, Vec<f32>)> {
        store
            .ids()
            .map(|p| (store.data(p).as_ptr(), store.data(p).to_vec()))
            .collect()
    }

    #[test]
    fn train_batch_updates_every_parameter_in_place() {
        let (ds, _, batches) = tiny(0.03, 8);
        for grad_shards in [1, 2] {
            let mut m = Rckt::new(
                Backbone::Dkt,
                ds.num_questions(),
                ds.num_concepts(),
                RcktConfig {
                    dim: 16,
                    heads: 2,
                    grad_shards,
                    ..Default::default()
                },
            );
            let before = buffers(&m.store);
            m.train_batch(&batches[0], 5.0, &mut SmallRng::seed_from_u64(1));
            let after = buffers(&m.store);
            let mut moved = 0;
            for (((p0, v0), (p1, v1)), id) in before.iter().zip(&after).zip(m.store.ids()) {
                assert_eq!(
                    p0, p1,
                    "{grad_shards} shard(s): parameter {id:?} was copied"
                );
                moved += usize::from(v0 != v1);
            }
            assert!(
                moved > 0,
                "{grad_shards} shard(s): the step moved no weight"
            );
        }
    }

    #[test]
    fn rckt_akt_loss_decreases() {
        let (ds, _, batches) = tiny(0.03, 8);
        let mut m = small_model(&ds, Backbone::Akt);
        let mut rng = SmallRng::seed_from_u64(1);
        let first = m.train_batch(&batches[0], 5.0, &mut rng);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(last < first, "{first} -> {last}");
    }

    /// Every paper Table III configuration constructs and takes a training
    /// step (multi-layer encoders, all dropout/l2 settings).
    #[test]
    fn paper_table3_configs_run() {
        let (ds, _, batches) = tiny(0.02, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        for dataset in ["assist09", "assist12", "slepemapy", "eedi"] {
            for backbone in [Backbone::Dkt, Backbone::Sakt, Backbone::Akt] {
                let cfg = RcktConfig {
                    dim: 16,
                    heads: 2,
                    ..RcktConfig::paper_table3(dataset, backbone)
                };
                let mut m = Rckt::new(backbone, ds.num_questions(), ds.num_concepts(), cfg);
                let loss = m.train_batch(&batches[0], 5.0, &mut rng);
                assert!(loss.is_finite(), "{dataset}/{backbone:?} produced {loss}");
            }
        }
    }

    /// Every ablation configuration still trains (loss decreases): -joint
    /// (λ=0), -con (α=0), -mono (flip-only retention).
    #[test]
    fn ablation_configs_train() {
        let (ds, _, batches) = tiny(0.03, 8);
        for cfg in [
            RcktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            }
            .without_joint(),
            RcktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            }
            .without_constraint(),
            RcktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            }
            .without_mono(),
        ] {
            let mut m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
            let mut rng = SmallRng::seed_from_u64(1);
            let first = m.train_batch(&batches[0], 5.0, &mut rng);
            let mut last = first;
            for _ in 0..12 {
                last = m.train_batch(&batches[0], 5.0, &mut rng);
            }
            assert!(last < first, "ablation failed to train: {first} -> {last}");
        }
    }

    /// Data-parallel gradient sharding still trains (loss decreases).
    #[test]
    fn sharded_training_decreases_loss() {
        let (ds, _, batches) = tiny(0.03, 8);
        let mut m = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 16,
                lr: 3e-3,
                ..Default::default()
            }
            .with_grad_shards(4),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let first = m.train_batch(&batches[0], 5.0, &mut rng);
        assert!(first.is_finite());
        let mut last = first;
        for _ in 0..15 {
            last = m.train_batch(&batches[0], 5.0, &mut rng);
        }
        assert!(last < first, "{first} -> {last}");
    }

    /// The sharded path is deterministic: a rerun from the same seed gives
    /// bit-identical losses and weights (shard seeds are drawn in shard
    /// order and gradients folded in shard order).
    #[test]
    fn sharded_training_is_reproducible() {
        let (ds, _, batches) = tiny(0.03, 4);
        let cfg = RcktConfig {
            dim: 16,
            lr: 3e-3,
            ..Default::default()
        }
        .with_grad_shards(3);
        let run = |cfg: RcktConfig| {
            let mut m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
            let mut rng = SmallRng::seed_from_u64(9);
            let l1 = m.train_batch(&batches[0], 5.0, &mut rng);
            let l2 = m.train_batch(&batches[0], 5.0, &mut rng);
            (l1, l2, m.save_weights())
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(a.2, b.2);
    }

    /// The reported margin must equal the sum-comparison rule of Eq. 13:
    /// score ≥ ½ ⟺ Δ⁺ ≥ Δ⁻.
    #[test]
    fn prediction_consistent_with_influence_totals() {
        let (ds, _, batches) = tiny(0.03, 4);
        let m = small_model(&ds, Backbone::Dkt);
        for batch in &batches {
            let targets = Rckt::last_targets(batch);
            let preds = m.predict_targets(batch, &targets);
            let recs = m.influences(batch, &targets);
            for (p, r) in preds.iter().zip(&recs) {
                assert!((p.prob - r.score).abs() < 1e-6);
                assert_eq!(p.prob >= 0.5, r.total_correct >= r.total_incorrect);
                // totals match the per-response sums
                let sum_pos: f32 = r
                    .influences
                    .iter()
                    .filter(|(_, c, _)| *c)
                    .map(|(_, _, d)| d)
                    .sum();
                let sum_neg: f32 = r
                    .influences
                    .iter()
                    .filter(|(_, c, _)| !*c)
                    .map(|(_, _, d)| d)
                    .sum();
                assert!((sum_pos - r.total_correct).abs() < 1e-4);
                assert!((sum_neg - r.total_incorrect).abs() < 1e-4);
            }
        }
    }

    /// After training with the positivity constraint, influences should be
    /// mostly non-negative.
    #[test]
    fn constraint_pushes_influences_positive() {
        let (ds, _, batches) = tiny(0.05, 8);
        // disable inference clamping so the raw trained influences are
        // observable
        let mut m = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 16,
                lr: 3e-3,
                clamp_inference: false,
                ..Default::default()
            },
        );
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10 {
            for b in &batches {
                m.train_batch(b, 5.0, &mut rng);
            }
        }
        let mut neg = 0usize;
        let mut total = 0usize;
        let mut neg_mass = 0.0f32;
        let mut mass = 0.0f32;
        for b in &batches {
            let targets = Rckt::last_targets(b);
            for r in m.influences(b, &targets) {
                for (_, _, d) in r.influences {
                    total += 1;
                    mass += d.abs();
                    if d < -1e-3 {
                        neg += 1;
                        neg_mass += -d;
                    }
                }
            }
        }
        assert!(total > 0);
        let frac = neg as f32 / total as f32;
        let mass_frac = neg_mass / mass.max(1e-9);
        assert!(
            frac < 0.35 && mass_frac < 0.2,
            "too many negative influences after training: {frac:.2} of count, {mass_frac:.2} of mass"
        );
    }

    /// Exact-mode influence records are internally consistent: totals match
    /// per-response sums and the score reproduces the margin rule.
    #[test]
    fn exact_influences_consistent() {
        let (ds, _, batches) = tiny(0.03, 4);
        let m = small_model(&ds, Backbone::Dkt);
        for batch in &batches {
            let targets = Rckt::last_targets(batch);
            for r in m.influences_exact(batch, &targets) {
                let sp: f32 = r
                    .influences
                    .iter()
                    .filter(|(_, c, _)| *c)
                    .map(|(_, _, d)| d)
                    .sum();
                let sn: f32 = r
                    .influences
                    .iter()
                    .filter(|(_, c, _)| !*c)
                    .map(|(_, _, d)| d)
                    .sum();
                assert!((sp - r.total_correct).abs() < 1e-5);
                assert!((sn - r.total_incorrect).abs() < 1e-5);
                let manual = ((sp - sn) / (2.0 * r.target.max(1) as f32) + 0.5).clamp(0.0, 1.0);
                assert!((r.score - manual).abs() < 1e-5);
                assert_eq!(r.influences.len(), r.target);
            }
        }
    }

    /// Exact (forward) and approximate (backward) inference should rank
    /// students similarly (the Bayes-correlation argument of Sec. IV-C4).
    #[test]
    fn exact_and_approximate_scores_correlate() {
        let (ds, _, batches) = tiny(0.05, 16);
        let mut m = small_model(&ds, Backbone::Dkt);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..8 {
            for b in &batches {
                m.train_batch(b, 5.0, &mut rng);
            }
        }
        let mut approx = Vec::new();
        let mut exact = Vec::new();
        for b in &batches {
            for p in m.predict_last(b) {
                approx.push(p.prob as f64);
            }
            for p in m.predict_exact_last(b) {
                exact.push(p.prob as f64);
            }
        }
        let r = pearson(&approx, &exact);
        assert!(r > 0.3, "exact/approx correlation too low: {r}");
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }

    #[test]
    fn weights_roundtrip_preserves_predictions() {
        let (ds, _, batches) = tiny(0.03, 4);
        let mut m = small_model(&ds, Backbone::Dkt);
        let mut rng = SmallRng::seed_from_u64(2);
        m.train_batch(&batches[0], 5.0, &mut rng);
        let before = m.predict_last(&batches[0]);
        let saved = m.save_weights();
        let mut m2 = small_model(&ds, Backbone::Dkt);
        m2.load_weights(&saved).unwrap();
        let after = m2.predict_last(&batches[0]);
        for (x, y) in before.iter().zip(&after) {
            assert!((x.prob - y.prob).abs() < 1e-6);
        }
    }

    /// `predict` (all positions) agrees with per-target predictions.
    #[test]
    fn full_predict_matches_targeted() {
        let (ds, _, batches) = tiny(0.02, 2);
        let m = small_model(&ds, Backbone::Dkt);
        let b = &batches[0];
        let all = m.predict(b);
        let pos = rckt_models::common::eval_positions(b);
        // check one position per sequence against predict_targets
        for (p, &i) in all.iter().zip(&pos) {
            let (seq, t) = (i / b.t_len, i % b.t_len);
            let targets: Vec<usize> = (0..b.batch)
                .map(|bb| if b.valid[bb * b.t_len + t] { t } else { 1 })
                .collect();
            let tp = m.predict_targets(b, &targets);
            assert!((p.prob - tp[seq].prob).abs() < 1e-6, "mismatch at {i}");
        }
    }

    /// Out-of-range ids and targets surface as typed errors at the API
    /// boundary instead of panicking inside an embedding gather — what an
    /// online server needs to answer 400 rather than die.
    #[test]
    fn checked_queries_reject_out_of_range_ids() {
        let (ds, _, batches) = tiny(0.02, 2);
        let m = small_model(&ds, Backbone::Dkt);
        let good = &batches[0];
        let targets = Rckt::last_targets(good);
        assert!(m.predict_targets_checked(good, &targets).is_ok());
        assert!(m.influences_checked(good, &targets).is_ok());
        assert!(m.influences_exact_checked(good, &targets).is_ok());

        // Question id beyond the model's vocabulary.
        let mut bad = good.clone();
        bad.questions[3] = m.num_questions() + 5;
        assert_eq!(
            m.predict_targets_checked(&bad, &targets).unwrap_err(),
            QueryError::QuestionOutOfRange {
                position: 3,
                id: m.num_questions() + 5,
                num_questions: m.num_questions(),
            }
        );

        // Concept id beyond the model's vocabulary.
        let mut bad = good.clone();
        bad.concept_flat[0] = m.num_concepts() + 2;
        assert!(matches!(
            m.influences_exact_checked(&bad, &targets),
            Err(QueryError::ConceptOutOfRange { position: 0, .. })
        ));

        // Target outside the window.
        let mut t2 = targets.clone();
        t2[0] = good.t_len + 1;
        assert_eq!(
            m.predict_targets_checked(good, &t2).unwrap_err(),
            QueryError::TargetOutOfRange {
                seq: 0,
                target: good.t_len + 1,
                t_len: good.t_len,
            }
        );

        // Wrong number of targets.
        assert_eq!(
            m.influences_checked(good, &targets[..targets.len() - 1])
                .unwrap_err(),
            QueryError::TargetCountMismatch {
                targets: targets.len() - 1,
                batch: good.batch,
            }
        );

        // Errors render a contextual message.
        let msg = m
            .predict_targets_checked(
                &{
                    let mut b = good.clone();
                    b.questions[0] = 99_999;
                    b
                },
                &targets,
            )
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("99999") && msg.contains("out of range"),
            "{msg}"
        );
    }

    /// A random window of exactly `len` responses (no padding).
    fn random_window(rng: &mut SmallRng, len: usize, num_questions: usize) -> Window {
        Window {
            student: 0,
            questions: (0..len)
                .map(|_| rng.gen_range(1..num_questions) as u32)
                .collect(),
            correct: (0..len).map(|_| rng.gen_bool(0.6) as u8).collect(),
            len,
        }
    }

    /// `w` padded with invalid positions to `t_len`.
    fn padded(w: &Window, t_len: usize) -> Window {
        let mut p = w.clone();
        p.questions.resize(t_len, 0);
        p.correct.resize(t_len, 0);
        p
    }

    /// Target, `(position, correct, Δ)` entries, `[Δ⁺, Δ⁻, score]` and label.
    type RecordBits = (usize, Vec<(usize, bool, u32)>, [u32; 3], bool);

    /// Everything a reply carries, as bits.
    fn record_bits(r: &InfluenceRecord) -> RecordBits {
        let infl = r.influences.iter().map(|&(t, c, d)| (t, c, d.to_bits()));
        let totals = [r.total_correct, r.total_incorrect, r.score].map(f32::to_bits);
        (r.target, infl.collect(), totals, r.label)
    }

    /// Micro-batching and padding invariance, the contract that lets an
    /// online server fuse concurrent requests into one `predict_targets` /
    /// `influences_exact` call padded to the longest request: each
    /// request's reply carries the same bits fused into a wave, alone at its
    /// own length, alone padded to the wave's longest, and alone padded to
    /// the full window. A seeded case loop draws waves of 1–16 windows with
    /// mixed lengths and targets, for every backbone (bidirectional and
    /// forward-only DKT, SAKT, AKT) under both kernel variants.
    #[test]
    fn batched_inference_is_bitwise_solo_equivalent() {
        use rckt_tensor::kernels::{self, KernelVariant};
        const WINDOW: usize = 24;
        let ds = SyntheticSpec::assist09().scaled(0.03).generate();
        let nq = ds.num_questions();
        let cfg = RcktConfig {
            dim: 8,
            heads: 2,
            ..Default::default()
        };
        let models = [
            (
                "DKT",
                Backbone::Dkt,
                RcktConfig {
                    layers: 2,
                    ..cfg.clone()
                },
            ),
            (
                "DKT forward-only",
                Backbone::Dkt,
                RcktConfig {
                    unidirectional: true,
                    ..cfg.clone()
                },
            ),
            ("SAKT", Backbone::Sakt, cfg.clone()),
            ("AKT", Backbone::Akt, cfg.clone()),
        ];
        let before = kernels::kernel_variant();
        let mut rng = SmallRng::seed_from_u64(0x5eed_fa11);
        for (name, backbone, cfg) in models {
            let m = Rckt::new(backbone, nq, ds.num_concepts(), cfg);
            for variant in [KernelVariant::Naive, KernelVariant::Simd] {
                kernels::set_kernel_variant(variant);
                for wave in [1, 16, rng.gen_range(2..16), rng.gen_range(2..16)] {
                    let ws: Vec<Window> = (0..wave)
                        .map(|_| {
                            let len = rng.gen_range(1..=WINDOW);
                            random_window(&mut rng, len, nq)
                        })
                        .collect();
                    let targets: Vec<usize> = ws.iter().map(|w| rng.gen_range(0..w.len)).collect();
                    let longest = ws.iter().map(|w| w.len).max().unwrap();
                    let fused: Vec<Window> = ws.iter().map(|w| padded(w, longest)).collect();
                    let fused_refs: Vec<&Window> = fused.iter().collect();
                    let batch = Batch::from_windows(&fused_refs, &ds.q_matrix);
                    let fused_preds = m.predict_targets(&batch, &targets);
                    let fused_recs = m.influences_exact(&batch, &targets);
                    for (i, w) in ws.iter().enumerate() {
                        let ctx = format!(
                            "{name} {variant:?}: request {i} of {wave} (len {}, target {}, wave longest {longest})",
                            w.len, targets[i]
                        );
                        let solo = |w: &Window| {
                            let b = Batch::from_windows(&[w], &ds.q_matrix);
                            let p = m.predict_targets(&b, &targets[i..=i])[0].prob;
                            (
                                p.to_bits(),
                                record_bits(&m.influences_exact(&b, &targets[i..=i])[0]),
                            )
                        };
                        let own = solo(w);
                        let settings = [
                            (
                                "fused",
                                (fused_preds[i].prob.to_bits(), record_bits(&fused_recs[i])),
                            ),
                            ("padded to the wave", solo(&padded(w, longest))),
                            ("padded to the window", solo(&padded(w, WINDOW))),
                        ];
                        for (setting, got) in settings {
                            assert_eq!(
                                got.0, own.0,
                                "{ctx}: predict_targets {setting} vs own length"
                            );
                            assert_eq!(
                                got.1, own.1,
                                "{ctx}: influences_exact {setting} vs own length"
                            );
                        }
                    }
                }
            }
        }
        kernels::set_kernel_variant(before);
    }

    /// The factual/counterfactual split composes back to the monolithic
    /// exact path: `factual_target_probs` matches the probabilities the
    /// full `influences_exact` run uses internally.
    #[test]
    fn factual_split_matches_exact_path() {
        let (ds, _, batches) = tiny(0.03, 4);
        let m = small_model(&ds, Backbone::Dkt);
        let b = &batches[0];
        let targets = Rckt::last_targets(b);
        let probs = m.factual_target_probs(b, &targets);
        assert_eq!(probs.len(), b.batch);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        // Running the split twice is deterministic to the bit.
        let again = m.factual_target_probs(b, &targets);
        for (x, y) in probs.iter().zip(&again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
