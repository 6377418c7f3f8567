//! Shared machinery: the paper's embedding scheme (Eq. 23/24), response
//! categories, and prediction records.

use rckt_data::Batch;
use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::Embedding;
use rckt_tensor::{Graph, ParamStore, Tx};

/// Response categories fed to the models (Sec. IV-D1): the paper fuses
/// binary correctness into **three** categories so counterfactual reasoning
/// can mark responses as unknown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseCat {
    Incorrect = 0,
    Correct = 1,
    /// Masked/unknown (used by RCKT's counterfactual sequences).
    Masked = 2,
}

impl ResponseCat {
    pub fn from_correct(correct: bool) -> Self {
        if correct {
            ResponseCat::Correct
        } else {
            ResponseCat::Incorrect
        }
    }

    pub fn flipped(self) -> Self {
        match self {
            ResponseCat::Incorrect => ResponseCat::Correct,
            ResponseCat::Correct => ResponseCat::Incorrect,
            ResponseCat::Masked => ResponseCat::Masked,
        }
    }
}

/// One scored prediction (probability of a correct answer + ground truth).
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    pub prob: f32,
    pub label: bool,
}

/// A virtual target question probing proficiency on one concept (Eq. 30).
#[derive(Clone, Debug)]
pub struct ProbeSpec {
    /// Flat b-major position the probe occupies in the batch.
    pub position: usize,
    /// All question ids tagged with the probed concept.
    pub questions: Vec<usize>,
    pub concept: usize,
}

/// The paper's input embedding (Eq. 23/24):
///
/// ```text
/// e_i = q_i + mean_{k ∈ K_i} k        (question + mean concept embedding)
/// a_i = e_i + r_i                     (plus 3-category response embedding)
/// ```
pub struct KtEmbedding {
    pub question: Embedding,
    pub concept: Embedding,
    pub response: Embedding,
    pub dim: usize,
}

impl KtEmbedding {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        num_questions: usize,
        num_concepts: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        KtEmbedding {
            question: Embedding::new(store, &format!("{name}.q"), num_questions, dim, rng),
            concept: Embedding::new(store, &format!("{name}.k"), num_concepts, dim, rng),
            response: Embedding::new(store, &format!("{name}.r"), 3, dim, rng),
            dim,
        }
    }

    /// Question embeddings `e` (Eq. 23) for every position of a batch:
    /// `[B*T, d]`.
    pub fn questions(&self, g: &mut Graph, store: &ParamStore, batch: &Batch) -> Tx {
        let q = self.question.forward(g, store, &batch.questions);
        let k_all = self.concept.forward(g, store, &batch.concept_flat);
        let k_mean = g.segment_mean_rows(k_all, &batch.concept_lens);
        g.add(q, k_mean)
    }

    /// [`KtEmbedding::questions`] with probe positions overridden per the
    /// paper's Eq. 30: a probe's embedding is the mean ID embedding of all
    /// questions tagged with the probed concept, plus the concept embedding
    /// — a virtual "average question of concept k".
    pub fn questions_with_probes(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &Batch,
        probes: &[ProbeSpec],
    ) -> Tx {
        let e = self.questions(g, store, batch);
        if probes.is_empty() {
            return e;
        }
        let n = batch.batch * batch.t_len;
        let q_table = store.leaf(g, self.question.table);
        let k_table = store.leaf(g, self.concept.table);
        let mut parts = vec![e];
        let mut index: Vec<usize> = (0..n).collect();
        for (pi, probe) in probes.iter().enumerate() {
            assert!(
                !probe.questions.is_empty(),
                "probe concept has no questions"
            );
            let qs = g.gather_rows(q_table, &probe.questions);
            let q_mean = g.segment_mean_rows(qs, &[probe.questions.len()]);
            let k_row = g.gather_rows(k_table, &[probe.concept]);
            let probe_e = g.add(q_mean, k_row);
            parts.push(probe_e);
            assert!(probe.position < n);
            index[probe.position] = n + pi;
        }
        let ext = g.concat_rows(&parts);
        g.gather_rows(ext, &index)
    }

    /// Concept-mean-only embeddings (no question ID), used by models that
    /// operate at concept level (classic SAKT) and by the Eq. 30 probe.
    pub fn concepts_only(&self, g: &mut Graph, store: &ParamStore, batch: &Batch) -> Tx {
        let k_all = self.concept.forward(g, store, &batch.concept_flat);
        g.segment_mean_rows(k_all, &batch.concept_lens)
    }

    /// Interaction embeddings `a = e + r` (Eq. 24) with explicit categories.
    pub fn interactions(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        e: Tx,
        cats: &[ResponseCat],
    ) -> Tx {
        let idx: Vec<usize> = cats.iter().map(|c| *c as usize).collect();
        let r = self.response.forward(g, store, &idx);
        g.add(e, r)
    }
}

/// Response categories of a factual batch (no masking).
pub fn factual_cats(batch: &Batch) -> Vec<ResponseCat> {
    batch
        .correct
        .iter()
        .map(|&c| ResponseCat::from_correct(c >= 0.5))
        .collect()
}

/// Positions eligible for next-step evaluation: valid and not the first
/// response of their sequence (no history to condition on).
pub fn eval_positions(batch: &Batch) -> Vec<usize> {
    let mut out = Vec::new();
    for b in 0..batch.batch {
        for t in 1..batch.t_len {
            let i = b * batch.t_len + t;
            if batch.valid[i] {
                out.push(i);
            }
        }
    }
    out
}

/// BCE weights selecting exactly the [`eval_positions`] of the batch.
pub fn eval_weights(batch: &Batch) -> (Vec<f32>, f32) {
    let mut w = vec![0.0f32; batch.batch * batch.t_len];
    let pos = eval_positions(batch);
    for &i in &pos {
        w[i] = 1.0;
    }
    (w, pos.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_data::{preprocess::Window, QMatrix};

    fn toy_batch() -> (Batch, QMatrix) {
        let qm = QMatrix::new(vec![vec![0], vec![0, 1], vec![1]], 2);
        let w1 = Window {
            student: 0,
            questions: vec![0, 1, 2, 0],
            correct: vec![1, 0, 1, 0],
            len: 4,
        };
        let w2 = Window {
            student: 1,
            questions: vec![2, 1, 0, 0],
            correct: vec![0, 1, 0, 0],
            len: 2,
        };
        (Batch::from_windows(&[&w1, &w2], &qm), qm)
    }

    #[test]
    fn embedding_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = KtEmbedding::new(&mut store, "emb", 3, 2, 8, &mut rng);
        let (batch, _) = toy_batch();
        let mut g = Graph::new();
        let e = emb.questions(&mut g, &store, &batch);
        assert_eq!(g.shape(e).dims(), vec![8, 8]);
        let a = emb.interactions(&mut g, &store, e, &factual_cats(&batch));
        assert_eq!(g.shape(a).dims(), vec![8, 8]);
    }

    #[test]
    fn multi_concept_question_averages() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = KtEmbedding::new(&mut store, "emb", 3, 2, 4, &mut rng);
        let (batch, _) = toy_batch();
        let mut g = Graph::new();
        let e = emb.questions(&mut g, &store, &batch);
        // position 1 (question 1, concepts {0,1}): e = q1 + (k0+k1)/2
        let q_table = store.data(store.id("emb.q").unwrap());
        let k_table = store.data(store.id("emb.k").unwrap());
        for j in 0..4 {
            let expect = q_table[4 + j] + 0.5 * (k_table[j] + k_table[4 + j]);
            assert!((g.data(e)[4 + j] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn response_cat_flip() {
        assert_eq!(ResponseCat::Correct.flipped(), ResponseCat::Incorrect);
        assert_eq!(ResponseCat::Incorrect.flipped(), ResponseCat::Correct);
        assert_eq!(ResponseCat::Masked.flipped(), ResponseCat::Masked);
    }

    #[test]
    fn eval_positions_skip_first_and_padding() {
        let (batch, _) = toy_batch();
        let pos = eval_positions(&batch);
        // seq 0: t=1..3 valid (len 4) -> 1,2,3 ; seq 1: len 2 -> t=1 -> index 5
        assert_eq!(pos, vec![1, 2, 3, 5]);
        let (w, n) = eval_weights(&batch);
        assert_eq!(n, 4.0);
        assert_eq!(w.iter().filter(|&&x| x == 1.0).count(), 4);
    }
}
