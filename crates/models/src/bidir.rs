//! Bidirectional knowledge-state encoders (paper Eq. 25):
//!
//! ```text
//! h_i = fwdEnc(A_{1:i-1}) + bwdEnc(A_{i+1:t+1})
//! ```
//!
//! The response influence approximation requires predicting *intermediate*
//! responses from both past and future context, so every encoder here is
//! strictly exclusive of position `i` itself: no path from `a_i` (which
//! contains the response `r_i`) to `h_i` exists at any depth. The three
//! implementations mirror the paper's adapted backbones:
//!
//! * [`BiLstmEncoder`] — RCKT-DKT (BiLSTM);
//! * [`BiAttnEncoder`] with `monotonic = false` — RCKT-SAKT;
//! * [`BiAttnEncoder`] with `monotonic = true` — RCKT-AKT (monotonic
//!   attention made bidirectional "due to the duality of distance").

use rckt_obs::rng::SmallRng;
use rckt_tensor::layers::{
    abs_distances, AttentionBias, FeedForward, LayerNorm, Lstm, MultiHeadAttention,
    PositionalEmbedding,
};
use rckt_tensor::{Graph, ParamStore, Shape, Tx};

/// A bidirectional sequence encoder producing per-position knowledge states.
pub trait BiEncoder {
    /// Compute `h` (`[B*T, d]`) from question embeddings `e` and interaction
    /// embeddings `a` (both `[B*T, d]`, b-major). `valid` marks real
    /// (non-padding) positions; information never flows from position `i`'s
    /// own interaction embedding into `h_i`.
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
    ) -> Tx;

    fn dim(&self) -> usize;

    /// Human-readable backbone name ("DKT" / "SAKT" / "AKT").
    fn backbone(&self) -> &'static str;
}

/// BiLSTM encoder (RCKT-DKT).
pub struct BiLstmEncoder {
    fwd: Lstm,
    bwd: Lstm,
    dim: usize,
    /// Ablation: ignore the backward direction (`h_i` from past only).
    /// The paper argues the response influence approximation *requires*
    /// bidirectionality (Sec. IV-C4); this switch quantifies that claim.
    forward_only: bool,
}

impl BiLstmEncoder {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        layers: usize,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        BiLstmEncoder {
            fwd: Lstm::new(
                store,
                &format!("{name}.fwd"),
                dim,
                dim,
                layers,
                dropout,
                rng,
            ),
            bwd: Lstm::new(
                store,
                &format!("{name}.bwd"),
                dim,
                dim,
                layers,
                dropout,
                rng,
            ),
            dim,
            forward_only: false,
        }
    }

    /// The uni-directional ablation (backward half disabled).
    pub fn forward_only(mut self) -> Self {
        self.forward_only = true;
        self
    }

    /// Whether the backward half is disabled. Forward-only encoders are
    /// the ones eligible for incremental (append-one) inference: `h_i`
    /// depends only on `a_1..a_{i-1}`, so appending a response leaves
    /// every earlier state untouched.
    pub fn is_forward_only(&self) -> bool {
        self.forward_only
    }

    /// The forward-direction LSTM (for incremental state advance).
    pub fn forward_lstm(&self) -> &Lstm {
        &self.fwd
    }
}

impl BiEncoder for BiLstmEncoder {
    fn encode(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        _e: Tx,
        a: Tx,
        batch: usize,
        t_len: usize,
        valid: &[bool],
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        let d = self.dim;
        // out_f[(b,t)] summarizes a_1..a_t; out_b[(b,t)] summarizes a_t..a_T.
        // The validity gate keeps padding (which the reverse pass meets
        // first) from corrupting the state.
        let out_f =
            self.fwd
                .forward_masked(g, store, a, batch, t_len, false, Some(valid), train, rng);
        // A forward-only encoder discards the backward half. At eval it is
        // not run at all; in training it still runs, so the dropout RNG
        // stream (and therefore every trained weight) is unchanged.
        let out_b = (!self.forward_only || train).then(|| {
            self.bwd
                .forward_masked(g, store, a, batch, t_len, true, Some(valid), train, rng)
        });
        // Append a zero block so boundary positions can gather a zero state.
        let zeros = g.input(vec![0.0; batch * d], Shape::matrix(batch, d));
        let f_ext = g.concat_rows(&[out_f, zeros]);
        let b_ext = out_b.map(|out_b| g.concat_rows(&[out_b, zeros]));
        let zero_row = |b: usize| batch * t_len + b;
        let f_idx: Vec<usize> = (0..batch)
            .flat_map(|b| {
                (0..t_len).map(move |t| {
                    if t == 0 {
                        zero_row(b)
                    } else {
                        b * t_len + t - 1
                    }
                })
            })
            .collect();
        let b_idx: Vec<usize> = (0..batch)
            .flat_map(|b| {
                (0..t_len).map(move |t| {
                    if t + 1 >= t_len {
                        zero_row(b)
                    } else {
                        b * t_len + t + 1
                    }
                })
            })
            .collect();
        let h_f = g.gather_rows(f_ext, &f_idx);
        match b_ext {
            Some(b_ext) if !self.forward_only => {
                let h_b = g.gather_rows(b_ext, &b_idx);
                g.add(h_f, h_b)
            }
            _ => h_f,
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn backbone(&self) -> &'static str {
        "DKT"
    }
}

struct BiAttnBlock {
    attn_f: MultiHeadAttention,
    attn_b: MultiHeadAttention,
    ffn: FeedForward,
    ln_q: LayerNorm,
    ln_kv: LayerNorm,
    ln_ff: LayerNorm,
}

/// Bidirectional attention encoder (RCKT-SAKT / RCKT-AKT).
///
/// Two strictly-causal cross-attention passes per block — one over the
/// strict past (`j < i`), one over the strict future (`j > i`) — summed per
/// Eq. 25, then a feed-forward with residuals. Keys/values are always the
/// interaction embeddings `a` (+ position), so the visibility argument is a
/// one-step proof: query `i` only ever touches `a_j` with `j ≠ i`.
pub struct BiAttnEncoder {
    pos: PositionalEmbedding,
    blocks: Vec<BiAttnBlock>,
    dim: usize,
    monotonic: bool,
}

impl BiAttnEncoder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        layers: usize,
        monotonic: bool,
        dropout: f32,
        max_len: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let pos = PositionalEmbedding::new(store, &format!("{name}.pos"), max_len, dim, rng);
        let blocks = (0..layers)
            .map(|l| BiAttnBlock {
                attn_f: MultiHeadAttention::new(
                    store,
                    &format!("{name}.blk{l}.attf"),
                    dim,
                    heads,
                    monotonic,
                    dropout,
                    rng,
                ),
                attn_b: MultiHeadAttention::new(
                    store,
                    &format!("{name}.blk{l}.attb"),
                    dim,
                    heads,
                    monotonic,
                    dropout,
                    rng,
                ),
                ffn: FeedForward::new(
                    store,
                    &format!("{name}.blk{l}.ffn"),
                    dim,
                    2 * dim,
                    dropout,
                    rng,
                ),
                ln_q: LayerNorm::new(store, &format!("{name}.blk{l}.ln_q"), dim, rng),
                ln_kv: LayerNorm::new(store, &format!("{name}.blk{l}.ln_kv"), dim, rng),
                ln_ff: LayerNorm::new(store, &format!("{name}.blk{l}.ln_ff"), dim, rng),
            })
            .collect();
        BiAttnEncoder {
            pos,
            blocks,
            dim,
            monotonic,
        }
    }

    /// Strictly-causal additive masks plus a per-row "has any visible key"
    /// indicator (rows with no visible key get their attention output
    /// zeroed — softmax over an all-masked row would silently go uniform).
    fn masks(batch: usize, t_len: usize, valid: &[bool], future: bool) -> (Vec<f32>, Vec<f32>) {
        let mut mask = vec![0.0f32; batch * t_len * t_len];
        let mut row_ok = vec![0.0f32; batch * t_len];
        for b in 0..batch {
            for i in 0..t_len {
                let mut any = false;
                for j in 0..t_len {
                    let visible = if future { j > i } else { j < i };
                    let allowed = visible && valid[b * t_len + j];
                    if allowed {
                        any = true;
                    } else {
                        mask[b * t_len * t_len + i * t_len + j] = -1e9;
                    }
                }
                row_ok[b * t_len + i] = any as u8 as f32;
            }
        }
        (mask, row_ok)
    }
}

impl BiEncoder for BiAttnEncoder {
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
        let d = self.dim;
        let p = self.pos.forward(g, store, batch, t_len);
        let mut q_stream = g.add(e, p);
        let kv = g.add(a, p);

        let (mask_f, ok_f) = Self::masks(batch, t_len, valid, false);
        let (mask_b, ok_b) = Self::masks(batch, t_len, valid, true);
        let dist = abs_distances(t_len, t_len);
        let bias_f = AttentionBias {
            mask: Some(mask_f),
            distances: self.monotonic.then(|| dist.clone()),
        };
        let bias_b = AttentionBias {
            mask: Some(mask_b),
            distances: self.monotonic.then_some(dist),
        };
        // expand per-row indicators over feature dims
        let expand = |ok: &[f32]| -> Vec<f32> {
            ok.iter()
                .flat_map(|&v| std::iter::repeat(v).take(d))
                .collect()
        };
        let (ok_f, ok_b) = (expand(&ok_f), expand(&ok_b));

        for blk in &self.blocks {
            let qn = blk.ln_q.forward(g, store, q_stream);
            let kvn = blk.ln_kv.forward(g, store, kv);
            let att_f = blk.attn_f.forward(
                g, store, qn, kvn, kvn, batch, t_len, t_len, &bias_f, train, rng,
            );
            let att_b = blk.attn_b.forward(
                g, store, qn, kvn, kvn, batch, t_len, t_len, &bias_b, train, rng,
            );
            let att_f = g.dropout_mask(att_f.out, ok_f.clone());
            let att_b = g.dropout_mask(att_b.out, ok_b.clone());
            let att = g.add(att_f, att_b);
            let x1 = g.add(q_stream, att);
            let x1n = blk.ln_ff.forward(g, store, x1);
            let ff = blk.ffn.forward(g, store, x1n, train, rng);
            q_stream = g.add(x1, ff);
        }
        q_stream
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn backbone(&self) -> &'static str {
        if self.monotonic {
            "AKT"
        } else {
            "SAKT"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_tensor::Init;

    fn setup(d: usize) -> (ParamStore, SmallRng) {
        (ParamStore::new(), SmallRng::seed_from_u64(d as u64))
    }

    /// Core no-leak property: perturbing a_i must not change h_i (but should
    /// change some other h_j).
    fn assert_no_self_leak<E: BiEncoder>(enc: &E, store: &ParamStore, d: usize) {
        let (batch, t_len) = (1usize, 5usize);
        let valid = vec![true; t_len];
        let mut rng = SmallRng::seed_from_u64(7);
        let base: Vec<f32> = (0..batch * t_len * d)
            .map(|i| ((i * 37 % 13) as f32 - 6.0) / 6.0)
            .collect();
        let e_data: Vec<f32> = (0..batch * t_len * d)
            .map(|i| ((i * 17 % 11) as f32 - 5.0) / 5.0)
            .collect();

        let run = |a_data: &[f32], rng: &mut SmallRng| -> Vec<f32> {
            let mut g = Graph::new();
            let e = g.input(e_data.clone(), Shape::matrix(t_len, d));
            let a = g.input(a_data.to_vec(), Shape::matrix(t_len, d));
            let h = enc.encode(&mut g, store, e, a, batch, t_len, &valid, false, rng);
            g.data(h).to_vec()
        };
        let h0 = run(&base, &mut rng);

        for i in 0..t_len {
            let mut perturbed = base.clone();
            for j in 0..d {
                // non-uniform so layer-norm shift invariance can't cancel it
                perturbed[i * d + j] += 5.0 * (j as f32 + 1.0);
            }
            let h1 = run(&perturbed, &mut rng);
            // h_i unchanged
            for j in 0..d {
                assert!(
                    (h0[i * d + j] - h1[i * d + j]).abs() < 1e-4,
                    "self-leak at position {i}, dim {j}: {} vs {}",
                    h0[i * d + j],
                    h1[i * d + j]
                );
            }
            // but the perturbation is visible somewhere else
            let moved = (0..t_len * d)
                .filter(|&k| k / d != i)
                .any(|k| (h0[k] - h1[k]).abs() > 1e-4);
            assert!(
                moved,
                "perturbing a_{i} changed nothing — encoder ignores inputs"
            );
        }
    }

    #[test]
    fn bilstm_has_no_self_leak() {
        let d = 8;
        let (mut store, mut rng) = setup(d);
        let enc = BiLstmEncoder::new(&mut store, "enc", d, 1, 0.0, &mut rng);
        assert_no_self_leak(&enc, &store, d);
    }

    #[test]
    fn bisakt_has_no_self_leak() {
        let d = 8;
        let (mut store, mut rng) = setup(d);
        let enc = BiAttnEncoder::new(&mut store, "enc", d, 2, 2, false, 0.0, 50, &mut rng);
        assert_no_self_leak(&enc, &store, d);
    }

    #[test]
    fn biakt_has_no_self_leak() {
        let d = 8;
        let (mut store, mut rng) = setup(d);
        let enc = BiAttnEncoder::new(&mut store, "enc", d, 2, 2, true, 0.0, 50, &mut rng);
        assert_no_self_leak(&enc, &store, d);
    }

    /// Padding keys must not influence valid positions.
    #[test]
    fn padding_does_not_leak_into_valid_positions() {
        let d = 8;
        let (mut store, mut rng) = setup(d);
        let enc = BiAttnEncoder::new(&mut store, "enc", d, 2, 1, false, 0.0, 50, &mut rng);
        let (batch, t_len) = (1usize, 5usize);
        let valid = vec![true, true, true, false, false];
        let e_data: Vec<f32> = (0..t_len * d).map(|i| (i % 7) as f32 / 7.0).collect();
        let base: Vec<f32> = (0..t_len * d).map(|i| (i % 5) as f32 / 5.0).collect();
        let run = |a_data: &[f32]| -> Vec<f32> {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut g = Graph::new();
            let e = g.input(e_data.clone(), Shape::matrix(t_len, d));
            let a = g.input(a_data.to_vec(), Shape::matrix(t_len, d));
            let h = enc.encode(&mut g, &store, e, a, batch, t_len, &valid, false, &mut rng);
            g.data(h).to_vec()
        };
        let h0 = run(&base);
        let mut perturbed = base.clone();
        for v in perturbed[3 * d..5 * d].iter_mut() {
            *v += 100.0;
        }
        let h1 = run(&perturbed);
        for i in 0..3 {
            for j in 0..d {
                assert!(
                    (h0[i * d + j] - h1[i * d + j]).abs() < 1e-4,
                    "padding leak into valid position {i}"
                );
            }
        }
    }

    /// BiLSTM: perturbing padding positions must not change valid outputs
    /// (the reverse pass meets padding first — the validity gate protects
    /// the state).
    #[test]
    fn bilstm_padding_does_not_leak() {
        let d = 6;
        let (mut store, mut rng) = setup(d);
        let enc = BiLstmEncoder::new(&mut store, "enc", d, 1, 0.0, &mut rng);
        let (batch, t_len) = (1usize, 6usize);
        let valid = vec![true, true, true, true, false, false];
        let e_data: Vec<f32> = (0..t_len * d).map(|i| (i % 7) as f32 / 7.0).collect();
        let base: Vec<f32> = (0..t_len * d).map(|i| (i % 5) as f32 / 5.0 - 0.4).collect();
        let run = |a_data: &[f32]| -> Vec<f32> {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut g = Graph::new();
            let e = g.input(e_data.clone(), Shape::matrix(t_len, d));
            let a = g.input(a_data.to_vec(), Shape::matrix(t_len, d));
            let h = enc.encode(&mut g, &store, e, a, batch, t_len, &valid, false, &mut rng);
            g.data(h).to_vec()
        };
        let h0 = run(&base);
        let mut perturbed = base.clone();
        for v in perturbed[4 * d..].iter_mut() {
            *v += 50.0;
        }
        let h1 = run(&perturbed);
        for i in 0..4 {
            for j in 0..d {
                assert!(
                    (h0[i * d + j] - h1[i * d + j]).abs() < 1e-5,
                    "padding leaked into BiLSTM position {i}"
                );
            }
        }
    }

    /// First/last positions of a BiLSTM see only one direction; encoding
    /// still produces finite values (zero-state gather works).
    #[test]
    fn bilstm_boundaries_finite() {
        let d = 4;
        let (mut store, mut rng) = setup(d);
        let enc = BiLstmEncoder::new(&mut store, "enc", d, 1, 0.0, &mut rng);
        // an unused param keeps the store non-trivial
        store.register("pad", Shape::vector(1), Init::Zeros, &mut rng);
        let (batch, t_len) = (2usize, 3usize);
        let mut g = Graph::new();
        let e = g.input(
            vec![0.1; batch * t_len * d],
            Shape::matrix(batch * t_len, d),
        );
        let a = g.input(
            vec![0.2; batch * t_len * d],
            Shape::matrix(batch * t_len, d),
        );
        let valid = vec![true; batch * t_len];
        let h = enc.encode(&mut g, &store, e, a, batch, t_len, &valid, false, &mut rng);
        assert_eq!(g.shape(h).dims(), vec![batch * t_len, d]);
        assert!(g.data(h).iter().all(|v| v.is_finite()));
    }
}
