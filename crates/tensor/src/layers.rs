//! Reusable neural layers built on the autograd [`Graph`].
//!
//! Layers own [`ParamId`]s into a shared [`ParamStore`] and are constructed
//! once; every forward pass threads `(&mut Graph, &ParamStore)` through them.
//! Sequence tensors use the *b-major* layout: a batch of `B` sequences of
//! length `T` with feature width `d` is a `[B*T, d]` matrix whose row
//! `b * T + t` holds timestep `t` of sequence `b`.

use crate::graph::{Graph, Tx};
use crate::param::{Init, ParamId, ParamStore};
use crate::shape::Shape;
use rckt_obs::rng::SmallRng;

/// Apply inverted dropout with probability `p` when `train` is set.
pub fn dropout(g: &mut Graph, x: Tx, p: f32, train: bool, rng: &mut SmallRng) -> Tx {
    if !train || p <= 0.0 {
        return x;
    }
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let mask: Vec<f32> = (0..g.shape(x).numel())
        .map(|_| if rng.gen_f32() < keep { scale } else { 0.0 })
        .collect();
    g.dropout_mask(x, mask)
}

/// Fully connected layer `y = x·W + b`.
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = store.register(
            &format!("{name}.w"),
            Shape::matrix(in_dim, out_dim),
            Init::Xavier,
            rng,
        );
        let b = store.register(
            &format!("{name}.b"),
            Shape::vector(out_dim),
            Init::Zeros,
            rng,
        );
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Tx) -> Tx {
        let w = store.leaf(g, self.w);
        let b = store.leaf(g, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// The paper's prediction head (Eq. 26): `sigmoid(ReLU([h ⊕ e]·W1 + b1)·W2 + b2)`.
/// `forward` returns the *logit*; apply [`Graph::sigmoid`] for probabilities.
pub struct PredictionMlp {
    pub l1: Linear,
    pub l2: Linear,
    pub dropout: f32,
}

impl PredictionMlp {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        PredictionMlp {
            l1: Linear::new(store, &format!("{name}.l1"), in_dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.l2"), hidden, 1, rng),
            dropout,
        }
    }

    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Tx,
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        let h = self.l1.forward(g, store, x);
        let h = g.relu(h);
        let h = dropout(g, h, self.dropout, train, rng);
        self.l2.forward(g, store, h)
    }
}

/// Lookup table of `vocab` rows, `dim` columns.
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let a = (1.0 / dim as f32).sqrt();
        let table = store.register(name, Shape::matrix(vocab, dim), Init::Uniform(a), rng);
        Embedding { table, vocab, dim }
    }

    pub fn forward(&self, g: &mut Graph, store: &ParamStore, indices: &[usize]) -> Tx {
        let t = store.leaf(g, self.table);
        g.gather_rows(t, indices)
    }
}

/// Per-feature layer normalization with learned affine transform.
pub struct LayerNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rng: &mut SmallRng) -> Self {
        let gamma = store.register(
            &format!("{name}.gamma"),
            Shape::vector(dim),
            Init::Ones,
            rng,
        );
        let beta = store.register(
            &format!("{name}.beta"),
            Shape::vector(dim),
            Init::Zeros,
            rng,
        );
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Tx) -> Tx {
        let gamma = store.leaf(g, self.gamma);
        let beta = store.leaf(g, self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }
}

/// Single LSTM cell (gates ordered i, f, ĝ, o in the packed weight matrices).
pub struct LstmCell {
    pub w_ih: ParamId,
    pub w_hh: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w_ih = store.register(
            &format!("{name}.w_ih"),
            Shape::matrix(in_dim, 4 * hidden),
            Init::Xavier,
            rng,
        );
        let w_hh = store.register(
            &format!("{name}.w_hh"),
            Shape::matrix(hidden, 4 * hidden),
            Init::Xavier,
            rng,
        );
        let b = store.register(
            &format!("{name}.b"),
            Shape::vector(4 * hidden),
            Init::Zeros,
            rng,
        );
        LstmCell {
            w_ih,
            w_hh,
            b,
            in_dim,
            hidden,
        }
    }

    /// One step: `(x_t [B,in], h [B,d], c [B,d]) -> (h', c')`.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Tx, h: Tx, c: Tx) -> (Tx, Tx) {
        let w_ih = store.leaf(g, self.w_ih);
        let w_hh = store.leaf(g, self.w_hh);
        let b = store.leaf(g, self.b);
        let xg = g.matmul(x, w_ih);
        let hg = g.matmul(h, w_hh);
        let gates = g.add(xg, hg);
        let gates = g.add_row(gates, b);
        let d = self.hidden;
        let i_g = g.slice_cols(gates, 0, d);
        let f_g = g.slice_cols(gates, d, 2 * d);
        let g_g = g.slice_cols(gates, 2 * d, 3 * d);
        let o_g = g.slice_cols(gates, 3 * d, 4 * d);
        let i_g = g.sigmoid(i_g);
        let f_g = g.sigmoid(f_g);
        let g_g = g.tanh(g_g);
        let o_g = g.sigmoid(o_g);
        let fc = g.mul(f_g, c);
        let ig = g.mul(i_g, g_g);
        let c_new = g.add(fc, ig);
        let c_t = g.tanh(c_new);
        let h_new = g.mul(o_g, c_t);
        (h_new, c_new)
    }
}

/// Row indices of timestep `t` for a b-major `[B*T, d]` sequence tensor.
pub fn time_indices(batch: usize, t_len: usize, t: usize) -> Vec<usize> {
    (0..batch).map(|b| b * t_len + t).collect()
}

/// Multi-layer unidirectional LSTM over b-major sequence tensors.
pub struct Lstm {
    pub cells: Vec<LstmCell>,
    pub hidden: usize,
    pub dropout: f32,
}

impl Lstm {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(layers >= 1);
        let cells = (0..layers)
            .map(|l| {
                let dim = if l == 0 { in_dim } else { hidden };
                LstmCell::new(store, &format!("{name}.l{l}"), dim, hidden, rng)
            })
            .collect();
        Lstm {
            cells,
            hidden,
            dropout,
        }
    }

    /// Process `x [B*T, in]`; returns hidden states `[B*T, hidden]` in the
    /// same b-major layout. `reverse` runs time back-to-front (for the
    /// backward half of a bidirectional encoder).
    ///
    /// When `valid` is given (b-major `[B*T]`), steps at invalid positions
    /// keep the previous state instead of consuming the input — essential
    /// for the reverse direction, where padding precedes real data in
    /// processing order.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Tx,
        batch: usize,
        t_len: usize,
        reverse: bool,
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        self.forward_masked(g, store, x, batch, t_len, reverse, None, train, rng)
    }

    /// [`Lstm::forward`] with an optional validity mask.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_masked(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Tx,
        batch: usize,
        t_len: usize,
        reverse: bool,
        valid: Option<&[bool]>,
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        if let Some(v) = valid {
            assert_eq!(v.len(), batch * t_len, "validity mask length");
        }
        let mut layer_in = x;
        for (li, cell) in self.cells.iter().enumerate() {
            let zeros = vec![0.0; batch * self.hidden];
            let mut h = g.input(zeros.clone(), Shape::matrix(batch, self.hidden));
            let mut c = g.input(zeros, Shape::matrix(batch, self.hidden));
            let mut outs: Vec<Tx> = Vec::with_capacity(t_len);
            let order: Vec<usize> = if reverse {
                (0..t_len).rev().collect()
            } else {
                (0..t_len).collect()
            };
            for &t in &order {
                let idx = time_indices(batch, t_len, t);
                let x_t = g.gather_rows(layer_in, &idx);
                let (h2, c2) = cell.step(g, store, x_t, h, c);
                if let Some(v) = valid {
                    // The state advances only at valid rows and is carried
                    // over bit for bit elsewhere, so a row's state never
                    // depends on which rows share its batch.
                    let on: Vec<bool> = (0..batch).map(|b| v[b * t_len + t]).collect();
                    h = g.select_rows(&on, h2, h);
                    c = g.select_rows(&on, c2, c);
                } else {
                    h = h2;
                    c = c2;
                }
                outs.push(h);
            }
            if reverse {
                outs.reverse(); // restore natural time order
            }
            // outs is t-major ([T][B, d]); restore b-major rows b*T+t.
            let stacked = g.concat_rows(&outs);
            let perm: Vec<usize> = (0..batch)
                .flat_map(|b| (0..t_len).map(move |t| t * batch + b))
                .collect();
            let mut out = g.gather_rows(stacked, &perm);
            if li + 1 < self.cells.len() {
                out = dropout(g, out, self.dropout, train, rng);
            }
            layer_in = out;
        }
        layer_in
    }
}

/// Optional structural biases for attention scores.
pub struct AttentionBias {
    /// Additive mask `[B*T*T]`, typically `0` / `-1e9` (causal or padding).
    pub mask: Option<Vec<f32>>,
    /// Pairwise distances `[T*T]` for monotonic (AKT-style) decay; ignored
    /// unless the attention layer was built with `monotonic = true`.
    pub distances: Option<Vec<f32>>,
}

impl AttentionBias {
    pub fn none() -> Self {
        AttentionBias {
            mask: None,
            distances: None,
        }
    }
}

/// Multi-head scaled-dot-product attention with optional AKT-style monotonic
/// distance decay (a learned per-head rate θ ≥ 0 subtracting `θ·dist` from
/// the pre-softmax scores, the duality-friendly form that works in both
/// directions).
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    pub dim: usize,
    /// Per-head decay-rate parameters (pre-softplus), present iff monotonic.
    pub theta: Option<ParamId>,
    pub dropout: f32,
}

/// Attention output plus per-head post-softmax weights (for interpretability
/// probes such as the paper's Fig. 6 SAKT+ comparison).
pub struct AttentionOutput {
    pub out: Tx,
    pub weights: Vec<Tx>,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        monotonic: bool,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide by heads");
        // Pre-softplus init of -2.5 gives a decay rate θ ≈ 0.08/step — a
        // gentle recency bias with an effective span of ~12 steps. Large
        // inits collapse the attention span to the nearest key.
        let theta = monotonic.then(|| {
            store.register(
                &format!("{name}.theta"),
                Shape::vector(heads),
                Init::Constant(-2.5),
                rng,
            )
        });
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            dim,
            theta,
            dropout,
        }
    }

    /// `q/k/v` are `[B*T, dim]` b-major sequence tensors.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        q_in: Tx,
        k_in: Tx,
        v_in: Tx,
        batch: usize,
        t_q: usize,
        t_k: usize,
        bias: &AttentionBias,
        train: bool,
        rng: &mut SmallRng,
    ) -> AttentionOutput {
        let dh = self.dim / self.heads;
        let q = self.wq.forward(g, store, q_in);
        let k = self.wk.forward(g, store, k_in);
        let v = self.wv.forward(g, store, v_in);

        let mask_t = bias
            .mask
            .as_ref()
            .map(|m| g.input(m.clone(), Shape::cube(batch, t_q, t_k)));

        // θ·dist bias, shared across batch, computed per head below.
        let theta_sp = self.theta.map(|pid| {
            let th = store.leaf(g, pid); // [heads]
                                         // softplus for positivity: ln(1 + e^x)
            let e = g.exp(th);
            let e1 = g.add_scalar(e, 1.0);
            g.ln_clamped(e1, 1e-12)
        });

        let mut head_outs = Vec::with_capacity(self.heads);
        let mut head_weights = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let q_h = g.slice_cols(q, h * dh, (h + 1) * dh);
            let k_h = g.slice_cols(k, h * dh, (h + 1) * dh);
            let v_h = g.slice_cols(v, h * dh, (h + 1) * dh);
            let q3 = g.reshape(q_h, Shape::cube(batch, t_q, dh));
            let k3 = g.reshape(k_h, Shape::cube(batch, t_k, dh));
            let v3 = g.reshape(v_h, Shape::cube(batch, t_k, dh));
            let k3t = g.transpose(k3);
            let scores = g.bmm(q3, k3t);
            let mut scores = g.mul_scalar(scores, 1.0 / (dh as f32).sqrt());
            if let (Some(theta), Some(dist)) = (theta_sp, bias.distances.as_ref()) {
                // dist [T_q*T_k, 1] · θ_h [1,1] -> broadcast per-batch bias.
                debug_assert_eq!(dist.len(), t_q * t_k);
                let dcol = g.input(dist.clone(), Shape::matrix(t_q * t_k, 1));
                let th_h = g.slice_cols(theta, h, h + 1); // [1,1]
                let decay = g.matmul(dcol, th_h); // [T_q*T_k, 1]
                let decay = g.reshape(decay, Shape::matrix(t_q, t_k));
                // replicate across batch
                let reps: Vec<Tx> = (0..batch).map(|_| decay).collect();
                let decay_b = g.concat_rows(&reps);
                let decay_b = g.reshape(decay_b, Shape::cube(batch, t_q, t_k));
                scores = g.sub(scores, decay_b);
            }
            if let Some(m) = mask_t {
                scores = g.add(scores, m);
            }
            let att = g.softmax_last(scores);
            let att_d = dropout(g, att, self.dropout, train, rng);
            let out3 = g.bmm(att_d, v3); // [B, T_q, dh]
            let out2 = g.reshape(out3, Shape::matrix(batch * t_q, dh));
            head_outs.push(out2);
            head_weights.push(att);
        }
        let mut cat = head_outs[0];
        for &h in &head_outs[1..] {
            cat = g.concat_cols(cat, h);
        }
        let out = self.wo.forward(g, store, cat);
        AttentionOutput {
            out,
            weights: head_weights,
        }
    }
}

/// Position-wise feed-forward block (Linear → ReLU → dropout → Linear).
pub struct FeedForward {
    pub l1: Linear,
    pub l2: Linear,
    pub dropout: f32,
}

impl FeedForward {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        hidden: usize,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        FeedForward {
            l1: Linear::new(store, &format!("{name}.l1"), dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.l2"), hidden, dim, rng),
            dropout,
        }
    }

    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Tx,
        train: bool,
        rng: &mut SmallRng,
    ) -> Tx {
        let h = self.l1.forward(g, store, x);
        let h = g.relu(h);
        let h = dropout(g, h, self.dropout, train, rng);
        self.l2.forward(g, store, h)
    }
}

/// Pre-norm transformer encoder block: `x + Att(LN(x))`, then `x + FFN(LN(x))`.
pub struct TransformerBlock {
    pub attn: MultiHeadAttention,
    pub ffn: FeedForward,
    pub ln1: LayerNorm,
    pub ln2: LayerNorm,
}

impl TransformerBlock {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        monotonic: bool,
        dropout: f32,
        rng: &mut SmallRng,
    ) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(
                store,
                &format!("{name}.attn"),
                dim,
                heads,
                monotonic,
                dropout,
                rng,
            ),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, 4 * dim, dropout, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim, rng),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Tx,
        batch: usize,
        t_len: usize,
        bias: &AttentionBias,
        train: bool,
        rng: &mut SmallRng,
    ) -> AttentionOutput {
        let xn = self.ln1.forward(g, store, x);
        let att = self
            .attn
            .forward(g, store, xn, xn, xn, batch, t_len, t_len, bias, train, rng);
        let x1 = g.add(x, att.out);
        let x1n = self.ln2.forward(g, store, x1);
        let ff = self.ffn.forward(g, store, x1n, train, rng);
        let out = g.add(x1, ff);
        AttentionOutput {
            out,
            weights: att.weights,
        }
    }
}

/// Sinusoidal or learned positional embeddings for length-`max_len` sequences.
pub struct PositionalEmbedding {
    pub table: Embedding,
    pub max_len: usize,
}

impl PositionalEmbedding {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        max_len: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        PositionalEmbedding {
            table: Embedding::new(store, name, max_len, dim, rng),
            max_len,
        }
    }

    /// Positional rows for a b-major `[B*T, d]` tensor.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, batch: usize, t_len: usize) -> Tx {
        assert!(t_len <= self.max_len);
        let idx: Vec<usize> = (0..batch).flat_map(|_| 0..t_len).collect();
        self.table.forward(g, store, &idx)
    }
}

/// Standard causal (strictly-lower-triangular visibility) additive mask for
/// a batch of `T×T` score matrices: position `i` may attend to `j <= i`.
pub fn causal_mask(batch: usize, t_len: usize) -> Vec<f32> {
    let mut m = vec![0.0f32; batch * t_len * t_len];
    for b in 0..batch {
        for i in 0..t_len {
            for j in (i + 1)..t_len {
                m[b * t_len * t_len + i * t_len + j] = -1e9;
            }
        }
    }
    m
}

/// Additive mask hiding padded key positions (`valid[b*T+j] == false`).
pub fn padding_mask(batch: usize, t_q: usize, t_k: usize, valid: &[bool]) -> Vec<f32> {
    assert_eq!(valid.len(), batch * t_k);
    let mut m = vec![0.0f32; batch * t_q * t_k];
    for b in 0..batch {
        for j in 0..t_k {
            if !valid[b * t_k + j] {
                for i in 0..t_q {
                    m[b * t_q * t_k + i * t_k + j] = -1e9;
                }
            }
        }
    }
    m
}

/// Pairwise |i−j| distances for monotonic attention over a `T_q×T_k` grid.
pub fn abs_distances(t_q: usize, t_k: usize) -> Vec<f32> {
    let mut d = vec![0.0f32; t_q * t_k];
    for i in 0..t_q {
        for j in 0..t_k {
            d[i * t_k + j] = (i as f32 - j as f32).abs();
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ParamStore, SmallRng) {
        (ParamStore::new(), SmallRng::seed_from_u64(42))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(vec![0.0; 6], Shape::matrix(2, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.shape(y).dims(), vec![2, 2]);
        // zero input -> output equals bias (zeros at init)
        assert!(g.data(y).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_passes_allocate_no_gradients_until_backward() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "lin", 3, 4, &mut rng);
        let cell = LstmCell::new(&mut store, "cell", 4, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(vec![0.5; 6], Shape::matrix(2, 3));
        let y = lin.forward(&mut g, &store, x);
        let h0 = g.input(vec![0.1; 10], Shape::matrix(2, 5));
        let c0 = g.input(vec![0.2; 10], Shape::matrix(2, 5));
        let (h, _c) = cell.step(&mut g, &store, y, h0, c0);
        let loss = g.sum_all(h);
        for i in 0..g.len() {
            assert!(
                g.grad(Tx(i)).is_empty(),
                "node {i} holds a gradient before backward"
            );
        }
        g.backward(loss);
        let params: Vec<usize> = (0..g.len())
            .filter(|&i| g.nodes[i].param_src.is_some())
            .collect();
        assert_eq!(params.len(), 5, "lin.w, lin.b, w_ih, w_hh, b");
        for i in params {
            assert_eq!(g.grad(Tx(i)).len(), g.data(Tx(i)).len());
        }
    }

    #[test]
    fn lstm_state_advances_and_shapes_hold() {
        let (mut store, mut rng) = setup();
        let lstm = Lstm::new(&mut store, "lstm", 4, 6, 2, 0.0, &mut rng);
        let mut g = Graph::new();
        let (b, t) = (3, 5);
        let x = g.input(
            (0..b * t * 4).map(|i| (i % 7) as f32 / 7.0).collect(),
            Shape::matrix(b * t, 4),
        );
        let h = lstm.forward(&mut g, &store, x, b, t, false, false, &mut rng);
        assert_eq!(g.shape(h).dims(), vec![b * t, 6]);
        // states differ across time for a non-constant input
        let d = g.data(h);
        let row = |r: usize| &d[r * 6..(r + 1) * 6];
        assert_ne!(row(0), row(1));
    }

    #[test]
    fn lstm_reverse_flips_dependence_direction() {
        let (mut store, mut rng) = setup();
        let lstm = Lstm::new(&mut store, "lstm", 2, 3, 1, 0.0, &mut rng);
        let (b, t) = (1, 4);
        let base: Vec<f32> = (0..b * t * 2).map(|i| (i % 3) as f32 * 0.3).collect();
        let run = |x_data: &[f32], reverse: bool| -> Vec<f32> {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut g = Graph::new();
            let x = g.input(x_data.to_vec(), Shape::matrix(b * t, 2));
            let h = lstm.forward(&mut g, &store, x, b, t, reverse, false, &mut rng);
            g.data(h).to_vec()
        };
        let mut perturbed = base.clone();
        perturbed[3 * 2] += 1.0; // change input at t = 3
                                 // forward: h_0..h_2 unaffected by a change at t=3
        let (f0, f1) = (run(&base, false), run(&perturbed, false));
        for i in 0..3 * 3 {
            assert!((f0[i] - f1[i]).abs() < 1e-6, "forward leaked future at {i}");
        }
        // reverse: h_3 is the first consumed, h_0 must change
        let (r0, r1) = (run(&base, true), run(&perturbed, true));
        assert!(
            (0..3).any(|j| (r0[j] - r1[j]).abs() > 1e-6),
            "reverse ignored future"
        );
    }

    #[test]
    fn lstm_validity_gate_freezes_state() {
        let (mut store, mut rng) = setup();
        let lstm = Lstm::new(&mut store, "lstm", 2, 3, 1, 0.0, &mut rng);
        let (b, t) = (1, 4);
        let x_data: Vec<f32> = (0..b * t * 2).map(|i| i as f32 * 0.1).collect();
        let valid = vec![true, true, false, false];
        let mut g = Graph::new();
        let x = g.input(x_data, Shape::matrix(b * t, 2));
        let h = lstm.forward_masked(
            &mut g,
            &store,
            x,
            b,
            t,
            false,
            Some(&valid),
            false,
            &mut rng,
        );
        let d = g.data(h);
        // state frozen after the last valid step
        assert_eq!(&d[3..2 * 3], &d[2 * 3..3 * 3]);
        assert_eq!(&d[2 * 3..3 * 3], &d[3 * 3..4 * 3]);
    }

    #[test]
    fn attention_causal_mask_blocks_future() {
        let (mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "att", 8, 2, false, 0.0, &mut rng);
        let (b, t) = (1, 4);
        let x: Vec<f32> = (0..b * t * 8)
            .map(|i| ((i * 13) % 11) as f32 / 11.0 - 0.5)
            .collect();
        let mut g = Graph::new();
        let xt = g.input(x, Shape::matrix(b * t, 8));
        let bias = AttentionBias {
            mask: Some(causal_mask(b, t)),
            distances: None,
        };
        let out = mha.forward(&mut g, &store, xt, xt, xt, b, t, t, &bias, false, &mut rng);
        for w in &out.weights {
            let data = g.data(*w);
            for i in 0..t {
                for j in (i + 1)..t {
                    assert!(data[i * t + j] < 1e-7, "future attention at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn monotonic_decay_downweights_distant_keys() {
        let (mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "att", 8, 1, true, 0.0, &mut rng);
        // set a large positive θ so decay is strong
        let theta_id = store.id("att.theta").unwrap();
        store.data_mut(theta_id).iter_mut().for_each(|v| *v = 3.0);
        let (b, t) = (1, 6);
        // identical key content so only the distance term differentiates
        let x = vec![0.3f32; b * t * 8];
        let mut g = Graph::new();
        let xt = g.input(x, Shape::matrix(b * t, 8));
        let bias = AttentionBias {
            mask: None,
            distances: Some(abs_distances(t, t)),
        };
        let out = mha.forward(&mut g, &store, xt, xt, xt, b, t, t, &bias, false, &mut rng);
        let w = g.data(out.weights[0]);
        // for the last query, attention must decrease with distance
        let last = t - 1;
        for j in 1..t {
            assert!(
                w[last * t + j] >= w[last * t + j - 1],
                "monotonic decay violated at key {j}"
            );
        }
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let mut g = Graph::new();
        let x = g.input(vec![1.0; 100], Shape::matrix(10, 10));
        let mut rng = SmallRng::seed_from_u64(5);
        let same = dropout(&mut g, x, 0.5, false, &mut rng);
        assert_eq!(same, x, "eval mode must be a no-op");
        let dropped = dropout(&mut g, x, 0.5, true, &mut rng);
        let d = g.data(dropped);
        let zeros = d.iter().filter(|&&v| v == 0.0).count();
        let scaled = d.iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + scaled, 100);
        assert!(
            zeros > 20 && zeros < 80,
            "p=0.5 should drop roughly half, got {zeros}"
        );
    }

    #[test]
    fn padding_mask_hides_invalid_keys() {
        let m = padding_mask(1, 2, 3, &[true, false, true]);
        assert_eq!(m.len(), 6);
        // key 1 masked for both queries
        assert_eq!(m[1], -1e9);
        assert_eq!(m[4], -1e9);
        assert_eq!(m[0], 0.0);
    }

    #[test]
    fn positional_embedding_repeats_per_sequence() {
        let (mut store, mut rng) = setup();
        let pe = PositionalEmbedding::new(&mut store, "pos", 10, 4, &mut rng);
        let mut g = Graph::new();
        let p = pe.forward(&mut g, &store, 2, 3);
        let d = g.data(p);
        // row (b=0, t) == row (b=1, t)
        for t in 0..3 {
            assert_eq!(&d[t * 4..(t + 1) * 4], &d[(3 + t) * 4..(3 + t + 1) * 4]);
        }
    }

    #[test]
    fn prediction_mlp_outputs_one_logit_per_row() {
        let (mut store, mut rng) = setup();
        let mlp = PredictionMlp::new(&mut store, "head", 6, 4, 0.0, &mut rng);
        let mut g = Graph::new();
        let x = g.input(vec![0.2; 5 * 6], Shape::matrix(5, 6));
        let z = mlp.forward(&mut g, &store, x, false, &mut rng);
        assert_eq!(g.shape(z).dims(), vec![5, 1]);
    }

    #[test]
    fn time_indices_are_b_major() {
        assert_eq!(time_indices(3, 4, 2), vec![2, 6, 10]);
    }

    #[test]
    fn abs_distances_symmetric_zero_diag() {
        let d = abs_distances(3, 3);
        for i in 0..3 {
            assert_eq!(d[i * 3 + i], 0.0);
            for j in 0..3 {
                assert_eq!(d[i * 3 + j], d[j * 3 + i]);
            }
        }
    }
}
