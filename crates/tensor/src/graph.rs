//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a dynamic tape: every operation appends a node holding
//! the forward value and an op record naming its inputs. Because inputs
//! always precede outputs on the tape, a single reverse sweep over the node
//! vector is a valid reverse-topological traversal.
//!
//! Graphs are cheap and rebuilt for every step; persistent state
//! (weights, Adam moments) lives in a [`crate::ParamStore`].
//!
//! A forward op allocates only its output. A parameter enters a graph as
//! a shared reference to the store's buffer (no copy), and gradient
//! buffers exist only once [`Graph::backward`] allocates them, so a pass
//! that never calls `backward` (serving, explaining, evaluation) pays for
//! its outputs and nothing else.

use crate::kernels;
use crate::pool;
use crate::profiler;
use crate::shape::Shape;
use std::sync::Arc;

/// Handle to a node in a [`Graph`]. Only valid for the graph that created it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tx(pub(crate) usize);

/// Operation record: which op produced a node and from which inputs.
#[derive(Debug)]
pub(crate) enum Op {
    Leaf,
    /// Rank-2 matrix product.
    Matmul(Tx, Tx),
    /// Rank-3 batched matrix product `[b,m,k]·[b,k,n]`.
    Bmm(Tx, Tx),
    /// Swap the two trailing dims (rank 2 or 3).
    Transpose(Tx),
    /// Elementwise sum of identically shaped tensors.
    Add(Tx, Tx),
    /// Broadcast-add a row vector `[n]` to every row of `[..., n]`.
    AddRow(Tx, Tx),
    /// `x + c`; the constant is folded into the forward value and has no
    /// gradient, so it is not recorded.
    AddScalar(Tx),
    Sub(Tx, Tx),
    Mul(Tx, Tx),
    MulScalar(Tx, f32),
    Sigmoid(Tx),
    Tanh(Tx),
    Relu(Tx),
    Exp(Tx),
    /// `ln(max(x, eps))`; gradient is 0 where the clamp is active.
    LnClamped(Tx, f32),
    /// Softmax over the last dimension.
    SoftmaxLast(Tx),
    /// Per-row (last dim) layer normalization with affine transform.
    LayerNorm {
        x: Tx,
        gamma: Tx,
        beta: Tx,
        eps: f32,
    },
    /// Horizontal concat of two rank-2 tensors with equal row counts.
    ConcatCols(Tx, Tx),
    /// Vertical concat of rank-2 tensors with equal column counts.
    ConcatRows(Vec<Tx>),
    /// Columns `[start, end)` of a rank-2 tensor.
    SliceCols(Tx, usize, usize),
    /// Rows `[start, end)` of a rank-2 tensor.
    SliceRows(Tx, usize, usize),
    /// Select rows of a rank-2 tensor by index (embedding lookup).
    GatherRows(Tx, Vec<usize>),
    /// Mean over consecutive row groups: group `i` spans `lens[i]` rows.
    /// Output has `lens.len()` rows. Used to average variable-count concept
    /// embeddings per question (paper Eq. 23).
    SegmentMeanRows(Tx, Vec<usize>),
    SumAll(Tx),
    MeanAll(Tx),
    /// Sum over the last dimension: `[m, n] -> [m, 1]`.
    SumLast(Tx),
    /// Elementwise multiply by a fixed (non-differentiable) mask.
    Dropout(Tx, Vec<f32>),
    /// Row `r` copied from `on` where `rows[r]`, else from `off`; shapes
    /// match and are rank 2.
    SelectRows {
        on: Tx,
        off: Tx,
        rows: Vec<bool>,
    },
    Reshape(Tx),
    /// Fused, numerically stable binary cross-entropy on logits.
    /// `weights` both masks (0 entries are ignored) and scales terms; the
    /// result is the weighted sum divided by `norm`.
    BceWithLogits {
        logits: Tx,
        targets: Vec<f32>,
        weights: Vec<f32>,
        norm: f32,
    },
}

impl Op {
    /// Stable short name used as the profiler's op-kind key
    /// (`op.<kind>.secs` etc. in the metrics registry).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Matmul(..) => "matmul",
            Op::Bmm(..) => "bmm",
            Op::Transpose(..) => "transpose",
            Op::Add(..) => "add",
            Op::AddRow(..) => "add_row",
            Op::AddScalar(..) => "add_scalar",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::MulScalar(..) => "mul_scalar",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Relu(..) => "relu",
            Op::Exp(..) => "exp",
            Op::LnClamped(..) => "ln_clamped",
            Op::SoftmaxLast(..) => "softmax_last",
            Op::LayerNorm { .. } => "layer_norm",
            Op::ConcatCols(..) => "concat_cols",
            Op::ConcatRows(..) => "concat_rows",
            Op::SliceCols(..) => "slice_cols",
            Op::SliceRows(..) => "slice_rows",
            Op::GatherRows(..) => "gather_rows",
            Op::SegmentMeanRows(..) => "segment_mean_rows",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::SumLast(..) => "sum_last",
            Op::Dropout(..) => "dropout",
            Op::SelectRows { .. } => "select_rows",
            Op::Reshape(..) => "reshape",
            Op::BceWithLogits { .. } => "bce_with_logits",
        }
    }
}

/// A node's value: the output its op computed, or a parameter's buffer
/// shared with the [`crate::ParamStore`] that owns it.
pub(crate) enum Value {
    Owned(Vec<f32>),
    Shared(Arc<Vec<f32>>),
}

impl std::ops::Deref for Value {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            Value::Owned(v) => v,
            Value::Shared(v) => v,
        }
    }
}

pub(crate) struct Node {
    pub data: Value,
    /// Empty until [`Graph::backward`] allocates it; stays empty on nodes
    /// that do not require a gradient.
    pub grad: Vec<f32>,
    pub shape: Shape,
    pub op: Op,
    pub requires_grad: bool,
    /// Index into the originating `ParamStore`, for gradient harvesting.
    pub param_src: Option<usize>,
}

/// Dynamic computation tape.
///
/// Each node holds its forward value, its [`Shape`] (inline, no heap),
/// and the op that produced it. Op outputs are owned by the graph;
/// parameter leaves share the store's buffer, so a graph holds one heap
/// allocation per computed node and none per parameter. Gradients are
/// allocated by [`Graph::backward`]; until then [`Graph::grad`] is empty
/// on every node.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Bytes of op outputs and gradient buffers reported to the
    /// profiler's allocation tracker (only grows while profiling is
    /// enabled; released on reset/drop).
    tracked_bytes: u64,
}

impl Graph {
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            tracked_bytes: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drop all nodes but keep the arena's allocation, so a training loop
    /// can reuse one `Graph` across steps instead of reallocating.
    pub fn reset(&mut self) {
        self.nodes.clear();
        if self.tracked_bytes > 0 {
            profiler::on_free(self.tracked_bytes);
            self.tracked_bytes = 0;
        }
    }

    fn push(&mut self, data: Vec<f32>, shape: Shape, op: Op, requires_grad: bool) -> Tx {
        debug_assert_eq!(data.len(), shape.numel(), "data length must match shape");
        if rckt_obs::profiling() {
            self.track(op.kind(), data.len());
        }
        self.nodes.push(Node {
            data: Value::Owned(data),
            grad: Vec::new(),
            shape,
            op,
            requires_grad,
            param_src: None,
        });
        Tx(self.nodes.len() - 1)
    }

    /// Bytes this graph has reported to the profiler and not yet released.
    #[cfg(test)]
    pub(crate) fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes
    }

    /// Report `floats` newly allocated elements to the profiler under the
    /// op kind that owns them.
    fn track(&mut self, kind: &'static str, floats: usize) {
        let bytes = (floats * std::mem::size_of::<f32>()) as u64;
        profiler::on_alloc(kind, bytes);
        self.tracked_bytes += bytes;
    }

    fn rg(&self, t: Tx) -> bool {
        self.nodes[t.0].requires_grad
    }

    /// A constant input tensor (no gradient).
    pub fn input(&mut self, data: Vec<f32>, shape: impl Into<Shape>) -> Tx {
        self.push(data, shape.into(), Op::Leaf, false)
    }

    /// A leaf that participates in differentiation (used for grad checks).
    pub fn leaf_grad(&mut self, data: Vec<f32>, shape: impl Into<Shape>) -> Tx {
        self.push(data, shape.into(), Op::Leaf, true)
    }

    /// Scalar constant.
    pub fn scalar(&mut self, v: f32) -> Tx {
        self.input(vec![v], Shape::scalar())
    }

    /// A parameter leaf reading the store's buffer through `data`. Nothing
    /// is copied or allocated, so the profiler is told nothing.
    pub(crate) fn push_param(&mut self, data: Arc<Vec<f32>>, shape: Shape, param_idx: usize) -> Tx {
        debug_assert_eq!(data.len(), shape.numel(), "data length must match shape");
        self.nodes.push(Node {
            data: Value::Shared(data),
            grad: Vec::new(),
            shape,
            op: Op::Leaf,
            requires_grad: true,
            param_src: Some(param_idx),
        });
        Tx(self.nodes.len() - 1)
    }

    pub fn shape(&self, t: Tx) -> &Shape {
        &self.nodes[t.0].shape
    }

    pub fn data(&self, t: Tx) -> &[f32] {
        &self.nodes[t.0].data
    }

    /// The gradient of node `t`: empty until [`Graph::backward`] has run,
    /// and always empty on nodes that require no gradient.
    pub fn grad(&self, t: Tx) -> &[f32] {
        &self.nodes[t.0].grad
    }

    /// The single value of a scalar node.
    pub fn value(&self, t: Tx) -> f32 {
        debug_assert_eq!(self.nodes[t.0].shape.numel(), 1);
        self.nodes[t.0].data[0]
    }

    // ---------------------------------------------------------------- ops

    pub fn matmul(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("matmul");
        let (m, k) = self.shape(a).mat_dims();
        let (k2, n) = self.shape(b).mat_dims();
        assert_eq!(
            k,
            k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape(a),
            self.shape(b)
        );
        assert!(
            self.shape(a).rank() <= 2 && self.shape(b).rank() <= 2,
            "use bmm for rank 3"
        );
        let mut out = vec![0.0; m * n];
        kernels::matmul_acc(self.data(a), self.data(b), &mut out, m, k, n);
        _t.flops(2 * (m * k * n) as u64);
        let rg = self.rg(a) || self.rg(b);
        self.push(out, Shape::matrix(m, n), Op::Matmul(a, b), rg)
    }

    pub fn bmm(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("bmm");
        let (sa, sb) = (*self.shape(a), *self.shape(b));
        assert_eq!(sa.rank(), 3, "bmm lhs must be rank 3");
        assert_eq!(sb.rank(), 3, "bmm rhs must be rank 3");
        let (bsz, m, k) = (sa.dims()[0], sa.dims()[1], sa.dims()[2]);
        let (bsz2, k2, n) = (sb.dims()[0], sb.dims()[1], sb.dims()[2]);
        assert_eq!(bsz, bsz2, "bmm batch dims");
        assert_eq!(k, k2, "bmm inner dims");
        let mut out = vec![0.0; bsz * m * n];
        {
            // Batch slices are independent: split them across the pool (the
            // per-slice matmul runs inline when already inside a parallel
            // region, so this composes with kernel-level parallelism).
            let (ad, bd) = (self.data(a), self.data(b));
            pool::parallel_chunks_mut(&mut out, m * n, &|i, c_slice| {
                kernels::matmul_acc(
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * k * n..(i + 1) * k * n],
                    c_slice,
                    m,
                    k,
                    n,
                );
            });
        }
        _t.flops(2 * (bsz * m * k * n) as u64);
        let rg = self.rg(a) || self.rg(b);
        self.push(out, Shape::cube(bsz, m, n), Op::Bmm(a, b), rg)
    }

    /// Swap the two trailing dimensions.
    pub fn transpose(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("transpose");
        let s = *self.shape(a);
        let (m, n) = s.mat_dims();
        let bsz = s.batch();
        let mut out = vec![0.0; s.numel()];
        for i in 0..bsz {
            kernels::transpose(
                &self.data(a)[i * m * n..(i + 1) * m * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                n,
            );
        }
        let shape = if s.rank() == 3 {
            Shape::cube(bsz, n, m)
        } else {
            Shape::matrix(n, m)
        };
        let rg = self.rg(a);
        self.push(out, shape, Op::Transpose(a), rg)
    }

    pub fn add(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("add");
        assert_eq!(self.shape(a), self.shape(b), "add shapes");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_binary(self.data(a), self.data(b), &mut out, |x, y| x + y);
        let shape = *self.shape(a);
        let rg = self.rg(a) || self.rg(b);
        self.push(out, shape, Op::Add(a, b), rg)
    }

    /// Broadcast-add a row vector to every row.
    pub fn add_row(&mut self, a: Tx, row: Tx) -> Tx {
        let _t = profiler::op_timer("add_row");
        let n = self.shape(a).cols();
        assert_eq!(self.shape(row).numel(), n, "add_row vector length");
        let mut out = self.data(a).to_vec();
        {
            let r = self.data(row);
            for chunk in out.chunks_exact_mut(n) {
                for (c, &v) in chunk.iter_mut().zip(r) {
                    *c += v;
                }
            }
        }
        let shape = *self.shape(a);
        let rg = self.rg(a) || self.rg(row);
        self.push(out, shape, Op::AddRow(a, row), rg)
    }

    pub fn add_scalar(&mut self, a: Tx, c: f32) -> Tx {
        let _t = profiler::op_timer("add_scalar");
        let out: Vec<f32> = self.data(a).iter().map(|x| x + c).collect();
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::AddScalar(a), rg)
    }

    pub fn sub(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("sub");
        assert_eq!(self.shape(a), self.shape(b), "sub shapes");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_binary(self.data(a), self.data(b), &mut out, |x, y| x - y);
        let shape = *self.shape(a);
        let rg = self.rg(a) || self.rg(b);
        self.push(out, shape, Op::Sub(a, b), rg)
    }

    pub fn mul(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("mul");
        assert_eq!(self.shape(a), self.shape(b), "mul shapes");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_binary(self.data(a), self.data(b), &mut out, |x, y| x * y);
        let shape = *self.shape(a);
        let rg = self.rg(a) || self.rg(b);
        self.push(out, shape, Op::Mul(a, b), rg)
    }

    pub fn mul_scalar(&mut self, a: Tx, c: f32) -> Tx {
        let _t = profiler::op_timer("mul_scalar");
        let out: Vec<f32> = self.data(a).iter().map(|x| x * c).collect();
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::MulScalar(a, c), rg)
    }

    pub fn neg(&mut self, a: Tx) -> Tx {
        self.mul_scalar(a, -1.0)
    }

    pub fn sigmoid(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("sigmoid");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_unary(self.data(a), &mut out, sigmoid);
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::Sigmoid(a), rg)
    }

    pub fn tanh(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("tanh");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_unary(self.data(a), &mut out, |x| x.tanh());
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::Tanh(a), rg)
    }

    pub fn relu(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("relu");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_unary(self.data(a), &mut out, |x| x.max(0.0));
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::Relu(a), rg)
    }

    pub fn exp(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("exp");
        let mut out = vec![0.0; self.data(a).len()];
        kernels::map_unary(self.data(a), &mut out, |x| x.exp());
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::Exp(a), rg)
    }

    /// `ln(max(x, eps))` — the clamp keeps log-losses finite.
    pub fn ln_clamped(&mut self, a: Tx, eps: f32) -> Tx {
        let _t = profiler::op_timer("ln_clamped");
        let out: Vec<f32> = self.data(a).iter().map(|x| x.max(eps).ln()).collect();
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::LnClamped(a, eps), rg)
    }

    pub fn softmax_last(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("softmax_last");
        let n = self.shape(a).cols();
        let mut out = vec![0.0; self.shape(a).numel()];
        kernels::softmax_rows(self.data(a), &mut out, n);
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::SoftmaxLast(a), rg)
    }

    pub fn layer_norm(&mut self, x: Tx, gamma: Tx, beta: Tx, eps: f32) -> Tx {
        let _t = profiler::op_timer("layer_norm");
        let n = self.shape(x).cols();
        assert_eq!(self.shape(gamma).numel(), n);
        assert_eq!(self.shape(beta).numel(), n);
        let mut out = vec![0.0; self.shape(x).numel()];
        kernels::layer_norm_rows(
            self.data(x),
            self.data(gamma),
            self.data(beta),
            &mut out,
            n,
            eps,
        );
        let shape = *self.shape(x);
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        self.push(
            out,
            shape,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
            rg,
        )
    }

    pub fn concat_cols(&mut self, a: Tx, b: Tx) -> Tx {
        let _t = profiler::op_timer("concat_cols");
        let (m, na) = self.shape(a).mat_dims();
        let (m2, nb) = self.shape(b).mat_dims();
        assert_eq!(m, m2, "concat_cols rows");
        assert!(self.shape(a).rank() <= 2 && self.shape(b).rank() <= 2);
        let mut out = Vec::with_capacity(m * (na + nb));
        for i in 0..m {
            out.extend_from_slice(&self.data(a)[i * na..(i + 1) * na]);
            out.extend_from_slice(&self.data(b)[i * nb..(i + 1) * nb]);
        }
        let rg = self.rg(a) || self.rg(b);
        self.push(out, Shape::matrix(m, na + nb), Op::ConcatCols(a, b), rg)
    }

    pub fn concat_rows(&mut self, parts: &[Tx]) -> Tx {
        let _t = profiler::op_timer("concat_rows");
        assert!(!parts.is_empty());
        let n = self.shape(parts[0]).cols();
        let mut rows = 0;
        let mut out = Vec::new();
        let mut rg = false;
        for &p in parts {
            assert_eq!(self.shape(p).cols(), n, "concat_rows cols");
            rows += self.shape(p).rows();
            out.extend_from_slice(self.data(p));
            rg |= self.rg(p);
        }
        self.push(
            out,
            Shape::matrix(rows, n),
            Op::ConcatRows(parts.to_vec()),
            rg,
        )
    }

    pub fn slice_cols(&mut self, a: Tx, start: usize, end: usize) -> Tx {
        let _t = profiler::op_timer("slice_cols");
        let (m, n) = self.shape(a).mat_dims();
        assert!(self.shape(a).rank() <= 2);
        assert!(
            start < end && end <= n,
            "slice_cols range {start}..{end} of {n}"
        );
        let w = end - start;
        let mut out = Vec::with_capacity(m * w);
        for i in 0..m {
            out.extend_from_slice(&self.data(a)[i * n + start..i * n + end]);
        }
        let rg = self.rg(a);
        self.push(out, Shape::matrix(m, w), Op::SliceCols(a, start, end), rg)
    }

    pub fn slice_rows(&mut self, a: Tx, start: usize, end: usize) -> Tx {
        let _t = profiler::op_timer("slice_rows");
        let (m, n) = self.shape(a).mat_dims();
        assert!(self.shape(a).rank() <= 2);
        assert!(
            start < end && end <= m,
            "slice_rows range {start}..{end} of {m}"
        );
        let out = self.data(a)[start * n..end * n].to_vec();
        let rg = self.rg(a);
        self.push(
            out,
            Shape::matrix(end - start, n),
            Op::SliceRows(a, start, end),
            rg,
        )
    }

    /// Embedding-style lookup: output row `i` is `table` row `indices[i]`.
    pub fn gather_rows(&mut self, table: Tx, indices: &[usize]) -> Tx {
        let _t = profiler::op_timer("gather_rows");
        let (m, n) = self.shape(table).mat_dims();
        assert!(self.shape(table).rank() <= 2);
        let mut out = Vec::with_capacity(indices.len() * n);
        for &ix in indices {
            assert!(ix < m, "gather index {ix} out of {m} rows");
            out.extend_from_slice(&self.data(table)[ix * n..(ix + 1) * n]);
        }
        let rg = self.rg(table);
        self.push(
            out,
            Shape::matrix(indices.len(), n),
            Op::GatherRows(table, indices.to_vec()),
            rg,
        )
    }

    /// Mean over consecutive row groups of sizes `lens` (all > 0, summing to
    /// the row count of `a`). Output row `i` is the mean of group `i`.
    pub fn segment_mean_rows(&mut self, a: Tx, lens: &[usize]) -> Tx {
        let _t = profiler::op_timer("segment_mean_rows");
        let (m, n) = self.shape(a).mat_dims();
        assert!(self.shape(a).rank() <= 2);
        assert_eq!(
            lens.iter().sum::<usize>(),
            m,
            "segment lengths must cover all rows"
        );
        let mut out = Vec::with_capacity(lens.len() * n);
        let data = self.data(a);
        let mut row = 0;
        for &len in lens {
            assert!(len > 0, "empty segment");
            let inv = 1.0 / len as f32;
            for j in 0..n {
                let mut s = 0.0;
                for r in row..row + len {
                    s += data[r * n + j];
                }
                out.push(s * inv);
            }
            row += len;
        }
        let rg = self.rg(a);
        self.push(
            out,
            Shape::matrix(lens.len(), n),
            Op::SegmentMeanRows(a, lens.to_vec()),
            rg,
        )
    }

    pub fn sum_all(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("sum_all");
        let s: f32 = self.data(a).iter().sum();
        let rg = self.rg(a);
        self.push(vec![s], Shape::scalar(), Op::SumAll(a), rg)
    }

    pub fn mean_all(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("mean_all");
        let n = self.data(a).len() as f32;
        let s: f32 = self.data(a).iter().sum::<f32>() / n;
        let rg = self.rg(a);
        self.push(vec![s], Shape::scalar(), Op::MeanAll(a), rg)
    }

    /// Sum over the last dimension: `[m, n] -> [m, 1]`.
    pub fn sum_last(&mut self, a: Tx) -> Tx {
        let _t = profiler::op_timer("sum_last");
        let n = self.shape(a).cols();
        let rows = self.shape(a).rows();
        let out: Vec<f32> = self
            .data(a)
            .chunks_exact(n)
            .map(|r| r.iter().sum())
            .collect();
        let rg = self.rg(a);
        self.push(out, Shape::matrix(rows, 1), Op::SumLast(a), rg)
    }

    /// Apply a pre-sampled inverted-dropout mask (entries are `0` or `1/(1-p)`).
    pub fn dropout_mask(&mut self, a: Tx, mask: Vec<f32>) -> Tx {
        let _t = profiler::op_timer("dropout");
        assert_eq!(mask.len(), self.data(a).len());
        let out: Vec<f32> = self.data(a).iter().zip(&mask).map(|(x, m)| x * m).collect();
        let shape = *self.shape(a);
        let rg = self.rg(a);
        self.push(out, shape, Op::Dropout(a, mask), rg)
    }

    /// Per-row selection: row `r` of the result is row `r` of `on` where
    /// `rows[r]` is true and row `r` of `off` elsewhere, copied bit for bit.
    /// The gradient of each row flows only to the input it was taken from.
    pub fn select_rows(&mut self, rows: &[bool], on: Tx, off: Tx) -> Tx {
        let _t = profiler::op_timer("select_rows");
        assert_eq!(self.shape(on), self.shape(off), "select_rows shapes");
        let n = self.shape(on).cols();
        assert_eq!(self.shape(on).rows(), rows.len(), "select_rows row count");
        let mut out = Vec::with_capacity(rows.len() * n);
        for (r, &take_on) in rows.iter().enumerate() {
            let src = if take_on { on } else { off };
            out.extend_from_slice(&self.data(src)[r * n..(r + 1) * n]);
        }
        let shape = *self.shape(on);
        let rg = self.rg(on) || self.rg(off);
        let rows = rows.to_vec();
        self.push(out, shape, Op::SelectRows { on, off, rows }, rg)
    }

    pub fn reshape(&mut self, a: Tx, shape: impl Into<Shape>) -> Tx {
        let _t = profiler::op_timer("reshape");
        let shape = shape.into();
        assert_eq!(shape.numel(), self.shape(a).numel(), "reshape numel");
        let out = self.data(a).to_vec();
        let rg = self.rg(a);
        self.push(out, shape, Op::Reshape(a), rg)
    }

    /// Numerically stable weighted binary cross-entropy on logits, reduced to
    /// a scalar: `sum_i w_i * bce(z_i, t_i) / norm`.
    pub fn bce_with_logits(
        &mut self,
        logits: Tx,
        targets: &[f32],
        weights: &[f32],
        norm: f32,
    ) -> Tx {
        let _t = profiler::op_timer("bce_with_logits");
        let z = self.data(logits);
        assert_eq!(z.len(), targets.len());
        assert_eq!(z.len(), weights.len());
        assert!(norm > 0.0);
        let mut loss = 0.0f64;
        for ((&zi, &ti), &wi) in z.iter().zip(targets).zip(weights) {
            if wi == 0.0 {
                continue;
            }
            // max(z,0) - z*t + ln(1 + e^{-|z|})
            let l = zi.max(0.0) - zi * ti + (-zi.abs()).exp().ln_1p();
            loss += (wi * l) as f64;
        }
        let rg = self.rg(logits);
        self.push(
            vec![(loss / norm as f64) as f32],
            Shape::scalar(),
            Op::BceWithLogits {
                logits,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                norm,
            },
            rg,
        )
    }

    // ----------------------------------------------------------- backward

    /// Run reverse-mode differentiation from scalar node `loss`.
    ///
    /// Gradient buffers are allocated here, not by the forward ops: every
    /// node up to `loss` that requires a gradient and has no buffer yet
    /// gets a zeroed one, reported to the profiler under its op kind.
    /// Buffers that already exist are kept, so a second `backward` on the
    /// same graph accumulates into the first one's gradients.
    pub fn backward(&mut self, loss: Tx) {
        assert_eq!(
            self.nodes[loss.0].shape.numel(),
            1,
            "backward needs a scalar loss"
        );
        assert!(
            self.nodes[loss.0].requires_grad,
            "loss does not depend on any parameter"
        );
        let profiling = rckt_obs::profiling();
        for idx in 0..=loss.0 {
            let node = &mut self.nodes[idx];
            if !node.requires_grad || !node.grad.is_empty() {
                continue;
            }
            let n = node.data.len();
            node.grad = vec![0.0; n];
            if profiling {
                let kind = node.op.kind();
                self.track(kind, n);
            }
        }
        self.nodes[loss.0].grad[0] = 1.0;

        for idx in (0..=loss.0).rev() {
            let node = &mut self.nodes[idx];
            if !node.requires_grad || matches!(node.op, Op::Leaf) {
                continue;
            }
            // Move the op and its output gradient out of the node while its
            // inputs' gradients are written; both go back afterwards.
            let op = std::mem::replace(&mut node.op, Op::Leaf);
            let g = std::mem::take(&mut node.grad);
            {
                let _t = profiler::op_timer_bwd(op.kind());
                self.backprop_one(idx, &op, &g);
            }
            let node = &mut self.nodes[idx];
            node.op = op;
            node.grad = g;
        }
    }

    /// Accumulate into the gradient of `t`, if it requires one. The buffer
    /// is moved out while `f` runs, so `f` can read any node's value
    /// through the graph it is handed without copying it.
    fn add_grad(&mut self, t: Tx, f: impl FnOnce(&mut [f32], &Graph)) {
        if self.nodes[t.0].requires_grad {
            let mut grad = std::mem::take(&mut self.nodes[t.0].grad);
            f(&mut grad, self);
            self.nodes[t.0].grad = grad;
        }
    }

    fn backprop_one(&mut self, idx: usize, op: &Op, g: &[f32]) {
        let out = Tx(idx);
        match *op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                let (m, k) = self.shape(a).mat_dims();
                let n = self.shape(b).cols();
                self.add_grad(a, |ga, s| kernels::matmul_bt_acc(g, s.data(b), ga, m, n, k));
                self.add_grad(b, |gb, s| kernels::matmul_at_acc(s.data(a), g, gb, m, k, n));
            }
            Op::Bmm(a, b) => {
                let (m, k) = {
                    let s = self.shape(a);
                    (s.dims()[1], s.dims()[2])
                };
                let n = self.shape(b).dims()[2];
                self.add_grad(a, |ga, s| {
                    let bd = s.data(b);
                    pool::parallel_chunks_mut(ga, m * k, &|i, ga_slice| {
                        kernels::matmul_bt_acc(
                            &g[i * m * n..(i + 1) * m * n],
                            &bd[i * k * n..(i + 1) * k * n],
                            ga_slice,
                            m,
                            n,
                            k,
                        );
                    });
                });
                self.add_grad(b, |gb, s| {
                    let ad = s.data(a);
                    pool::parallel_chunks_mut(gb, k * n, &|i, gb_slice| {
                        kernels::matmul_at_acc(
                            &ad[i * m * k..(i + 1) * m * k],
                            &g[i * m * n..(i + 1) * m * n],
                            gb_slice,
                            m,
                            k,
                            n,
                        );
                    });
                });
            }
            Op::Transpose(a) => {
                let s_out = *self.shape(out);
                let (m, n) = s_out.mat_dims(); // output dims
                let bsz = s_out.batch();
                self.add_grad(a, |ga, _| {
                    let mut tmp = vec![0.0; m * n];
                    for i in 0..bsz {
                        kernels::transpose(&g[i * m * n..(i + 1) * m * n], &mut tmp, m, n);
                        for (gv, tv) in ga[i * m * n..(i + 1) * m * n].iter_mut().zip(&tmp) {
                            *gv += *tv;
                        }
                    }
                });
            }
            Op::Add(a, b) => {
                self.add_grad(a, |ga, _| acc(ga, g));
                self.add_grad(b, |gb, _| acc(gb, g));
            }
            Op::AddRow(a, row) => {
                self.add_grad(a, |ga, _| acc(ga, g));
                let n = self.shape(row).numel();
                self.add_grad(row, |gr, _| {
                    for chunk in g.chunks_exact(n) {
                        for (r, &v) in gr.iter_mut().zip(chunk) {
                            *r += v;
                        }
                    }
                });
            }
            Op::AddScalar(a) => self.add_grad(a, |ga, _| acc(ga, g)),
            Op::Sub(a, b) => {
                self.add_grad(a, |ga, _| acc(ga, g));
                self.add_grad(b, |gb, _| {
                    for (x, &v) in gb.iter_mut().zip(g) {
                        *x -= v;
                    }
                });
            }
            Op::Mul(a, b) => {
                self.add_grad(a, |ga, s| {
                    for ((x, &v), &y) in ga.iter_mut().zip(g).zip(s.data(b)) {
                        *x += v * y;
                    }
                });
                self.add_grad(b, |gb, s| {
                    for ((x, &v), &y) in gb.iter_mut().zip(g).zip(s.data(a)) {
                        *x += v * y;
                    }
                });
            }
            Op::MulScalar(a, c) => self.add_grad(a, |ga, _| {
                for (x, &v) in ga.iter_mut().zip(g) {
                    *x += v * c;
                }
            }),
            Op::Sigmoid(a) => self.add_grad(a, |ga, s| {
                for ((x, &v), &yv) in ga.iter_mut().zip(g).zip(s.data(out)) {
                    *x += v * yv * (1.0 - yv);
                }
            }),
            Op::Tanh(a) => self.add_grad(a, |ga, s| {
                for ((x, &v), &yv) in ga.iter_mut().zip(g).zip(s.data(out)) {
                    *x += v * (1.0 - yv * yv);
                }
            }),
            Op::Relu(a) => self.add_grad(a, |ga, s| {
                for ((x, &v), &xi) in ga.iter_mut().zip(g).zip(s.data(a)) {
                    if xi > 0.0 {
                        *x += v;
                    }
                }
            }),
            Op::Exp(a) => self.add_grad(a, |ga, s| {
                for ((x, &v), &yv) in ga.iter_mut().zip(g).zip(s.data(out)) {
                    *x += v * yv;
                }
            }),
            Op::LnClamped(a, eps) => self.add_grad(a, |ga, s| {
                for ((x, &v), &xi) in ga.iter_mut().zip(g).zip(s.data(a)) {
                    if xi > eps {
                        *x += v / xi;
                    }
                }
            }),
            Op::SoftmaxLast(a) => {
                let n = self.shape(out).cols();
                self.add_grad(a, |ga, s| {
                    for ((ga_row, g_row), y_row) in ga
                        .chunks_exact_mut(n)
                        .zip(g.chunks_exact(n))
                        .zip(s.data(out).chunks_exact(n))
                    {
                        let dot: f32 = g_row.iter().zip(y_row).map(|(a, b)| a * b).sum();
                        for j in 0..n {
                            ga_row[j] += y_row[j] * (g_row[j] - dot);
                        }
                    }
                });
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let n = self.shape(out).cols();
                let xd = self.data(x);
                // Recompute per-row statistics (cheaper than caching).
                let rows = xd.len() / n;
                let mut xhat = vec![0.0f32; xd.len()];
                let mut invs = vec![0.0f32; rows];
                for r in 0..rows {
                    let x_row = &xd[r * n..(r + 1) * n];
                    let mean = x_row.iter().sum::<f32>() / n as f32;
                    let var = x_row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                    let inv = 1.0 / (var + eps).sqrt();
                    invs[r] = inv;
                    for j in 0..n {
                        xhat[r * n + j] = (x_row[j] - mean) * inv;
                    }
                }
                self.add_grad(gamma, |gg, _| {
                    for r in 0..rows {
                        for j in 0..n {
                            gg[j] += g[r * n + j] * xhat[r * n + j];
                        }
                    }
                });
                self.add_grad(beta, |gb, _| {
                    for r in 0..rows {
                        for j in 0..n {
                            gb[j] += g[r * n + j];
                        }
                    }
                });
                self.add_grad(x, |gx, s| {
                    let gd = s.data(gamma);
                    for r in 0..rows {
                        let gy = &g[r * n..(r + 1) * n];
                        let xh = &xhat[r * n..(r + 1) * n];
                        // dl/dxhat_j = gy_j * gamma_j
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..n {
                            let d = gy[j] * gd[j];
                            sum_dxhat += d;
                            sum_dxhat_xhat += d * xh[j];
                        }
                        let inv = invs[r];
                        for j in 0..n {
                            let d = gy[j] * gd[j];
                            gx[r * n + j] += inv
                                * (d - sum_dxhat / n as f32 - xh[j] * sum_dxhat_xhat / n as f32);
                        }
                    }
                });
            }
            Op::ConcatCols(a, b) => {
                let na = self.shape(a).cols();
                let nb = self.shape(b).cols();
                let m = self.shape(a).rows();
                self.add_grad(a, |ga, _| {
                    for i in 0..m {
                        for j in 0..na {
                            ga[i * na + j] += g[i * (na + nb) + j];
                        }
                    }
                });
                self.add_grad(b, |gb, _| {
                    for i in 0..m {
                        for j in 0..nb {
                            gb[i * nb + j] += g[i * (na + nb) + na + j];
                        }
                    }
                });
            }
            Op::ConcatRows(ref parts) => {
                let mut offset = 0;
                for &p in parts {
                    let len = self.shape(p).numel();
                    self.add_grad(p, |gp, _| acc(gp, &g[offset..offset + len]));
                    offset += len;
                }
            }
            Op::SliceCols(a, start, end) => {
                let n = self.shape(a).cols();
                let w = end - start;
                self.add_grad(a, |ga, _| {
                    for (i, row) in g.chunks_exact(w).enumerate() {
                        for (j, &v) in row.iter().enumerate() {
                            ga[i * n + start + j] += v;
                        }
                    }
                });
            }
            Op::SliceRows(a, start, _end) => {
                let n = self.shape(a).cols();
                self.add_grad(a, |ga, _| acc(&mut ga[start * n..start * n + g.len()], g));
            }
            Op::GatherRows(table, ref indices) => {
                let n = self.shape(table).cols();
                self.add_grad(table, |gt, _| {
                    for (i, &ix) in indices.iter().enumerate() {
                        for j in 0..n {
                            gt[ix * n + j] += g[i * n + j];
                        }
                    }
                });
            }
            Op::SegmentMeanRows(a, ref lens) => {
                let n = self.shape(a).cols();
                self.add_grad(a, |ga, _| {
                    let mut row = 0;
                    for (i, &len) in lens.iter().enumerate() {
                        let inv = 1.0 / len as f32;
                        for r in row..row + len {
                            for j in 0..n {
                                ga[r * n + j] += g[i * n + j] * inv;
                            }
                        }
                        row += len;
                    }
                });
            }
            Op::SumAll(a) => self.add_grad(a, |ga, _| {
                for x in ga.iter_mut() {
                    *x += g[0];
                }
            }),
            Op::MeanAll(a) => {
                let inv = 1.0 / self.shape(a).numel() as f32;
                self.add_grad(a, |ga, _| {
                    for x in ga.iter_mut() {
                        *x += g[0] * inv;
                    }
                });
            }
            Op::SumLast(a) => {
                let n = self.shape(a).cols();
                self.add_grad(a, |ga, _| {
                    for (i, row) in ga.chunks_exact_mut(n).enumerate() {
                        for x in row.iter_mut() {
                            *x += g[i];
                        }
                    }
                });
            }
            Op::Dropout(a, ref mask) => self.add_grad(a, |ga, _| {
                for ((x, &v), &m) in ga.iter_mut().zip(g).zip(mask) {
                    *x += v * m;
                }
            }),
            Op::SelectRows { on, off, ref rows } => {
                let n = self.shape(on).cols();
                for (src, want) in [(on, true), (off, false)] {
                    self.add_grad(src, |gs, _| {
                        for (r, _) in rows.iter().enumerate().filter(|(_, &t)| t == want) {
                            acc(&mut gs[r * n..(r + 1) * n], &g[r * n..(r + 1) * n]);
                        }
                    });
                }
            }
            Op::Reshape(a) => self.add_grad(a, |ga, _| acc(ga, g)),
            Op::BceWithLogits {
                logits,
                ref targets,
                ref weights,
                norm,
            } => self.add_grad(logits, |gz, s| {
                let zd = s.data(logits);
                let scale = g[0] / norm;
                for (i, x) in gz.iter_mut().enumerate() {
                    if weights[i] == 0.0 {
                        continue;
                    }
                    *x += scale * weights[i] * (sigmoid(zd[i]) - targets[i]);
                }
            }),
        }
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        if self.tracked_bytes > 0 {
            profiler::on_free(self.tracked_bytes);
        }
    }
}

#[inline]
fn acc(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Logistic sigmoid, stable for large |x|.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}
