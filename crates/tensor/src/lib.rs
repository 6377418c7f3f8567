//! # rckt-tensor
//!
//! A small, dependency-light, pure-Rust tensor library with reverse-mode
//! automatic differentiation, written as the training substrate for the
//! RCKT knowledge-tracing reproduction.
//!
//! Design (see `DESIGN.md` at the workspace root):
//!
//! * [`Graph`] is a dynamic tape rebuilt every step. Ops are an enum with
//!   hand-written backward rules, so the whole engine is testable against
//!   finite differences (see `tests/gradcheck.rs` in this crate).
//! * [`ParamStore`] holds named persistent weights plus Adam moments;
//!   parameters enter a graph as leaves that share the store's buffers (no
//!   copy), and gradients, which only `backward` allocates, are harvested
//!   back after it.
//! * [`layers`] provides the building blocks the knowledge-tracing models
//!   need: linear/MLP heads, embeddings, LSTM, layer-norm, multi-head
//!   attention with optional AKT-style monotonic distance decay.
//!
//! ## Example
//!
//! ```
//! use rckt_tensor::{Graph, ParamStore, Init, Shape, Adam};
//! use rckt_obs::rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.register("w", Shape::matrix(2, 1), Init::Xavier, &mut rng);
//! let mut adam = Adam::new(0.05);
//!
//! // Fit y = x0 + x1 on a tiny batch.
//! for _ in 0..200 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let x = g.input(vec![0.0, 1.0, 1.0, 0.0, 1.0, 1.0], Shape::matrix(3, 2));
//!     let wt = store.leaf(&mut g, w);
//!     let pred = g.matmul(x, wt);
//!     let target = g.input(vec![1.0, 1.0, 2.0], Shape::matrix(3, 1));
//!     let diff = g.sub(pred, target);
//!     let sq = g.mul(diff, diff);
//!     let loss = g.mean_all(sq);
//!     g.backward(loss);
//!     store.accumulate_grads(&g);
//!     adam.step(&mut store);
//! }
//! let w_data = store.data(w);
//! assert!((w_data[0] - 1.0).abs() < 0.1 && (w_data[1] - 1.0).abs() < 0.1);
//! ```

pub mod graph;
pub mod kernels;
pub mod layers;
pub mod optim;
pub mod param;
pub mod pool;
pub mod profiler;
pub mod shape;

pub use graph::{sigmoid, Graph, Tx};
pub use optim::{Adam, Sgd};
pub use param::{Init, ParamId, ParamStore};
pub use shape::Shape;
