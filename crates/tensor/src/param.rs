//! Persistent parameter storage with named tensors and optimizer state.

use crate::graph::{Graph, Tx};
use crate::shape::Shape;
use rckt_obs::json::{self, FromJson, JsonValue, ObjectReader, ToJson};
use rckt_obs::rng::SmallRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParamId(pub(crate) usize);

/// Weight initialization schemes.
#[derive(Clone, Copy, Debug)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// All ones (layer-norm gain).
    Ones,
    /// Every element set to the given value.
    Constant(f32),
    /// Uniform in `[-a, a]`.
    Uniform(f32),
    /// Xavier/Glorot uniform, scaled by fan-in + fan-out.
    Xavier,
    /// He/Kaiming uniform, scaled by fan-in (for ReLU nets).
    He,
}

/// One named tensor. Only `name`, `shape` and `data` are saved; the
/// gradient and the Adam moments start at zero on load.
///
/// `data` is shared with every graph the parameter is a leaf of. Writers
/// go through [`Arc::make_mut`], so a graph still holding the buffer
/// keeps the values it was built with while the store gets a copy.
pub(crate) struct Param {
    pub name: String,
    pub shape: Shape,
    pub data: Arc<Vec<f32>>,
    pub grad: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
}

impl ToJson for Param {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("name", &self.name)
            .field("shape", &self.shape)
            .field("data", self.data.as_slice())
            .write_to(out);
    }
}

/// A parameter read from JSON holds exactly as many values as its shape.
impl FromJson for Param {
    fn from_json(v: &JsonValue) -> Result<Param, String> {
        let r = ObjectReader::new(v)?;
        let name: String = r.req("name")?;
        let shape: Shape = r.req("shape")?;
        let data: Vec<f32> = r.req("data")?;
        let n = data.len();
        if n != shape.numel() {
            return Err(format!(
                "parameter `{name}` has {n} values, its shape {shape:?} holds {}",
                shape.numel()
            ));
        }
        Ok(Param {
            name,
            shape,
            data: Arc::new(data),
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        })
    }
}

/// Named persistent parameters plus their Adam moments.
///
/// A fresh [`Graph`] is built per pass. [`ParamStore::leaf`] puts a
/// parameter into it by sharing the store's buffer, not by copying it.
/// After [`Graph::backward`], [`ParamStore::accumulate_grads`] harvests
/// the gradients, and an optimizer from [`crate::optim`] updates the
/// weights in place. The update copies a buffer only if a graph still
/// holds it (copy on write, and that graph keeps the old values), so a
/// training step drops its graph before the optimizer runs.
#[derive(Default)]
pub struct ParamStore {
    pub(crate) params: Vec<Param>,
    names: HashMap<String, usize>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter. Panics if `name` is already taken.
    pub fn register(
        &mut self,
        name: &str,
        shape: impl Into<Shape>,
        init: Init,
        rng: &mut SmallRng,
    ) -> ParamId {
        assert!(
            !self.names.contains_key(name),
            "duplicate parameter name {name}"
        );
        let shape = shape.into();
        let n = shape.numel();
        let (fan_in, fan_out) = match *shape.dims() {
            [o] => (o, o),
            [i, o] => (i, o),
            [b, i, o] => (b * i, o),
            _ => unreachable!(),
        };
        let data = match init {
            Init::Zeros => vec![0.0; n],
            Init::Ones => vec![1.0; n],
            Init::Constant(c) => vec![c; n],
            Init::Uniform(a) => (0..n).map(|_| rng.gen_range(-a..=a)).collect(),
            Init::Xavier => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..=a)).collect()
            }
            Init::He => {
                let a = (6.0 / fan_in as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..=a)).collect()
            }
        };
        self.params.push(Param {
            name: name.to_string(),
            shape,
            data: Arc::new(data),
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        });
        let id = self.params.len() - 1;
        self.names.insert(name.to_string(), id);
        ParamId(id)
    }

    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.names.get(name).copied().map(ParamId)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Every parameter's handle, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.data.len()).sum()
    }

    pub fn data(&self, id: ParamId) -> &[f32] {
        &self.params[id.0].data
    }

    /// Writable weights. Copies the buffer first if a graph still holds it.
    pub fn data_mut(&mut self, id: ParamId) -> &mut [f32] {
        Arc::make_mut(&mut self.params[id.0].data).as_mut_slice()
    }

    pub fn grad(&self, id: ParamId) -> &[f32] {
        &self.params[id.0].grad
    }

    pub fn shape(&self, id: ParamId) -> &Shape {
        &self.params[id.0].shape
    }

    /// Inject a parameter into a graph as a differentiable leaf. The leaf
    /// shares the store's buffer: nothing is copied or allocated.
    pub fn leaf(&self, g: &mut Graph, id: ParamId) -> Tx {
        let p = &self.params[id.0];
        g.push_param(Arc::clone(&p.data), p.shape, id.0)
    }

    /// Harvest gradients from a backward-swept graph into `self.grad`
    /// (accumulating, so several graphs can contribute to one step). A
    /// leaf the sweep did not reach has no gradient and adds nothing.
    pub fn accumulate_grads(&mut self, g: &Graph) {
        for node in &g.nodes {
            if let Some(pi) = node.param_src {
                let dst = &mut self.params[pi].grad;
                for (d, &s) in dst.iter_mut().zip(&node.grad) {
                    *d += s;
                }
            }
        }
    }

    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.iter_mut().for_each(|x| *x = 0.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .flat_map(|p| p.grad.iter())
            .map(|g| (g * g) as f64)
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                p.grad.iter_mut().for_each(|g| *g *= scale);
            }
        }
    }

    /// Serialize weights (not optimizer state) to JSON:
    /// `{"params":[{"name","shape","data"}…],"names":{name: index…}}`.
    /// `names` is written in parameter order, so equal stores give equal
    /// bytes; readers rebuild it from `params`.
    pub fn save_json(&self) -> String {
        let mut names = json::Obj::new();
        for (i, p) in self.params.iter().enumerate() {
            names.field(&p.name, &i);
        }
        json::Obj::new()
            .field("params", &self.params)
            .raw("names", &names.finish())
            .finish()
    }

    /// Restore weights from [`ParamStore::save_json`] output. Optimizer
    /// moments are reset.
    pub fn load_json(s: &str) -> Result<Self, String> {
        let v = json::parse(s)?;
        let params: Vec<Param> = ObjectReader::new(&v)?.req("params")?;
        let names = params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        Ok(ParamStore { params, names })
    }

    /// Whether `saved` has exactly this store's parameters: the same
    /// names in the same order, each with this store's shape (every
    /// parameter holds as many values as its shape, however it was
    /// made). A store that passes can stand in for this one behind every
    /// [`ParamId`] it handed out.
    pub fn check_layout(&self, saved: &ParamStore) -> Result<(), String> {
        if saved.params.len() != self.params.len() {
            return Err(format!(
                "{} parameters saved, the model has {}",
                saved.params.len(),
                self.params.len()
            ));
        }
        for (i, (want, got)) in self.params.iter().zip(&saved.params).enumerate() {
            if got.name != want.name {
                return Err(format!(
                    "parameter {i} is `{}`, expected `{}`",
                    got.name, want.name
                ));
            }
            if got.shape != want.shape {
                return Err(format!(
                    "parameter `{}` has shape {:?}, expected {:?}",
                    got.name, got.shape, want.shape
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::matrix(3, 4), Init::Xavier, &mut rng);
        assert_eq!(store.id("w"), Some(w));
        assert_eq!(store.id("nope"), None);
        assert_eq!(store.num_weights(), 12);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        store.register("w", Shape::vector(2), Init::Zeros, &mut rng);
        store.register("w", Shape::vector(2), Init::Zeros, &mut rng);
    }

    #[test]
    fn grad_roundtrip_through_graph() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::vector(3), Init::Ones, &mut rng);

        let mut g = Graph::new();
        let wt = store.leaf(&mut g, w);
        let loss = g.sum_all(wt);
        g.backward(loss);
        store.accumulate_grads(&g);
        assert_eq!(store.grad(w), &[1.0, 1.0, 1.0]);

        store.zero_grads();
        assert_eq!(store.grad(w), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn leaf_shares_the_store_buffer() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::matrix(600, 32), Init::Xavier, &mut rng);
        let mut g = Graph::new();
        let wt = store.leaf(&mut g, w);
        assert_eq!(
            g.data(wt).as_ptr(),
            store.data(w).as_ptr(),
            "a parameter leaf reads the store's buffer, not a copy"
        );
        assert_eq!(g.shape(wt), store.shape(w));
        assert!(g.grad(wt).is_empty(), "no gradient before backward");
    }

    #[test]
    fn data_mut_copies_only_a_buffer_a_graph_still_holds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::vector(3), Init::Ones, &mut rng);
        let before = store.data(w).as_ptr();
        store.data_mut(w)[0] = 2.0;
        assert_eq!(store.data(w).as_ptr(), before, "no graph: written in place");

        let mut g = Graph::new();
        let wt = store.leaf(&mut g, w);
        store.data_mut(w)[1] = 5.0;
        assert_eq!(g.data(wt), &[2.0, 1.0, 1.0], "the graph keeps its values");
        assert_eq!(store.data(w), &[2.0, 5.0, 1.0]);
        assert_ne!(store.data(w).as_ptr(), g.data(wt).as_ptr());
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.register("w", Shape::vector(2), Init::Zeros, &mut rng);
        store.params[w.0].grad = vec![3.0, 4.0]; // norm 5
        store.clip_grad_norm(1.0);
        let n = store.grad_norm();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        store.register("a", Shape::matrix(2, 2), Init::Xavier, &mut rng);
        store.register("b", Shape::vector(2), Init::Uniform(0.5), &mut rng);
        let json = store.save_json();
        let loaded = ParamStore::load_json(&json).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.data(loaded.id("a").unwrap()),
            store.data(store.id("a").unwrap())
        );
    }
}
