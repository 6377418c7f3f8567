//! Self-contained model files: backbone + config + dataset dimensions +
//! weights, serialized to a single JSON document so a trained model can be
//! shipped, reloaded and queried without the training pipeline.

use crate::config::{Backbone, RcktConfig};
use crate::model::Rckt;
use rckt_data::QMatrix;
use rckt_obs::json::{self, FromJson, JsonValue, ObjectReader, ToJson};
use rckt_tensor::{ParamStore, Shape};

/// Format version, bumped on breaking layout changes.
pub const MODEL_FILE_VERSION: u32 = 1;

/// Training-time prediction-score histogram: counts over equal-width
/// bins on `[0, 1]`, captured on the validation fold at export time.
/// Online monitors compare the live score distribution against it
/// (population stability index) to detect serving drift. The bin count
/// is conventionally `rckt_obs::SCORE_BINS` (10) but is not enforced
/// here — consumers validate the length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScoreReference {
    pub counts: Vec<u64>,
}

impl ScoreReference {
    /// Histogram a batch of probabilities into `bins` equal-width bins.
    pub fn from_scores(scores: impl IntoIterator<Item = f64>, bins: usize) -> ScoreReference {
        let mut counts = vec![0u64; bins.max(1)];
        let n = counts.len();
        for s in scores {
            let b = ((s.clamp(0.0, 1.0) * n as f64) as usize).min(n - 1);
            counts[b] += 1;
        }
        ScoreReference { counts }
    }
}

impl ToJson for ScoreReference {
    fn write_json(&self, out: &mut String) {
        json::Obj::new().field("counts", &self.counts).write_to(out);
    }
}

impl FromJson for ScoreReference {
    fn from_json(v: &JsonValue) -> Result<ScoreReference, String> {
        Ok(ScoreReference {
            counts: ObjectReader::new(v)?.req("counts")?,
        })
    }
}

/// A serialized RCKT model.
#[derive(Debug)]
pub struct SavedModel {
    pub version: u32,
    pub backbone: Backbone,
    pub config: RcktConfig,
    pub num_questions: usize,
    pub num_concepts: usize,
    /// Inner weight payload (the `ParamStore` JSON).
    pub weights: String,
    /// Optional question→concept mapping, embedded so a model file is
    /// self-contained for online serving (no dataset CSV needed to build
    /// batches). Absent in files written before this field existed —
    /// still format version 1, the field is strictly additive.
    pub q_matrix: Option<QMatrix>,
    /// Optional training-time score histogram for drift monitoring.
    /// Strictly additive like [`SavedModel::q_matrix`]: files without it
    /// parse unchanged, files with it are ignored by old readers.
    pub score_reference: Option<ScoreReference>,
}

/// Optional fields are left out when absent.
impl ToJson for SavedModel {
    fn write_json(&self, out: &mut String) {
        let mut o = json::Obj::new();
        o.field("version", &self.version)
            .field("backbone", &self.backbone)
            .field("config", &self.config)
            .field("num_questions", &self.num_questions)
            .field("num_concepts", &self.num_concepts)
            .field("weights", &self.weights);
        if let Some(qm) = &self.q_matrix {
            o.field("q_matrix", qm);
        }
        if let Some(reference) = &self.score_reference {
            o.field("score_reference", reference);
        }
        o.write_to(out);
    }
}

impl SavedModel {
    /// Parse and version-check a model file without instantiating the
    /// model — serving layers use this to reach the embedded
    /// [`SavedModel::q_matrix`] and dimensions alongside [`Rckt::import`].
    /// An embedded Q-matrix must have the saved dimensions.
    pub fn parse(text: &str) -> Result<SavedModel, PersistError> {
        let v = json::parse(text).map_err(PersistError::Json)?;
        let r = ObjectReader::new(&v).map_err(PersistError::Json)?;
        let version: u32 = r.req("version").map_err(PersistError::Json)?;
        if version != MODEL_FILE_VERSION {
            return Err(PersistError::Version(version));
        }
        let read = || -> Result<SavedModel, String> {
            Ok(SavedModel {
                version,
                backbone: r.req("backbone")?,
                config: r.req("config")?,
                num_questions: r.req("num_questions")?,
                num_concepts: r.req("num_concepts")?,
                weights: r.req("weights")?,
                q_matrix: r.or_default("q_matrix")?,
                score_reference: r.or_default("score_reference")?,
            })
        };
        let saved = read().map_err(PersistError::Json)?;
        if let Some(qm) = &saved.q_matrix {
            let (q, k) = (qm.num_questions(), qm.num_concepts());
            if (q, k) != (saved.num_questions, saved.num_concepts) {
                return Err(PersistError::Invalid(format!(
                    "q_matrix covers {q} questions and {k} concepts, the model {} and {}",
                    saved.num_questions, saved.num_concepts
                )));
            }
        }
        Ok(saved)
    }
}

#[derive(Debug)]
pub enum PersistError {
    /// The file's format version is not supported.
    Version(u32),
    /// The file is not JSON, or not a model file's JSON.
    Json(String),
    /// The file parses but does not describe a model that can be loaded:
    /// weights that are not the model's parameters, or a Q-matrix of other
    /// dimensions.
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Version(v) => {
                write!(
                    f,
                    "unsupported model file version {v} (expected {MODEL_FILE_VERSION})"
                )
            }
            PersistError::Json(e) => write!(f, "model file parse error: {e}"),
            PersistError::Invalid(e) => write!(f, "invalid model file: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl Rckt {
    /// Serialize the model (architecture + weights) into one JSON string.
    pub fn export(&self, num_questions: usize, num_concepts: usize) -> String {
        let saved = SavedModel {
            version: MODEL_FILE_VERSION,
            backbone: self.backbone,
            config: self.cfg.clone(),
            num_questions,
            num_concepts,
            weights: self.save_weights(),
            q_matrix: None,
            score_reference: None,
        };
        json::to_string(&saved)
    }

    /// [`Rckt::export`] with the dataset's Q-matrix embedded, making the
    /// file self-contained for online serving. Dimensions come from the
    /// Q-matrix itself and must match what the model was built with.
    pub fn export_with_qmatrix(&self, qm: &QMatrix) -> String {
        self.export_full(qm, None)
    }

    /// [`Rckt::export_with_qmatrix`] plus an optional training-time score
    /// histogram ([`ScoreReference`]) so serving can monitor
    /// score-distribution drift against the distribution the model
    /// actually produced at train time.
    pub fn export_full(&self, qm: &QMatrix, score_reference: Option<ScoreReference>) -> String {
        let saved = SavedModel {
            version: MODEL_FILE_VERSION,
            backbone: self.backbone,
            config: self.cfg.clone(),
            num_questions: qm.num_questions(),
            num_concepts: qm.num_concepts(),
            weights: self.save_weights(),
            q_matrix: Some(qm.clone()),
            score_reference,
        };
        json::to_string(&saved)
    }

    /// Rebuild a model from an already-parsed [`SavedModel`].
    ///
    /// The weights are parsed first: their size is bounded by the file,
    /// while the config's fields are bare numbers. Every field that sizes
    /// an allocation is checked against the saved shapes before
    /// [`Rckt::new`] allocates anything.
    pub fn from_saved(saved: &SavedModel) -> Result<Rckt, PersistError> {
        let invalid = |e: String| PersistError::Invalid(format!("weights: {e}"));
        let weights = ParamStore::load_json(&saved.weights).map_err(invalid)?;
        check_config(saved, &weights).map_err(PersistError::Invalid)?;
        let mut model = Rckt::new(
            saved.backbone,
            saved.num_questions,
            saved.num_concepts,
            saved.config.clone(),
        );
        model.set_weights(weights).map_err(invalid)?;
        Ok(model)
    }

    /// Rebuild a model from [`Rckt::export`] output.
    pub fn import(json: &str) -> Result<Rckt, PersistError> {
        Rckt::from_saved(&SavedModel::parse(json)?)
    }
}

/// Check each field of a saved model that sizes an allocation in
/// [`Rckt::new`] against the parameter shapes in `weights`: `dim`, the
/// two vocabularies, `layers`, and on attention backbones `max_len` and
/// `heads`. A model built from a config that passes is no larger than the
/// weights the file holds; [`ParamStore::check_layout`] then checks every
/// parameter's name, order and shape.
fn check_config(saved: &SavedModel, weights: &ParamStore) -> Result<(), String> {
    let cfg = &saved.config;
    let d = cfg.dim;
    // `field` sizes parameter `name`, which the weights hold with shape
    // `got` (if at all); `want` is the shape the field implies.
    let expect = |field: &str, name: &str, got: Option<Shape>, want: Option<Shape>| match got {
        Some(got) if Some(got) == want => Ok(()),
        Some(got) => Err(format!(
            "`{field}` does not match the weights: `{name}` has shape {got:?}"
        )),
        None => Err(format!("`{field}`: the weights have no `{name}`")),
    };
    let named = |name: &str| weights.id(name).map(|id| *weights.shape(id));
    let d2 = d.checked_mul(2).map(|d2| Shape::matrix(d2, d));
    expect("dim", "head.l1.w", named("head.l1.w"), d2)?;
    // The question and concept tables are the first two parameters of
    // every backbone; their names are left to `check_layout`.
    let mut first = weights.ids().map(|id| *weights.shape(id));
    let q = Shape::matrix(saved.num_questions, d);
    expect("num_questions", "emb.q", first.next(), Some(q))?;
    let k = Shape::matrix(saved.num_concepts, d);
    expect("num_concepts", "emb.k", first.next(), Some(k))?;
    let layer_param: fn(usize) -> String = match saved.backbone {
        Backbone::Dkt => |l| format!("enc.fwd.l{l}.w_ih"),
        Backbone::Sakt | Backbone::Akt => |l| format!("enc.blk{l}.ln_q.gamma"),
    };
    let layers = (0..)
        .take_while(|&l| weights.id(&layer_param(l)).is_some())
        .count();
    if cfg.layers != layers {
        return Err(format!(
            "`layers` is {}, the weights hold {layers}",
            cfg.layers
        ));
    }
    if saved.backbone != Backbone::Dkt {
        let pos = Shape::matrix(cfg.max_len, d);
        expect("max_len", "enc.pos", named("enc.pos"), Some(pos))?;
        if cfg.heads == 0 || d % cfg.heads != 0 {
            return Err(format!(
                "`heads` ({}) does not divide `dim` ({d})",
                cfg.heads
            ));
        }
        if saved.backbone == Backbone::Akt && layers > 0 {
            let theta = "enc.blk0.attf.theta";
            expect("heads", theta, named(theta), Some(Shape::vector(cfg.heads)))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_data::{make_batches, windows, SyntheticSpec};

    /// A small model of `backbone`, exported and parsed back.
    fn saved(backbone: Backbone) -> SavedModel {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            backbone,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                heads: 2,
                layers: 2,
                max_len: 64,
                ..Default::default()
            },
        );
        SavedModel::parse(&model.export(ds.num_questions(), ds.num_concepts())).unwrap()
    }

    /// `edit` makes a field disagree with the weights; the model must be
    /// refused, naming the field, before anything is allocated for it.
    fn refused(backbone: Backbone, field: &str, edit: impl FnOnce(&mut SavedModel)) {
        let mut file = saved(backbone);
        assert!(Rckt::from_saved(&file).is_ok());
        edit(&mut file);
        match Rckt::from_saved(&file) {
            Err(PersistError::Invalid(e)) => assert!(e.contains(field), "{field}: {e}"),
            other => panic!("{field}: expected Invalid, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn a_huge_dim_is_refused_before_allocating() {
        refused(Backbone::Dkt, "`dim`", |s| s.config.dim = 1_000_000);
        refused(Backbone::Dkt, "`dim`", |s| s.config.dim = usize::MAX);
    }

    #[test]
    fn a_huge_layer_count_is_refused_before_allocating() {
        refused(Backbone::Dkt, "`layers`", |s| s.config.layers = 1_000_000);
        refused(Backbone::Akt, "`layers`", |s| s.config.layers = 1_000_000);
    }

    #[test]
    fn a_huge_question_vocabulary_is_refused_before_allocating() {
        refused(Backbone::Dkt, "`num_questions`", |s| {
            s.num_questions = 1 << 40
        });
    }

    #[test]
    fn a_huge_concept_vocabulary_is_refused_before_allocating() {
        refused(Backbone::Dkt, "`num_concepts`", |s| {
            s.num_concepts = 1 << 40
        });
    }

    #[test]
    fn a_huge_max_len_is_refused_before_allocating() {
        refused(Backbone::Sakt, "`max_len`", |s| s.config.max_len = 1 << 40);
    }

    #[test]
    fn a_declared_shape_must_hold_its_values() {
        // A huge vocabulary that the declared table shape agrees with,
        // but whose values the file does not hold.
        let huge = 1usize << 40;
        refused(Backbone::Dkt, "`emb.q` has", |s| {
            let table = format!("\"shape\":[{},8]", s.num_questions);
            assert!(s.weights.contains(&table), "{table}");
            s.weights = s
                .weights
                .replacen(&table, &format!("\"shape\":[{huge},8]"), 1);
            s.num_questions = huge;
        });
    }

    #[test]
    fn heads_must_divide_dim_and_match_the_weights() {
        refused(Backbone::Sakt, "`heads`", |s| s.config.heads = 0);
        refused(Backbone::Sakt, "`heads`", |s| s.config.heads = 1_000_000);
        refused(Backbone::Akt, "`heads`", |s| s.config.heads = 4);
    }

    #[test]
    fn export_import_roundtrip_preserves_predictions() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(4)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 4);
        let model = Rckt::new(
            Backbone::Akt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 16,
                heads: 2,
                ..Default::default()
            },
        );
        let json = model.export(ds.num_questions(), ds.num_concepts());
        let restored = Rckt::import(&json).unwrap();
        let a = model.predict_last(&batches[0]);
        let b = restored.predict_last(&batches[0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.prob - y.prob).abs() < 1e-6);
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let json = model.export(ds.num_questions(), ds.num_concepts());
        let tampered = json.replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            Rckt::import(&tampered),
            Err(PersistError::Version(99))
        ));
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(matches!(
            Rckt::import("not json"),
            Err(PersistError::Json(_))
        ));
    }

    #[test]
    fn roundtrip_predictions_are_bit_identical() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let ws = windows(&ds, 20, 5);
        let idx: Vec<usize> = (0..ws.len().min(6)).collect();
        let batches = make_batches(&ws, &idx, &ds.q_matrix, 6);
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 16,
                ..Default::default()
            },
        );
        let restored = Rckt::import(&model.export(ds.num_questions(), ds.num_concepts())).unwrap();
        for batch in &batches {
            let targets: Vec<usize> = (0..batch.batch)
                .map(|b| batch.seq_len(b).saturating_sub(1))
                .collect();
            let a = model.predict_targets(batch, &targets);
            let b = restored.predict_targets(batch, &targets);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.prob.to_bits(),
                    y.prob.to_bits(),
                    "restored model must reproduce predictions bit-for-bit"
                );
                assert_eq!(x.label, y.label);
            }
            let ia = model.influences_exact(batch, &targets);
            let ib = restored.influences_exact(batch, &targets);
            for (x, y) in ia.iter().zip(&ib) {
                assert_eq!(x.score.to_bits(), y.score.to_bits());
                assert_eq!(x.influences.len(), y.influences.len());
                for ((pa, ca, da), (pb, cb, db)) in x.influences.iter().zip(&y.influences) {
                    assert_eq!((pa, ca, da.to_bits()), (pb, cb, db.to_bits()));
                }
            }
        }
    }

    #[test]
    fn truncated_file_is_a_parse_error() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let json = model.export(ds.num_questions(), ds.num_concepts());
        // Chop mid-document at several depths; every prefix must surface
        // as PersistError::Json, never a panic.
        for frac in [0.1, 0.5, 0.9, 0.999] {
            let cut = (json.len() as f64 * frac) as usize;
            let truncated = &json[..cut];
            assert!(
                matches!(Rckt::import(truncated), Err(PersistError::Json(_))),
                "truncated at {cut}/{} bytes should be a parse error",
                json.len()
            );
        }
        // An empty file too.
        assert!(matches!(Rckt::import(""), Err(PersistError::Json(_))));
    }

    #[test]
    fn embedded_qmatrix_roundtrips_and_stays_optional() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        // Plain export: no q_matrix key at all (old readers unaffected).
        let plain = model.export(ds.num_questions(), ds.num_concepts());
        assert!(!plain.contains("q_matrix"));
        assert!(SavedModel::parse(&plain).unwrap().q_matrix.is_none());

        // Embedded export round-trips the mapping and the dimensions.
        let rich = model.export_with_qmatrix(&ds.q_matrix);
        let saved = SavedModel::parse(&rich).unwrap();
        assert_eq!(saved.num_questions, ds.num_questions());
        assert_eq!(saved.num_concepts, ds.num_concepts());
        let qm = saved.q_matrix.as_ref().unwrap();
        assert_eq!(qm.num_questions(), ds.q_matrix.num_questions());
        for q in 0..qm.num_questions() {
            assert_eq!(qm.concepts_of(q as u32), ds.q_matrix.concepts_of(q as u32));
        }
        // And the model itself still loads from the parsed form.
        let restored = Rckt::from_saved(&saved).unwrap();
        assert_eq!(restored.num_questions(), ds.num_questions());
        assert_eq!(restored.num_concepts(), ds.num_concepts());
    }

    #[test]
    fn score_reference_is_additive_and_roundtrips() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        // Exports without a reference omit the key entirely.
        let plain = model.export_with_qmatrix(&ds.q_matrix);
        assert!(!plain.contains("score_reference"));
        assert!(SavedModel::parse(&plain).unwrap().score_reference.is_none());

        let reference = ScoreReference::from_scores([0.05, 0.55, 0.56, 0.95, 1.0, -0.5], 10);
        assert_eq!(reference.counts, vec![2, 0, 0, 0, 0, 2, 0, 0, 0, 2]);
        // Out-of-range scores clamp into the edge bins; 1.0 lands in the
        // last bin, -0.5 in the first.
        assert_eq!(reference.counts.iter().sum::<u64>(), 6);

        let rich = model.export_full(&ds.q_matrix, Some(reference.clone()));
        let saved = SavedModel::parse(&rich).unwrap();
        assert_eq!(saved.score_reference, Some(reference));
        // The model still loads and the q_matrix is intact alongside.
        assert!(saved.q_matrix.is_some());
        assert!(Rckt::from_saved(&saved).is_ok());
    }

    #[test]
    fn version_check_happens_in_parse() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        let json = model.export(ds.num_questions(), ds.num_concepts());
        let tampered = json.replacen("\"version\":1", "\"version\":7", 1);
        assert!(matches!(
            SavedModel::parse(&tampered),
            Err(PersistError::Version(7))
        ));
        let msg = SavedModel::parse(&tampered).unwrap_err().to_string();
        assert!(msg.contains("version 7"), "contextual message: {msg}");
    }

    /// A model file in serde_json's layout (`1.0`, `1e-7`, `names` in
    /// arbitrary order, a `u64` seed above 2^53), written by hand.
    const FIXTURE: &str = include_str!("../tests/fixtures/model_v1.json");

    #[test]
    fn serde_json_layout_fixture_loads_with_exact_bits() {
        let saved = SavedModel::parse(FIXTURE).unwrap();
        assert_eq!(saved.config.seed, u64::MAX);
        assert_eq!(saved.config.l2.to_bits(), 1e-5f32.to_bits());
        assert_eq!(saved.config.alpha, 1.0);
        let model = Rckt::from_saved(&saved).unwrap();
        let bits = |name: &str| -> Vec<u32> {
            let id = model.store.id(name).unwrap();
            model.store.data(id).iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits("emb.q"), [0x3F80_0000, 0x33D6_BF95]);
        assert_eq!(bits("emb.r"), [0x3DCC_CCCD, 0x8000_0000, 0x3E80_0000]);
        assert_eq!(bits("enc.fwd.l0.b"), [0, 0, 0, 0x0080_0000]);
        assert_eq!(
            bits("enc.bwd.l0.w_hh"),
            [0x3F66_6666, 0xBF66_6666, 0x3D4C_CCCD, 0x3F80_0000]
        );
        assert_eq!(bits("head.l2.b"), [0xB3D6_BF95]);
    }

    #[test]
    fn export_import_export_is_byte_identical() {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Akt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                heads: 2,
                seed: u64::MAX - 7,
                ..Default::default()
            },
        );
        let reference = ScoreReference::from_scores([0.1, 0.9], 10);
        let first = model.export_full(&ds.q_matrix, Some(reference));
        let saved = SavedModel::parse(&first).unwrap();
        let again = Rckt::from_saved(&saved)
            .unwrap()
            .export_full(saved.q_matrix.as_ref().unwrap(), saved.score_reference);
        assert_eq!(first, again);
        // The fixture's serde_json layout re-exports in this codec's
        // layout, which is then stable too.
        let fixture = SavedModel::parse(FIXTURE).unwrap();
        let qm = fixture.q_matrix.as_ref().unwrap();
        let out = Rckt::from_saved(&fixture).unwrap().export_with_qmatrix(qm);
        let back = SavedModel::parse(&out).unwrap();
        let again = Rckt::from_saved(&back).unwrap().export_with_qmatrix(qm);
        assert_eq!(out, again);
    }

    /// The fixture with `from` replaced by `to` (once, and it must occur).
    fn tampered(from: &str, to: &str) -> String {
        assert!(FIXTURE.contains(from), "{from}");
        FIXTURE.replacen(from, to, 1)
    }

    fn load_error(text: &str) -> PersistError {
        Rckt::import(text).map(|_| ()).unwrap_err()
    }

    #[test]
    fn truncated_param_data_is_rejected() {
        let e = load_error(&tampered(
            r#"[2,1],\"data\":[1.0,1e-7]"#,
            r#"[2,1],\"data\":[1.0]"#,
        ));
        assert!(
            matches!(&e, PersistError::Invalid(m) if m.contains("`emb.q` has 1 values")),
            "{e}"
        );
    }

    #[test]
    fn param_with_a_wrong_shape_is_rejected() {
        let e = load_error(&tampered(
            r#"\"shape\":[2,1],\"data\":[1.5"#,
            r#"\"shape\":[1,2],\"data\":[1.5"#,
        ));
        assert!(
            matches!(&e, PersistError::Invalid(m) if m.contains("`head.l1.w` has shape [1, 2]")),
            "{e}"
        );
    }

    #[test]
    fn missing_param_is_rejected() {
        let e = load_error(&tampered(
            r#",{\"name\":\"head.l2.b\",\"shape\":[1],\"data\":[-1e-7]}"#,
            "",
        ));
        assert!(
            matches!(&e, PersistError::Invalid(m) if m.contains("12 parameters saved, the model has 13")),
            "{e}"
        );
        // Reordered parameters misalign every id after the swap.
        let e = load_error(&tampered(r#"\"name\":\"emb.q\""#, r#"\"name\":\"emb.qq\""#));
        assert!(
            matches!(&e, PersistError::Invalid(m) if m.contains("parameter 0 is `emb.qq`")),
            "{e}"
        );
    }

    #[test]
    fn out_of_range_concept_is_rejected() {
        let e = load_error(&tampered(
            r#""concepts":[[0],[0]]"#,
            r#""concepts":[[0],[1]]"#,
        ));
        assert!(
            matches!(&e, PersistError::Json(m) if m.contains("concept id out of range for question 1")),
            "{e}"
        );
        // A Q-matrix of other dimensions than the model's.
        let e = load_error(&tampered(r#""concepts":[[0],[0]]"#, r#""concepts":[[0]]"#));
        assert!(
            matches!(&e, PersistError::Invalid(m) if m.contains("q_matrix covers 1 questions")),
            "{e}"
        );
    }

    #[test]
    fn empty_concept_list_is_rejected() {
        let e = load_error(&tampered(
            r#""concepts":[[0],[0]]"#,
            r#""concepts":[[0],[]]"#,
        ));
        assert!(
            matches!(&e, PersistError::Json(m) if m.contains("question 1 has none")),
            "{e}"
        );
    }
}
