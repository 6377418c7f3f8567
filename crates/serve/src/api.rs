//! Request/response schemas for `/predict` and `/explain`, plus the
//! request→window conversion and the offline batch entry points the CLI
//! (`rckt predict`) shares with the server worker.
//!
//! Bit-identity contract: a request's window holds its own history and no
//! more, and a wave is padded only to its longest request; `--window` caps
//! the history length and is not a pad length. Padding and fusion never
//! change a bit: padded positions are invalid, the LSTM carries its state
//! across them by selection, attention masks them, and every matmul kernel
//! reduces each output element in one fixed order from its own row and
//! column alone. So a served response is byte-identical to an offline run
//! of the same request, alone or in any wave, against the same model file.

use rckt::{InfluenceRecord, Rckt};
use rckt_data::{Batch, QMatrix, Window};
use rckt_obs::json::{self, FromJson, JsonValue, ObjectReader, ToJson};

/// Default history cap for serving windows — the paper's window length.
pub const DEFAULT_SERVE_WINDOW: usize = rckt_data::preprocess::DEFAULT_WINDOW_LEN;

/// One past response in a student's history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryItem {
    pub question: u32,
    pub correct: bool,
}

/// Score the probability that `student` answers `target_question`
/// correctly given their response history. `student` defaults to 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictRequest {
    pub student: u32,
    pub history: Vec<HistoryItem>,
    pub target_question: u32,
}

/// Explain the influence attribution for one response in a student's
/// history (default: the last one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainRequest {
    pub student: u32,
    pub history: Vec<HistoryItem>,
    /// Index within `history` to explain; defaults to the last response.
    pub target: Option<usize>,
}

/// `POST /predict` body.
#[derive(Clone, Debug)]
pub struct PredictBody {
    pub requests: Vec<PredictRequest>,
    /// Per-request deadline; a request still queued past it gets a 504.
    /// `None`/0 falls back to the server's configured default.
    pub deadline_ms: Option<u64>,
}

/// `POST /explain` body.
#[derive(Clone, Debug)]
pub struct ExplainBody {
    pub requests: Vec<ExplainRequest>,
    pub deadline_ms: Option<u64>,
}

#[derive(Clone, Debug)]
pub struct PredictResponseItem {
    pub student: u32,
    /// Normalized influence margin in `(0, 1)`; ≥ ½ predicts correct.
    pub score: f32,
}

#[derive(Clone, Debug)]
pub struct PredictResponse {
    pub predictions: Vec<PredictResponseItem>,
}

/// On the wire the record's fields sit next to `student`.
#[derive(Clone, Debug)]
pub struct ExplainResponseItem {
    pub student: u32,
    pub record: InfluenceRecord,
}

#[derive(Clone, Debug)]
pub struct ExplainResponse {
    pub explanations: Vec<ExplainResponseItem>,
}

/// One labeled outcome: the ground truth for an earlier served
/// prediction has arrived (the student answered).
#[derive(Clone, Debug, PartialEq)]
pub struct FeedbackEvent {
    pub student: u32,
    /// The score the model served for this interaction, echoed back.
    pub score: f64,
    /// Whether the student actually answered correctly.
    pub correct: bool,
}

/// `POST /feedback` body — feeds the rolling AUC/ECE quality monitors.
#[derive(Clone, Debug)]
pub struct FeedbackBody {
    pub events: Vec<FeedbackEvent>,
}

/// `POST /feedback` response.
#[derive(Clone, Debug)]
pub struct FeedbackResponse {
    pub accepted: usize,
}

impl ToJson for HistoryItem {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("question", &self.question)
            .field("correct", &self.correct)
            .write_to(out);
    }
}

impl FromJson for HistoryItem {
    fn from_json(v: &JsonValue) -> Result<HistoryItem, String> {
        let r = ObjectReader::new(v)?;
        Ok(HistoryItem {
            question: r.req("question")?,
            correct: r.req("correct")?,
        })
    }
}

impl ToJson for PredictRequest {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("student", &self.student)
            .field("history", &self.history)
            .field("target_question", &self.target_question)
            .write_to(out);
    }
}

impl FromJson for PredictRequest {
    fn from_json(v: &JsonValue) -> Result<PredictRequest, String> {
        let r = ObjectReader::new(v)?;
        Ok(PredictRequest {
            student: r.or_default("student")?,
            history: r.req("history")?,
            target_question: r.req("target_question")?,
        })
    }
}

impl ToJson for ExplainRequest {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("student", &self.student)
            .field("history", &self.history)
            .field("target", &self.target)
            .write_to(out);
    }
}

impl FromJson for ExplainRequest {
    fn from_json(v: &JsonValue) -> Result<ExplainRequest, String> {
        let r = ObjectReader::new(v)?;
        Ok(ExplainRequest {
            student: r.or_default("student")?,
            history: r.req("history")?,
            target: r.or_default("target")?,
        })
    }
}

impl ToJson for PredictBody {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("requests", &self.requests)
            .field("deadline_ms", &self.deadline_ms)
            .write_to(out);
    }
}

impl FromJson for PredictBody {
    fn from_json(v: &JsonValue) -> Result<PredictBody, String> {
        let r = ObjectReader::new(v)?;
        Ok(PredictBody {
            requests: r.req("requests")?,
            deadline_ms: r.or_default("deadline_ms")?,
        })
    }
}

impl ToJson for ExplainBody {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("requests", &self.requests)
            .field("deadline_ms", &self.deadline_ms)
            .write_to(out);
    }
}

impl FromJson for ExplainBody {
    fn from_json(v: &JsonValue) -> Result<ExplainBody, String> {
        let r = ObjectReader::new(v)?;
        Ok(ExplainBody {
            requests: r.req("requests")?,
            deadline_ms: r.or_default("deadline_ms")?,
        })
    }
}

impl ToJson for PredictResponseItem {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("student", &self.student)
            .field("score", &self.score)
            .write_to(out);
    }
}

impl FromJson for PredictResponseItem {
    fn from_json(v: &JsonValue) -> Result<PredictResponseItem, String> {
        let r = ObjectReader::new(v)?;
        Ok(PredictResponseItem {
            student: r.req("student")?,
            score: r.req("score")?,
        })
    }
}

impl ToJson for PredictResponse {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("predictions", &self.predictions)
            .write_to(out);
    }
}

impl FromJson for PredictResponse {
    fn from_json(v: &JsonValue) -> Result<PredictResponse, String> {
        Ok(PredictResponse {
            predictions: ObjectReader::new(v)?.req("predictions")?,
        })
    }
}

impl ToJson for ExplainResponseItem {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("student", &self.student)
            .flatten(&self.record)
            .write_to(out);
    }
}

impl FromJson for ExplainResponseItem {
    fn from_json(v: &JsonValue) -> Result<ExplainResponseItem, String> {
        Ok(ExplainResponseItem {
            student: ObjectReader::new(v)?.req("student")?,
            record: InfluenceRecord::from_json(v)?,
        })
    }
}

impl ToJson for ExplainResponse {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("explanations", &self.explanations)
            .write_to(out);
    }
}

impl FromJson for ExplainResponse {
    fn from_json(v: &JsonValue) -> Result<ExplainResponse, String> {
        Ok(ExplainResponse {
            explanations: ObjectReader::new(v)?.req("explanations")?,
        })
    }
}

impl FromJson for FeedbackEvent {
    fn from_json(v: &JsonValue) -> Result<FeedbackEvent, String> {
        let r = ObjectReader::new(v)?;
        Ok(FeedbackEvent {
            student: r.or_default("student")?,
            score: r.req("score")?,
            correct: r.req("correct")?,
        })
    }
}

impl FromJson for FeedbackBody {
    fn from_json(v: &JsonValue) -> Result<FeedbackBody, String> {
        Ok(FeedbackBody {
            events: ObjectReader::new(v)?.req("events")?,
        })
    }
}

impl ToJson for FeedbackResponse {
    fn write_json(&self, out: &mut String) {
        json::Obj::new()
            .field("accepted", &self.accepted)
            .write_to(out);
    }
}

impl FromJson for FeedbackResponse {
    fn from_json(v: &JsonValue) -> Result<FeedbackResponse, String> {
        Ok(FeedbackResponse {
            accepted: ObjectReader::new(v)?.req("accepted")?,
        })
    }
}

/// Why a request was not answered with a 200.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Invalid input (unknown question id, over-long history, …) → 400.
    BadRequest(String),
    /// Bounded queue is full → 503 + `Retry-After`.
    Overloaded,
    /// Server is draining for shutdown → 503 + `Retry-After`.
    Draining,
    /// The request sat in the queue past its deadline → 504.
    DeadlineExceeded,
    /// Worker-side failure → 500.
    Internal(String),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadRequest(m) => write!(f, "bad request: {m}"),
            ApiError::Overloaded => write!(f, "server overloaded, retry later"),
            ApiError::Draining => write!(f, "server is draining for shutdown"),
            ApiError::DeadlineExceeded => write!(f, "request deadline exceeded while queued"),
            ApiError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

fn check_questions<'a>(
    ids: impl Iterator<Item = &'a u32>,
    model: &Rckt,
    qm: &QMatrix,
) -> Result<(), ApiError> {
    let known = model.num_questions().min(qm.num_questions());
    for &q in ids {
        if q as usize >= known {
            return Err(ApiError::BadRequest(format!(
                "question id {q} is out of range (model knows {known} questions)"
            )));
        }
    }
    Ok(())
}

/// Validate a predict request and build its window + target index.
///
/// The window holds the history plus the target slot and no padding;
/// `window` only caps its length. [`Batch::from_windows`] pads a wave to its
/// longest window, which changes no bit of any request's result.
pub fn predict_window(
    req: &PredictRequest,
    model: &Rckt,
    qm: &QMatrix,
    window: usize,
) -> Result<(Window, usize), ApiError> {
    if req.history.len() + 1 > window {
        return Err(ApiError::BadRequest(format!(
            "history of {} responses exceeds the serve window ({window} incl. the target); send the most recent {} responses",
            req.history.len(),
            window - 1
        )));
    }
    check_questions(
        req.history
            .iter()
            .map(|h| &h.question)
            .chain(std::iter::once(&req.target_question)),
        model,
        qm,
    )?;
    let target = req.history.len();
    // The target's own correctness is unknown (that is the prediction);
    // the score never reads it, only the record's ground-truth label does.
    let questions = req
        .history
        .iter()
        .map(|h| h.question)
        .chain(std::iter::once(req.target_question))
        .collect();
    let correct = req
        .history
        .iter()
        .map(|h| h.correct as u8)
        .chain(std::iter::once(0))
        .collect();
    let w = Window {
        student: req.student,
        questions,
        correct,
        len: target + 1,
    };
    Ok((w, target))
}

/// Validate an explain request and build its window (the history, no
/// padding) + target index.
pub fn explain_window(
    req: &ExplainRequest,
    model: &Rckt,
    qm: &QMatrix,
    window: usize,
) -> Result<(Window, usize), ApiError> {
    if req.history.is_empty() {
        return Err(ApiError::BadRequest(
            "history must contain at least one response to explain".to_string(),
        ));
    }
    if req.history.len() > window {
        return Err(ApiError::BadRequest(format!(
            "history of {} responses exceeds the serve window ({window}); send the most recent {window} responses",
            req.history.len()
        )));
    }
    let target = req.target.unwrap_or(req.history.len() - 1);
    if target >= req.history.len() {
        return Err(ApiError::BadRequest(format!(
            "target index {target} is outside the {}-response history",
            req.history.len()
        )));
    }
    check_questions(req.history.iter().map(|h| &h.question), model, qm)?;
    let w = Window {
        student: req.student,
        questions: req.history.iter().map(|h| h.question).collect(),
        correct: req.history.iter().map(|h| h.correct as u8).collect(),
        len: req.history.len(),
    };
    Ok((w, target))
}

/// Score a set of predict requests in one fused `predict_targets` call,
/// padded to the longest request — the offline path behind `rckt
/// predict`, and the oracle the CI smoke job compares served responses
/// against.
pub fn predict_batch(
    model: &Rckt,
    qm: &QMatrix,
    reqs: &[PredictRequest],
    window: usize,
) -> Result<PredictResponse, ApiError> {
    if reqs.is_empty() {
        return Ok(PredictResponse {
            predictions: Vec::new(),
        });
    }
    let mut ws = Vec::with_capacity(reqs.len());
    let mut targets = Vec::with_capacity(reqs.len());
    for r in reqs {
        let (w, t) = predict_window(r, model, qm, window)?;
        ws.push(w);
        targets.push(t);
    }
    let refs: Vec<&Window> = ws.iter().collect();
    let batch = Batch::from_windows(&refs, qm);
    let preds = model
        .predict_targets_checked(&batch, &targets)
        .map_err(|e| ApiError::BadRequest(e.to_string()))?;
    Ok(PredictResponse {
        predictions: reqs
            .iter()
            .zip(&preds)
            .map(|(r, p)| PredictResponseItem {
                student: r.student,
                score: p.prob,
            })
            .collect(),
    })
}

/// Explain a set of requests in one fused `influences_exact` call, padded
/// to the longest request — the offline path behind `rckt predict
/// --mode explain`.
pub fn explain_batch(
    model: &Rckt,
    qm: &QMatrix,
    reqs: &[ExplainRequest],
    window: usize,
) -> Result<ExplainResponse, ApiError> {
    if reqs.is_empty() {
        return Ok(ExplainResponse {
            explanations: Vec::new(),
        });
    }
    let mut ws = Vec::with_capacity(reqs.len());
    let mut targets = Vec::with_capacity(reqs.len());
    for r in reqs {
        let (w, t) = explain_window(r, model, qm, window)?;
        ws.push(w);
        targets.push(t);
    }
    let refs: Vec<&Window> = ws.iter().collect();
    let batch = Batch::from_windows(&refs, qm);
    let recs = model
        .influences_exact_checked(&batch, &targets)
        .map_err(|e| ApiError::BadRequest(e.to_string()))?;
    Ok(ExplainResponse {
        explanations: reqs
            .iter()
            .zip(recs)
            .map(|(r, record)| ExplainResponseItem {
                student: r.student,
                record,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt::{Backbone, RcktConfig};
    use rckt_data::SyntheticSpec;

    fn setup() -> (Rckt, QMatrix) {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let m = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                ..Default::default()
            },
        );
        (m, ds.q_matrix)
    }

    fn hist(pairs: &[(u32, bool)]) -> Vec<HistoryItem> {
        pairs
            .iter()
            .map(|&(question, correct)| HistoryItem { question, correct })
            .collect()
    }

    #[test]
    fn predict_window_layout() {
        let (m, qm) = setup();
        let req = PredictRequest {
            student: 7,
            history: hist(&[(1, true), (2, false)]),
            target_question: 3,
        };
        let (w, target) = predict_window(&req, &m, &qm, 10).unwrap();
        assert_eq!(target, 2);
        assert_eq!(w.len, 3);
        // No padding: the window is the history plus the target slot.
        assert_eq!(w.questions, [1, 2, 3]);
        assert_eq!(w.correct, [1, 0, 0]);
    }

    #[test]
    fn predict_rejects_unknown_question_and_long_history() {
        let (m, qm) = setup();
        let bad_q = PredictRequest {
            student: 0,
            history: hist(&[(999_999, true)]),
            target_question: 1,
        };
        assert!(matches!(
            predict_window(&bad_q, &m, &qm, 10),
            Err(ApiError::BadRequest(m)) if m.contains("999999")
        ));
        let long = PredictRequest {
            student: 0,
            history: hist(&[(1, true); 10]),
            target_question: 1,
        };
        assert!(matches!(
            predict_window(&long, &m, &qm, 10),
            Err(ApiError::BadRequest(m)) if m.contains("exceeds")
        ));
    }

    #[test]
    fn explain_window_defaults_to_last_and_checks_target() {
        let (m, qm) = setup();
        let req = ExplainRequest {
            student: 1,
            history: hist(&[(1, true), (2, false), (3, true)]),
            target: None,
        };
        let (w, target) = explain_window(&req, &m, &qm, 10).unwrap();
        assert_eq!(target, 2);
        assert_eq!(w.len, 3);
        let out = ExplainRequest {
            target: Some(3),
            ..req.clone()
        };
        assert!(matches!(
            explain_window(&out, &m, &qm, 10),
            Err(ApiError::BadRequest(_))
        ));
        let empty = ExplainRequest {
            student: 0,
            history: vec![],
            target: None,
        };
        assert!(matches!(
            explain_window(&empty, &m, &qm, 10),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn predict_batch_matches_direct_model_call_bitwise() {
        let (m, qm) = setup();
        let reqs = vec![
            PredictRequest {
                student: 0,
                history: hist(&[(1, true), (4, false), (2, true)]),
                target_question: 5,
            },
            PredictRequest {
                student: 1,
                history: hist(&[(3, false)]),
                target_question: 2,
            },
        ];
        let resp = predict_batch(&m, &qm, &reqs, 16).unwrap();
        assert_eq!(resp.predictions.len(), 2);
        // Oracle: hand-built windows through the raw model API.
        let mut ws = Vec::new();
        let mut targets = Vec::new();
        for r in &reqs {
            let (w, t) = predict_window(r, &m, &qm, 16).unwrap();
            ws.push(w);
            targets.push(t);
        }
        let refs: Vec<&Window> = ws.iter().collect();
        let batch = Batch::from_windows(&refs, &qm);
        let direct = m.predict_targets(&batch, &targets);
        for (got, want) in resp.predictions.iter().zip(&direct) {
            assert_eq!(got.score.to_bits(), want.prob.to_bits());
        }
        // And each request solo gives the same bits as the fused batch.
        for (i, r) in reqs.iter().enumerate() {
            let solo = predict_batch(&m, &qm, std::slice::from_ref(r), 16).unwrap();
            assert_eq!(
                solo.predictions[0].score.to_bits(),
                resp.predictions[i].score.to_bits()
            );
        }
    }

    #[test]
    fn explain_batch_returns_per_response_influences() {
        let (m, qm) = setup();
        let reqs = vec![ExplainRequest {
            student: 4,
            history: hist(&[(1, true), (2, false), (3, true), (4, true)]),
            target: None,
        }];
        let resp = explain_batch(&m, &qm, &reqs, 16).unwrap();
        let rec = &resp.explanations[0].record;
        assert_eq!(rec.target, 3);
        assert_eq!(rec.influences.len(), 3);
        assert!(rec.label, "fourth response was correct");
        // JSON wire shape: flattened record next to the student id.
        let json = json::to_string(&resp);
        assert!(json.starts_with("{\"explanations\":[{\"student\":4,\"target\":3,"));
        assert!(json.contains("\"influences\""));
        assert!(json.contains("\"score\""));
    }

    #[test]
    fn schemas_roundtrip_and_default_optionals() {
        let body: PredictBody = json::from_str(
            "{\"requests\":[{\"history\":[{\"question\":1,\"correct\":true}],\"target_question\":2}]}",
        )
        .unwrap();
        assert_eq!(body.requests[0].student, 0, "student defaults to 0");
        assert_eq!(body.deadline_ms, None);
        let body: ExplainBody = json::from_str(
            "{\"requests\":[{\"student\":3,\"history\":[{\"question\":1,\"correct\":false}]}],\"deadline_ms\":50}",
        )
        .unwrap();
        assert_eq!(body.deadline_ms, Some(50));
        assert_eq!(body.requests[0].target, None);
        // Unknown keys are ignored; a missing or repeated one is named.
        let body: PredictBody =
            json::from_str("{\"requests\":[],\"deadline_ms\":null,\"extra\":[1,{}]}").unwrap();
        assert!(body.requests.is_empty() && body.deadline_ms.is_none());
        let err = json::from_str::<PredictBody>(
            "{\"requests\":[{\"history\":[],\"target_question\":1,\"target_question\":2}]}",
        )
        .unwrap_err();
        assert_eq!(err, "requests: [0]: duplicate field `target_question`");
        let err = json::from_str::<PredictBody>("{\"requests\":[{\"history\":[]}]}").unwrap_err();
        assert_eq!(err, "requests: [0]: missing field `target_question`");
    }

    #[test]
    fn explain_response_round_trips_with_the_record_flattened() {
        let (m, qm) = setup();
        let reqs = vec![ExplainRequest {
            student: 9,
            history: hist(&[(1, true), (2, false), (3, true)]),
            target: Some(1),
        }];
        let resp = explain_batch(&m, &qm, &reqs, 16).unwrap();
        let text = json::to_string(&resp);
        let back: ExplainResponse = json::from_str(&text).unwrap();
        assert_eq!(json::to_string(&back), text);
        assert_eq!(back.explanations[0].student, 9);
        let (a, b) = (&resp.explanations[0].record, &back.explanations[0].record);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.influences.len(), b.influences.len());
    }
}
