//! Streaming model-quality monitors for online serving.
//!
//! A [`QualityMonitor`] ingests a stream of [`QualityEvent`]s — one per
//! served prediction, labeled feedback item, or explanation — and
//! maintains sliding-window estimates of how healthy the model is in
//! production:
//!
//! * **rolling AUC / ECE** over the last `feedback_window` labeled
//!   (score, outcome) pairs delivered via `POST /feedback`;
//! * **score-distribution quantiles** (p50/p90/p99) via the P² streaming
//!   estimator of Jain & Chlamtác — O(1) memory, no sample buffer;
//! * **population-stability-index (PSI) drift** of the live score
//!   histogram against a training-time reference embedded in the model
//!   file (`SavedModel.score_reference`);
//! * **influence health** per `/explain`: the correct-vs-incorrect
//!   influence mass ratio (RCKT's ante-hoc interpretable signal), plus
//!   normalized entropy and sparsity of the |Δ| distribution.
//!
//! Everything is plain `std` and strictly deterministic in ingestion
//! order: replaying the same event stream through a fresh monitor
//! reproduces every gauge bit-for-bit, which is what lets
//! `rckt monitor --replay` diff byte-identically against live
//! `/metrics` output. Threshold crossings surface as [`Alert`]s so the
//! caller can emit structured log events.

use std::collections::VecDeque;

/// Number of equal-width score bins on `[0, 1]` used for both the PSI
/// live histogram and the training-time reference. Fixed so the model
/// file and the monitor always agree.
pub const SCORE_BINS: usize = 10;

/// Sliding-window sizes and alert thresholds.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Labeled (score, outcome) pairs kept for rolling AUC/ECE.
    pub feedback_window: usize,
    /// Per-explanation influence stats kept for rolling means.
    pub influence_window: usize,
    /// Minimum samples in a window before its alert can fire; stops a
    /// handful of early events from tripping thresholds.
    pub min_samples: usize,
    /// Alert when rolling AUC falls below this.
    pub auc_min: f64,
    /// Alert when rolling ECE rises above this.
    pub ece_max: f64,
    /// Alert when score-distribution PSI rises above this. 0.25 is the
    /// conventional "significant shift" threshold.
    pub psi_max: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            feedback_window: 1024,
            influence_window: 256,
            min_samples: 20,
            auc_min: 0.55,
            ece_max: 0.15,
            psi_max: 0.25,
        }
    }
}

/// One observed event in the quality stream. The CSV wire format (one
/// event per line, see [`QualityEvent::encode`]) is what the serve
/// quality log stores and `rckt monitor --replay` reads back.
#[derive(Clone, Debug, PartialEq)]
pub enum QualityEvent {
    /// A served prediction score (every `/predict` response item).
    Score(f64),
    /// Ground truth arrived for an earlier prediction (`POST /feedback`).
    Feedback { score: f64, label: bool },
    /// Influence-health stats distilled from one `/explain` record.
    Influence {
        /// Summed |Δ| mass of correct-response influences.
        correct_mass: f64,
        /// Summed |Δ| mass of incorrect-response influences.
        incorrect_mass: f64,
        /// Shannon entropy of the |Δ| distribution, normalized to `[0, 1]`.
        entropy: f64,
        /// Fraction of influences with |Δ| below 1% of the total mass.
        sparsity: f64,
    },
}

impl QualityEvent {
    /// One CSV line (no trailing newline). Floats use Rust's shortest
    /// round-trip formatting so decode → encode is the identity.
    pub fn encode(&self) -> String {
        match self {
            QualityEvent::Score(s) => format!("predict,{s}"),
            QualityEvent::Feedback { score, label } => {
                format!("feedback,{score},{}", u8::from(*label))
            }
            QualityEvent::Influence {
                correct_mass,
                incorrect_mass,
                entropy,
                sparsity,
            } => format!("explain,{correct_mass},{incorrect_mass},{entropy},{sparsity}"),
        }
    }

    /// Parse one CSV line; `None` for blanks, comments, the `reference`
    /// header, and anything malformed (a replay skips those).
    pub fn decode(line: &str) -> Option<QualityEvent> {
        let line = line.trim();
        let mut parts = line.split(',');
        match parts.next()? {
            "predict" => Some(QualityEvent::Score(parts.next()?.parse().ok()?)),
            "feedback" => {
                let score = parts.next()?.parse().ok()?;
                let label = match parts.next()? {
                    "1" => true,
                    "0" => false,
                    _ => return None,
                };
                Some(QualityEvent::Feedback { score, label })
            }
            "explain" => {
                let mut f = || parts.next()?.parse::<f64>().ok();
                Some(QualityEvent::Influence {
                    correct_mass: f()?,
                    incorrect_mass: f()?,
                    entropy: f()?,
                    sparsity: f()?,
                })
            }
            _ => None,
        }
    }
}

/// Encode a reference histogram as the quality log's header line.
pub fn encode_reference(counts: &[u64]) -> String {
    let mut out = String::from("reference");
    for c in counts {
        out.push(',');
        out.push_str(&c.to_string());
    }
    out
}

/// Parse a `reference,c0,...,c9` header line; `None` if it is not one.
pub fn decode_reference(line: &str) -> Option<Vec<u64>> {
    let rest = line.trim().strip_prefix("reference,")?;
    let counts: Option<Vec<u64>> = rest.split(',').map(|c| c.parse().ok()).collect();
    counts.filter(|c| c.len() == SCORE_BINS)
}

/// A threshold crossing: fired once when the metric first enters the bad
/// region, re-armed when it leaves.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// `auc_low`, `ece_high`, or `psi_high`.
    pub name: &'static str,
    pub value: f64,
    pub threshold: f64,
}

/// P² streaming quantile estimator (Jain & Chlamtác 1985): five markers
/// track the target quantile with O(1) memory and deterministic
/// arithmetic. Below five observations the exact sample quantile is
/// returned instead.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Actual marker positions (1-based observation counts).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Per-observation increments of the desired positions.
    dn: [f64; 5],
    count: usize,
    init: [f64; 5],
}

impl P2Quantile {
    pub fn new(p: f64) -> P2Quantile {
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: [0.0; 5],
        }
    }

    pub fn observe(&mut self, x: f64) {
        if self.count < 5 {
            self.init[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                let mut s = self.init;
                s.sort_by(f64::total_cmp);
                self.q = s;
            }
            return;
        }
        self.count += 1;
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[0] <= x < q[4], so exactly one cell holds it.
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.q[i] && x < self.q[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < candidate && candidate < self.q[i + 1] {
                    candidate
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate; NaN before the first observation.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count < 5 {
            let mut s = self.init[..self.count].to_vec();
            s.sort_by(f64::total_cmp);
            let rank = (self.count as f64 * self.p).ceil() as usize;
            return s[rank.max(1).min(self.count) - 1];
        }
        self.q[2]
    }

    pub fn count(&self) -> usize {
        self.count
    }
}

/// The streaming quality monitor. See the module docs for what it
/// tracks; [`QualityMonitor::gauges`] is the single source of truth for
/// exported values, shared by the live `/metrics` path and the offline
/// replay report.
pub struct QualityMonitor {
    cfg: MonitorConfig,
    // Labeled feedback ring + cached rolling stats.
    feedback: VecDeque<(f64, bool)>,
    auc: f64,
    ece: f64,
    // Score distribution.
    score_count: u64,
    score_bins: [u64; SCORE_BINS],
    reference: Option<[f64; SCORE_BINS]>,
    psi: f64,
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
    // Influence health ring + cached rolling means.
    influence: VecDeque<(f64, f64, f64)>,
    inf_mass_ratio: f64,
    inf_entropy: f64,
    inf_sparsity: f64,
    // Alerting.
    events: u64,
    alerts: u64,
    breached: [bool; 3],
}

impl QualityMonitor {
    pub fn new(cfg: MonitorConfig) -> QualityMonitor {
        QualityMonitor {
            cfg,
            feedback: VecDeque::new(),
            auc: f64::NAN,
            ece: f64::NAN,
            score_count: 0,
            score_bins: [0; SCORE_BINS],
            reference: None,
            psi: 0.0,
            p50: P2Quantile::new(0.5),
            p90: P2Quantile::new(0.9),
            p99: P2Quantile::new(0.99),
            influence: VecDeque::new(),
            inf_mass_ratio: f64::NAN,
            inf_entropy: f64::NAN,
            inf_sparsity: f64::NAN,
            events: 0,
            alerts: 0,
            breached: [false; 3],
        }
    }

    /// Install the training-time reference histogram (bin counts over
    /// [`SCORE_BINS`] equal-width bins on `[0,1]`). An all-zero or
    /// wrong-length histogram is ignored — PSI then stays unexported.
    pub fn set_reference(&mut self, counts: &[u64]) {
        if counts.len() != SCORE_BINS {
            return;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        let mut props = [0.0; SCORE_BINS];
        for (p, &c) in props.iter_mut().zip(counts) {
            *p = c as f64 / total as f64;
        }
        self.reference = Some(props);
    }

    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Ingest one event and return any alerts that newly fired.
    pub fn ingest(&mut self, ev: &QualityEvent) -> Vec<Alert> {
        self.events += 1;
        match *ev {
            QualityEvent::Score(s) => self.observe_score(s),
            QualityEvent::Feedback { score, label } => {
                self.feedback.push_back((score, label));
                while self.feedback.len() > self.cfg.feedback_window {
                    self.feedback.pop_front();
                }
                self.auc = rolling_auc(&self.feedback);
                self.ece = rolling_ece(&self.feedback);
            }
            QualityEvent::Influence {
                correct_mass,
                incorrect_mass,
                entropy,
                sparsity,
            } => {
                let total = correct_mass + incorrect_mass;
                let ratio = if total > 0.0 {
                    correct_mass / total
                } else {
                    0.5
                };
                self.influence.push_back((ratio, entropy, sparsity));
                while self.influence.len() > self.cfg.influence_window {
                    self.influence.pop_front();
                }
                let n = self.influence.len() as f64;
                let (mut r, mut e, mut s) = (0.0, 0.0, 0.0);
                for &(ri, ei, si) in &self.influence {
                    r += ri;
                    e += ei;
                    s += si;
                }
                self.inf_mass_ratio = r / n;
                self.inf_entropy = e / n;
                self.inf_sparsity = s / n;
            }
        }
        self.check_alerts()
    }

    fn observe_score(&mut self, s: f64) {
        self.score_count += 1;
        let bin = ((s * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1);
        self.score_bins[bin] += 1;
        self.p50.observe(s);
        self.p90.observe(s);
        self.p99.observe(s);
        if let Some(reference) = &self.reference {
            self.psi = psi(&self.score_bins, reference);
        }
    }

    fn check_alerts(&mut self) -> Vec<Alert> {
        let min = self.cfg.min_samples;
        let conditions = [
            (
                "auc_low",
                self.feedback.len() >= min && self.auc < self.cfg.auc_min,
                self.auc,
                self.cfg.auc_min,
            ),
            (
                "ece_high",
                self.feedback.len() >= min && self.ece > self.cfg.ece_max,
                self.ece,
                self.cfg.ece_max,
            ),
            (
                "psi_high",
                self.reference.is_some()
                    && self.score_count >= min as u64
                    && self.psi > self.cfg.psi_max,
                self.psi,
                self.cfg.psi_max,
            ),
        ];
        let mut fired = Vec::new();
        for (i, (name, active, value, threshold)) in conditions.into_iter().enumerate() {
            if active && !self.breached[i] {
                self.breached[i] = true;
                self.alerts += 1;
                fired.push(Alert {
                    name,
                    value,
                    threshold,
                });
            } else if !active {
                self.breached[i] = false;
            }
        }
        fired
    }

    /// Every gauge the monitor currently exports, as (internal dotted
    /// name, value). Gauges appear only once their window has data, so a
    /// monitor that never saw feedback exports no AUC at all rather than
    /// a misleading placeholder.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        let mut g: Vec<(&'static str, f64)> = Vec::with_capacity(12);
        if !self.feedback.is_empty() {
            g.push(("quality.auc", self.auc));
            g.push(("quality.ece", self.ece));
            g.push(("quality.feedback_count", self.feedback.len() as f64));
        }
        if self.score_count > 0 {
            g.push(("quality.score_count", self.score_count as f64));
            g.push(("quality.score_p50", self.p50.value()));
            g.push(("quality.score_p90", self.p90.value()));
            g.push(("quality.score_p99", self.p99.value()));
            if self.reference.is_some() {
                g.push(("quality.score_psi", self.psi));
            }
        }
        if !self.influence.is_empty() {
            g.push(("quality.influence_count", self.influence.len() as f64));
            g.push(("quality.influence_entropy", self.inf_entropy));
            g.push(("quality.influence_mass_ratio", self.inf_mass_ratio));
            g.push(("quality.influence_sparsity", self.inf_sparsity));
        }
        if self.events > 0 {
            g.push(("quality.alerts", self.alerts as f64));
        }
        g
    }

    /// Render the gauges exactly as they appear on `/metrics` (sanitized
    /// `rckt_quality_*` names, Prometheus float formatting), one per
    /// line, sorted by name. `rckt monitor --replay` prints this and CI
    /// diffs it against `grep '^rckt_quality_' /metrics | sort`.
    pub fn render_report(&self) -> String {
        let mut lines: Vec<String> = self
            .gauges()
            .iter()
            .map(|(name, v)| {
                format!(
                    "{} {}",
                    crate::prometheus::metric_name(name),
                    crate::prometheus::fmt_value(*v)
                )
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    pub fn total_events(&self) -> u64 {
        self.events
    }

    pub fn total_alerts(&self) -> u64 {
        self.alerts
    }
}

/// Mann-Whitney AUC with tie-averaged ranks over the feedback window;
/// 0.5 when only one class is present (keeps the gauge finite so CI can
/// assert on it).
fn rolling_auc(data: &VecDeque<(f64, bool)>) -> f64 {
    let mut pairs: Vec<(f64, bool)> = data.iter().copied().collect();
    let pos = pairs.iter().filter(|p| p.1).count();
    let neg = pairs.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        // Ranks i+1 ..= j share the average (i + 1 + j) / 2.
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for pair in &pairs[i..j] {
            if pair.1 {
                rank_sum += avg_rank;
            }
        }
        i = j;
    }
    let pos = pos as f64;
    (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg as f64)
}

/// Expected calibration error over [`SCORE_BINS`] equal-width bins.
fn rolling_ece(data: &VecDeque<(f64, bool)>) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let mut conf = [0.0; SCORE_BINS];
    let mut acc = [0.0; SCORE_BINS];
    let mut cnt = [0u64; SCORE_BINS];
    for &(s, l) in data {
        let b = ((s * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1);
        conf[b] += s;
        acc[b] += f64::from(u8::from(l));
        cnt[b] += 1;
    }
    let n = data.len() as f64;
    let mut e = 0.0;
    for b in 0..SCORE_BINS {
        if cnt[b] > 0 {
            let c = cnt[b] as f64;
            e += (c / n) * ((conf[b] / c) - (acc[b] / c)).abs();
        }
    }
    e
}

/// PSI between the live bin counts and reference proportions, with both
/// sides floored at 1e-6 so empty bins stay finite.
fn psi(live: &[u64; SCORE_BINS], reference: &[f64; SCORE_BINS]) -> f64 {
    let total: u64 = live.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut s = 0.0;
    for (&c, &r) in live.iter().zip(reference) {
        let p = (c as f64 / total as f64).max(1e-6);
        let q = r.max(1e-6);
        s += (p - q) * (p / q).ln();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback(score: f64, label: bool) -> QualityEvent {
        QualityEvent::Feedback { score, label }
    }

    #[test]
    fn event_codec_roundtrips() {
        let events = vec![
            QualityEvent::Score(0.123456789),
            feedback(0.5, true),
            feedback(0.25, false),
            QualityEvent::Influence {
                correct_mass: 1.5,
                incorrect_mass: 0.5,
                entropy: 0.75,
                sparsity: 0.1,
            },
        ];
        for ev in events {
            assert_eq!(QualityEvent::decode(&ev.encode()), Some(ev.clone()));
        }
        assert_eq!(QualityEvent::decode(""), None);
        assert_eq!(QualityEvent::decode("reference,1,2"), None);
        assert_eq!(QualityEvent::decode("feedback,0.5,2"), None);
        assert_eq!(QualityEvent::decode("predict,notafloat"), None);
    }

    #[test]
    fn reference_codec_roundtrips() {
        let counts: Vec<u64> = (0..SCORE_BINS as u64).collect();
        let line = encode_reference(&counts);
        assert_eq!(decode_reference(&line), Some(counts));
        assert_eq!(decode_reference("reference,1,2"), None);
        assert_eq!(decode_reference("predict,0.5"), None);
    }

    #[test]
    fn perfect_separation_gives_auc_one() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        for i in 0..10 {
            m.ingest(&feedback(0.1 + 0.01 * i as f64, false));
            m.ingest(&feedback(0.8 + 0.01 * i as f64, true));
        }
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.auc"], 1.0);
        assert_eq!(g["quality.feedback_count"], 20.0);
    }

    #[test]
    fn single_class_auc_is_neutral_and_ties_average() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        m.ingest(&feedback(0.7, true));
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.auc"], 0.5);

        // All-equal scores: AUC must be exactly 0.5 by tie averaging.
        let mut m = QualityMonitor::new(MonitorConfig::default());
        for label in [true, false, true, false] {
            m.ingest(&feedback(0.5, label));
        }
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.auc"], 0.5);
    }

    #[test]
    fn ece_zero_when_perfectly_calibrated_within_bins() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        // Bin [0.6,0.7): four samples at 0.65, three correct ≈ 0.75 acc.
        // Use exact calibration instead: p=0.5 samples, half correct.
        m.ingest(&feedback(0.55, true));
        m.ingest(&feedback(0.55, false));
        // conf mean = 0.55, acc = 0.5 → ece = |0.55-0.5| = 0.05.
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert!(
            (g["quality.ece"] - 0.05).abs() < 1e-12,
            "{}",
            g["quality.ece"]
        );
    }

    #[test]
    fn feedback_window_slides() {
        let cfg = MonitorConfig {
            feedback_window: 4,
            ..Default::default()
        };
        let mut m = QualityMonitor::new(cfg);
        // Fill with inverted labels (AUC 0), then slide in perfect ones.
        for _ in 0..4 {
            m.ingest(&feedback(0.9, false));
            m.ingest(&feedback(0.1, true));
        }
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.auc"], 0.0);
        for _ in 0..2 {
            m.ingest(&feedback(0.9, true));
            m.ingest(&feedback(0.1, false));
        }
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.auc"], 1.0);
        assert_eq!(g["quality.feedback_count"], 4.0);
    }

    #[test]
    fn p2_tracks_exact_quantiles_on_uniform_ramp() {
        let mut p50 = P2Quantile::new(0.5);
        let mut p99 = P2Quantile::new(0.99);
        let n = 1000;
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            p50.observe(x);
            p99.observe(x);
        }
        assert!((p50.value() - 0.5).abs() < 0.05, "p50={}", p50.value());
        assert!((p99.value() - 0.99).abs() < 0.05, "p99={}", p99.value());
    }

    #[test]
    fn p2_small_samples_use_exact_quantile() {
        let mut p = P2Quantile::new(0.5);
        assert!(p.value().is_nan());
        p.observe(3.0);
        assert_eq!(p.value(), 3.0);
        p.observe(1.0);
        p.observe(2.0);
        assert_eq!(p.value(), 2.0);
    }

    #[test]
    fn psi_zero_on_matching_distribution_and_grows_on_shift() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        // Reference: all mass in bin 5 ([0.5,0.6)).
        let mut counts = [0u64; SCORE_BINS];
        counts[5] = 100;
        m.set_reference(&counts);
        assert!(m.has_reference());
        for _ in 0..50 {
            m.ingest(&QualityEvent::Score(0.55));
        }
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert!(
            g["quality.score_psi"].abs() < 1e-3,
            "{}",
            g["quality.score_psi"]
        );

        // Shift every score two bins up: PSI should exceed 0.25.
        let mut m2 = QualityMonitor::new(MonitorConfig::default());
        m2.set_reference(&counts);
        for _ in 0..50 {
            m2.ingest(&QualityEvent::Score(0.75));
        }
        let g2: std::collections::HashMap<_, _> = m2.gauges().into_iter().collect();
        assert!(
            g2["quality.score_psi"] > 0.25,
            "{}",
            g2["quality.score_psi"]
        );
    }

    #[test]
    fn degenerate_references_are_ignored() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        m.set_reference(&[0; SCORE_BINS]);
        assert!(!m.has_reference());
        m.set_reference(&[1, 2, 3]);
        assert!(!m.has_reference());
        m.ingest(&QualityEvent::Score(0.5));
        assert!(m.gauges().iter().all(|(n, _)| *n != "quality.score_psi"));
    }

    #[test]
    fn influence_health_rolls_means() {
        let mut m = QualityMonitor::new(MonitorConfig::default());
        m.ingest(&QualityEvent::Influence {
            correct_mass: 3.0,
            incorrect_mass: 1.0,
            entropy: 0.5,
            sparsity: 0.0,
        });
        m.ingest(&QualityEvent::Influence {
            correct_mass: 1.0,
            incorrect_mass: 3.0,
            entropy: 1.0,
            sparsity: 0.5,
        });
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.influence_mass_ratio"], 0.5);
        assert_eq!(g["quality.influence_entropy"], 0.75);
        assert_eq!(g["quality.influence_sparsity"], 0.25);
        assert_eq!(g["quality.influence_count"], 2.0);
        // Zero total mass is neutral, not NaN.
        let mut m = QualityMonitor::new(MonitorConfig::default());
        m.ingest(&QualityEvent::Influence {
            correct_mass: 0.0,
            incorrect_mass: 0.0,
            entropy: 0.0,
            sparsity: 0.0,
        });
        let g: std::collections::HashMap<_, _> = m.gauges().into_iter().collect();
        assert_eq!(g["quality.influence_mass_ratio"], 0.5);
    }

    #[test]
    fn alerts_fire_once_per_breach_and_rearm() {
        let cfg = MonitorConfig {
            min_samples: 4,
            auc_min: 0.55,
            ..Default::default()
        };
        let mut m = QualityMonitor::new(cfg);
        let mut fired = Vec::new();
        // Inverted model: low scores labeled true.
        for _ in 0..4 {
            fired.extend(m.ingest(&feedback(0.9, false)));
            fired.extend(m.ingest(&feedback(0.1, true)));
        }
        let auc_alerts: Vec<_> = fired.iter().filter(|a| a.name == "auc_low").collect();
        assert_eq!(auc_alerts.len(), 1, "breach fires exactly once: {fired:?}");
        assert_eq!(auc_alerts[0].threshold, 0.55);
        assert!(m.total_alerts() >= 1);
        // Recover (AUC back to 1.0 after the window slides), then breach
        // again: the alert re-arms and fires a second time.
        let mut recovered = Vec::new();
        for _ in 0..600 {
            recovered.extend(m.ingest(&feedback(0.9, true)));
            recovered.extend(m.ingest(&feedback(0.1, false)));
        }
        assert!(recovered.iter().all(|a| a.name != "auc_low"));
        let mut again = Vec::new();
        for _ in 0..600 {
            again.extend(m.ingest(&feedback(0.9, false)));
            again.extend(m.ingest(&feedback(0.1, true)));
        }
        assert_eq!(again.iter().filter(|a| a.name == "auc_low").count(), 1);
    }

    #[test]
    fn gauges_appear_only_with_data() {
        let m = QualityMonitor::new(MonitorConfig::default());
        assert!(m.gauges().is_empty());
        assert_eq!(m.render_report(), "");
        let mut m = QualityMonitor::new(MonitorConfig::default());
        m.ingest(&QualityEvent::Score(0.5));
        let names: Vec<&str> = m.gauges().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"quality.score_count"));
        assert!(names.contains(&"quality.alerts"));
        assert!(!names.contains(&"quality.auc"));
    }

    #[test]
    fn replay_reproduces_report_byte_for_byte() {
        let cfg = MonitorConfig::default();
        let mut live = QualityMonitor::new(cfg.clone());
        let mut counts = [0u64; SCORE_BINS];
        counts[3] = 10;
        counts[6] = 30;
        live.set_reference(&counts);

        // A mixed stream with awkward floats.
        let mut log = vec![encode_reference(&counts)];
        let events: Vec<QualityEvent> = (0..100)
            .map(|i| {
                let x = (i as f64 * 0.37).sin().abs();
                match i % 3 {
                    0 => QualityEvent::Score(x),
                    1 => QualityEvent::Feedback {
                        score: x,
                        label: i % 2 == 0,
                    },
                    _ => QualityEvent::Influence {
                        correct_mass: x,
                        incorrect_mass: 1.0 - x,
                        entropy: x * 0.5,
                        sparsity: 1.0 - x * 0.5,
                    },
                }
            })
            .collect();
        for ev in &events {
            log.push(ev.encode());
            live.ingest(ev);
        }

        // Replay from the encoded log only.
        let mut replay = QualityMonitor::new(cfg);
        let mut lines = log.iter();
        if let Some(counts) = lines.clone().next().and_then(|l| decode_reference(l)) {
            replay.set_reference(&counts);
            lines.next();
        }
        for line in lines {
            let ev = QualityEvent::decode(line).expect("log line decodes");
            replay.ingest(&ev);
        }
        assert_eq!(live.render_report(), replay.render_report());
        assert!(live.render_report().contains("rckt_quality_auc "));
        assert!(live.render_report().contains("rckt_quality_score_psi "));
    }
}
