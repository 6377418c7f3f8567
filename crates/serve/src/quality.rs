//! Model-quality layer for the server: couples the streaming
//! [`QualityMonitor`] with an append-only quality log under a single
//! mutex, so the log's line order is exactly the monitor's ingestion
//! order. That makes `rckt monitor --replay <log>` deterministic: a
//! fresh monitor fed the logged stream reproduces every live
//! `rckt_quality_*` gauge bit-for-bit.
//!
//! Ingested events:
//! * every `/predict` response item → [`QualityEvent::Score`] (score
//!   distribution quantiles + PSI drift vs the model's embedded
//!   training-time reference histogram);
//! * every `/feedback` item → [`QualityEvent::Feedback`] (rolling
//!   AUC/ECE);
//! * every `/explain` record → [`QualityEvent::Influence`] via
//!   [`influence_event`] (correct-vs-incorrect influence mass ratio,
//!   entropy, sparsity of the |Δ| distribution).
//!
//! After each ingest the monitor's gauges are published to the global
//! `rckt-obs` registry (scraped at `GET /metrics`) and any
//! threshold-crossing [`Alert`](rckt_obs::monitor::Alert)s become `quality.alert` events in the
//! structured log.

use rckt::InfluenceRecord;
use rckt_obs::monitor::{encode_reference, GAUGE_NAMES};
use rckt_obs::{event, gauge, Gauge, Level, MonitorConfig, QualityEvent, QualityMonitor};
use std::fs::File;
use std::io::Write as _;
use std::sync::Mutex;

struct Inner {
    monitor: QualityMonitor,
    log: Option<File>,
    events: u64,
    alerts: u64,
    /// One registry handle per monitor gauge, resolved when that gauge
    /// first has data (when `/metrics` starts showing it), so an event
    /// publishes without a registry lookup.
    gauges: [Option<Gauge>; GAUGE_NAMES.len()],
}

/// The server's quality monitor + optional quality log. One per
/// [`crate::Engine`]; the exported gauges live in the process-global
/// metrics registry, so run one engine per process (as `rckt serve`
/// does) for unambiguous `/metrics` output.
pub struct Quality {
    inner: Mutex<Inner>,
}

impl Quality {
    /// Build the layer. `reference` is the model's training-time score
    /// histogram (enables PSI drift); `log_path` enables the replayable
    /// quality log, which starts with the reference line when one is
    /// installed.
    pub fn new(reference: Option<&[u64]>, log_path: Option<&str>) -> std::io::Result<Quality> {
        let mut monitor = QualityMonitor::new(MonitorConfig::default());
        if let Some(counts) = reference {
            monitor.set_reference(counts);
        }
        let log = match log_path {
            Some(path) => {
                let mut f = File::create(path)?;
                if monitor.has_reference() {
                    // Written only when accepted by the monitor, so the
                    // replay installs exactly the same reference.
                    writeln!(f, "{}", encode_reference(reference.unwrap_or(&[])))?;
                }
                Some(f)
            }
            None => None,
        };
        Ok(Quality {
            inner: Mutex::new(Inner {
                monitor,
                log,
                events: 0,
                alerts: 0,
                gauges: Default::default(),
            }),
        })
    }

    /// Ingest one event: log line, monitor update, gauge publication,
    /// alert events — all in ingestion order.
    pub fn observe(&self, ev: QualityEvent) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = &mut g.log {
            let _ = writeln!(f, "{}", ev.encode());
        }
        let alerts = g.monitor.ingest(&ev);
        g.events += 1;
        g.alerts += alerts.len() as u64;
        let values = g.monitor.gauge_values();
        for ((handle, name), v) in g.gauges.iter_mut().zip(GAUGE_NAMES).zip(values) {
            if let Some(v) = v {
                handle.get_or_insert_with(|| gauge(name)).set(v);
            }
        }
        drop(g);
        if alerts.is_empty() {
            return;
        }
        // Tag alerts with the request that tripped them when one is in
        // scope (observe runs on the connection-handler thread).
        let rid = crate::current_request_id();
        for a in alerts {
            let mut fields: Vec<(&str, rckt_obs::Value)> = vec![
                ("alert", a.name.into()),
                ("value", a.value.into()),
                ("threshold", a.threshold.into()),
            ];
            if let Some(id) = &rid {
                fields.push(("request_id", id.as_str().into()));
            }
            event(Level::Info, "quality.alert", &fields);
        }
    }

    /// Lifetime ingestion totals `(events, alerts)` for postmortem
    /// bundles.
    pub fn totals(&self) -> (u64, u64) {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        (g.events, g.alerts)
    }

    /// The monitor's current quality report — the same lines a replay of
    /// the quality log prints.
    pub fn report(&self) -> String {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .monitor
            .render_report()
    }
}

/// Distill one influence record into the monitor's health stats: the
/// |Δ| masses of correct and incorrect responses (the paper's ante-hoc
/// interpretable signal), normalized Shannon entropy of the |Δ|
/// distribution over past responses, and the fraction of responses
/// whose |Δ| is below 1% of the total mass (sparsity).
pub fn influence_event(rec: &InfluenceRecord) -> QualityEvent {
    let mags: Vec<f64> = rec
        .influences
        .iter()
        .map(|&(_, _, d)| f64::from(d).abs())
        .collect();
    let total: f64 = mags.iter().sum();
    let n = mags.len();
    let entropy = if n <= 1 || total <= 0.0 {
        0.0
    } else {
        let h: f64 = mags
            .iter()
            .filter(|&&m| m > 0.0)
            .map(|&m| {
                let p = m / total;
                -p * p.ln()
            })
            .sum();
        h / (n as f64).ln()
    };
    let sparsity = if n == 0 || total <= 0.0 {
        0.0
    } else {
        mags.iter().filter(|&&m| m < 0.01 * total).count() as f64 / n as f64
    };
    QualityEvent::Influence {
        correct_mass: f64::from(rec.total_correct).abs(),
        incorrect_mass: f64::from(rec.total_incorrect).abs(),
        entropy,
        sparsity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt_obs::monitor::decode_reference;

    fn record(influences: Vec<(usize, bool, f32)>) -> InfluenceRecord {
        let total_correct: f32 = influences.iter().filter(|i| i.1).map(|i| i.2).sum();
        let total_incorrect: f32 = influences.iter().filter(|i| !i.1).map(|i| i.2).sum();
        InfluenceRecord {
            target: influences.len(),
            influences,
            total_correct,
            total_incorrect,
            score: 0.5,
            label: true,
        }
    }

    #[test]
    fn influence_event_uniform_mass_has_full_entropy() {
        let rec = record(vec![(0, true, 0.25), (1, false, 0.25), (2, true, 0.25)]);
        match influence_event(&rec) {
            QualityEvent::Influence {
                correct_mass,
                incorrect_mass,
                entropy,
                sparsity,
            } => {
                assert!((correct_mass - 0.5).abs() < 1e-9);
                assert!((incorrect_mass - 0.25).abs() < 1e-9);
                assert!((entropy - 1.0).abs() < 1e-9, "uniform |Δ| → entropy 1");
                assert_eq!(sparsity, 0.0);
            }
            other => panic!("expected influence event, got {other:?}"),
        }
    }

    #[test]
    fn influence_event_concentrated_mass_is_sparse_low_entropy() {
        let mut infl = vec![(0usize, true, 1.0f32)];
        for i in 1..10 {
            infl.push((i, false, 1e-6));
        }
        match influence_event(&record(infl)) {
            QualityEvent::Influence {
                entropy, sparsity, ..
            } => {
                assert!(
                    entropy < 0.1,
                    "one dominant response → low entropy: {entropy}"
                );
                assert!(
                    (sparsity - 0.9).abs() < 1e-9,
                    "9 of 10 below 1%: {sparsity}"
                );
            }
            other => panic!("expected influence event, got {other:?}"),
        }
    }

    #[test]
    fn influence_event_degenerate_records_are_finite() {
        for rec in [record(vec![]), record(vec![(0, true, 0.0)])] {
            match influence_event(&rec) {
                QualityEvent::Influence {
                    correct_mass,
                    incorrect_mass,
                    entropy,
                    sparsity,
                } => {
                    for v in [correct_mass, incorrect_mass, entropy, sparsity] {
                        assert!(v.is_finite());
                    }
                }
                other => panic!("expected influence event, got {other:?}"),
            }
        }
    }

    /// Every served `/predict` item is ingested, so ingest shares the
    /// flight recorder's budget: at most 2 µs at the median, best of three
    /// rounds. The reference histogram turns on PSI drift, as for a model
    /// exported by `rckt train`.
    #[test]
    fn observe_costs_at_most_2us_at_the_median() {
        let q = Quality::new(Some(&[10; rckt_obs::SCORE_BINS]), None).unwrap();
        let scores: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64 / 100.0).collect();
        let median_ns = || {
            let mut ns: Vec<u128> = scores
                .iter()
                .map(|&s| {
                    let t0 = std::time::Instant::now();
                    q.observe(QualityEvent::Score(s));
                    t0.elapsed().as_nanos()
                })
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2]
        };
        let best = (0..3).map(|_| median_ns()).min().unwrap();
        assert!(best <= 2_000, "observe median {best} ns exceeds 2 µs");
    }

    #[test]
    fn quality_log_records_reference_then_events_in_order() {
        let dir = std::env::temp_dir().join(format!("rckt-quality-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quality.csv");
        let counts = {
            let mut c = [0u64; rckt_obs::SCORE_BINS];
            c[4] = 7;
            c
        };
        let q = Quality::new(Some(&counts), path.to_str()).unwrap();
        q.observe(QualityEvent::Score(0.5));
        q.observe(QualityEvent::Feedback {
            score: 0.5,
            label: true,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(decode_reference(lines[0]), Some(counts.to_vec()));
        assert_eq!(lines[1], "predict,0.5");
        assert_eq!(lines[2], "feedback,0.5,1");
        assert!(q.report().contains("rckt_quality_auc "));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
