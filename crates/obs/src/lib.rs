//! # rckt-obs
//!
//! Structured tracing, metrics, and profiling for the RCKT stack.
//!
//! The crate is std-only (no external dependencies) so every workspace
//! crate — down to the tensor kernels — can link it without widening the
//! dependency graph. It provides four cooperating layers:
//!
//! * **Levels** ([`Level`], [`set_level`]) — a global `off/info/debug/trace`
//!   filter. The default is [`Level::Off`]: unconfigured library use emits
//!   nothing and hot-path guards reduce to one relaxed atomic load.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — a concurrent
//!   registry of named counters, gauges, and fixed-bucket histograms with
//!   p50/p90/p99 queries.
//! * **Spans** ([`span()`]) — RAII wall-clock timers with thread-local
//!   nesting; a span opened inside another records under the joined path
//!   (`fit/epoch`). Accumulated per-phase totals feed the profile report
//!   and run manifests.
//! * **Events** ([`event()`]) — structured key/value records routed to a
//!   human-readable stderr sink and an optional JSON-lines file sink
//!   ([`log_to_json`]).
//! * **Quality monitors** ([`QualityMonitor`]) — streaming sliding-window
//!   model-quality estimates (rolling AUC/ECE over labeled feedback, P²
//!   score quantiles, PSI drift vs a training reference, influence
//!   health) with threshold-crossing alerts, exported as
//!   `rckt_quality_*` gauges.
//! * **Flight recorder** ([`FlightRecorder`]) — fixed-byte-budget
//!   in-memory rings of the most recent events and served requests,
//!   serialized into postmortem bundles when something breaks.
//! * **SLO engine** ([`SloEngine`]) — declarative availability/latency
//!   objectives evaluated with multi-window multi-burn-rate alerting,
//!   exported as `rckt_slo_*` gauges.
//! * **HTTP framing** ([`http`]) — the one request reader and response
//!   writer behind both the telemetry endpoint ([`serve`]) and
//!   `rckt-serve`.
//!
//! [`RunManifest`] stamps experiment results with the git commit, seed,
//! configuration, and per-phase timings; [`profile_report`] renders
//! everything collected so far as a text table (the `--profile` output).
//!
//! ```
//! use rckt_obs::{counter, span, Level};
//!
//! rckt_obs::set_level(Level::Info);
//! {
//!     let _outer = span("fit");
//!     let _inner = span("epoch"); // records under "fit/epoch"
//!     counter("train.batches").add(4);
//! }
//! rckt_obs::event(Level::Info, "train.done", &[("batches", 4u64.into())]);
//! assert_eq!(counter("train.batches").get(), 4);
//! ```

pub mod event;
pub mod flight;
pub mod http;
pub mod json;
pub mod level;
pub mod manifest;
pub mod metrics;
pub mod monitor;
pub mod prometheus;
pub mod report;
pub mod rng;
pub mod serve;
pub mod slo;
pub mod span;
pub mod trace;
pub mod train;

pub use event::{close_json, event, log_to_json, set_stderr_sink, Value};
pub use flight::{FlightConfig, FlightRecorder, RequestRecord};
pub use level::{enabled, level, profiling, set_level, set_profiling, Level};
pub use manifest::{bin_name, git_commit, PhaseTiming, RunManifest};
pub use metrics::{
    counter, gauge, histogram, histogram_with, metrics_snapshot, reset_metrics, Counter, Gauge,
    Histogram, HistogramSummary, MetricsSnapshot,
};
pub use monitor::{Alert, MonitorConfig, P2Quantile, QualityEvent, QualityMonitor, SCORE_BINS};
pub use prometheus::{build_info, run_labels, set_build_info, set_run_label};
pub use report::profile_report;
pub use serve::TelemetryServer;
pub use slo::{SloAlert, SloEngine, SloObjective, SloSpec};
pub use span::{
    phase_timings, phases_snapshot, reset_phases, span, PhaseStat, PhasesSnapshot, SpanGuard,
};
pub use trace::{finish_trace, record_event, start_trace, trace_enabled};
pub use train::{report_done, report_epoch, report_start, EpochReport};

/// Observability switches shared by the CLI and the experiment binaries.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Global event-level filter.
    pub level: Level,
    /// JSON-lines sink path (`--log-json <path>`).
    pub json_path: Option<String>,
    /// Enable profiling counters and the final `--profile` summary.
    pub profile: bool,
    /// Where the `--profile` report goes (`--profile-out <path>`); the
    /// default is stdout, so stderr JSON-lines streams stay parseable.
    pub profile_out: Option<String>,
    /// Chrome trace-event output path (`--trace-out <path>`).
    pub trace_path: Option<String>,
    /// Live telemetry HTTP port (`--serve-metrics <port>`; 0 = OS picks).
    pub serve_port: Option<u16>,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            level: Level::Off,
            json_path: None,
            profile: false,
            profile_out: None,
            trace_path: None,
            serve_port: None,
        }
    }
}

impl ObsOptions {
    /// Extract the shared observability flags (`--log-level <l>`,
    /// `--log-json <path>`, `--profile`, `--profile-out <path>`,
    /// `--trace-out <path>`, `--serve-metrics <port>`) from an argument
    /// vector, removing them so downstream parsers never see them.
    /// Binaries default to [`Level::Info`] so coarse progress events stay
    /// visible on stderr; pass `--log-level off` to silence them.
    pub fn take_from_args(args: &mut Vec<String>) -> Result<ObsOptions, String> {
        let mut out = ObsOptions {
            level: Level::Info,
            ..Default::default()
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--log-level" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("--log-level needs a value (off|info|debug|trace)")?
                        .clone();
                    out.level = v.parse()?;
                    args.drain(i..i + 2);
                }
                "--log-json" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("--log-json needs a file path")?
                        .clone();
                    out.json_path = Some(v);
                    args.drain(i..i + 2);
                }
                "--profile" => {
                    out.profile = true;
                    args.remove(i);
                }
                "--profile-out" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("--profile-out needs a file path")?
                        .clone();
                    out.profile = true;
                    out.profile_out = Some(v);
                    args.drain(i..i + 2);
                }
                "--trace-out" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("--trace-out needs a file path")?
                        .clone();
                    out.trace_path = Some(v);
                    args.drain(i..i + 2);
                }
                "--serve-metrics" => {
                    let v = args
                        .get(i + 1)
                        .ok_or("--serve-metrics needs a port (0 lets the OS pick)")?
                        .clone();
                    let port: u16 = v
                        .parse()
                        .map_err(|_| format!("--serve-metrics: invalid port {v:?}"))?;
                    out.serve_port = Some(port);
                    args.drain(i..i + 2);
                }
                _ => i += 1,
            }
        }
        Ok(out)
    }

    /// End-of-run hook: write the `--profile` report (stdout, or the
    /// `--profile-out` file), flush the trace file, stop the telemetry
    /// server, and close the JSON-lines sink. Errors on the optional
    /// sinks are reported to stderr rather than propagated — the run's
    /// results matter more than its telemetry.
    pub fn finish(&self) {
        if self.profile {
            let report = profile_report();
            match &self.profile_out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &report) {
                        eprintln!("rckt-obs: cannot write profile report to {path}: {e}");
                        eprint!("{report}");
                    }
                }
                None => print!("{report}"),
            }
        }
        match trace::finish_trace() {
            Ok(Some(path)) => {
                event(
                    Level::Info,
                    "trace.written",
                    &[("path", path.as_str().into())],
                );
            }
            Ok(None) => {}
            Err(e) => eprintln!("rckt-obs: cannot write trace file: {e}"),
        }
        serve::shutdown_global();
        close_json();
    }
}

/// Apply an [`ObsOptions`]: set the level and profiling flags, open the
/// JSON-lines sink, arm trace collection, and start the telemetry server
/// if requested.
pub fn init(opts: &ObsOptions) -> std::io::Result<()> {
    set_level(opts.level);
    set_profiling(opts.profile);
    if let Some(p) = &opts.json_path {
        log_to_json(p)?;
    }
    if let Some(p) = &opts.trace_path {
        trace::start_trace(p);
    }
    if let Some(port) = opts.serve_port {
        let server = serve::start(port)?;
        event(
            Level::Info,
            "serve.listening",
            &[("port", u64::from(server.port()).into())],
        );
        serve::install(server);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that mutate process-global observability state
    /// (level, sinks) so the multithreaded test harness stays deterministic.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn global_lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_args_extracts_and_removes_flags() {
        let _g = testutil::global_lock();
        let mut args: Vec<String> = [
            "--scale",
            "0.5",
            "--log-level",
            "debug",
            "--profile",
            "--log-json",
            "/tmp/x.jsonl",
            "--folds",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = ObsOptions::take_from_args(&mut args).unwrap();
        assert_eq!(o.level, Level::Debug);
        assert!(o.profile);
        assert_eq!(o.json_path.as_deref(), Some("/tmp/x.jsonl"));
        assert_eq!(args, vec!["--scale", "0.5", "--folds", "2"]);
    }

    #[test]
    fn take_from_args_defaults_to_info() {
        let mut args: Vec<String> = vec![];
        let o = ObsOptions::take_from_args(&mut args).unwrap();
        assert_eq!(o.level, Level::Info);
        assert!(!o.profile);
        assert!(o.json_path.is_none());
    }

    #[test]
    fn take_from_args_rejects_bad_level_and_missing_values() {
        let mut args: Vec<String> = vec!["--log-level".into(), "loud".into()];
        assert!(ObsOptions::take_from_args(&mut args).is_err());
        let mut args: Vec<String> = vec!["--log-json".into()];
        assert!(ObsOptions::take_from_args(&mut args).is_err());
        let mut args: Vec<String> = vec!["--serve-metrics".into(), "notaport".into()];
        assert!(ObsOptions::take_from_args(&mut args).is_err());
        let mut args: Vec<String> = vec!["--trace-out".into()];
        assert!(ObsOptions::take_from_args(&mut args).is_err());
    }

    #[test]
    fn take_from_args_extracts_v2_flags() {
        let mut args: Vec<String> = [
            "--serve-metrics",
            "9920",
            "--trace-out",
            "/tmp/t.json",
            "--profile-out",
            "/tmp/p.txt",
            "--epochs",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = ObsOptions::take_from_args(&mut args).unwrap();
        assert_eq!(o.serve_port, Some(9920));
        assert_eq!(o.trace_path.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.txt"));
        assert!(o.profile, "--profile-out implies --profile");
        assert_eq!(args, vec!["--epochs", "3"]);
    }

    #[test]
    fn init_with_serve_answers_while_running() {
        use std::io::{Read as _, Write as _};
        let _g = testutil::global_lock();
        let opts = ObsOptions {
            serve_port: Some(0),
            ..Default::default()
        };
        init(&opts).unwrap();
        // Fetch the bound port from the installed server via a fresh
        // ephemeral instance check: init logged it, but for the test we
        // reach through the serve module's start() path instead.
        serve::shutdown_global();
        let server = serve::start(0).unwrap();
        let port = server.port();
        let mut s = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.contains("\"status\":\"ok\""));
        server.stop();
    }
}
