//! # rckt-serve
//!
//! Batched online inference for a trained RCKT model: a std-only HTTP
//! service exposing `POST /predict` and `POST /explain` over a
//! [`SavedModel`] file, with
//!
//! * **micro-batching** — concurrent requests are fused into single
//!   `predict_targets` / `influences_exact` calls by a worker thread
//!   ([`batcher`]), padded only to the wave's longest request;
//!   row-independent eval kernels with one reduction order make the fused
//!   results bit-identical to solo runs at each request's own length;
//! * **per-student session caching** — an LRU memo keyed on a structured
//!   (model hash, kind, student, history) key answers repeated requests
//!   without touching the model, and appended histories invalidate the
//!   student's stale shorter-prefix entries ([`cache`]);
//! * **incremental warm path** ([`warm`]) — for forward-only encoders a
//!   per-student [`rckt::IncrementalState`] is kept resident in a
//!   [`cache::SessionStore`], so a live session's append-one `/predict`
//!   recomputes one position instead of the full counterfactual fan-out,
//!   with scores byte-identical to the exact path (`rckt replay-session`
//!   reproduces served bytes offline);
//! * **load-shedding** — a bounded queue answers 503 + `Retry-After`
//!   when full, per-request deadlines answer 504 when exceeded, and
//!   `POST /shutdown` drains gracefully;
//! * **observability** — request/queue latency histograms, queue-depth
//!   and cache hit-rate gauges, and per-endpoint counters land in the
//!   `rckt-obs` registry and are scrapable at `GET /metrics`;
//! * **model-quality monitoring** ([`quality`]) — every served score,
//!   `/feedback` label, and `/explain` record feeds streaming
//!   rolling-AUC/ECE, score-quantile, PSI-drift, and influence-health
//!   monitors exported as `rckt_quality_*` gauges, with an optional
//!   replayable quality log (`rckt monitor --replay`);
//! * **request-scoped tracing** — every response carries an
//!   `X-Request-Id` (client-supplied ids are honored after validation,
//!   including on 400/503/504 errors), a `Server-Timing`
//!   queue/infer breakdown, and an `X-Batch-Size` header; a structured
//!   `serve.access` event logs each request and per-request spans land
//!   in the Chrome-trace export next to the batcher's `serve/wave`
//!   spans.
//!
//! The offline entry points ([`api::predict_batch`],
//! [`api::explain_batch`]) are the same code the worker runs, so
//! `rckt predict` output is byte-comparable to served responses — CI
//! asserts exactly that.

pub mod api;
pub mod batcher;
pub mod cache;
pub mod postmortem;
pub mod quality;
pub mod warm;

pub use api::{
    ApiError, ExplainBody, ExplainRequest, ExplainResponse, ExplainResponseItem, FeedbackBody,
    FeedbackEvent, FeedbackResponse, HistoryItem, PredictBody, PredictRequest, PredictResponse,
    PredictResponseItem, DEFAULT_SERVE_WINDOW,
};
pub use batcher::{cache_key, Batcher, Engine, Fleet, Job, JobReply, JobRequest, JobTiming};
pub use cache::{KeyKind, Outcome, SessionCache, SessionKey, SessionStore};
pub use postmortem::{render_report, PostmortemCtx};
pub use quality::{influence_event, Quality};
pub use warm::{WarmKind, WarmStats};

use rckt::{Rckt, SavedModel};
use rckt_obs::json::{self, FromJson};
use rckt_obs::{
    counter, event, gauge, histogram, http, FlightConfig, FlightRecorder, Level, QualityEvent,
    RunManifest, SloEngine, SloSpec, Value,
};
use std::cell::RefCell;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Serving knobs; every field has a CLI flag (`rckt serve --help`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Port to bind on loopback; 0 lets the OS pick.
    pub port: u16,
    /// Largest number of requests fused into one model call.
    pub max_batch: usize,
    /// Queue capacity *per batcher shard*; submissions beyond it are
    /// shed with a 503.
    pub max_queue: usize,
    /// Batcher shards (`--workers`): independent worker threads, each
    /// owning a bounded queue. Students are routed to shards by FNV-1a of
    /// their id, so per-student ordering (and the warm path's session
    /// state) is preserved at any worker count. 0 is treated as 1.
    pub workers: usize,
    /// Fixed number of connection-handler threads (`--conn-threads`).
    /// Accepted connections queue in a bounded channel (4× this value);
    /// beyond that the accept thread sheds them with an immediate 503 —
    /// the server never spawns a thread per connection.
    pub conn_threads: usize,
    /// Cap on a served window (history plus target slot); longer
    /// requests get a 400. It bounds history length only: no request is
    /// padded to it.
    pub window: usize,
    /// Session-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Resident warm-path session states (0 disables the incremental
    /// warm path; has no effect on bidirectional models, which never
    /// take it).
    pub session_capacity: usize,
    /// Default per-request deadline in ms (0 = none); bodies can
    /// override via `deadline_ms`.
    pub deadline_ms: u64,
    /// Path of the replayable quality log (`--quality-log`); `None`
    /// disables logging (the in-memory monitors still run).
    pub quality_log: Option<String>,
    /// Directory for postmortem bundles (`--postmortem-dir`); `None`
    /// disables writing them (a `POST /debug/snapshot` still returns the
    /// bundle in the response body).
    pub postmortem_dir: Option<String>,
    /// SLO spec string (`--slo`, see [`SloSpec::parse`]); `None` uses
    /// [`SloSpec::default_serving`].
    pub slo: Option<String>,
    /// Byte budget for each flight-recorder ring (`--flight-bytes`);
    /// 0 uses the [`FlightConfig`] defaults.
    pub flight_bytes: usize,
    /// Test-only: when set, a request carrying an `x-rckt-test-panic`
    /// header panics the connection thread, exercising the panic-hook
    /// bundle path. Enabled via `RCKT_SERVE_TEST_PANIC=1`; never set in
    /// production.
    pub test_panic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            max_batch: 8,
            max_queue: 64,
            workers: 1,
            conn_threads: 8,
            window: DEFAULT_SERVE_WINDOW,
            cache_capacity: 4096,
            session_capacity: 1024,
            deadline_ms: 0,
            quality_log: None,
            postmortem_dir: None,
            slo: None,
            flight_bytes: 0,
            test_panic: false,
        }
    }
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Every shared structure here (queues, caches, SLO state) is left in a
/// consistent state between statements, so a poisoned lock carries no
/// torn invariant — and one panicking wave must not cascade into
/// poisoned-mutex unwraps on every later request.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a 64-bit — hashes the model file so cache keys from a previous
/// model can never answer for a new one.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Engine {
    /// Build a serving engine from exported model JSON. The file must
    /// carry an embedded Q-matrix (`rckt train` writes one); without it
    /// there is no question→concept mapping to build batches from.
    pub fn from_json(json: &str, cfg: &ServeConfig) -> Result<Engine, String> {
        let saved = SavedModel::parse(json).map_err(|e| e.to_string())?;
        let qm = saved.q_matrix.clone().ok_or_else(|| {
            "model file has no embedded q_matrix; re-export it with `rckt train` \
             (which embeds the dataset's question→concept mapping)"
                .to_string()
        })?;
        if cfg.window == 0 {
            return Err("serve window must be at least 1".to_string());
        }
        if cfg.window > saved.config.max_len {
            return Err(format!(
                "serve window {} exceeds the model's trained max_len {}",
                cfg.window, saved.config.max_len
            ));
        }
        let model = Rckt::from_saved(&saved).map_err(|e| e.to_string())?;
        let quality = Quality::new(
            saved.score_reference.as_ref().map(|r| r.counts.as_slice()),
            cfg.quality_log.as_deref(),
        )
        .map_err(|e| format!("cannot open quality log: {e}"))?;
        Ok(Engine {
            model,
            qm,
            window: cfg.window,
            cache: SessionCache::new(cfg.cache_capacity),
            sessions: SessionStore::new(cfg.session_capacity),
            model_hash: fnv1a(json.as_bytes()),
            quality,
        })
    }

    /// [`Engine::from_json`] over a file path.
    pub fn from_file(path: &str, cfg: &ServeConfig) -> Result<Engine, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read model file {path}: {e}"))?;
        Engine::from_json(&json, cfg)
    }
}

struct Ctx {
    engine: Arc<Engine>,
    batcher: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    started_at: Instant,
    default_deadline_ms: u64,
    port: u16,
    flight: Arc<FlightRecorder>,
    slo: Arc<Mutex<SloEngine>>,
    postmortem: Arc<PostmortemCtx>,
    test_panic: bool,
}

/// Paths whose outcomes count toward SLO good/bad accounting and the
/// `serve.request.seconds` histogram. Introspection traffic (`/debug/*`,
/// `/healthz`, `/metrics`) is excluded: a dashboard polling a degraded
/// server must not dilute — or inflate — the error budget of the
/// endpoints users actually depend on.
fn slo_eligible(path: &str) -> bool {
    !(path.starts_with("/debug") || path == "/healthz" || path == "/metrics")
}

thread_local! {
    /// The request id being served by this connection thread, so deep
    /// layers (quality alerts) can tag events with the triggering
    /// request without threading the id through every call.
    static CURRENT_REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
}

pub(crate) fn current_request_id() -> Option<String> {
    CURRENT_REQUEST_ID.with(|c| c.borrow().clone())
}

fn set_current_request_id(id: Option<String>) {
    CURRENT_REQUEST_ID.with(|c| *c.borrow_mut() = id);
}

/// A running inference server; [`ServeServer::wait`] blocks until
/// `POST /shutdown` (or [`ServeServer::stop`]) and then drains the queue.
pub struct ServeServer {
    port: u16,
    stop: Arc<AtomicBool>,
    batcher: Arc<Fleet>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The fixed connection-handler pool; joined on shutdown after the
    /// accept loop exits (dropping the channel sender lets them drain
    /// what was already accepted, then exit).
    conn_handles: Vec<std::thread::JoinHandle<()>>,
    /// Connections the handler pool has taken off the accept channel.
    conns_taken: Arc<AtomicUsize>,
    flight: Arc<FlightRecorder>,
    postmortem: Arc<PostmortemCtx>,
}

impl ServeServer {
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Connections the handler pool has taken off the bounded accept
    /// channel so far. Each one counted has freed its channel slot.
    pub fn connections_taken(&self) -> usize {
        self.conns_taken.load(Ordering::Acquire)
    }

    /// Per-shard batcher queue depths, indexed by shard id (the loadtest
    /// harness samples these while driving load).
    pub fn shard_queue_depths(&self) -> Vec<usize> {
        self.batcher.queue_depths()
    }

    /// Block until the accept loop exits, then drain the handler pool and
    /// the batcher so every accepted request is answered before returning.
    pub fn wait(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        for h in self.conn_handles.drain(..) {
            let _ = h.join();
        }
        self.batcher.drain_and_stop();
    }

    /// Stop from the owning thread: close the accept loop and drain.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        for h in self.conn_handles.drain(..) {
            let _ = h.join();
        }
        self.batcher.drain_and_stop();
        // Detach this server's recorder and panic context (last server
        // wins while running; a stopped server must not outlive either).
        rckt_obs::flight::uninstall(&self.flight);
        postmortem::disarm_panic_hook(&self.postmortem);
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Bind `127.0.0.1:<cfg.port>` and serve until stopped.
pub fn start(engine: Arc<Engine>, cfg: &ServeConfig) -> std::io::Result<ServeServer> {
    let slo_spec = match &cfg.slo {
        Some(s) => SloSpec::parse(s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
        None => SloSpec::default_serving(),
    };
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let port = listener.local_addr()?.port();
    let stop = Arc::new(AtomicBool::new(false));
    let batcher = Arc::new(Fleet::start(
        Arc::clone(&engine),
        cfg.workers,
        cfg.max_batch,
        cfg.max_queue,
    ));
    rckt_obs::set_build_info(
        option_env!("CARGO_PKG_VERSION").unwrap_or("dev"),
        &rckt_obs::git_commit(),
    );
    let flight_cfg = if cfg.flight_bytes > 0 {
        FlightConfig {
            event_bytes: cfg.flight_bytes,
            request_bytes: cfg.flight_bytes,
        }
    } else {
        FlightConfig::default()
    };
    let flight = Arc::new(FlightRecorder::new(flight_cfg));
    rckt_obs::flight::install(Arc::clone(&flight));
    let slo = Arc::new(Mutex::new(SloEngine::new(slo_spec)));
    let manifest = RunManifest::capture("rckt-serve", 0, None)
        .config("port", port)
        .config("window", cfg.window)
        .config("max_batch", cfg.max_batch)
        .config("max_queue", cfg.max_queue)
        .config("workers", batcher.workers())
        .config("conn_threads", cfg.conn_threads.max(1));
    let postmortem_ctx = Arc::new(PostmortemCtx::new(
        Arc::clone(&flight),
        Arc::clone(&slo),
        Arc::clone(&engine),
        manifest.to_json(),
        cfg.postmortem_dir.clone(),
    ));
    postmortem::arm_panic_hook(Arc::clone(&postmortem_ctx));
    let ctx = Arc::new(Ctx {
        engine,
        batcher: Arc::clone(&batcher),
        stop: Arc::clone(&stop),
        started_at: Instant::now(),
        default_deadline_ms: cfg.deadline_ms,
        port,
        flight: Arc::clone(&flight),
        slo,
        postmortem: Arc::clone(&postmortem_ctx),
        test_panic: cfg.test_panic,
    });
    // Bounded accept path: a fixed pool of `conn_threads` handler threads
    // pulls accepted sockets from a bounded channel. The accept loop never
    // spawns a thread — a connect flood fills the channel and is then shed
    // with an immediate 503 instead of growing the thread count without
    // bound.
    let conn_threads = cfg.conn_threads.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(conn_threads * 4);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let conns_taken = Arc::new(AtomicUsize::new(0));
    gauge("serve.conn.threads").set(conn_threads as f64);
    let mut conn_handles = Vec::with_capacity(conn_threads);
    for i in 0..conn_threads {
        let rx = Arc::clone(&conn_rx);
        let ctx = Arc::clone(&ctx);
        let taken = Arc::clone(&conns_taken);
        conn_handles.push(
            std::thread::Builder::new()
                .name(format!("rckt-serve-conn-{i}"))
                .spawn(move || conn_worker(&ctx, &rx, &taken))?,
        );
    }
    let accept_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("rckt-serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(stream)) => shed_connection(stream),
                        Err(mpsc::TrySendError::Disconnected(_)) => break,
                    }
                }
            }
            // `conn_tx` drops here: handlers drain what was accepted,
            // then exit on the channel disconnect.
        })?;
    Ok(ServeServer {
        port,
        stop,
        batcher,
        handle: Some(handle),
        conn_handles,
        conns_taken,
        flight,
        postmortem: postmortem_ctx,
    })
}

/// One connection-handler thread: pull sockets off the bounded accept
/// channel until the accept loop drops the sender. A panic inside a
/// handler (including the test-injected one) is caught so the pool never
/// shrinks — the panic hook has already written its postmortem bundle by
/// the time the unwind reaches here.
fn conn_worker(ctx: &Ctx, rx: &Mutex<mpsc::Receiver<TcpStream>>, taken: &AtomicUsize) {
    loop {
        let stream = {
            let guard = lock_recover(rx);
            guard.recv()
        };
        match stream {
            Ok(s) => {
                // Release pairs with the Acquire load in
                // `connections_taken`: whoever sees the new count also sees
                // this socket gone from the channel.
                taken.fetch_add(1, Ordering::Release);
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(ctx, s)
                }))
                .is_err()
                {
                    counter("serve.conn.panics").incr();
                    set_current_request_id(None);
                }
            }
            Err(_) => return,
        }
    }
}

/// Answer a connection the bounded accept channel has no room for: an
/// immediate 503 written from the accept thread with a short timeout, so
/// a flood degrades into fast sheds instead of unbounded threads or
/// silently dropped sockets.
fn shed_connection(mut stream: TcpStream) {
    counter("serve.conn.shed").incr();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    http::respond(
        &mut stream,
        "503 Service Unavailable",
        JSON,
        RETRY,
        "{\"error\":\"connection queue full\"}",
    );
}

const JSON: &str = "application/json";
const RETRY: &[(&str, &str)] = &[("Retry-After", "1")];

/// `{"error":"..."}` with the message JSON-escaped.
fn error_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", json::to_string(msg))
}

/// A request body read as a `T`; the error becomes the 400's message.
fn decode_body<T: FromJson>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    json::from_str(text)
}

/// Monotone counter behind generated request ids.
static REQUEST_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A client-supplied `X-Request-Id` is honored only if it is 1–64
/// characters of `[A-Za-z0-9._-]`; anything else (empty, over-long,
/// control characters, header-injection attempts) gets a generated id
/// instead.
fn valid_request_id(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// The request id for one connection: the validated client id, or a
/// generated `req-<pid>-<n>` unique within the process.
fn request_id(client: Option<&str>) -> String {
    match client {
        Some(id) if valid_request_id(id) => id.to_string(),
        _ => {
            let n = REQUEST_COUNTER.fetch_add(1, Ordering::Relaxed);
            format!("req-{:x}-{n:x}", std::process::id())
        }
    }
}

/// Aggregated batcher timing for one HTTP body: worst queue/infer time
/// across its jobs, the largest wave that answered any of them, and how
/// many were cache hits.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTiming {
    pub queue_secs: f64,
    pub infer_secs: f64,
    pub batch_max: usize,
    pub cache_hits: usize,
    pub jobs: usize,
    /// Warm-path classification of the body's jobs (first classified job
    /// wins; a single-request body — the warm path's shape — has one).
    pub warm: Option<WarmKind>,
    /// Shard that answered the body's first job (a single-student body —
    /// the dominant shape — has exactly one shard).
    pub shard: usize,
}

impl BatchTiming {
    fn absorb(&mut self, t: &JobTiming) {
        self.queue_secs = self.queue_secs.max(t.queue_secs);
        self.infer_secs = self.infer_secs.max(t.infer_secs);
        self.batch_max = self.batch_max.max(t.batch_size);
        self.cache_hits += usize::from(t.cache_hit);
        if self.jobs == 0 {
            self.shard = t.shard;
        }
        self.jobs += 1;
        self.warm = self.warm.or(t.warm);
    }

    /// Label for the flight ring's `warm` column: `cache` when every job
    /// was a session-cache hit, else the warm-path classification, else
    /// `-` (exact path, errors, non-predict endpoints).
    fn warm_label(&self) -> &'static str {
        if self.jobs > 0 && self.cache_hits == self.jobs {
            "cache"
        } else {
            self.warm.map_or("-", WarmKind::as_str)
        }
    }
}

/// Per-connection request scope: the request id plus enough context to
/// stamp every response (success or error) with `X-Request-Id` and
/// timing headers, emit the `serve.access` log event, and record the
/// request's span in the Chrome trace.
struct ReqScope<'a> {
    ctx: &'a Ctx,
    id: String,
    started: Instant,
    method: &'a str,
    path: &'a str,
    /// Students named in the body (comma-joined), set by the handler
    /// once it has parsed one; lands in the flight ring's request record.
    students: RefCell<String>,
    /// Test-only (`x-rckt-test-panic: wave` with `RCKT_SERVE_TEST_PANIC=1`):
    /// poison this request's first job so the batcher wave that picks it
    /// up panics, exercising shard restart instead of the conn-thread panic.
    poison_wave: bool,
}

impl ReqScope<'_> {
    /// Record the request (access event, trace span, flight ring, SLO
    /// outcome), then write the response. Recording first means a client
    /// holding its answer finds its own request in `/debug/flight`,
    /// `/debug/slo` and `/debug/snapshot`; `total_micros` and the SLO
    /// latency therefore end before the socket write.
    fn respond(
        &self,
        stream: &mut TcpStream,
        status: &str,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &str,
        timing: Option<&BatchTiming>,
    ) {
        let mut headers: Vec<(String, String)> =
            vec![("X-Request-Id".to_string(), self.id.clone())];
        if let Some(t) = timing {
            headers.push((
                "Server-Timing".to_string(),
                format!(
                    "queue;dur={:.3}, infer;dur={:.3}",
                    t.queue_secs * 1e3,
                    t.infer_secs * 1e3
                ),
            ));
            headers.push(("X-Batch-Size".to_string(), t.batch_max.to_string()));
        }
        for (k, v) in extra {
            headers.push((k.to_string(), v.to_string()));
        }
        let refs: Vec<(&str, &str)> = headers
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();

        let status_code: u64 = status
            .split(' ')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let total_secs = self.started.elapsed().as_secs_f64();
        let mut fields: Vec<(&str, Value)> = vec![
            ("request_id", self.id.as_str().into()),
            ("method", self.method.into()),
            ("path", self.path.into()),
            ("status", status_code.into()),
            ("total_ms", (total_secs * 1e3).into()),
        ];
        if let Some(t) = timing {
            fields.push(("queue_ms", (t.queue_secs * 1e3).into()));
            fields.push(("infer_ms", (t.infer_secs * 1e3).into()));
            fields.push(("batch", (t.batch_max as u64).into()));
            fields.push(("cache_hits", (t.cache_hits as u64).into()));
            fields.push(("jobs", (t.jobs as u64).into()));
        }
        event(Level::Info, "serve.access", &fields);
        if rckt_obs::trace_enabled() {
            rckt_obs::record_event(
                &format!("{} {} [{}]", self.method, self.path, self.id),
                "serve.request",
                self.started,
                total_secs,
            );
        }

        // Flight ring: every request (including errors) leaves a
        // structured record for postmortem bundles.
        self.ctx.flight.record_request(&rckt_obs::RequestRecord {
            ts: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs_f64())
                .unwrap_or(0.0),
            request_id: &self.id,
            method: self.method,
            path: self.path,
            students: &self.students.borrow(),
            queue_micros: timing.map_or(0, |t| (t.queue_secs * 1e6) as u64),
            infer_micros: timing.map_or(0, |t| (t.infer_secs * 1e6) as u64),
            total_micros: (total_secs * 1e6) as u64,
            batch_size: timing.map_or(0, |t| t.batch_max as u64),
            status: status_code,
            warm: timing.map_or("-", BatchTiming::warm_label),
            shard: timing.map(|t| t.shard),
        });

        // SLO accounting (introspection endpoints excluded — see
        // `slo_eligible`). The engine lock is released before any bundle
        // is written: assembling a bundle re-reads the SLO state.
        if slo_eligible(self.path) {
            let alerts = {
                let mut slo = self.ctx.slo.lock().unwrap_or_else(|e| e.into_inner());
                slo.record(self.path, status_code, total_secs);
                let alerts = slo.evaluate();
                slo.publish_gauges();
                alerts
            };
            for a in &alerts {
                counter("serve.slo.alerts").incr();
                event(
                    Level::Info,
                    "slo.alert",
                    &[
                        ("objective", a.objective.as_str().into()),
                        ("window", a.window.into()),
                        ("burn_rate", a.burn_rate.into()),
                        ("threshold", a.threshold.into()),
                        ("request_id", self.id.as_str().into()),
                    ],
                );
                // An alert is exactly the moment the evidence is still in
                // the ring — capture it before it scrolls away.
                let _ = postmortem::write_bundle(
                    &self.ctx.postmortem,
                    &format!("slo-alert:{}:{}", a.objective, a.window),
                );
            }
        }

        http::respond(stream, status, content_type, &refs, body);
    }
}

fn respond_api_error(stream: &mut TcpStream, scope: &ReqScope<'_>, e: &ApiError) {
    let (status, extra): (&str, &[(&str, &str)]) = match e {
        ApiError::BadRequest(_) => ("400 Bad Request", &[]),
        ApiError::Overloaded | ApiError::Draining => ("503 Service Unavailable", RETRY),
        ApiError::DeadlineExceeded => ("504 Gateway Timeout", &[]),
        ApiError::Internal(_) => ("500 Internal Server Error", &[]),
    };
    scope.respond(
        stream,
        status,
        JSON,
        extra,
        &error_body(&e.to_string()),
        None,
    );
}

/// Comma-join the first few student ids of a body for the flight ring
/// (capped so one huge batch cannot dominate the request ring's bytes).
fn join_students(ids: impl Iterator<Item = u32>) -> String {
    const CAP: usize = 16;
    let ids: Vec<u32> = ids.collect();
    let mut s = ids
        .iter()
        .take(CAP)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if ids.len() > CAP {
        s.push_str(&format!(",+{}", ids.len() - CAP));
    }
    s
}

fn deadline_from(body_ms: Option<u64>, default_ms: u64) -> Option<Instant> {
    match body_ms.unwrap_or(default_ms) {
        0 => None,
        ms => Some(Instant::now() + Duration::from_millis(ms)),
    }
}

/// Enqueue one validated request set and collect outcomes in body order,
/// along with the aggregated timing breakdown across the body's jobs.
/// `poison` marks only the first job: the shard restarts once per
/// poisoned request, even when the worker takes the body's jobs in
/// separate waves.
fn run_jobs(
    ctx: &Ctx,
    reqs: Vec<JobRequest>,
    deadline: Option<Instant>,
    poison: bool,
) -> Result<(Vec<Outcome>, BatchTiming), ApiError> {
    let (tx, rx) = mpsc::channel();
    let n = reqs.len();
    for (index, req) in reqs.into_iter().enumerate() {
        ctx.batcher.submit(Job {
            key: cache_key(ctx.engine.model_hash, &req),
            req,
            index,
            enqueued: Instant::now(),
            deadline,
            reply: tx.clone(),
            poison: poison && index == 0,
        })?;
    }
    drop(tx);
    let mut out: Vec<Option<Outcome>> = vec![None; n];
    let mut timing = BatchTiming::default();
    for _ in 0..n {
        let (index, result, t) = rx
            .recv()
            .map_err(|_| ApiError::Internal("batch worker exited".to_string()))?;
        timing.absorb(&t);
        out[index] = Some(result?);
    }
    Ok((out.into_iter().map(Option::unwrap).collect(), timing))
}

fn handle_predict(ctx: &Ctx, scope: &ReqScope<'_>, body: &[u8], stream: &mut TcpStream) {
    counter("serve.predict.requests").incr();
    let parsed: PredictBody = match decode_body(body) {
        Ok(b) => b,
        Err(e) => {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!("invalid /predict body: {e}")),
                None,
            );
            return;
        }
    };
    *scope.students.borrow_mut() = join_students(parsed.requests.iter().map(|r| r.student));
    // Validate the whole body at the door: one bad element fails the
    // request with a 400 before anything is queued.
    for (i, r) in parsed.requests.iter().enumerate() {
        if let Err(e) = api::predict_window(r, &ctx.engine.model, &ctx.engine.qm, ctx.engine.window)
        {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!("request {i}: {e}")),
                None,
            );
            return;
        }
    }
    let deadline = deadline_from(parsed.deadline_ms, ctx.default_deadline_ms);
    let jobs = parsed
        .requests
        .into_iter()
        .map(JobRequest::Predict)
        .collect();
    match run_jobs(ctx, jobs, deadline, scope.poison_wave) {
        Ok((outcomes, timing)) => {
            // Feed the quality monitors before answering so a /metrics
            // scrape issued after this response already sees the score.
            for o in &outcomes {
                if let Outcome::Predict(p) = o {
                    ctx.engine
                        .quality
                        .observe(QualityEvent::Score(f64::from(p.score)));
                }
            }
            let resp = PredictResponse {
                predictions: outcomes
                    .into_iter()
                    .map(|o| match o {
                        Outcome::Predict(p) => p,
                        Outcome::Explain(_) => unreachable!("predict key yields predict outcome"),
                    })
                    .collect(),
            };
            histogram("serve.request.seconds").observe(scope.started.elapsed().as_secs_f64());
            scope.respond(
                stream,
                "200 OK",
                JSON,
                &[],
                &json::to_string(&resp),
                Some(&timing),
            );
        }
        Err(e) => respond_api_error(stream, scope, &e),
    }
}

fn handle_explain(ctx: &Ctx, scope: &ReqScope<'_>, body: &[u8], stream: &mut TcpStream) {
    counter("serve.explain.requests").incr();
    let parsed: ExplainBody = match decode_body(body) {
        Ok(b) => b,
        Err(e) => {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!("invalid /explain body: {e}")),
                None,
            );
            return;
        }
    };
    *scope.students.borrow_mut() = join_students(parsed.requests.iter().map(|r| r.student));
    for (i, r) in parsed.requests.iter().enumerate() {
        if let Err(e) = api::explain_window(r, &ctx.engine.model, &ctx.engine.qm, ctx.engine.window)
        {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!("request {i}: {e}")),
                None,
            );
            return;
        }
    }
    let deadline = deadline_from(parsed.deadline_ms, ctx.default_deadline_ms);
    let jobs = parsed
        .requests
        .into_iter()
        .map(JobRequest::Explain)
        .collect();
    match run_jobs(ctx, jobs, deadline, scope.poison_wave) {
        Ok((outcomes, timing)) => {
            for o in &outcomes {
                if let Outcome::Explain(e) = o {
                    ctx.engine.quality.observe(influence_event(&e.record));
                }
            }
            let resp = ExplainResponse {
                explanations: outcomes
                    .into_iter()
                    .map(|o| match o {
                        Outcome::Explain(e) => e,
                        Outcome::Predict(_) => unreachable!("explain key yields explain outcome"),
                    })
                    .collect(),
            };
            histogram("serve.request.seconds").observe(scope.started.elapsed().as_secs_f64());
            scope.respond(
                stream,
                "200 OK",
                JSON,
                &[],
                &json::to_string(&resp),
                Some(&timing),
            );
        }
        Err(e) => respond_api_error(stream, scope, &e),
    }
}

/// `POST /feedback` — ground truth arrived for earlier predictions; each
/// event feeds the rolling AUC/ECE monitors (and the quality log).
fn handle_feedback(ctx: &Ctx, scope: &ReqScope<'_>, body: &[u8], stream: &mut TcpStream) {
    counter("serve.feedback.requests").incr();
    let parsed: FeedbackBody = match decode_body(body) {
        Ok(b) => b,
        Err(e) => {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!("invalid /feedback body: {e}")),
                None,
            );
            return;
        }
    };
    *scope.students.borrow_mut() = join_students(parsed.events.iter().map(|e| e.student));
    for (i, ev) in parsed.events.iter().enumerate() {
        if !ev.score.is_finite() || !(0.0..=1.0).contains(&ev.score) {
            scope.respond(
                stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&format!(
                    "event {i}: score {} is not a probability in [0, 1]",
                    ev.score
                )),
                None,
            );
            return;
        }
    }
    for ev in &parsed.events {
        ctx.engine.quality.observe(QualityEvent::Feedback {
            score: ev.score,
            label: ev.correct,
        });
    }
    let resp = FeedbackResponse {
        accepted: parsed.events.len(),
    };
    scope.respond(stream, "200 OK", JSON, &[], &json::to_string(&resp), None);
}

fn handle_connection(ctx: &Ctx, mut stream: TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            // No parseable request — still mint an id so the error is
            // findable in the access log.
            let scope = ReqScope {
                ctx,
                id: request_id(None),
                started,
                method: "-",
                path: "-",
                students: RefCell::new(String::new()),
                poison_wave: false,
            };
            scope.respond(
                &mut stream,
                "400 Bad Request",
                JSON,
                &[],
                &error_body(&e.to_string()),
                None,
            );
            return;
        }
    };
    // Test-only (`RCKT_SERVE_TEST_PANIC=1`): `x-rckt-test-panic: wave`
    // poisons the request's batcher wave (shard-restart path); any other
    // value panics this connection handler (panic-hook bundle path).
    let test_panic = ctx
        .test_panic
        .then(|| req.header("x-rckt-test-panic"))
        .flatten();
    let scope = ReqScope {
        ctx,
        id: request_id(req.header("x-request-id")),
        started,
        method: &req.method,
        path: &req.path,
        students: RefCell::new(String::new()),
        poison_wave: test_panic == Some("wave"),
    };
    set_current_request_id(Some(scope.id.clone()));
    if test_panic.is_some() && !scope.poison_wave {
        panic!("test panic requested by {}", scope.id);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/predict") => handle_predict(ctx, &scope, &req.body, &mut stream),
        ("POST", "/explain") => handle_explain(ctx, &scope, &req.body, &mut stream),
        ("POST", "/feedback") => handle_feedback(ctx, &scope, &req.body, &mut stream),
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"model_hash\":\"{:016x}\",\"draining\":{},\"window\":{},\"workers\":{},\"uptime_secs\":{:.3}}}",
                ctx.engine.model_hash,
                ctx.batcher.is_draining(),
                ctx.engine.window,
                ctx.batcher.workers(),
                ctx.started_at.elapsed().as_secs_f64(),
            );
            scope.respond(&mut stream, "200 OK", JSON, &[], &body, None);
        }
        ("GET", "/metrics") => {
            gauge("uptime.seconds").set(ctx.started_at.elapsed().as_secs_f64());
            // Publish SLO gauges even before any eligible traffic, so a
            // scrape always sees the full rckt_slo_* family.
            ctx.slo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .publish_gauges();
            scope.respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &[],
                &rckt_obs::prometheus::render(),
                None,
            );
        }
        ("GET", "/debug/flight") => {
            let body = ctx.flight.snapshot_json();
            scope.respond(&mut stream, "200 OK", JSON, &[], &body, None);
        }
        ("GET", "/debug/slo") => {
            let body = ctx
                .slo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .snapshot_json();
            scope.respond(&mut stream, "200 OK", JSON, &[], &body, None);
        }
        ("POST", "/debug/snapshot") => {
            // Returns the bundle itself so it can be piped straight into
            // `rckt postmortem`; a configured --postmortem-dir also gets
            // a file (its path is in the `postmortem.written` event).
            let (bundle, _path) = postmortem::write_bundle(&ctx.postmortem, "snapshot");
            scope.respond(&mut stream, "200 OK", JSON, &[], &bundle, None);
        }
        ("POST", "/shutdown") => {
            // Reject new work immediately; already-queued jobs are still
            // answered (the accept loop exits, then wait()/stop() drains).
            ctx.batcher.begin_drain();
            ctx.stop.store(true, Ordering::SeqCst);
            scope.respond(
                &mut stream,
                "200 OK",
                JSON,
                &[],
                "{\"status\":\"draining\"}",
                None,
            );
            // Unblock accept() so the loop observes the stop flag.
            let _ = TcpStream::connect(("127.0.0.1", ctx.port));
        }
        ("GET" | "POST", _) => {
            scope.respond(
                &mut stream,
                "404 Not Found",
                JSON,
                &[],
                &error_body(
                    "not found; try /predict /explain /feedback /healthz /metrics \
                     /debug/flight /debug/slo /debug/snapshot /shutdown",
                ),
                None,
            );
        }
        _ => {
            scope.respond(
                &mut stream,
                "405 Method Not Allowed",
                JSON,
                &[],
                &error_body("method not allowed"),
                None,
            );
        }
    }
    set_current_request_id(None);
}

/// Send one request to a running server and return `(status_line, body)`.
/// Shared by the tests and `rckt loadtest`.
pub fn http_request(
    port: u16,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(String, String)> {
    let mut s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.set_write_timeout(Some(Duration::from_secs(60)))?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    use std::io::Read as _;
    let _ = s.read_to_string(&mut raw);
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = match raw.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rckt::{Backbone, RcktConfig};
    use rckt_data::SyntheticSpec;
    use std::io::Read as _;

    #[test]
    fn error_body_escapes() {
        assert_eq!(error_body("a\"b"), "{\"error\":\"a\\\"b\"}");
    }

    fn model_json() -> String {
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
        model.export_with_qmatrix(&ds.q_matrix)
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            window: 16,
            ..Default::default()
        }
    }

    /// An engine built without the JSON export/import round-trip, for
    /// tests that only exercise the HTTP/observability layer.
    fn direct_engine(cfg: &ServeConfig) -> Arc<Engine> {
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
        Arc::new(Engine {
            model,
            qm: ds.q_matrix,
            window: cfg.window,
            cache: SessionCache::new(cfg.cache_capacity),
            sessions: SessionStore::new(cfg.session_capacity),
            model_hash: 0xbeef,
            quality: Quality::new(None, None).unwrap(),
        })
    }

    fn predict_body() -> String {
        json::to_string(&PredictBody {
            requests: vec![
                PredictRequest {
                    student: 0,
                    history: vec![
                        HistoryItem {
                            question: 1,
                            correct: true,
                        },
                        HistoryItem {
                            question: 2,
                            correct: false,
                        },
                    ],
                    target_question: 3,
                },
                PredictRequest {
                    student: 1,
                    history: vec![HistoryItem {
                        question: 4,
                        correct: true,
                    }],
                    target_question: 5,
                },
            ],
            deadline_ms: None,
        })
    }

    #[test]
    fn served_predictions_match_offline_bitwise_and_cache_hits() {
        let json = model_json();
        let cfg = serve_cfg();
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let oracle_engine = Engine::from_json(&json, &cfg).unwrap();
        let server = start(Arc::clone(&engine), &cfg).unwrap();
        let port = server.port();

        let health = http_request(port, "GET", "/healthz", "").unwrap();
        assert!(health.0.contains("200"), "healthz: {}", health.0);
        assert!(health.1.contains("\"status\":\"ok\""));
        assert!(health.1.contains("\"draining\":false"));

        let body = predict_body();
        let (status, resp1) = http_request(port, "POST", "/predict", &body).unwrap();
        assert!(status.contains("200 OK"), "predict: {status} {resp1}");
        let got: PredictResponse = json::from_str(&resp1).unwrap();
        let parsed: PredictBody = json::from_str(&body).unwrap();
        let oracle = api::predict_batch(
            &oracle_engine.model,
            &oracle_engine.qm,
            &parsed.requests,
            cfg.window,
        )
        .unwrap();
        assert_eq!(got.predictions.len(), 2);
        for (g, o) in got.predictions.iter().zip(&oracle.predictions) {
            assert_eq!(
                g.score.to_bits(),
                o.score.to_bits(),
                "served prediction must be bit-identical to the offline batch"
            );
        }

        // The exact same body again: byte-identical response, served from
        // the session cache.
        let (_, resp2) = http_request(port, "POST", "/predict", &body).unwrap();
        assert_eq!(resp1, resp2, "repeat request must be byte-identical");
        let (hits, _) = engine.cache.stats();
        assert!(hits >= 2, "repeat body must hit the session cache: {hits}");

        // /explain end-to-end with a flattened InfluenceRecord.
        let ebody = json::to_string(&ExplainBody {
            requests: vec![ExplainRequest {
                student: 9,
                history: vec![
                    HistoryItem {
                        question: 1,
                        correct: true,
                    },
                    HistoryItem {
                        question: 2,
                        correct: false,
                    },
                ],
                target: None,
            }],
            deadline_ms: None,
        });
        let (estatus, eresp) = http_request(port, "POST", "/explain", &ebody).unwrap();
        assert!(estatus.contains("200 OK"), "explain: {estatus} {eresp}");
        let parsed: ExplainResponse = json::from_str(&eresp).unwrap();
        assert_eq!(parsed.explanations[0].record.target, 1);
        assert_eq!(parsed.explanations[0].record.influences.len(), 1);

        // /metrics shows the per-endpoint counters and cache hits.
        let (_, metrics) = http_request(port, "GET", "/metrics", "").unwrap();
        assert!(metrics.contains("rckt_serve_predict_requests_total"));
        assert!(metrics.contains("rckt_serve_cache_hits_total"));

        server.stop();
    }

    #[test]
    fn bad_requests_get_400_not_a_panic() {
        let json = model_json();
        let cfg = serve_cfg();
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(engine, &cfg).unwrap();
        let port = server.port();

        let (status, body) = http_request(port, "POST", "/predict", "{not json").unwrap();
        assert!(status.contains("400"), "{status}");
        assert!(body.contains("invalid /predict body: "), "{body}");

        // A missing key is named in the 400.
        let bad = "{\"requests\":[{\"history\":[]}]}";
        let (status, body) = http_request(port, "POST", "/predict", bad).unwrap();
        assert!(status.contains("400"), "{status}");
        assert!(
            body.contains("requests: [0]: missing field `target_question`"),
            "{body}"
        );

        let bad = "{\"requests\":[{\"history\":[],\"target_question\":99999999}]}";
        let (status, body) = http_request(port, "POST", "/predict", bad).unwrap();
        assert!(status.contains("400"), "{status} {body}");
        assert!(body.contains("out of range"), "{body}");

        let (status, _) = http_request(port, "GET", "/nope", "").unwrap();
        assert!(status.contains("404"));

        server.stop();
    }

    #[test]
    fn over_quota_burst_is_shed_with_retry_after() {
        let json = model_json();
        let cfg = ServeConfig {
            max_queue: 0,
            ..serve_cfg()
        };
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(engine, &cfg).unwrap();
        let port = server.port();

        // Raw request so the Retry-After header is visible.
        let body = predict_body();
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            s,
            "POST /predict HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
        assert!(raw.contains("503 Service Unavailable"), "{raw}");
        assert!(raw.contains("Retry-After: 1"), "{raw}");
        // Error responses carry a request id too.
        assert!(raw.contains("X-Request-Id: "), "{raw}");

        server.stop();
    }

    /// Send a raw request string and return the full raw response
    /// (status line + headers + body) so headers can be asserted on.
    fn raw_request(port: u16, raw: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    fn header_value<'a>(raw: &'a str, name: &str) -> Option<&'a str> {
        raw.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .map(str::trim)
    }

    #[test]
    fn request_ids_are_echoed_validated_and_always_present() {
        let json = model_json();
        let cfg = serve_cfg();
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(engine, &cfg).unwrap();
        let port = server.port();
        let body = predict_body();

        // A well-formed client id is echoed verbatim, and batched
        // responses carry the timing breakdown headers.
        let raw = raw_request(
            port,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: l\r\nX-Request-Id: trace.abc-123\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(raw.contains("200 OK"), "{raw}");
        assert_eq!(header_value(&raw, "X-Request-Id"), Some("trace.abc-123"));
        assert!(
            header_value(&raw, "Server-Timing")
                .is_some_and(|v| v.contains("queue;dur=") && v.contains("infer;dur=")),
            "{raw}"
        );
        assert!(header_value(&raw, "X-Batch-Size").is_some(), "{raw}");

        // An invalid id (spaces → header-injection risk) is replaced by a
        // generated one rather than echoed.
        let raw = raw_request(
            port,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: l\r\nX-Request-Id: evil id\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        let id = header_value(&raw, "X-Request-Id").unwrap();
        assert!(
            id.starts_with("req-"),
            "invalid client id must be replaced: {id}"
        );

        // Over-long ids are replaced too.
        let long = "a".repeat(65);
        let raw = raw_request(
            port,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: l\r\nX-Request-Id: {long}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(header_value(&raw, "X-Request-Id")
            .unwrap()
            .starts_with("req-"));

        // 400s echo the client id as well.
        let raw = raw_request(
            port,
            "POST /predict HTTP/1.1\r\nHost: l\r\nX-Request-Id: err-1\r\nContent-Length: 4\r\n\r\n{bad",
        );
        assert!(raw.contains("400 Bad Request"), "{raw}");
        assert_eq!(header_value(&raw, "X-Request-Id"), Some("err-1"));

        server.stop();
    }

    #[test]
    fn feedback_feeds_quality_monitors_and_log_replays_byte_identically() {
        let dir = std::env::temp_dir().join(format!("rckt-serve-quality-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("quality.csv");
        let json = model_json();
        let cfg = ServeConfig {
            quality_log: Some(log_path.to_str().unwrap().to_string()),
            ..serve_cfg()
        };
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(Arc::clone(&engine), &cfg).unwrap();
        let port = server.port();

        // Serve predictions, then feed their scores back with labels so
        // the rolling AUC/ECE windows fill past min_samples.
        let (status, resp) = http_request(port, "POST", "/predict", &predict_body()).unwrap();
        assert!(status.contains("200"), "{status}");
        let got: PredictResponse = json::from_str(&resp).unwrap();
        let mut events = Vec::new();
        for round in 0..12u32 {
            for (i, p) in got.predictions.iter().enumerate() {
                let mut ev = json::Obj::new();
                ev.field("student", &(i as u64))
                    .field("score", &(p.score as f64))
                    .field("correct", &((round + i as u32) % 2 == 0));
                events.push(ev.finish());
            }
        }
        let fb = format!("{{\"events\":{}}}", json::array(events));
        let (status, body) = http_request(port, "POST", "/feedback", &fb).unwrap();
        assert!(status.contains("200"), "{status} {body}");
        let accepted: FeedbackResponse = json::from_str(&body).unwrap();
        assert_eq!(accepted.accepted, 24);

        // Out-of-range scores are rejected wholesale with a 400.
        let bad = "{\"events\":[{\"score\":1.5,\"correct\":true}]}";
        let (status, body) = http_request(port, "POST", "/feedback", bad).unwrap();
        assert!(status.contains("400"), "{status}");
        assert!(body.contains("probability"), "{body}");

        // /explain contributes influence-health stats.
        let ebody = "{\"requests\":[{\"student\":7,\"history\":[{\"question\":1,\"correct\":true},\
                     {\"question\":2,\"correct\":false}],\"target\":null}]}";
        let (status, _) = http_request(port, "POST", "/explain", ebody).unwrap();
        assert!(status.contains("200"), "{status}");

        // The quality gauge families are exported on /metrics. (Values are
        // not asserted here: the registry is process-global and other
        // tests run in parallel; CI's single-server step diffs values.)
        let (_, metrics) = http_request(port, "GET", "/metrics", "").unwrap();
        for name in [
            "rckt_quality_auc",
            "rckt_quality_ece",
            "rckt_quality_score_p50",
            "rckt_quality_influence_entropy",
        ] {
            assert!(metrics.contains(name), "missing {name} in /metrics");
        }

        // Replaying the quality log through a fresh monitor reproduces the
        // live report byte-for-byte — the `rckt monitor --replay` contract.
        let live = engine.quality.report();
        assert!(live.contains("rckt_quality_auc "), "{live}");
        let mut replay = rckt_obs::QualityMonitor::new(rckt_obs::MonitorConfig::default());
        for line in std::fs::read_to_string(&log_path).unwrap().lines() {
            if let Some(counts) = rckt_obs::monitor::decode_reference(line) {
                replay.set_reference(&counts);
            } else if let Some(ev) = QualityEvent::decode(line) {
                replay.ingest(&ev);
            } else {
                panic!("unparseable quality log line: {line}");
            }
        }
        assert_eq!(
            replay.render_report(),
            live,
            "replayed quality log must reproduce the live report byte-for-byte"
        );

        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_endpoints_expose_flight_ring_and_slo_state() {
        let cfg = serve_cfg();
        let server = start(direct_engine(&cfg), &cfg).unwrap();
        let port = server.port();

        // Give the ring some traffic with a known request id.
        let raw = raw_request(
            port,
            "GET /healthz HTTP/1.1\r\nHost: l\r\nX-Request-Id: flight-probe-1\r\n\r\n",
        );
        assert!(raw.contains("200 OK"), "{raw}");

        let (status, flight) = http_request(port, "GET", "/debug/flight", "").unwrap();
        assert!(status.contains("200"), "{status}");
        let snap = rckt_obs::json::parse(&flight).unwrap();
        let requests = snap.get("requests").and_then(|r| r.as_array()).unwrap();
        assert!(
            requests.iter().any(|r| {
                r.get("request_id").and_then(|v| v.as_str()) == Some("flight-probe-1")
                    && r.get("path").and_then(|v| v.as_str()) == Some("/healthz")
                    && r.get("status").and_then(|v| v.as_f64()) == Some(200.0)
            }),
            "healthz record missing from the ring: {flight}"
        );

        // Introspection traffic (/healthz, /metrics, /debug/*) must not
        // count toward any SLO objective's good/bad totals.
        let (_, _) = http_request(port, "GET", "/metrics", "").unwrap();
        let (status, slo) = http_request(port, "GET", "/debug/slo", "").unwrap();
        assert!(status.contains("200"), "{status}");
        let snap = rckt_obs::json::parse(&slo).unwrap();
        let objectives = snap.get("objectives").and_then(|o| o.as_array()).unwrap();
        assert!(!objectives.is_empty(), "{slo}");
        for o in objectives {
            assert_eq!(
                o.get("good_total").and_then(|v| v.as_f64()),
                Some(0.0),
                "introspection traffic leaked into SLO accounting: {slo}"
            );
            assert_eq!(
                o.get("bad_total").and_then(|v| v.as_f64()),
                Some(0.0),
                "{slo}"
            );
        }

        // Satellite gauges are on /metrics.
        let (_, metrics) = http_request(port, "GET", "/metrics", "").unwrap();
        assert!(metrics.contains("rckt_build_info{"), "{metrics}");
        assert!(metrics.contains("rckt_uptime_seconds"), "{metrics}");
        assert!(metrics.contains("rckt_slo_"), "{metrics}");

        server.stop();
    }

    #[test]
    fn snapshot_bundle_round_trips_through_the_postmortem_renderer() {
        let dir = std::env::temp_dir().join(format!("rckt-serve-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServeConfig {
            postmortem_dir: Some(dir.to_str().unwrap().to_string()),
            ..serve_cfg()
        };
        let server = start(direct_engine(&cfg), &cfg).unwrap();
        let port = server.port();

        let raw = raw_request(
            port,
            "GET /healthz HTTP/1.1\r\nHost: l\r\nX-Request-Id: bundle-probe\r\n\r\n",
        );
        assert!(raw.contains("200 OK"), "{raw}");

        // The snapshot response body IS the bundle; the offline renderer
        // (the `rckt postmortem` twin) accepts it directly.
        let (status, bundle) = http_request(port, "POST", "/debug/snapshot", "").unwrap();
        assert!(status.contains("200"), "{status}");
        let report = postmortem::render_report(&bundle).unwrap();
        assert!(report.contains("== rckt postmortem =="), "{report}");
        assert!(report.contains("reason:   snapshot"), "{report}");
        assert!(report.contains("bundle-probe"), "{report}");

        // The strict parser round-trips it and the sections are present.
        let parsed = rckt_obs::json::parse(&bundle).unwrap();
        assert_eq!(
            parsed.get("bundle").and_then(|v| v.as_str()),
            Some("rckt-postmortem/v1")
        );
        for section in ["manifest", "flight", "metrics", "quality", "slo"] {
            assert!(parsed.get(section).is_some(), "missing {section}: {bundle}");
        }

        // And a file landed in --postmortem-dir.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("postmortem-"))
            .collect();
        assert!(!files.is_empty(), "no bundle file in --postmortem-dir");

        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_produces_a_bundle_holding_the_final_requests() {
        let dir = std::env::temp_dir().join(format!("rckt-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServeConfig {
            postmortem_dir: Some(dir.to_str().unwrap().to_string()),
            test_panic: true,
            ..serve_cfg()
        };
        let server = start(direct_engine(&cfg), &cfg).unwrap();
        let port = server.port();

        for i in 0..3 {
            let raw = raw_request(
                port,
                &format!("GET /healthz HTTP/1.1\r\nHost: l\r\nX-Request-Id: final-req-{i}\r\n\r\n"),
            );
            assert!(raw.contains("200 OK"), "{raw}");
        }

        // The poisoned request panics its connection thread; the hook
        // writes the bundle before the thread dies. Parallel tests'
        // servers may steal the process-global panic context between
        // attempts, so re-arm and retry until our bundle appears.
        let mut bundle = None;
        for _ in 0..50 {
            postmortem::arm_panic_hook(Arc::clone(&server.postmortem));
            let _ = raw_request(
                port,
                "GET /healthz HTTP/1.1\r\nHost: l\r\nx-rckt-test-panic: 1\r\n\r\n",
            );
            let deadline = Instant::now() + Duration::from_millis(500);
            while bundle.is_none() && Instant::now() < deadline {
                bundle = std::fs::read_dir(&dir)
                    .unwrap()
                    .flatten()
                    .find(|e| e.file_name().to_string_lossy().starts_with("postmortem-"))
                    .and_then(|f| std::fs::read_to_string(f.path()).ok());
                if bundle.is_none() {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            if bundle.is_some() {
                break;
            }
        }
        let bundle = bundle.expect("panic hook never wrote a bundle");

        let parsed = rckt_obs::json::parse(&bundle).unwrap();
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("panic"));
        let reqs = parsed
            .get("flight")
            .and_then(|f| f.get("requests"))
            .and_then(|r| r.as_array())
            .unwrap();
        for i in 0..3 {
            let id = format!("final-req-{i}");
            assert!(
                reqs.iter()
                    .any(|r| r.get("request_id").and_then(|v| v.as_str()) == Some(id.as_str())),
                "final request {id} missing from the panic bundle"
            );
        }
        let report = postmortem::render_report(&bundle).unwrap();
        assert!(report.contains("reason:   panic"), "{report}");

        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_endpoint_drains_and_exits() {
        let json = model_json();
        let cfg = serve_cfg();
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(engine, &cfg).unwrap();
        let port = server.port();
        let (status, body) = http_request(port, "POST", "/shutdown", "").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("draining"));
        // The accept loop exits and the queue drains.
        server.wait();
    }

    #[test]
    fn engine_rejects_models_without_qmatrix_and_bad_windows() {
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
        let plain = model.export(ds.num_questions(), ds.num_concepts());
        let err = Engine::from_json(&plain, &serve_cfg()).unwrap_err();
        assert!(err.contains("q_matrix"), "{err}");

        let rich = model.export_with_qmatrix(&ds.q_matrix);
        let err = Engine::from_json(
            &rich,
            &ServeConfig {
                window: 10_000,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("max_len"), "{err}");
        let err = Engine::from_json(
            &rich,
            &ServeConfig {
                window: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"model-a"), fnv1a(b"model-b"));
    }

    #[test]
    fn served_bytes_are_identical_at_every_worker_count() {
        // The sharding contract: routing students across 1, 2, or 4
        // batcher shards must not change a single served byte. Eight
        // students guarantee every shard of a 4-worker fleet sees
        // traffic mixed into waves differently than the 1-worker run.
        let json = model_json();
        let body = json::to_string(&PredictBody {
            requests: (0..8u32)
                .map(|s| PredictRequest {
                    student: s,
                    history: vec![
                        HistoryItem {
                            question: s % 5 + 1,
                            correct: s % 2 == 0,
                        },
                        HistoryItem {
                            question: s % 7 + 1,
                            correct: s % 3 == 0,
                        },
                    ],
                    target_question: s % 4 + 1,
                })
                .collect(),
            deadline_ms: None,
        });

        let mut responses = Vec::new();
        for workers in [1usize, 2, 4] {
            let cfg = ServeConfig {
                workers,
                ..serve_cfg()
            };
            let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
            let server = start(engine, &cfg).unwrap();
            let (status, resp) = http_request(server.port(), "POST", "/predict", &body).unwrap();
            assert!(status.contains("200"), "workers={workers}: {status} {resp}");
            responses.push((workers, resp));
            server.stop();
        }
        let (_, baseline) = &responses[0];
        for (workers, resp) in &responses[1..] {
            assert_eq!(
                resp, baseline,
                "served bytes changed between --workers 1 and --workers {workers}"
            );
        }

        // And the 1-worker baseline matches the offline oracle bitwise.
        let cfg = serve_cfg();
        let oracle_engine = Engine::from_json(&json, &cfg).unwrap();
        let parsed: PredictBody = json::from_str(&body).unwrap();
        let oracle = api::predict_batch(
            &oracle_engine.model,
            &oracle_engine.qm,
            &parsed.requests,
            cfg.window,
        )
        .unwrap();
        let got: PredictResponse = json::from_str(baseline).unwrap();
        for (g, o) in got.predictions.iter().zip(&oracle.predictions) {
            assert_eq!(g.score.to_bits(), o.score.to_bits());
        }
    }

    #[test]
    fn connect_flood_is_shed_by_the_bounded_accept_path() {
        let cfg = ServeConfig {
            conn_threads: 2,
            ..serve_cfg()
        };
        let server = start(direct_engine(&cfg), &cfg).unwrap();
        let port = server.port();

        // Saturate the fixed pool (2 handlers) and the bounded accept
        // channel (2 × 4 = 8 slots) with idle connections that send no
        // bytes: handlers block in read, the channel fills behind them.
        let mut idle = Vec::new();
        for _ in 0..10 {
            let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            idle.push(s);
            // Let the accept thread queue it before the next connect so
            // the channel is deterministically full afterwards.
            std::thread::sleep(Duration::from_millis(20));
        }

        // Connections beyond pool + channel are shed by the accept thread
        // itself with an immediate 503 — not a hang, not a new thread.
        let mut shed_seen = 0;
        for _ in 0..3 {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut raw = String::new();
            let _ = s.read_to_string(&mut raw);
            if raw.contains("503") && raw.contains("connection queue full") {
                shed_seen += 1;
            }
        }
        assert!(
            shed_seen > 0,
            "no connection was shed with a 503 while pool and channel were saturated"
        );

        // Release the flood: handlers fail the idle sockets with a 400
        // (connection closed mid-headers) and drain the channel, after
        // which a real request is served normally. Wait until they have
        // taken every idle socket: a request sent before then can find
        // the channel still full and be shed.
        let n_idle = idle.len();
        drop(idle);
        let t0 = Instant::now();
        while server.connections_taken() < n_idle {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "handlers never took the idle connections"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (status, resp) = http_request(port, "POST", "/predict", &predict_body()).unwrap();
        assert!(
            status.contains("200"),
            "post-flood request: {status} {resp}"
        );

        let (_, metrics) = http_request(port, "GET", "/metrics", "").unwrap();
        assert!(metrics.contains("rckt_serve_conn_shed_total"), "{metrics}");
        assert!(metrics.contains("rckt_serve_conn_threads"), "{metrics}");

        server.stop();
    }

    #[test]
    fn wave_panic_answers_500_and_the_shard_keeps_serving() {
        let json = model_json();
        let cfg = ServeConfig {
            test_panic: true,
            ..serve_cfg()
        };
        let engine = Arc::new(Engine::from_json(&json, &cfg).unwrap());
        let server = start(engine, &cfg).unwrap();
        let port = server.port();
        let body = predict_body();

        // `x-rckt-test-panic: wave` poisons this request's batcher jobs:
        // the wave that picks them up panics inside the shard worker. The
        // client must get a 500 — not hang until its socket timeout.
        let raw = raw_request(
            port,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: l\r\nx-rckt-test-panic: wave\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(raw.contains("500 Internal Server Error"), "{raw}");
        assert!(raw.contains("batch worker"), "{raw}");

        // The 500 goes out before the restarting shard drains its queue,
        // and the drain fails whatever it finds there by design. The
        // restart is counted after the drain, so wait for it.
        let t0 = Instant::now();
        while server.batcher.restarts() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "shard never restarted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // The shard restarted: the next plain request is served, and its
        // bytes still match a fresh engine's offline answer.
        let (status, resp) = http_request(port, "POST", "/predict", &body).unwrap();
        assert!(
            status.contains("200"),
            "post-panic request: {status} {resp}"
        );
        let got: PredictResponse = json::from_str(&resp).unwrap();
        let oracle_engine = Engine::from_json(&json, &serve_cfg()).unwrap();
        let parsed: PredictBody = json::from_str(&body).unwrap();
        let oracle = api::predict_batch(
            &oracle_engine.model,
            &oracle_engine.qm,
            &parsed.requests,
            serve_cfg().window,
        )
        .unwrap();
        for (g, o) in got.predictions.iter().zip(&oracle.predictions) {
            assert_eq!(g.score.to_bits(), o.score.to_bits());
        }

        // The restart left its mark on /metrics.
        let (_, metrics) = http_request(port, "GET", "/metrics", "").unwrap();
        assert!(
            metrics.contains("rckt_serve_shard_0_restarts_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("rckt_serve_worker_panics_total"),
            "{metrics}"
        );

        server.stop();
    }
}
