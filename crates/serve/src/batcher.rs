//! Micro-batching core: a fleet of bounded request queues, each drained
//! by its own worker thread that fuses same-kind jobs into a single
//! `predict_targets` / `influences_exact` call over a batch padded to the
//! wave's longest request. Every eval op computes a batch row from that
//! row alone, in one fixed reduction order, and padded positions never
//! reach a valid one, so fusing and padding are invisible in the output
//! bits — a request answered in a wave of 8 is byte-identical to the same
//! request answered alone at its own length, at any shard count.
//!
//! Sharding ([`Fleet`]) routes each job by FNV-1a of its student id, so
//! one student's consecutive append-one requests always land on the same
//! shard in arrival order — the warm path's session state never sees
//! interleaved writers.
//!
//! Each queue is bounded: a full queue sheds load with
//! [`ApiError::Overloaded`] (the HTTP layer turns that into a 503 +
//! `Retry-After`) instead of letting latency grow without bound, and a
//! draining server rejects new work while the workers finish what was
//! already accepted.
//!
//! A panicking wave does not wedge its shard: the worker catches the
//! unwind, answers everything still queued with a 500 (the in-flight
//! wave's reply channels die with the unwind, which the HTTP layer also
//! turns into 500s), and keeps serving the next wave. No client ever
//! hangs until its socket timeout waiting on a dead worker.

use crate::api::{self, ApiError, ExplainRequest, PredictRequest};
use crate::cache::{Outcome, SessionCache, SessionKey, SessionStore};
use crate::{lock_recover, warm};
use rckt::Rckt;
use rckt_data::QMatrix;
use rckt_obs::{counter, gauge, histogram, histogram_with, Counter, Gauge, Histogram, LazyMetric};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

// Per-request metrics, resolved from the registry on first use.
static QUEUE_DEPTH: LazyMetric<Gauge> = LazyMetric::new("serve.queue.depth", gauge);
static SHED: LazyMetric<Counter> = LazyMetric::new("serve.requests.shed", counter);
static DEADLINE: LazyMetric<Counter> = LazyMetric::new("serve.requests.deadline", counter);
static BATCHES: LazyMetric<Counter> = LazyMetric::new("serve.batches", counter);
static BATCH_SIZE: LazyMetric<Histogram> = LazyMetric::new("serve.batch.size", |name| {
    histogram_with(name, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
});
static QUEUE_SECONDS: LazyMetric<Histogram> = LazyMetric::new("serve.queue.seconds", histogram);
static INFER_SECONDS: LazyMetric<Histogram> = LazyMetric::new("serve.infer.seconds", histogram);
static CACHE_HITS: LazyMetric<Counter> = LazyMetric::new("serve.cache.hits", counter);
static CACHE_MISSES: LazyMetric<Counter> = LazyMetric::new("serve.cache.misses", counter);
static CACHE_HIT_RATE: LazyMetric<Gauge> = LazyMetric::new("serve.cache.hit_rate", gauge);
static PREDICT_WARM: LazyMetric<Counter> = LazyMetric::new("serve.predict.warm", counter);
static PREDICT_COLD: LazyMetric<Counter> = LazyMetric::new("serve.predict.cold", counter);
static FALLBACKS: LazyMetric<Counter> = LazyMetric::new("serve.session.fallbacks", counter);
static POSITIONS_RECOMPUTED: LazyMetric<Histogram> =
    LazyMetric::new("serve.session.positions_recomputed", |name| {
        histogram_with(name, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    });

/// Everything the worker needs to answer a request: the loaded model,
/// its question→concept mapping, the history cap, and the session cache.
/// Shared immutably across the worker and the HTTP handlers.
pub struct Engine {
    pub model: Rckt,
    pub qm: QMatrix,
    /// Cap on a request's window (history plus target slot); longer
    /// requests are rejected with a 400. Windows are never padded to it.
    pub window: usize,
    pub cache: SessionCache,
    /// Warm-path store: per-student incremental encoder state, so an
    /// append-one request recomputes one position instead of the full
    /// counterfactual fan-out. Only consulted when the loaded model
    /// supports incremental inference (see [`Engine::warm_capable`]).
    pub sessions: SessionStore,
    /// FNV-1a hash of the model file, part of every cache key so a
    /// process serving a different model never reads stale entries.
    pub model_hash: u64,
    /// Streaming model-quality monitor + optional replayable quality
    /// log; fed by the HTTP handlers, scraped via `/metrics`.
    pub quality: crate::quality::Quality,
}

impl Engine {
    /// Whether predict misses can take the warm append-one path: the
    /// encoder must be forward-only (bidirectional context invalidates
    /// every cached position on append) and the session store enabled.
    pub fn warm_capable(&self) -> bool {
        self.model.supports_incremental() && self.sessions.capacity() > 0
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("model_hash", &format_args!("{:016x}", self.model_hash))
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

/// A single queued unit of work — one element of a request body.
#[derive(Clone, Debug)]
pub enum JobRequest {
    Predict(PredictRequest),
    Explain(ExplainRequest),
}

impl JobRequest {
    fn is_predict(&self) -> bool {
        matches!(self, JobRequest::Predict(_))
    }
}

/// Cache key for a request against the loaded model — see
/// [`SessionKey::for_request`] for the structured layout that lets the
/// cache invalidate a student's stale shorter-history entries.
pub fn cache_key(model_hash: u64, req: &JobRequest) -> SessionKey {
    SessionKey::for_request(model_hash, req)
}

/// How one job spent its time inside the batcher, returned with every
/// reply so the HTTP layer can attach a queue/batch/infer breakdown to
/// response headers and the access log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobTiming {
    /// Seconds spent queued before the wave picked the job up.
    pub queue_secs: f64,
    /// Seconds of the fused model call that answered the job; 0 for
    /// cache hits and expired deadlines.
    pub infer_secs: f64,
    /// Number of jobs in the wave that answered this one.
    pub batch_size: usize,
    /// Whether the session cache answered without touching the model.
    pub cache_hit: bool,
    /// Warm-path classification when the job went through the session
    /// store; `None` for cache hits, fused cold batches, and explains.
    pub warm: Option<crate::warm::WarmKind>,
    /// Which shard's worker answered the job.
    pub shard: usize,
}

/// A reply to one job: body position, outcome, timing breakdown.
pub type JobReply = (usize, Result<Outcome, ApiError>, JobTiming);

pub struct Job {
    pub key: SessionKey,
    pub req: JobRequest,
    /// The request's position in its HTTP body, echoed back so the
    /// handler can reassemble responses in order.
    pub index: usize,
    pub enqueued: Instant,
    /// Past this instant a still-queued job is answered with
    /// [`ApiError::DeadlineExceeded`] instead of being computed.
    pub deadline: Option<Instant>,
    pub reply: mpsc::Sender<JobReply>,
    /// Test-only panic injection (`RCKT_SERVE_TEST_PANIC=1` plus an
    /// `x-rckt-test-panic: wave` header): the wave that picks this job up
    /// panics mid-flight, exercising the shard-restart path end to end.
    /// Never set in production.
    pub poison: bool,
}

struct Shared {
    engine: Arc<Engine>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
    draining: AtomicBool,
    max_queue: usize,
    max_batch: usize,
    /// This shard's index within its [`Fleet`] (0 for a standalone
    /// batcher), baked into thread names and the per-shard metric names.
    shard: usize,
    /// This shard's `serve.shard.<i>.depth` gauge, and the pre-rendered
    /// name of its restart counter, so the hot paths don't format strings.
    depth_gauge: Gauge,
    restart_counter: String,
    /// Restarts of this shard's worker, bumped (with `restart_counter`)
    /// only once every job queued behind the panicking wave is answered,
    /// so a job submitted after the bump is served by the restarted
    /// worker.
    restarts: AtomicUsize,
    /// Jobs queued across the whole fleet, kept in lockstep with the
    /// per-shard queues so the aggregate `serve.queue.depth` gauge stays
    /// consistent without locking every shard.
    fleet_depth: Arc<AtomicUsize>,
}

impl Shared {
    /// Publish queue-depth gauges from a depth observed *under* the queue
    /// lock and a signed fleet-wide delta — never from a re-lock that
    /// could race with concurrent pushes.
    fn publish_depth(&self, shard_depth: usize, fleet_delta: isize) {
        self.depth_gauge.set(shard_depth as f64);
        let total = if fleet_delta >= 0 {
            self.fleet_depth
                .fetch_add(fleet_delta as usize, Ordering::AcqRel)
                + fleet_delta as usize
        } else {
            self.fleet_depth
                .fetch_sub((-fleet_delta) as usize, Ordering::AcqRel)
                .saturating_sub((-fleet_delta) as usize)
        };
        QUEUE_DEPTH.set(total as f64);
    }
}

/// One bounded queue plus its worker thread — a single shard. Use
/// [`Fleet`] for the student-keyed multi-shard front end.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// A standalone single-shard batcher (shard id 0, its own depth
    /// accounting). Equivalent to `Fleet::start(.., 1, ..)` minus the
    /// routing layer; kept for tests and embedding.
    pub fn start(engine: Arc<Engine>, max_batch: usize, max_queue: usize) -> Batcher {
        Batcher::start_shard(
            engine,
            0,
            max_batch,
            max_queue,
            Arc::new(AtomicUsize::new(0)),
        )
    }

    fn start_shard(
        engine: Arc<Engine>,
        shard: usize,
        max_batch: usize,
        max_queue: usize,
        fleet_depth: Arc<AtomicUsize>,
    ) -> Batcher {
        let shared = Arc::new(Shared {
            engine,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            max_queue,
            max_batch: max_batch.max(1),
            shard,
            depth_gauge: gauge(&format!("serve.shard.{shard}.depth")),
            restart_counter: format!("serve.shard.{shard}.restarts"),
            restarts: AtomicUsize::new(0),
            fleet_depth,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("rckt-serve-batcher-{shard}"))
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn batcher worker");
        Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Enqueue a job, or shed it if the server is draining or the queue
    /// is at capacity. Callers must have validated the request already —
    /// by the time a job reaches the worker, only capacity and deadline
    /// failures are possible.
    pub fn submit(&self, job: Job) -> Result<(), ApiError> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(ApiError::Draining);
        }
        let mut q = lock_recover(&self.shared.queue);
        if q.len() >= self.shared.max_queue {
            SHED.incr();
            return Err(ApiError::Overloaded);
        }
        q.push_back(job);
        // Counted before the lock drops: the worker cannot pop this job
        // and subtract it from the fleet depth before it was added.
        self.shared.publish_depth(q.len(), 1);
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Reject new submissions while the worker keeps answering what was
    /// already accepted. `drain_and_stop` finishes the job.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.shared.queue).len()
    }

    /// Graceful shutdown: reject new work, let the worker finish every
    /// job already accepted, then join it. Idempotent.
    pub fn drain_and_stop(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        if let Some(handle) = lock_recover(&self.worker).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain_and_stop();
    }
}

/// N batcher shards fronted by a student-keyed router. The shard for a
/// student is `fnv1a(student_le_bytes) % workers`, so one student's
/// requests — and therefore their warm-path session state and memo
/// entries — always live on exactly one shard, preserving append-one
/// ordering per student at any worker count. Each shard owns a
/// `max_queue`-deep queue (capacity scales with workers).
pub struct Fleet {
    shards: Vec<Batcher>,
}

impl Fleet {
    pub fn start(engine: Arc<Engine>, workers: usize, max_batch: usize, max_queue: usize) -> Fleet {
        let workers = workers.max(1);
        let fleet_depth = Arc::new(AtomicUsize::new(0));
        let shards: Vec<Batcher> = (0..workers)
            .map(|i| {
                Batcher::start_shard(
                    Arc::clone(&engine),
                    i,
                    max_batch,
                    max_queue,
                    Arc::clone(&fleet_depth),
                )
            })
            .collect();
        // Publish the per-shard families at zero so a scrape taken before
        // any traffic still shows every shard.
        for s in &shards {
            s.shared.depth_gauge.set(0.0);
        }
        gauge("serve.workers").set(workers as f64);
        Fleet { shards }
    }

    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns a student's requests.
    pub fn shard_of(&self, student: u32) -> usize {
        (crate::fnv1a(&student.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// Route a job to its student's shard.
    pub fn submit(&self, job: Job) -> Result<(), ApiError> {
        self.shards[self.shard_of(job.key.student)].submit(job)
    }

    pub fn begin_drain(&self) {
        for s in &self.shards {
            s.begin_drain();
        }
    }

    pub fn is_draining(&self) -> bool {
        self.shards.iter().any(Batcher::is_draining)
    }

    /// Per-shard queue depths, indexed by shard id.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(Batcher::queue_depth).collect()
    }

    pub fn queue_depth(&self) -> usize {
        self.queue_depths().iter().sum()
    }

    pub fn drain_and_stop(&self) {
        for s in &self.shards {
            s.drain_and_stop();
        }
    }

    /// Worker restarts across all shards. Each is counted after the
    /// restarting worker has answered its queue, so a job submitted once
    /// the count has moved is served by the restarted worker.
    #[cfg(test)]
    pub(crate) fn restarts(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.shared.restarts.load(Ordering::Acquire))
            .sum()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (wave, depth) = {
            let mut q = lock_recover(&shared.queue);
            loop {
                if !q.is_empty() {
                    let wave = take_wave(&mut q, shared.max_batch);
                    // Depth observed under the same lock that popped the
                    // wave; re-locking after the pop would race with
                    // concurrent pushes and publish a stale value.
                    break (wave, q.len());
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let taken = wave.len();
        shared.publish_depth(depth, -(taken as isize));
        run_wave_guarded(shared, wave);
    }
}

/// Run one wave, surviving a panic inside it. On an unwind the wave's
/// jobs die with it — their reply senders drop, which the HTTP layer
/// answers as 500s — and everything still queued behind the wave is
/// answered with an explicit 500 so no client waits on work this worker
/// will never do. The loop then continues: the shard has restarted and
/// the next wave is served normally. The restart is counted last, so
/// whoever observes it knows the queue has been drained.
fn run_wave_guarded(shared: &Shared, wave: Vec<Job>) {
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        process_wave(&shared.engine, shared.shard, wave);
    }));
    if caught.is_err() {
        counter("serve.worker.panics").incr();
        let queued: Vec<Job> = {
            let mut q = lock_recover(&shared.queue);
            q.drain(..).collect()
        };
        let failed = queued.len();
        for job in queued {
            let t = JobTiming {
                queue_secs: job.enqueued.elapsed().as_secs_f64(),
                shard: shared.shard,
                ..JobTiming::default()
            };
            let _ = job.reply.send((
                job.index,
                Err(ApiError::Internal(
                    "batch worker panicked; request failed during shard restart".to_string(),
                )),
                t,
            ));
        }
        shared.publish_depth(0, -(failed as isize));
        counter(&shared.restart_counter).incr();
        // Release pairs with an Acquire load of `restarts`: whoever sees
        // the new count also sees the drained queue.
        shared.restarts.fetch_add(1, Ordering::Release);
    }
}

/// Pop up to `max_batch` jobs of the front job's kind, preserving the
/// arrival order of everything left behind.
fn take_wave(q: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let predict = q.front().map(|j| j.req.is_predict()).unwrap_or(true);
    let mut wave = Vec::new();
    let mut i = 0;
    while i < q.len() && wave.len() < max_batch {
        if q[i].req.is_predict() == predict {
            wave.push(q.remove(i).unwrap());
        } else {
            i += 1;
        }
    }
    wave
}

/// Answer one wave: expire deadlines, serve cache hits, fuse the distinct
/// misses into one model call, fill the cache, and reply to every job.
/// Every reply carries its [`JobTiming`]; the wave itself records a
/// `serve/wave` span so per-request trace events can be attributed to
/// the wave that computed them.
pub(crate) fn process_wave(engine: &Engine, shard: usize, jobs: Vec<Job>) {
    let _wave = rckt_obs::span("serve/wave");
    if jobs.iter().any(|j| j.poison) {
        // Test-only injection (see `Job::poison`): die exactly where a
        // real model-call panic would, with the rest of the wave in
        // flight and jobs still queued behind it.
        panic!("test wave panic requested on shard {shard}");
    }
    let now = Instant::now();
    let wave_size = jobs.len();
    BATCHES.incr();
    BATCH_SIZE.observe(jobs.len() as f64);

    let timing_for = |job: &Job, infer_secs: f64, cache_hit: bool| JobTiming {
        queue_secs: now.duration_since(job.enqueued).as_secs_f64(),
        infer_secs,
        batch_size: wave_size,
        cache_hit,
        warm: None,
        shard,
    };

    let mut live: Vec<Job> = Vec::with_capacity(jobs.len());
    for job in jobs {
        QUEUE_SECONDS.observe(now.duration_since(job.enqueued).as_secs_f64());
        if job.deadline.is_some_and(|d| now > d) {
            DEADLINE.incr();
            let t = timing_for(&job, 0.0, false);
            let _ = job
                .reply
                .send((job.index, Err(ApiError::DeadlineExceeded), t));
        } else {
            live.push(job);
        }
    }

    // Cache pass: hits reply immediately; misses are grouped by key so a
    // wave of identical requests costs one model slot. `miss_order`
    // preserves arrival order — on the warm path that is what keeps one
    // student's multi-step appends applying to the session state in order.
    let mut miss_order: Vec<SessionKey> = Vec::new();
    let mut misses: HashMap<SessionKey, Vec<Job>> = HashMap::new();
    for job in live {
        if let Some(out) = engine.cache.get(&job.key) {
            CACHE_HITS.incr();
            let t = timing_for(&job, 0.0, true);
            let _ = job.reply.send((job.index, Ok(out), t));
        } else {
            CACHE_MISSES.incr();
            if !misses.contains_key(&job.key) {
                miss_order.push(job.key.clone());
            }
            misses.entry(job.key.clone()).or_default().push(job);
        }
    }
    CACHE_HIT_RATE.set(engine.cache.hit_rate());
    if miss_order.is_empty() {
        return;
    }

    let mut predict_keys = Vec::new();
    let mut predict_reqs = Vec::new();
    let mut explain_keys = Vec::new();
    let mut explain_reqs = Vec::new();
    for key in &miss_order {
        match &misses[key][0].req {
            JobRequest::Predict(r) => {
                predict_keys.push(key.clone());
                predict_reqs.push(r.clone());
            }
            JobRequest::Explain(r) => {
                explain_keys.push(key.clone());
                explain_reqs.push(r.clone());
            }
        }
    }

    let mut reply_all = |key: &SessionKey,
                         result: Result<Outcome, ApiError>,
                         infer_secs: f64,
                         warm_kind: Option<warm::WarmKind>| {
        if let Ok(out) = &result {
            engine.cache.put(key.clone(), out.clone());
        }
        for job in misses.remove(key).unwrap_or_default() {
            let mut t = timing_for(&job, infer_secs, false);
            t.warm = warm_kind;
            let _ = job.reply.send((job.index, result.clone(), t));
        }
    };

    if !predict_reqs.is_empty() {
        if engine.warm_capable() {
            // Warm path: answer each distinct miss through the session
            // store, in arrival order. Solo evaluation here is free —
            // the incremental path recomputes only appended positions —
            // and keeps one student's consecutive steps appending to the
            // same state instead of fusing into one stale batch.
            for (key, req) in predict_keys.iter().zip(&predict_reqs) {
                let infer_start = Instant::now();
                let result = warm::predict_one(engine, &engine.sessions, req);
                let infer_secs = infer_start.elapsed().as_secs_f64();
                INFER_SECONDS.observe(infer_secs);
                match result {
                    Ok((item, stats)) => {
                        if stats.is_warm() {
                            PREDICT_WARM.incr();
                        } else {
                            PREDICT_COLD.incr();
                        }
                        if stats.kind == warm::WarmKind::DivergedRebuild {
                            FALLBACKS.incr();
                        }
                        POSITIONS_RECOMPUTED.observe(stats.positions_recomputed as f64);
                        reply_all(
                            key,
                            Ok(Outcome::Predict(item)),
                            infer_secs,
                            Some(stats.kind),
                        );
                    }
                    Err(e) => reply_all(key, Err(e), infer_secs, None),
                }
            }
        } else {
            let infer_start = Instant::now();
            let result =
                api::predict_batch(&engine.model, &engine.qm, &predict_reqs, engine.window);
            let infer_secs = infer_start.elapsed().as_secs_f64();
            INFER_SECONDS.observe(infer_secs);
            PREDICT_COLD.add(predict_keys.len() as u64);
            match result {
                Ok(resp) => {
                    for (key, item) in predict_keys.iter().zip(resp.predictions) {
                        reply_all(
                            key,
                            Ok(Outcome::Predict(item)),
                            infer_secs,
                            Some(warm::WarmKind::ColdBuild),
                        );
                    }
                }
                Err(e) => {
                    for key in &predict_keys {
                        reply_all(key, Err(e.clone()), infer_secs, None);
                    }
                }
            }
        }
    }
    if !explain_reqs.is_empty() {
        let infer_start = Instant::now();
        let result = api::explain_batch(&engine.model, &engine.qm, &explain_reqs, engine.window);
        let infer_secs = infer_start.elapsed().as_secs_f64();
        INFER_SECONDS.observe(infer_secs);
        match result {
            Ok(resp) => {
                for (key, item) in explain_keys.iter().zip(resp.explanations) {
                    reply_all(key, Ok(Outcome::Explain(item)), infer_secs, None);
                }
            }
            Err(e) => {
                for key in &explain_keys {
                    reply_all(key, Err(e.clone()), infer_secs, None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HistoryItem;
    use rckt::{Backbone, RcktConfig};
    use rckt_data::SyntheticSpec;
    use std::time::Duration;

    fn engine_with(unidirectional: bool) -> Arc<Engine> {
        let ds = SyntheticSpec::assist09().scaled(0.05).generate();
        let model = Rckt::new(
            Backbone::Dkt,
            ds.num_questions(),
            ds.num_concepts(),
            RcktConfig {
                dim: 8,
                unidirectional,
                ..Default::default()
            },
        );
        Arc::new(Engine {
            model,
            qm: ds.q_matrix,
            window: 16,
            cache: SessionCache::new(64),
            sessions: SessionStore::new(64),
            model_hash: 0xfeed,
            quality: crate::quality::Quality::new(None, None).unwrap(),
        })
    }

    /// Bidirectional engine: the default serve configuration before this
    /// change, exercising the fused exact path.
    fn engine() -> Arc<Engine> {
        engine_with(false)
    }

    fn predict_req(student: u32, target_question: u32) -> PredictRequest {
        PredictRequest {
            student,
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
            target_question,
        }
    }

    fn job(
        eng: &Engine,
        req: JobRequest,
        index: usize,
        deadline: Option<Instant>,
    ) -> (Job, mpsc::Receiver<JobReply>) {
        let (tx, rx) = mpsc::channel();
        let j = Job {
            key: cache_key(eng.model_hash, &req),
            req,
            index,
            enqueued: Instant::now(),
            deadline,
            reply: tx,
            poison: false,
        };
        (j, rx)
    }

    #[test]
    fn expired_deadline_gets_504_without_compute() {
        let eng = engine();
        let past = Instant::now() - Duration::from_millis(50);
        let (j, rx) = job(&eng, JobRequest::Predict(predict_req(0, 3)), 7, Some(past));
        process_wave(&eng, 0, vec![j]);
        let (idx, result, timing) = rx.recv().unwrap();
        assert_eq!(idx, 7);
        assert_eq!(result.unwrap_err(), ApiError::DeadlineExceeded);
        assert!(eng.cache.is_empty(), "expired job must not touch the model");
        assert!(
            timing.queue_secs >= 0.0,
            "queue time is measured: {timing:?}"
        );
        assert_eq!(timing.infer_secs, 0.0, "no compute happened: {timing:?}");
        assert!(!timing.cache_hit);
    }

    #[test]
    fn wave_results_match_offline_batch_bitwise() {
        let eng = engine();
        let reqs = vec![predict_req(0, 3), predict_req(1, 4)];
        let oracle = api::predict_batch(&eng.model, &eng.qm, &reqs, eng.window).unwrap();
        let mut rxs = Vec::new();
        let mut jobs = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            let (j, rx) = job(&eng, JobRequest::Predict(r.clone()), i, None);
            jobs.push(j);
            rxs.push(rx);
        }
        process_wave(&eng, 0, jobs);
        for (i, rx) in rxs.iter().enumerate() {
            let (idx, result, timing) = rx.recv().unwrap();
            assert_eq!(idx, i);
            assert_eq!(timing.batch_size, 2, "both jobs share one wave");
            assert!(timing.infer_secs > 0.0, "computed jobs carry infer time");
            assert!(!timing.cache_hit);
            match result.unwrap() {
                Outcome::Predict(p) => {
                    assert_eq!(p.score.to_bits(), oracle.predictions[i].score.to_bits())
                }
                Outcome::Explain(_) => panic!("predict outcome expected"),
            }
        }
    }

    #[test]
    fn duplicate_keys_in_one_wave_share_a_model_slot_and_fill_cache() {
        let eng = engine();
        let r = predict_req(5, 3);
        let (j1, rx1) = job(&eng, JobRequest::Predict(r.clone()), 0, None);
        let (j2, rx2) = job(&eng, JobRequest::Predict(r.clone()), 1, None);
        process_wave(&eng, 0, vec![j1, j2]);
        let a = rx1.recv().unwrap().1.unwrap();
        let b = rx2.recv().unwrap().1.unwrap();
        match (&a, &b) {
            (Outcome::Predict(x), Outcome::Predict(y)) => {
                assert_eq!(x.score.to_bits(), y.score.to_bits())
            }
            _ => panic!("predict outcomes expected"),
        }
        assert_eq!(eng.cache.len(), 1);
        // A later wave with the same request is a pure cache hit, and
        // the reply's timing says so.
        let (j3, rx3) = job(&eng, JobRequest::Predict(r), 0, None);
        process_wave(&eng, 0, vec![j3]);
        let (_, result, timing) = rx3.recv().unwrap();
        assert!(result.is_ok());
        assert!(timing.cache_hit, "repeat request must be a cache hit");
        assert_eq!(timing.infer_secs, 0.0);
        let (hits, _) = eng.cache.stats();
        assert!(hits >= 1, "repeat request must hit the session cache");
    }

    #[test]
    fn mixed_wave_answers_both_kinds() {
        let eng = engine();
        let (jp, rxp) = job(&eng, JobRequest::Predict(predict_req(0, 3)), 0, None);
        let er = ExplainRequest {
            student: 1,
            history: vec![
                HistoryItem {
                    question: 1,
                    correct: true,
                },
                HistoryItem {
                    question: 3,
                    correct: true,
                },
            ],
            target: None,
        };
        let (je, rxe) = job(&eng, JobRequest::Explain(er), 0, None);
        process_wave(&eng, 0, vec![jp, je]);
        assert!(matches!(
            rxp.recv().unwrap().1.unwrap(),
            Outcome::Predict(_)
        ));
        match rxe.recv().unwrap().1.unwrap() {
            Outcome::Explain(e) => assert_eq!(e.record.target, 1),
            Outcome::Predict(_) => panic!("explain outcome expected"),
        }
    }

    #[test]
    fn full_queue_sheds_and_draining_rejects() {
        let eng = engine();
        // Zero-capacity queue: every submit is shed with Overloaded.
        let b = Batcher::start(Arc::clone(&eng), 4, 0);
        let (j, _rx) = job(&eng, JobRequest::Predict(predict_req(0, 3)), 0, None);
        assert_eq!(b.submit(j).unwrap_err(), ApiError::Overloaded);
        b.drain_and_stop();
        assert!(b.is_draining());
        let (j, _rx) = job(&eng, JobRequest::Predict(predict_req(0, 3)), 0, None);
        assert_eq!(b.submit(j).unwrap_err(), ApiError::Draining);
    }

    #[test]
    fn batcher_end_to_end_matches_offline() {
        let eng = engine();
        let b = Batcher::start(Arc::clone(&eng), 8, 64);
        let reqs = vec![predict_req(0, 3), predict_req(1, 4), predict_req(2, 5)];
        let oracle = api::predict_batch(&eng.model, &eng.qm, &reqs, eng.window).unwrap();
        let (tx, rx) = mpsc::channel();
        for (i, r) in reqs.iter().enumerate() {
            let req = JobRequest::Predict(r.clone());
            b.submit(Job {
                key: cache_key(eng.model_hash, &req),
                req,
                index: i,
                enqueued: Instant::now(),
                deadline: None,
                reply: tx.clone(),
                poison: false,
            })
            .unwrap();
        }
        let mut scores = vec![None; reqs.len()];
        for _ in 0..reqs.len() {
            let (idx, result, _) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            match result.unwrap() {
                Outcome::Predict(p) => scores[idx] = Some(p.score),
                Outcome::Explain(_) => panic!("predict outcome expected"),
            }
        }
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(
                s.unwrap().to_bits(),
                oracle.predictions[i].score.to_bits(),
                "queued path must be bit-identical to the offline batch"
            );
        }
        b.drain_and_stop();
    }

    fn history_req(student: u32, hist: &[(u32, bool)], target_question: u32) -> PredictRequest {
        PredictRequest {
            student,
            history: hist
                .iter()
                .map(|&(question, correct)| HistoryItem { question, correct })
                .collect(),
            target_question,
        }
    }

    #[test]
    fn warm_capability_follows_encoder_direction() {
        assert!(!engine().warm_capable(), "bidirectional encoder stays cold");
        assert!(engine_with(true).warm_capable());
    }

    #[test]
    fn warm_wave_appends_in_arrival_order_and_matches_exact_solo() {
        let eng = engine_with(true);
        // One student's live session: steps 0..6 of a growing history, all
        // landing in a single wave. Arrival order is what makes each step
        // an append onto the previous one.
        let hist: Vec<(u32, bool)> = (0..6).map(|i| ((i as u32 % 5) + 1, i % 3 != 0)).collect();
        let mut jobs = Vec::new();
        let mut rxs = Vec::new();
        let mut reqs = Vec::new();
        for n in 0..hist.len() {
            let r = history_req(9, &hist[..n], hist[n].0);
            let (j, rx) = job(&eng, JobRequest::Predict(r.clone()), n, None);
            reqs.push(r);
            jobs.push(j);
            rxs.push(rx);
        }
        process_wave(&eng, 0, jobs);
        for (n, rx) in rxs.iter().enumerate() {
            let solo =
                api::predict_batch(&eng.model, &eng.qm, &reqs[n..n + 1], eng.window).unwrap();
            match rx.recv().unwrap().1.unwrap() {
                Outcome::Predict(p) => assert_eq!(
                    p.score.to_bits(),
                    solo.predictions[0].score.to_bits(),
                    "warm step {n} must match the exact solo path"
                ),
                Outcome::Explain(_) => panic!("predict outcome expected"),
            }
        }
        assert_eq!(eng.sessions.len(), 1, "one resident session state");
        // The memo cache holds only the newest step per student: appending
        // invalidated the five stale prefix entries.
        assert_eq!(eng.cache.len(), 1);
    }

    #[test]
    fn warm_wave_isolates_per_request_errors() {
        let eng = engine_with(true);
        let good = history_req(1, &[(1, true)], 2);
        let bad = history_req(2, &[(999_999, true)], 2);
        let (jg, rxg) = job(&eng, JobRequest::Predict(good.clone()), 0, None);
        let (jb, rxb) = job(&eng, JobRequest::Predict(bad), 1, None);
        process_wave(&eng, 0, vec![jg, jb]);
        let solo = api::predict_batch(&eng.model, &eng.qm, &[good], eng.window).unwrap();
        match rxg.recv().unwrap().1.unwrap() {
            Outcome::Predict(p) => {
                assert_eq!(p.score.to_bits(), solo.predictions[0].score.to_bits())
            }
            Outcome::Explain(_) => panic!("predict outcome expected"),
        }
        assert!(matches!(
            rxb.recv().unwrap().1.unwrap_err(),
            ApiError::BadRequest(m) if m.contains("999999")
        ));
    }

    /// A `Shared` with no worker thread attached, so tests can stage the
    /// queue and drive `run_wave_guarded` deterministically.
    fn bare_shared(eng: &Arc<Engine>, max_batch: usize) -> Shared {
        Shared {
            engine: Arc::clone(eng),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            max_queue: 64,
            max_batch,
            shard: 0,
            depth_gauge: gauge("serve.shard.0.depth"),
            restart_counter: "serve.shard.0.restarts".to_string(),
            restarts: AtomicUsize::new(0),
            fleet_depth: Arc::new(AtomicUsize::new(0)),
        }
    }

    #[test]
    fn panicking_wave_fails_queued_jobs_with_500_and_keeps_serving() {
        let eng = engine();
        let shared = bare_shared(&eng, 1);

        // Stage: three jobs queued behind the wave that will panic.
        let mut queued_rxs = Vec::new();
        for i in 0..3 {
            let (j, rx) = job(
                &eng,
                JobRequest::Predict(predict_req(i, 3)),
                i as usize,
                None,
            );
            lock_recover(&shared.queue).push_back(j);
            queued_rxs.push(rx);
        }
        shared.fleet_depth.store(4, Ordering::SeqCst);
        let (mut poison, poison_rx) = job(&eng, JobRequest::Predict(predict_req(9, 3)), 0, None);
        poison.poison = true;

        run_wave_guarded(&shared, vec![poison]);

        // The in-flight job's reply sender died with the unwind: the HTTP
        // layer maps that recv error to a 500.
        assert!(
            poison_rx.recv().is_err(),
            "in-flight job's channel must be dropped by the unwind"
        );
        // Every queued job is answered with an explicit 500 — not left to
        // hang until a socket timeout.
        for rx in &queued_rxs {
            let (_, result, t) = rx.recv().unwrap();
            assert!(
                matches!(result.unwrap_err(), ApiError::Internal(m) if m.contains("panicked")),
                "queued job must fail with a worker-panic 500"
            );
            assert_eq!(t.shard, 0);
        }
        assert!(lock_recover(&shared.queue).is_empty());
        assert_eq!(shared.fleet_depth.load(Ordering::SeqCst), 1);
        assert_eq!(shared.restarts.load(Ordering::SeqCst), 1);

        // Restart semantics: the same shard serves the next wave normally.
        let (j, rx) = job(&eng, JobRequest::Predict(predict_req(1, 4)), 0, None);
        run_wave_guarded(&shared, vec![j]);
        let (_, result, _) = rx.recv().unwrap();
        assert!(
            matches!(result.unwrap(), Outcome::Predict(_)),
            "wave after a panic must be served by the restarted worker"
        );
    }

    #[test]
    fn live_batcher_survives_a_poison_wave() {
        let eng = engine();
        let b = Batcher::start(Arc::clone(&eng), 1, 64);
        let req = JobRequest::Predict(predict_req(3, 4));
        let (tx, rx) = mpsc::channel();
        b.submit(Job {
            key: cache_key(eng.model_hash, &req),
            req,
            index: 0,
            enqueued: Instant::now(),
            deadline: None,
            reply: tx,
            poison: true,
        })
        .unwrap();
        assert!(
            rx.recv_timeout(Duration::from_secs(30)).is_err(),
            "poisoned job's reply channel dies with the unwind"
        );
        // The reply channel dies before the worker drains its queue (and
        // the drain fails whatever it finds there), so wait for the
        // restart, which is counted only after the drain.
        let restarts = || b.shared.restarts.load(Ordering::Acquire);
        let t0 = Instant::now();
        while restarts() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "worker never restarted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(restarts(), 1);
        // The worker thread caught the unwind and keeps draining: a fresh
        // job on the same shard succeeds.
        let (j, rx) = job(&eng, JobRequest::Predict(predict_req(4, 5)), 0, None);
        b.submit(j).unwrap();
        let (_, result, _) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(result.is_ok(), "shard must serve requests after a panic");
        b.drain_and_stop();
    }

    #[test]
    fn fleet_routes_by_student_and_matches_offline_bitwise() {
        let eng = engine();
        let fleet = Fleet::start(Arc::clone(&eng), 4, 8, 64);
        assert_eq!(fleet.workers(), 4);
        let reqs: Vec<PredictRequest> = (0..12).map(|s| predict_req(s, 3)).collect();
        let oracle = api::predict_batch(&eng.model, &eng.qm, &reqs, eng.window).unwrap();
        let (tx, rx) = mpsc::channel();
        for (i, r) in reqs.iter().enumerate() {
            let req = JobRequest::Predict(r.clone());
            fleet
                .submit(Job {
                    key: cache_key(eng.model_hash, &req),
                    req,
                    index: i,
                    enqueued: Instant::now(),
                    deadline: None,
                    reply: tx.clone(),
                    poison: false,
                })
                .unwrap();
        }
        let mut scores = vec![None; reqs.len()];
        for _ in 0..reqs.len() {
            let (idx, result, t) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            // The routing contract: the shard that answered is the
            // student's FNV shard.
            assert_eq!(t.shard, fleet.shard_of(reqs[idx].student));
            match result.unwrap() {
                Outcome::Predict(p) => scores[idx] = Some(p.score),
                Outcome::Explain(_) => panic!("predict outcome expected"),
            }
        }
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(
                s.unwrap().to_bits(),
                oracle.predictions[i].score.to_bits(),
                "sharded path must be bit-identical to the offline batch"
            );
        }
        assert_eq!(fleet.queue_depths().len(), 4);
        fleet.drain_and_stop();
        assert!(fleet.is_draining());
    }

    #[test]
    fn shard_of_is_stable_and_consistent_across_fleet_sizes() {
        let eng = engine();
        let f2 = Fleet::start(Arc::clone(&eng), 2, 4, 16);
        let f4 = Fleet::start(Arc::clone(&eng), 4, 4, 16);
        for s in 0..256u32 {
            // Deterministic: same student always maps to the same shard.
            assert_eq!(f2.shard_of(s), f2.shard_of(s));
            assert_eq!(
                f2.shard_of(s),
                (crate::fnv1a(&s.to_le_bytes()) % 2) as usize
            );
            assert_eq!(
                f4.shard_of(s),
                (crate::fnv1a(&s.to_le_bytes()) % 4) as usize
            );
        }
        // FNV spreads students across shards rather than hotspotting one.
        let mut seen = [false; 4];
        for s in 0..256u32 {
            seen[f4.shard_of(s)] = true;
        }
        assert!(seen.iter().all(|&b| b), "all four shards receive students");
        f2.drain_and_stop();
        f4.drain_and_stop();
    }
}
