//! Flight recorder: a fixed-budget in-memory ring of the most recent
//! structured events and per-request records, so a crash or an SLO
//! breach can be reconstructed after the fact from a self-contained
//! postmortem bundle instead of whatever happened to reach stderr.
//!
//! Two rings live behind one mutex-protected recorder:
//!
//! * the **event ring** is fed by the global event sink ([`tap_event`]
//!   is called from [`crate::event::event`] for every admitted event,
//!   except `serve.access`, whose structured twin lands in the request
//!   ring instead);
//! * the **request ring** is fed explicitly by the serving layer with
//!   one [`RequestRecord`] per HTTP request (id, endpoint, student,
//!   queue/infer micros, batch size, status, warm-path classification).
//!
//! Entries are stored pre-encoded as JSON object strings, so the byte
//! budget is exact (the sum of stored string lengths never exceeds the
//! configured budget — a property the tests assert after every push)
//! and a snapshot is a cheap join. Eviction is strictly FIFO; an entry
//! larger than the whole budget is dropped and counted, never stored.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::event::Value;
use crate::json::{self, Obj};
use crate::level::Level;

/// Byte budgets for the two rings. The defaults keep a busy server's
/// last few thousand requests (~100 B each encoded) resident for well
/// under a megabyte of heap.
#[derive(Clone, Copy, Debug)]
pub struct FlightConfig {
    /// Budget for the structured-event ring, in encoded bytes.
    pub event_bytes: usize,
    /// Budget for the per-request ring, in encoded bytes.
    pub request_bytes: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            event_bytes: 128 * 1024,
            request_bytes: 256 * 1024,
        }
    }
}

/// One served HTTP request, as remembered by the flight ring. Its text
/// fields borrow from the request being answered: recording one allocates
/// only the encoded line.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord<'a> {
    /// Unix timestamp (seconds) when the request was recorded, just
    /// before its response is written.
    pub ts: f64,
    /// The response's `X-Request-Id`.
    pub request_id: &'a str,
    pub method: &'a str,
    /// Endpoint path (`/predict`, `/explain`, …).
    pub path: &'a str,
    /// Students named in the body (comma-joined), when the handler got
    /// far enough to parse one; empty otherwise.
    pub students: &'a str,
    pub queue_micros: u64,
    pub infer_micros: u64,
    pub total_micros: u64,
    pub batch_size: u64,
    /// HTTP status code (200, 400, 503, 504, …).
    pub status: u64,
    /// Warm-path classification: `append`, `replay`, `cold_build`,
    /// `diverged_rebuild`, `cache` (session-cache hit), or `-` when the
    /// request never reached the model (errors, non-inference paths).
    pub warm: &'a str,
    /// Batcher shard that answered the request; `None` when it never
    /// reached a shard (errors, non-inference paths). Encoded as a string,
    /// `"0"`, `"1"`, … or `"-"`.
    pub shard: Option<usize>,
}

/// A shard number as the JSON string the ring stores (`"3"`, or `"-"`
/// for none), written straight into the line.
struct ShardLabel(Option<usize>);

impl json::ToJson for ShardLabel {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self.0 {
            Some(shard) => {
                let _ = write!(out, "\"{shard}\"");
            }
            None => out.push_str("\"-\""),
        }
    }
}

impl RequestRecord<'_> {
    fn encode(&self) -> String {
        // Fixed shape: 12 keys + scalar values fit comfortably in 256
        // bytes, so the hot path is one allocation.
        let mut o = Obj::with_capacity(256);
        o.field("ts", &self.ts)
            .field("request_id", self.request_id)
            .field("method", self.method)
            .field("path", self.path)
            .field("students", self.students)
            .field("queue_micros", &self.queue_micros)
            .field("infer_micros", &self.infer_micros)
            .field("total_micros", &self.total_micros)
            .field("batch", &self.batch_size)
            .field("status", &self.status)
            .field("warm", self.warm)
            .field("shard", &ShardLabel(self.shard));
        o.finish()
    }
}

/// One FIFO ring of pre-encoded JSON entries under an exact byte budget.
struct Ring {
    budget: usize,
    bytes: usize,
    items: VecDeque<String>,
    evicted: u64,
}

impl Ring {
    fn new(budget: usize) -> Ring {
        Ring {
            budget,
            bytes: 0,
            items: VecDeque::new(),
            evicted: 0,
        }
    }

    fn push(&mut self, entry: String) {
        if entry.len() > self.budget {
            // Larger than the whole ring: count it as evicted-on-arrival
            // rather than blowing the budget for one entry.
            self.evicted += 1;
            return;
        }
        self.bytes += entry.len();
        self.items.push_back(entry);
        while self.bytes > self.budget {
            if let Some(front) = self.items.pop_front() {
                self.bytes -= front.len();
                self.evicted += 1;
            } else {
                break;
            }
        }
    }

    fn snapshot_array(&self) -> String {
        json::array(self.items.iter().cloned())
    }
}

struct Inner {
    events: Ring,
    requests: Ring,
}

/// The mutex-protected pair of rings. Shared as `Arc<FlightRecorder>`
/// between the serving layer, the global event tap, and the postmortem
/// writer.
pub struct FlightRecorder {
    cfg: FlightConfig,
    inner: Mutex<Inner>,
}

/// Live occupancy of one ring: `(entries, bytes_used, evicted)`.
pub type RingUsage = (usize, usize, u64);

impl FlightRecorder {
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            inner: Mutex::new(Inner {
                events: Ring::new(cfg.event_bytes),
                requests: Ring::new(cfg.request_bytes),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one structured event (already admitted by the level
    /// filter). Fields are encoded exactly as the JSON-lines sink
    /// encodes them.
    pub fn record_event(&self, level: Level, name: &str, fields: &[(&str, Value)]) {
        let mut f = Obj::new();
        for (k, v) in fields {
            f.raw(k, &v.to_json());
        }
        let mut o = Obj::new();
        o.field("ts", &unix_ts())
            .field("level", level.as_str())
            .field("event", name)
            .raw("fields", &f.finish());
        self.lock().events.push(o.finish());
    }

    /// Record one served request.
    pub fn record_request(&self, rec: &RequestRecord<'_>) {
        let line = rec.encode();
        self.lock().requests.push(line);
    }

    pub fn event_usage(&self) -> RingUsage {
        let g = self.lock();
        (g.events.items.len(), g.events.bytes, g.events.evicted)
    }

    pub fn request_usage(&self) -> RingUsage {
        let g = self.lock();
        (g.requests.items.len(), g.requests.bytes, g.requests.evicted)
    }

    /// The whole recorder as one JSON object — the `flight` section of a
    /// postmortem bundle, and the body of `GET /debug/flight`.
    pub fn snapshot_json(&self) -> String {
        let g = self.lock();
        let mut o = Obj::new();
        o.field("event_budget_bytes", &(self.cfg.event_bytes as u64))
            .field("request_budget_bytes", &(self.cfg.request_bytes as u64))
            .field("event_bytes", &(g.events.bytes as u64))
            .field("request_bytes", &(g.requests.bytes as u64))
            .field("evicted_events", &g.events.evicted)
            .field("evicted_requests", &g.requests.evicted)
            .raw("events", &g.events.snapshot_array())
            .raw("requests", &g.requests.snapshot_array());
        o.finish()
    }
}

fn unix_ts() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Process-global recorder installed as the event tap. `ACTIVE` keeps
/// the per-event check to one relaxed atomic load when no recorder is
/// installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

fn global_slot() -> std::sync::MutexGuard<'static, Option<Arc<FlightRecorder>>> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `rec` as the process-global recorder fed by the event sink.
/// A later install replaces an earlier one (last server wins, as with
/// the panic-hook context).
pub fn install(rec: Arc<FlightRecorder>) {
    *global_slot() = Some(rec);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the global recorder if it is `rec` (so a stopping server does
/// not tear down a newer server's recorder).
pub fn uninstall(rec: &Arc<FlightRecorder>) {
    let mut g = global_slot();
    if g.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, rec)) {
        *g = None;
        ACTIVE.store(false, Ordering::Release);
    }
}

/// The currently installed global recorder, if any.
pub fn global() -> Option<Arc<FlightRecorder>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    global_slot().clone()
}

/// Event-sink hook, called by [`crate::event::event`] for every admitted
/// event. `serve.access` is skipped: its structured twin is recorded in
/// the request ring by the serving layer, and storing both would spend
/// the event budget on duplicates.
pub fn tap_event(level: Level, name: &str, fields: &[(&str, Value)]) {
    if !ACTIVE.load(Ordering::Relaxed) || name == "serve.access" {
        return;
    }
    if let Some(rec) = global() {
        rec.record_event(level, name, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    /// A test request; its numbered text lives for the rest of the test
    /// binary, as a served request's text outlives its record.
    fn record(n: u64) -> RequestRecord<'static> {
        RequestRecord {
            ts: 1000.0 + n as f64,
            request_id: Box::leak(format!("req-{n}").into_boxed_str()),
            method: "POST",
            path: "/predict",
            students: Box::leak(n.to_string().into_boxed_str()),
            queue_micros: 10,
            infer_micros: 200,
            total_micros: 250,
            batch_size: 1,
            status: 200,
            warm: "append",
            shard: Some(0),
        }
    }

    /// The ring's line format, pinned byte for byte: `/debug/flight`,
    /// postmortem bundles and `rckt postmortem` read these lines.
    #[test]
    fn request_record_encodes_to_a_pinned_line() {
        let mut r = record(7);
        r.shard = Some(12);
        assert_eq!(
            r.encode(),
            r#"{"ts":1007,"request_id":"req-7","method":"POST","path":"/predict","students":"7","queue_micros":10,"infer_micros":200,"total_micros":250,"batch":1,"status":200,"warm":"append","shard":"12"}"#
        );
        r.students = "";
        r.warm = "-";
        r.shard = None;
        assert_eq!(
            r.encode(),
            r#"{"ts":1007,"request_id":"req-7","method":"POST","path":"/predict","students":"","queue_micros":10,"infer_micros":200,"total_micros":250,"batch":1,"status":200,"warm":"-","shard":"-"}"#
        );
    }

    /// Remembering a request must stay cheap next to serving it. Times the
    /// steady state (encode, push, evict) on a default-budget ring that is
    /// already evicting; the best of three medians absorbs preemption.
    #[test]
    fn record_request_costs_at_most_2us_at_the_median() {
        let rec = FlightRecorder::new(FlightConfig::default());
        let records: Vec<RequestRecord> = (0..10_000).map(record).collect();
        for r in &records {
            rec.record_request(r);
        }
        assert!(rec.request_usage().2 > 0, "the ring must be evicting");
        let median_ns = || {
            let mut ns: Vec<u128> = records
                .iter()
                .map(|r| {
                    let t0 = std::time::Instant::now();
                    rec.record_request(r);
                    t0.elapsed().as_nanos()
                })
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2]
        };
        let best = (0..3).map(|_| median_ns()).min().unwrap();
        assert!(
            best <= 2_000,
            "record_request median {best} ns exceeds 2 µs"
        );
    }

    #[test]
    fn bounded_memory_never_exceeds_byte_budget() {
        let rec = FlightRecorder::new(FlightConfig {
            event_bytes: 512,
            request_bytes: 2048,
        });
        for n in 0..500 {
            rec.record_request(&record(n));
            rec.record_event(
                Level::Info,
                "unit.flight",
                &[
                    ("n", n.into()),
                    ("pad", "x".repeat((n % 40) as usize).into()),
                ],
            );
            let (_, ebytes, _) = rec.event_usage();
            let (_, rbytes, _) = rec.request_usage();
            assert!(ebytes <= 512, "event ring over budget: {ebytes}");
            assert!(rbytes <= 2048, "request ring over budget: {rbytes}");
        }
        let (kept, _, evicted) = rec.request_usage();
        assert_eq!(kept as u64 + evicted, 500, "every push kept or evicted");
        assert!(evicted > 0, "budget small enough to force eviction");
    }

    #[test]
    fn eviction_is_fifo_and_keeps_the_newest() {
        let rec = FlightRecorder::new(FlightConfig {
            event_bytes: 64,
            request_bytes: 600,
        });
        for n in 0..50 {
            rec.record_request(&record(n));
        }
        let text = rec.snapshot_json();
        let snap = parse(&text).unwrap();
        let reqs = snap.get("requests").unwrap().as_array().unwrap();
        assert!(!reqs.is_empty() && reqs.len() < 50);
        let ids: Vec<u64> = reqs
            .iter()
            .map(|r| {
                r.get("request_id")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .strip_prefix("req-")
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        // The survivors are exactly the newest pushes, still in order.
        let newest: Vec<u64> = (50 - ids.len() as u64..50).collect();
        assert_eq!(ids, newest, "FIFO eviction must keep the newest suffix");
    }

    #[test]
    fn oversized_entry_is_dropped_not_stored() {
        let rec = FlightRecorder::new(FlightConfig {
            event_bytes: 64,
            request_bytes: 80,
        });
        let mut big = record(0);
        let students = "s".repeat(500);
        big.students = &students;
        rec.record_request(&big);
        let (kept, bytes, evicted) = rec.request_usage();
        assert_eq!((kept, bytes, evicted), (0, 0, 1));
    }

    #[test]
    fn concurrent_writers_smoke_at_thread_widths() {
        let threads: usize = std::env::var("RCKT_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        let per_thread = 200u64;
        let rec = Arc::new(FlightRecorder::new(FlightConfig {
            event_bytes: 4096,
            request_bytes: 4096,
        }));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for n in 0..per_thread {
                        rec.record_request(&record(t as u64 * per_thread + n));
                        rec.record_event(Level::Debug, "unit.concurrent", &[("t", t.into())]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (kept, bytes, evicted) = rec.request_usage();
        assert!(bytes <= 4096);
        assert_eq!(kept as u64 + evicted, threads as u64 * per_thread);
        let text = rec.snapshot_json();
        let snap = parse(&text).unwrap();
        assert!(snap.get("requests").unwrap().as_array().unwrap().len() == kept);
    }

    #[test]
    fn snapshot_round_trips_through_the_strict_parser() {
        let rec = FlightRecorder::new(FlightConfig::default());
        rec.record_request(&record(7));
        rec.record_event(
            Level::Info,
            "unit.snap",
            &[("k", 1u64.into()), ("s", "a\"b".into())],
        );
        let text = rec.snapshot_json();
        let snap = parse(&text).unwrap();
        let req = &snap.get("requests").unwrap().as_array().unwrap()[0];
        assert_eq!(req.get("request_id").unwrap().as_str(), Some("req-7"));
        assert_eq!(req.get("status").unwrap().as_f64(), Some(200.0));
        assert_eq!(req.get("warm").unwrap().as_str(), Some("append"));
        assert_eq!(req.get("shard").unwrap().as_str(), Some("0"));
        let ev = &snap.get("events").unwrap().as_array().unwrap()[0];
        assert_eq!(ev.get("event").unwrap().as_str(), Some("unit.snap"));
        match ev.get("fields").unwrap().get("s") {
            Some(JsonValue::Str(s)) => assert_eq!(s, "a\"b"),
            other => panic!("fields.s: {other:?}"),
        }
    }

    #[test]
    fn global_tap_feeds_installed_recorder_and_skips_access_events() {
        let _g = crate::testutil::global_lock();
        let rec = Arc::new(FlightRecorder::new(FlightConfig::default()));
        install(Arc::clone(&rec));
        tap_event(Level::Info, "unit.tapped", &[("k", 1u64.into())]);
        tap_event(Level::Info, "serve.access", &[("k", 2u64.into())]);
        let (kept, _, _) = rec.event_usage();
        assert_eq!(kept, 1, "serve.access must be skipped");
        uninstall(&rec);
        assert!(global().is_none());
        tap_event(Level::Info, "unit.after", &[]);
        assert_eq!(rec.event_usage().0, 1, "uninstalled recorder gets nothing");
    }
}
