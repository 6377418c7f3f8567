//! Chrome trace-event export: spans (and the tensor pool's parallel
//! regions) recorded as complete events and written as a JSON file that
//! `chrome://tracing` and Perfetto load directly.
//!
//! Armed by [`start_trace`]; while armed, every [`crate::span()`] drop and
//! every pool region calls [`record_event`], which encodes one
//! `ph:"X"` event with microsecond timestamps relative to the arming
//! instant. Each OS thread gets a small stable tid plus a `thread_name`
//! metadata event, so pool workers render as separate lanes.
//! [`finish_trace`] writes the collected events and disarms.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Obj;

/// Hard cap on buffered events so a pathological run cannot exhaust
/// memory; overflow is counted and reported in the final file.
const MAX_EVENTS: usize = 1_000_000;

struct TraceState {
    path: String,
    epoch: Instant,
    /// Pre-encoded JSON event objects.
    events: Vec<String>,
    dropped: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<TraceState>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Bumped on every [`start_trace`] so re-armed traces get fresh
/// `thread_name` metadata events.
static GENERATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Generation this thread last emitted its `thread_name` event for.
    static NAMED_GEN: Cell<u64> = const { Cell::new(0) };
}

fn lock_state() -> std::sync::MutexGuard<'static, Option<TraceState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a trace is being collected — one relaxed load, so callers can
/// guard their `Instant::now()` bookkeeping on it.
pub fn trace_enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm trace collection; events recorded from now on are written to
/// `path` by [`finish_trace`]. Re-arming discards any pending events.
pub fn start_trace(path: &str) {
    let mut st = lock_state();
    *st = Some(TraceState {
        path: path.to_string(),
        epoch: Instant::now(),
        events: Vec::new(),
        dropped: 0,
    });
    GENERATION.fetch_add(1, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

fn this_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Record one complete (`ph:"X"`) event: `name` under category `cat`,
/// starting at `start` and lasting `dur_secs`. No-op unless armed.
pub fn record_event(name: &str, cat: &str, start: Instant, dur_secs: f64) {
    if !trace_enabled() {
        return;
    }
    let tid = this_tid();
    let generation = GENERATION.load(Ordering::Relaxed);
    let name_meta = NAMED_GEN.with(|n| {
        if n.get() == generation {
            None
        } else {
            n.set(generation);
            let tname = std::thread::current()
                .name()
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let mut o = Obj::new();
            o.field("ph", "M")
                .field("pid", &1)
                .field("tid", &tid)
                .field("name", "thread_name")
                .raw("args", &{
                    let mut a = Obj::new();
                    a.field("name", &tname);
                    a.finish()
                });
            Some(o.finish())
        }
    });
    let mut st = lock_state();
    let Some(state) = st.as_mut() else {
        return;
    };
    // A start captured before arming clamps to the trace epoch.
    let ts_us = start
        .checked_duration_since(state.epoch)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0);
    if let Some(meta) = name_meta {
        state.events.push(meta);
    }
    if state.events.len() >= MAX_EVENTS {
        state.dropped += 1;
        return;
    }
    let mut o = Obj::new();
    o.field("ph", "X")
        .field("pid", &1)
        .field("tid", &tid)
        .field("name", name)
        .field("cat", cat)
        .field("ts", &ts_us)
        .field("dur", &(dur_secs * 1e6).max(0.0));
    state.events.push(o.finish());
}

/// Disarm and write the collected events as `{"traceEvents":[...]}` to
/// the path given to [`start_trace`]. Returns `Ok(None)` when no trace
/// was armed, else the path written.
pub fn finish_trace() -> std::io::Result<Option<String>> {
    ARMED.store(false, Ordering::Relaxed);
    let state = lock_state().take();
    let Some(state) = state else {
        return Ok(None);
    };
    if let Some(dir) = std::path::Path::new(&state.path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out =
        String::with_capacity(state.events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in state.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("]}");
    std::fs::write(&state.path, out)?;
    if state.dropped > 0 {
        eprintln!(
            "rckt-obs: trace buffer overflowed; dropped {} events (kept {})",
            state.dropped, MAX_EVENTS
        );
    }
    Ok(Some(state.path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disarmed_by_default_and_records_nothing() {
        let _g = crate::testutil::global_lock();
        let _ = finish_trace();
        assert!(!trace_enabled());
        record_event("noop", "span", Instant::now(), 0.001);
        assert!(finish_trace().unwrap().is_none());
    }

    #[test]
    fn events_and_thread_lanes_round_trip() {
        let _g = crate::testutil::global_lock();
        let path = std::env::temp_dir().join("rckt_obs_trace_test.json");
        let path = path.to_string_lossy().into_owned();
        start_trace(&path);
        assert!(trace_enabled());

        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        record_event("main.work", "span", t0, 0.001);
        std::thread::Builder::new()
            .name("rckt-pool-0".to_string())
            .spawn(|| {
                record_event("pool.run", "pool", Instant::now(), 0.0005);
            })
            .unwrap()
            .join()
            .unwrap();

        let written = finish_trace().unwrap().expect("trace was armed");
        assert_eq!(written, path);
        assert!(!trace_enabled());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"main.work\""));
        assert!(text.contains("\"name\":\"pool.run\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("rckt-pool-0"));
        assert!(text.contains("\"ph\":\"X\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spans_feed_the_trace_when_armed() {
        let _g = crate::testutil::global_lock();
        let path = std::env::temp_dir().join("rckt_obs_trace_span_test.json");
        let path = path.to_string_lossy().into_owned();
        start_trace(&path);
        {
            let _s = crate::span::span("test_trace_span");
        }
        finish_trace().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"test_trace_span\""));
        let _ = std::fs::remove_file(&path);
    }
}
