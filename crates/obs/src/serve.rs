//! Std-only live telemetry endpoint (`--serve-metrics <port>`).
//!
//! A background thread accepts plain HTTP/1.1 connections on
//! `127.0.0.1:<port>` and answers:
//!
//! * `GET /metrics` — the registry in Prometheus text format
//!   ([`crate::prometheus::render`]);
//! * `GET /healthz` — `{"status":"ok","uptime_secs":...}`;
//! * `GET /runs`    — a JSON array of the manifests published so far via
//!   [`publish_manifest`] (newest last), so a scraper can watch the
//!   active run's config and results while it trains.
//!
//! The server is deliberately minimal: one request per connection,
//! `Connection: close`, no TLS, bound to loopback. Requests are framed by
//! [`crate::http`], so one it cannot read (an oversized header block, a
//! malformed request line) gets a 400. Pass port `0` to let the OS pick
//! (tests); [`TelemetryServer::port`] reports the real one.

use crate::http;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Most recent manifests, as pre-encoded JSON objects (newest last).
static RUNS: Mutex<Vec<String>> = Mutex::new(Vec::new());
/// Keep the `/runs` snapshot bounded for long multi-run processes.
const MAX_RUNS: usize = 64;

static STARTED_AT: OnceLock<Instant> = OnceLock::new();
/// Content type of the plain-text replies (errors, 404s).
const TEXT: &str = "text/plain; charset=utf-8";
/// The process-wide server installed by [`crate::init`].
static GLOBAL: Mutex<Option<TelemetryServer>> = Mutex::new(None);

/// Record a run manifest (already encoded as a JSON object) for the
/// `/runs` endpoint. Called by [`crate::RunManifest::publish`]; cheap and
/// harmless when no server is running.
pub fn publish_manifest(json: &str) {
    let mut runs = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    if runs.len() >= MAX_RUNS {
        runs.remove(0);
    }
    runs.push(json.to_string());
}

/// Clear the published-run buffer (tests).
pub fn reset_runs() {
    RUNS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Handle to a running telemetry server; stops (and joins) on
/// [`TelemetryServer::stop`] or drop.
pub struct TelemetryServer {
    port: u16,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// The port actually bound (useful with a requested port of 0).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Signal the accept loop to exit and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Bind `127.0.0.1:<port>` and serve telemetry until stopped.
pub fn start(port: u16) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    let _ = STARTED_AT.set(Instant::now());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("rckt-obs-serve".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    handle_connection(stream);
                }
            }
        })?;
    Ok(TelemetryServer {
        port,
        stop,
        handle: Some(handle),
    })
}

/// Install `server` as the process-wide instance (stopping any previous
/// one). Used by [`crate::init`] for `--serve-metrics`.
pub(crate) fn install(server: TelemetryServer) {
    let prev = GLOBAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .replace(server);
    if let Some(p) = prev {
        p.stop();
    }
}

/// Stop the process-wide server installed by [`crate::init`], if any.
pub fn shutdown_global() {
    let prev = GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = prev {
        p.stop();
    }
}

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            http::respond(&mut stream, "400 Bad Request", TEXT, &[], &format!("{e}\n"));
            return;
        }
    };

    let (status, content_type, body) = if req.method != "GET" {
        (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        )
    } else {
        match req.path.as_str() {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::prometheus::render(),
            ),
            "/healthz" => {
                let uptime = STARTED_AT
                    .get()
                    .map(|t| t.elapsed().as_secs_f64())
                    .unwrap_or(0.0);
                let mut o = crate::json::Obj::new();
                o.field("status", "ok")
                    .field("uptime_secs", &uptime)
                    .field("bin", &crate::manifest::bin_name());
                ("200 OK", "application/json", o.finish() + "\n")
            }
            "/runs" => {
                let runs = RUNS.lock().unwrap_or_else(|e| e.into_inner());
                let body = crate::json::array(runs.iter().cloned()) + "\n";
                ("200 OK", "application/json", body)
            }
            _ => (
                "404 Not Found",
                TEXT,
                "not found; try /metrics /healthz /runs\n".to_string(),
            ),
        }
    };
    http::respond(&mut stream, status, content_type, &[], &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn get(port: u16, path: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_metrics_healthz_and_runs() {
        let _g = crate::testutil::global_lock();
        crate::metrics::counter("test.serve.hits").add(3);
        publish_manifest("{\"bin\":\"test_serve\"}");
        let server = start(0).unwrap();
        let port = server.port();
        assert_ne!(port, 0);

        let metrics = get(port, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("rckt_test_serve_hits_total"));

        let health = get(port, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"uptime_secs\""));

        let runs = get(port, "/runs");
        assert!(runs.starts_with("HTTP/1.1 200 OK"));
        assert!(runs.contains("\"bin\":\"test_serve\""));

        let missing = get(port, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
        reset_runs();
    }

    #[test]
    fn oversized_header_gets_400_not_routed() {
        let _g = crate::testutil::global_lock();
        let server = start(0).unwrap();
        let mut s = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let filler = "a".repeat(20 * 1024);
        write!(s, "GET /metrics HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains("request too large"), "{out}");
        server.stop();
    }

    #[test]
    fn runs_buffer_is_bounded() {
        let _g = crate::testutil::global_lock();
        reset_runs();
        for i in 0..(MAX_RUNS + 10) {
            publish_manifest(&format!("{{\"i\":{i}}}"));
        }
        let runs = RUNS.lock().unwrap();
        assert_eq!(runs.len(), MAX_RUNS);
        assert_eq!(runs.last().unwrap(), &format!("{{\"i\":{}}}", MAX_RUNS + 9));
        drop(runs);
        reset_runs();
    }

    #[test]
    fn stop_joins_cleanly_and_frees_port() {
        let _g = crate::testutil::global_lock();
        let server = start(0).unwrap();
        let port = server.port();
        server.stop();
        // The listener is gone: either refused, or at minimum a fresh bind
        // on the same port succeeds.
        let rebind = TcpListener::bind(("127.0.0.1", port));
        assert!(rebind.is_ok());
    }
}
