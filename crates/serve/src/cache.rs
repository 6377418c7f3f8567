//! Per-student session caching, two layers:
//!
//! * [`SessionCache`] — an LRU memo from a structured [`SessionKey`]
//!   (model hash, kind, student, history length, content hash) to the
//!   finished outcome. A student re-sending an identical request is
//!   answered from the memo with bit-identical bytes. Because the key is
//!   structured (not an opaque canonical-JSON string), an appended history
//!   *invalidates* the student's now-stale shorter-prefix entries instead
//!   of leaving them to crowd out live sessions until LRU pressure finds
//!   them.
//! * [`SessionStore`] — the warm-path state store: one
//!   [`IncrementalState`] per student id, LRU-evicted, carrying the cached
//!   encoder streams that make an append-one `/predict` recompute a single
//!   position (see `crates/core`'s `incremental` module).
//!
//! Both layers export their occupancy: `serve.session.evictions` /
//! `serve.session.resident` for the memo (rendered by `/metrics` as
//! `rckt_serve_session_evictions_total` and a resident-sessions gauge),
//! `serve.session.state_evictions` / `serve.session.states_resident` /
//! `serve.session.state_bytes` for the warm store, and
//! `serve.session.stale_invalidated` for prefix invalidations.

use crate::api::{ExplainResponseItem, PredictResponseItem};
use crate::batcher::JobRequest;
use crate::lock_recover;
use rckt::IncrementalState;
use rckt_obs::{counter, gauge, Counter, Gauge, LazyMetric};
use std::collections::HashMap;
use std::sync::Mutex;

// Occupancy metrics, resolved from the registry on first use.
static STALE_INVALIDATED: LazyMetric<Counter> =
    LazyMetric::new("serve.session.stale_invalidated", counter);
static EVICTIONS: LazyMetric<Counter> = LazyMetric::new("serve.session.evictions", counter);
static RESIDENT: LazyMetric<Gauge> = LazyMetric::new("serve.session.resident", gauge);
static STATE_EVICTIONS: LazyMetric<Counter> =
    LazyMetric::new("serve.session.state_evictions", counter);
static STATES_RESIDENT: LazyMetric<Gauge> = LazyMetric::new("serve.session.states_resident", gauge);
static STATE_BYTES: LazyMetric<Gauge> = LazyMetric::new("serve.session.state_bytes", gauge);

/// A finished, cacheable result for one request.
#[derive(Clone, Debug)]
pub enum Outcome {
    Predict(PredictResponseItem),
    Explain(ExplainResponseItem),
}

/// Which endpoint a memo entry answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyKind {
    Predict,
    Explain,
}

/// Structured memo-cache key. Equal requests hash their full content into
/// `content_hash`, while the structured fields let the cache reason about
/// relationships between keys — in particular, `(model_hash, kind,
/// student)` groups one student's entries so an append-one request with a
/// longer history can invalidate the stale shorter ones.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SessionKey {
    pub model_hash: u64,
    pub kind: KeyKind,
    pub student: u32,
    /// History length of the request (the append-one "step number").
    pub history_len: usize,
    /// FNV-1a over the canonical byte encoding of the full request.
    pub content_hash: u64,
}

impl SessionKey {
    /// Canonical key for a request against one loaded model.
    pub fn for_request(model_hash: u64, req: &JobRequest) -> SessionKey {
        let mut bytes = Vec::with_capacity(16);
        let (kind, student, history_len) = match req {
            JobRequest::Predict(r) => {
                bytes.push(b'p');
                bytes.extend_from_slice(&r.student.to_le_bytes());
                for h in &r.history {
                    bytes.extend_from_slice(&h.question.to_le_bytes());
                    bytes.push(h.correct as u8);
                }
                bytes.push(b'|');
                bytes.extend_from_slice(&r.target_question.to_le_bytes());
                (KeyKind::Predict, r.student, r.history.len())
            }
            JobRequest::Explain(r) => {
                bytes.push(b'e');
                bytes.extend_from_slice(&r.student.to_le_bytes());
                for h in &r.history {
                    bytes.extend_from_slice(&h.question.to_le_bytes());
                    bytes.push(h.correct as u8);
                }
                bytes.push(b'|');
                match r.target {
                    Some(t) => {
                        bytes.push(1);
                        bytes.extend_from_slice(&(t as u64).to_le_bytes());
                    }
                    None => bytes.push(0),
                }
                (KeyKind::Explain, r.student, r.history.len())
            }
        };
        SessionKey {
            model_hash,
            kind,
            student,
            history_len,
            content_hash: crate::fnv1a(&bytes),
        }
    }
}

struct Inner {
    map: HashMap<SessionKey, (u64, Outcome)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A small mutex-guarded LRU. Eviction scans for the oldest tick — O(n),
/// fine at the few-thousand-entry capacities used here and dependency-free.
pub struct SessionCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl SessionCache {
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
            capacity,
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &SessionKey) -> Option<Outcome> {
        let mut g = lock_recover(&self.inner);
        let tick = {
            g.tick += 1;
            g.tick
        };
        match g.map.get_mut(key) {
            Some(slot) => {
                slot.0 = tick;
                let out = slot.1.clone();
                g.hits += 1;
                Some(out)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a key, evicting the least-recently-used entry
    /// when full. A zero capacity disables caching entirely.
    ///
    /// Inserting also drops the same student's same-kind entries with a
    /// *shorter* history: in the dominant append-one traffic pattern those
    /// prefixes will never be asked again, so holding them only starves
    /// other students of capacity.
    pub fn put(&self, key: SessionKey, value: Outcome) {
        if self.capacity == 0 {
            return;
        }
        let mut g = lock_recover(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        let stale: Vec<SessionKey> = g
            .map
            .keys()
            .filter(|k| {
                k.model_hash == key.model_hash
                    && k.kind == key.kind
                    && k.student == key.student
                    && k.history_len < key.history_len
            })
            .cloned()
            .collect();
        if !stale.is_empty() {
            STALE_INVALIDATED.add(stale.len() as u64);
            for k in &stale {
                g.map.remove(k);
            }
        }
        if g.map.len() >= self.capacity && !g.map.contains_key(&key) {
            if let Some(oldest) = g
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                g.map.remove(&oldest);
                EVICTIONS.incr();
            }
        }
        g.map.insert(key, (tick, value));
        RESIDENT.set(g.map.len() as f64);
    }

    pub fn len(&self) -> usize {
        lock_recover(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        let g = lock_recover(&self.inner);
        (g.hits, g.misses)
    }

    /// Hit rate in `[0, 1]`, or 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = self.stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

struct StoreInner {
    map: HashMap<u32, (u64, IncrementalState)>,
    tick: u64,
    /// Σ `state_bytes()` over resident states, kept incrementally.
    bytes: usize,
}

/// Warm-path store: per-student [`IncrementalState`], LRU-evicted. The
/// batcher worker `take`s a student's state (exclusive ownership while it
/// appends) and `put`s it back; handlers never touch it, so the mutex is
/// uncontended in steady state.
pub struct SessionStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

impl SessionStore {
    pub fn new(capacity: usize) -> SessionStore {
        SessionStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            capacity,
        }
    }

    /// Maximum number of resident session states; 0 disables the warm path.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remove and return a student's state (the caller owns it until the
    /// next [`SessionStore::put`]).
    pub fn take(&self, student: u32) -> Option<IncrementalState> {
        let mut g = lock_recover(&self.inner);
        let state = g.map.remove(&student).map(|(_, s)| s);
        if let Some(s) = &state {
            g.bytes = g.bytes.saturating_sub(s.state_bytes());
        }
        state
    }

    /// Insert (or return) a student's state, evicting the least-recently
    /// used state when full. A zero capacity drops the state (warm path
    /// disabled).
    pub fn put(&self, student: u32, state: IncrementalState) {
        if self.capacity == 0 {
            return;
        }
        let mut g = lock_recover(&self.inner);
        g.tick += 1;
        let tick = g.tick;
        if g.map.len() >= self.capacity && !g.map.contains_key(&student) {
            if let Some(oldest) = g.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k) {
                if let Some((_, evicted)) = g.map.remove(&oldest) {
                    g.bytes = g.bytes.saturating_sub(evicted.state_bytes());
                }
                STATE_EVICTIONS.incr();
            }
        }
        g.bytes += state.state_bytes();
        g.map.insert(student, (tick, state));
        STATES_RESIDENT.set(g.map.len() as f64);
        STATE_BYTES.set(g.bytes as f64);
    }

    /// Number of resident session states.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident state size in bytes (the state-bytes gauge's value).
    pub fn state_bytes(&self) -> usize {
        lock_recover(&self.inner).bytes
    }

    /// Students with a resident state, in no particular order (test aid).
    pub fn resident_students(&self) -> Vec<u32> {
        lock_recover(&self.inner).map.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HistoryItem, PredictRequest};

    fn key_for(student: u32, history_len: usize, target_question: u32) -> SessionKey {
        let req = JobRequest::Predict(PredictRequest {
            student,
            history: (0..history_len)
                .map(|i| HistoryItem {
                    question: i as u32 + 1,
                    correct: i % 2 == 0,
                })
                .collect(),
            target_question,
        });
        SessionKey::for_request(0xfeed, &req)
    }

    fn item(student: u32, score: f32) -> Outcome {
        Outcome::Predict(PredictResponseItem { student, score })
    }

    fn score_of(o: &Outcome) -> f32 {
        match o {
            Outcome::Predict(p) => p.score,
            Outcome::Explain(_) => panic!("predict outcome expected"),
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let c = SessionCache::new(8);
        let k = key_for(1, 2, 9);
        assert!(c.get(&k).is_none());
        c.put(k.clone(), item(1, 0.25));
        let got = c.get(&k).unwrap();
        assert_eq!(score_of(&got), 0.25);
        assert_eq!(c.stats(), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_is_content_sensitive() {
        // Same student + same length but different answers or target must
        // produce distinct keys (no canonical-JSON collision semantics).
        let a = key_for(1, 3, 9);
        let mut req = PredictRequest {
            student: 1,
            history: (0..3)
                .map(|i| HistoryItem {
                    question: i as u32 + 1,
                    correct: i % 2 == 0,
                })
                .collect(),
            target_question: 9,
        };
        req.history[1].correct = !req.history[1].correct;
        let b = SessionKey::for_request(0xfeed, &JobRequest::Predict(req));
        assert_eq!(a.student, b.student);
        assert_eq!(a.history_len, b.history_len);
        assert_ne!(a, b, "flipping one answer must change the key");
        assert_ne!(a, key_for(1, 3, 10), "target question is part of the key");
        let other_model = SessionKey {
            model_hash: 0xbeef,
            ..a.clone()
        };
        assert_ne!(a, other_model, "model hash is part of the key");
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = SessionCache::new(2);
        let (ka, kb, kc) = (key_for(1, 1, 5), key_for(2, 1, 5), key_for(3, 1, 5));
        c.put(ka.clone(), item(1, 0.1));
        c.put(kb.clone(), item(2, 0.2));
        // Touch "a" so "b" becomes the LRU entry.
        assert!(c.get(&ka).is_some());
        c.put(kc.clone(), item(3, 0.3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&ka).is_some());
        assert!(c.get(&kb).is_none(), "LRU entry evicted");
        assert!(c.get(&kc).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let c = SessionCache::new(2);
        let (ka, kb) = (key_for(1, 1, 5), key_for(2, 1, 5));
        c.put(ka.clone(), item(1, 0.1));
        c.put(kb.clone(), item(2, 0.2));
        c.put(ka.clone(), item(1, 0.9));
        assert_eq!(c.len(), 2);
        assert_eq!(score_of(&c.get(&ka).unwrap()), 0.9);
        assert!(c.get(&kb).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = SessionCache::new(0);
        let k = key_for(1, 1, 5);
        c.put(k.clone(), item(1, 0.1));
        assert!(c.is_empty());
        assert!(c.get(&k).is_none());
    }

    #[test]
    fn appended_history_invalidates_stale_prefix_entries() {
        let c = SessionCache::new(8);
        let (s5_len2, s5_len3, s5_len4) = (key_for(5, 2, 9), key_for(5, 3, 9), key_for(5, 4, 9));
        let other_student = key_for(6, 2, 9);
        c.put(s5_len2.clone(), item(5, 0.2));
        c.put(other_student.clone(), item(6, 0.6));
        c.put(s5_len3.clone(), item(5, 0.3));
        assert!(
            c.get(&s5_len2).is_none(),
            "appending a response must invalidate the shorter-prefix entry"
        );
        assert!(c.get(&s5_len3).is_some());
        assert!(
            c.get(&other_student).is_some(),
            "other students' entries are untouched"
        );
        c.put(s5_len4.clone(), item(5, 0.4));
        assert!(c.get(&s5_len3).is_none());
        assert_eq!(c.len(), 2, "one live entry per student plus the other");
    }

    #[test]
    fn explain_entries_do_not_invalidate_predict_entries() {
        let c = SessionCache::new(8);
        let predict = key_for(5, 2, 9);
        c.put(predict.clone(), item(5, 0.2));
        let explain = SessionKey {
            kind: KeyKind::Explain,
            history_len: 4,
            ..predict.clone()
        };
        c.put(
            explain,
            Outcome::Predict(PredictResponseItem {
                student: 5,
                score: 0.0,
            }),
        );
        assert!(
            c.get(&predict).is_some(),
            "cross-kind entries must not invalidate each other"
        );
    }
}
