//! The backend ring: rendezvous hashing plus per-backend health state.
//!
//! Rendezvous (highest-random-weight) hashing gives every `(job key,
//! backend)` pair a deterministic weight; the routable backend with the
//! highest weight owns the key.  Unlike a mod-N ring, removing a backend
//! only moves the keys it owned — every other key keeps its owner, which
//! is what keeps cross-node dedup and warm memos intact through a node
//! death.  The fail-over order for a key is simply the remaining
//! candidates in descending weight, so two routers (or one router before
//! and after a crash) always agree on where a key lives.
//!
//! Weights hash the backend's *address* (the stable configuration input),
//! not its display id: the id is adopted lazily from the backend's own
//! `--backend-id` at first stats scrape and must not reshuffle the ring.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wec_serve::http::Client;

use crate::lock;

/// Health of one backend, as last observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendState {
    /// Answering `/healthz` and accepting jobs.
    Healthy,
    /// Alive but refusing new jobs (it announced `"draining":true` or
    /// answered a submit with `X-Wec-Draining`); its keys re-shard.
    Draining,
    /// `dead_after` consecutive failures; skipped until a probe succeeds.
    Dead,
}

impl BackendState {
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Healthy => "healthy",
            BackendState::Draining => "draining",
            BackendState::Dead => "dead",
        }
    }

    fn from_u8(v: u8) -> BackendState {
        match v {
            0 => BackendState::Healthy,
            1 => BackendState::Draining,
            _ => BackendState::Dead,
        }
    }
}

/// One backend: the client for its configured address (which keeps the
/// backend's idle connections), its display identity (adopted from the
/// backend's own `--backend-id` once scraped), and its observed health.
/// All mutation is atomic — the health thread, the proxy threads, and the
/// stats scraper touch this concurrently.
pub struct Backend {
    pub client: Client,
    /// Display id; starts as `addr`, replaced by the backend's announced
    /// `backend_id` at first successful stats scrape.
    id: Mutex<String>,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// Jobs this router proxied to this backend (successful submits).
    pub routed: AtomicU64,
}

impl Backend {
    pub fn new(addr: &str) -> Backend {
        Backend {
            client: Client::new(addr),
            id: Mutex::new(addr.to_string()),
            state: AtomicU8::new(0),
            consecutive_failures: AtomicU32::new(0),
            routed: AtomicU64::new(0),
        }
    }

    pub fn addr(&self) -> &str {
        self.client.addr()
    }

    pub fn id(&self) -> String {
        lock(&self.id).clone()
    }

    /// Adopt the identity the backend itself announces (non-empty only).
    pub fn adopt_id(&self, id: &str) {
        if !id.is_empty() {
            *lock(&self.id) = id.to_string();
        }
    }

    pub fn state(&self) -> BackendState {
        BackendState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub fn failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::SeqCst)
    }

    /// A submit may be routed here.
    pub fn routable(&self) -> bool {
        self.state() == BackendState::Healthy
    }

    /// A successful exchange: clear the failure streak and resurrect a
    /// dead backend.  A draining backend stays draining — it answers
    /// probes fine but must not take new jobs.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        let _ = self.state.compare_exchange(
            2, // Dead
            0, // Healthy
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// A failed exchange (connect error, timeout, malformed response):
    /// after `dead_after` in a row the backend is declared dead.
    pub fn record_failure(&self, dead_after: u32) {
        let n = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= dead_after {
            self.state.store(2, Ordering::SeqCst);
        }
    }

    pub fn mark_draining(&self) {
        self.state.store(1, Ordering::SeqCst);
    }

    fn mark_healthy(&self) {
        self.state.store(0, Ordering::SeqCst);
    }
}

/// FNV-1a, the workspace's stock stable hash.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The rendezvous weight of `(key, addr)`.
pub fn weight(key: &str, addr: &str) -> u64 {
    let h = fnv1a(0xcbf2_9ce4_8422_2325, key.as_bytes());
    let h = fnv1a(h, b"|");
    fnv1a(h, addr.as_bytes())
}

/// The backend table.  The membership is fixed at startup (configuration
/// defines the ring); only health states change at runtime.
pub struct Ring {
    pub backends: Vec<Backend>,
}

impl Ring {
    /// Build the ring; duplicate addresses are rejected (they would split
    /// one node's keys across two identical entries).
    pub fn new(addrs: &[String]) -> Result<Ring, String> {
        if addrs.is_empty() {
            return Err("at least one backend is required".to_string());
        }
        for (i, a) in addrs.iter().enumerate() {
            if a.is_empty() {
                return Err("backend address must be non-empty".to_string());
            }
            if addrs[..i].contains(a) {
                return Err(format!("duplicate backend address {a:?}"));
            }
        }
        Ok(Ring {
            backends: addrs.iter().map(|a| Backend::new(a)).collect(),
        })
    }

    /// Every backend index in fail-over order for `key`: descending
    /// rendezvous weight, index as the (unreachable in practice)
    /// tiebreak.  Health is *not* consulted — callers walk the order and
    /// skip unroutable entries, so the sequence is stable while states
    /// flap.
    pub fn candidates(&self, key: &str) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| (weight(key, b.addr()), i))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// The routable owner of `key`, if any backend is currently routable.
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.candidates(key)
            .into_iter()
            .find(|&i| self.backends[i].routable())
    }

    /// One health pass: probe every backend's `/healthz`, each on a fresh
    /// connection, and fold the answers into the ring.  A healthy answer
    /// with `"draining":true` marks the backend draining; a healthy answer
    /// without it clears a previous draining mark (the daemon restarted).
    pub fn health_pass(&self, timeout: Duration, dead_after: u32) {
        for b in &self.backends {
            match b.client.probe("/healthz", timeout) {
                Ok(resp) if resp.status == 200 => {
                    b.record_success();
                    let draining = resp
                        .body_utf8()
                        .map(|t| t.contains("\"draining\":true"))
                        .unwrap_or(false);
                    if draining {
                        b.mark_draining();
                    } else if b.state() == BackendState::Draining {
                        b.mark_healthy();
                    }
                }
                _ => b.record_failure(dead_after),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Ring {
        Ring::new(&[
            "127.0.0.1:8501".to_string(),
            "127.0.0.1:8502".to_string(),
            "127.0.0.1:8503".to_string(),
        ])
        .unwrap()
    }

    #[test]
    fn membership_is_validated() {
        assert!(Ring::new(&[]).is_err());
        assert!(Ring::new(&["".to_string()]).is_err());
        assert!(Ring::new(&["a:1".to_string(), "a:1".to_string()]).is_err());
    }

    #[test]
    fn candidate_order_is_deterministic_and_complete() {
        let r = ring3();
        for key in ["sim|181.mcf|1|x", "sim|164.gzip|2|y", "replay|t|z"] {
            let a = r.candidates(key);
            let b = ring3().candidates(key);
            assert_eq!(a, b, "{key}");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "every backend appears once");
        }
    }

    #[test]
    fn keys_spread_across_backends() {
        let r = ring3();
        let mut owned = [0u32; 3];
        for i in 0..300 {
            let key = format!("sim|bench{i}|1|cfg");
            owned[r.candidates(&key)[0]] += 1;
        }
        for (i, n) in owned.iter().enumerate() {
            assert!(*n > 30, "backend {i} owns only {n}/300 keys: {owned:?}");
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        let r = ring3();
        for i in 0..100 {
            let key = format!("sim|bench{i}|1|cfg");
            let order = r.candidates(&key);
            if order[0] != 2 {
                // Kill backend 2: keys it did not own keep their owner.
                r.backends[2].record_failure(1);
                assert_eq!(r.owner(&key), Some(order[0]), "{key}");
                r.backends[2].record_success();
            }
        }
    }

    #[test]
    fn owner_skips_draining_and_dead_in_failover_order() {
        let r = ring3();
        let key = "sim|181.mcf|1|cfg";
        let order = r.candidates(key);
        assert_eq!(r.owner(key), Some(order[0]));
        r.backends[order[0]].mark_draining();
        assert_eq!(r.owner(key), Some(order[1]));
        r.backends[order[1]].record_failure(1);
        assert_eq!(r.owner(key), Some(order[2]));
        r.backends[order[2]].record_failure(1);
        assert_eq!(r.owner(key), None);
        // Resurrection: one success re-opens a dead backend.
        r.backends[order[1]].record_success();
        assert_eq!(r.owner(key), Some(order[1]));
    }

    #[test]
    fn death_requires_consecutive_failures() {
        let b = Backend::new("127.0.0.1:1");
        b.record_failure(3);
        b.record_failure(3);
        assert_eq!(b.state(), BackendState::Healthy);
        b.record_success();
        b.record_failure(3);
        b.record_failure(3);
        assert_eq!(b.state(), BackendState::Healthy, "streak was reset");
        b.record_failure(3);
        assert_eq!(b.state(), BackendState::Dead);
    }

    #[test]
    fn ids_start_as_the_address_and_adopt_announcements() {
        let b = Backend::new("127.0.0.1:9");
        assert_eq!(b.id(), "127.0.0.1:9");
        b.adopt_id("");
        assert_eq!(b.id(), "127.0.0.1:9", "empty announcements are ignored");
        b.adopt_id("node-a");
        assert_eq!(b.id(), "node-a");
    }
}
