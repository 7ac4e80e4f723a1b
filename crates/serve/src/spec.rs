//! The speculation subsystem's knobs, counters, and ready-result index.
//!
//! The paper's wrong-path loads warm the WEC so later correct-path work
//! hits; wec-serve replays that one layer up.  Idle workers pre-execute
//! the sweep-axis neighbourhood ([`crate::predict::neighbourhood`]) of
//! every demand submission, park the results in the same warm memo /
//! disk store demand jobs use, and a later matching `POST /jobs` is
//! answered as a warm hit byte-identical to an on-demand run.  This
//! module holds the pieces that are not the queue or the candidate rule:
//! the lane's limits ([`SpecConfig`]), the stats block surfaced in
//! `/stats` v2 and `/metrics` ([`SpecStats`]), and the ready-result index
//! ([`SpecReady`]) that distinguishes a *speculative* warm hit (credit
//! the prefetcher) from an ordinary memo hit.
//!
//! Every started speculation reaches exactly one terminal account:
//!
//! ```text
//! hit + waste + cancelled + pending == started
//! ```
//!
//! `hit` — demand arrived while the job was queued/running/parked ready;
//! `waste` — the result sat unclaimed past the TTL; `cancelled` — the job
//! was reclaimed before executing (TTL in queue, drain purge) or failed;
//! `pending` — still in flight or parked within TTL.  The invariant is
//! enforced by construction: `pending` is *derived* in the snapshot, so it
//! holds on every scrape, not just quiescent ones.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::lock;

/// Limits of the speculative lane (`--speculate` takes the defaults;
/// tests shrink them to reach the lane-full and TTL paths).
#[derive(Clone, Debug)]
pub struct SpecConfig {
    /// Capacity of the low-priority speculative lane.
    pub queue_cap: usize,
    /// Max speculative jobs running on workers at once.
    pub inflight_max: usize,
    /// How long a queued speculation or an unclaimed ready result may
    /// live before it is reclaimed (cancelled / counted waste).
    pub ttl: Duration,
}

impl Default for SpecConfig {
    fn default() -> SpecConfig {
        SpecConfig {
            queue_cap: 64,
            inflight_max: 2,
            ttl: Duration::from_secs(30),
        }
    }
}

/// Point-in-time speculation counters for [`crate::state::StatsSnapshot`].
/// `pending` is derived (`started - hit - waste - cancelled`), so the
/// conservation invariant holds on every snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    pub started: u64,
    /// Demand submissions answered by a speculation (claimed while
    /// queued/running, or a parked ready result).
    pub hit: u64,
    /// Demand cold-path submissions no speculation anticipated.
    /// Not part of the conservation sum — misses are demand jobs, not
    /// speculations.
    pub miss: u64,
    /// Speculations whose results expired unclaimed.
    pub waste: u64,
    /// Speculations reclaimed before producing a result (queue TTL, drain
    /// purge, execution failure) — plus claims that arrived before the
    /// job left the queue, which convert it to an ordinary demand job.
    pub cancelled: u64,
    /// Started speculations not yet in a terminal account.
    pub pending: u64,
    /// The subset of `hit` answered synchronously from a parked ready
    /// result (`source:"spec"` on the job record).
    pub warm_hits: u64,
    pub queue_depth: u64,
    pub queue_cap: u64,
}

/// Results produced by speculation that no demand has claimed yet:
/// dedup key → server-clock ms at which the result was parked.  A demand
/// submission that finds its key here is a *speculative* warm hit (the
/// record's source is `spec`, not `mem`); an entry that outlives the TTL
/// is reclassified as waste and dropped — the memo entry itself stays, so
/// an even later demand is still an ordinary `mem` hit.
#[derive(Default)]
pub struct SpecReady {
    inner: Mutex<HashMap<String, u64>>,
}

impl SpecReady {
    pub fn new() -> SpecReady {
        SpecReady::default()
    }

    /// Park a freshly completed speculative result at time `now_ms`.
    pub fn publish(&self, key: &str, now_ms: u64) {
        lock(&self.inner).insert(key.to_string(), now_ms);
    }

    /// Claim the parked result for `key`, if any (exactly one claimant
    /// wins).  Returns the park time.
    pub fn claim(&self, key: &str) -> Option<u64> {
        lock(&self.inner).remove(key)
    }

    /// Drop every entry parked at or before `cutoff_ms`; returns how many
    /// were reclaimed (each is one `waste`).
    pub fn reap(&self, cutoff_ms: u64) -> u64 {
        let mut g = lock(&self.inner);
        let before = g.len();
        g.retain(|_, &mut t| t > cutoff_ms);
        (before - g.len()) as u64
    }

    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_claim_is_exactly_once() {
        let r = SpecReady::new();
        r.publish("sim|x|1|cfg", 100);
        assert_eq!(r.claim("sim|x|1|cfg"), Some(100));
        assert_eq!(r.claim("sim|x|1|cfg"), None, "second claimant loses");
        assert!(r.is_empty());
    }

    #[test]
    fn reap_drops_only_expired_entries() {
        let r = SpecReady::new();
        r.publish("a", 100);
        r.publish("b", 200);
        r.publish("c", 300);
        assert_eq!(r.reap(200), 2, "a and b at/past the cutoff");
        assert_eq!(r.claim("c"), Some(300), "fresh entry survives");
        assert_eq!(r.claim("a"), None);
    }

    #[test]
    fn snapshot_conservation_is_derived() {
        // pending = started - hit - waste - cancelled, computed where the
        // snapshot is built; here just pin the arithmetic shape.
        let started = 10u64;
        let (hit, waste, cancelled) = (4u64, 2u64, 1u64);
        let pending = started.saturating_sub(hit + waste + cancelled);
        assert_eq!(hit + waste + cancelled + pending, started);
    }
}
