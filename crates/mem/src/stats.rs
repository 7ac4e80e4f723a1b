//! Per-cache statistics.
//!
//! Figure 17 of the paper reports exactly these quantities: data-L1 traffic
//! (all accesses reaching the cache, including wrong-execution ones) and the
//! correct-path miss count.  Every cache-like structure in the machine keeps
//! one `CacheStats`, and the machine-level metrics aggregate them.

use wec_common::stats::{Counter, StatSet};

/// What kind of access is hitting a cache (the paper's taxonomy: §3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Correct-path demand load.
    CorrectLoad,
    /// Correct-path store.
    CorrectStore,
    /// Load issued down a resolved-wrong branch path.
    WrongPathLoad,
    /// Load issued by a thread known to be mis-speculated.
    WrongThreadLoad,
    /// Hardware prefetch (next-line).
    Prefetch,
    /// Instruction fetch.
    InstFetch,
}

impl AccessKind {
    /// Is this access *wrong execution* in the paper's sense (issued after
    /// the control speculation is known wrong)?
    #[inline]
    pub fn is_wrong(self) -> bool {
        matches!(
            self,
            AccessKind::WrongPathLoad | AccessKind::WrongThreadLoad
        )
    }

    /// Does this access count toward correct-path demand statistics?
    #[inline]
    pub fn is_correct_demand(self) -> bool {
        matches!(self, AccessKind::CorrectLoad | AccessKind::CorrectStore)
    }
}

/// Counters for one cache structure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Correct-path demand accesses (loads + stores).
    pub demand_accesses: Counter,
    /// Correct-path demand misses (in this structure alone).
    pub demand_misses: Counter,
    /// Correct-path demand misses that also missed every side structure and
    /// went to the next level ("effective" misses — what the WEC reduces).
    pub demand_misses_to_next_level: Counter,
    /// Wrong-execution accesses (the Figure 17 traffic increase).
    pub wrong_accesses: Counter,
    /// Wrong-execution misses that went to the next level.
    pub wrong_misses_to_next_level: Counter,
    /// Prefetches issued from this structure.
    pub prefetches_issued: Counter,
    /// Instruction fetch accesses.
    pub ifetch_accesses: Counter,
    /// Instruction fetch misses.
    pub ifetch_misses: Counter,
    /// Valid blocks displaced.
    pub evictions: Counter,
    /// Dirty blocks written back to the next level.
    pub writebacks: Counter,
    /// Hits served by a side structure (WEC / victim cache / prefetch
    /// buffer) on a miss in this structure.
    pub side_hits: Counter,
    /// Correct-path hits on blocks a wrong execution brought in — the
    /// paper's indirect prefetching effect, observed.
    pub useful_wrong_fetches: Counter,
    /// Correct-path hits on hardware-prefetched blocks.
    pub useful_prefetches: Counter,
}

impl CacheStats {
    /// Record a demand/wrong/ifetch access and whether it hit this structure.
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        match kind {
            AccessKind::CorrectLoad | AccessKind::CorrectStore => {
                self.demand_accesses.inc();
                if !hit {
                    self.demand_misses.inc();
                }
            }
            AccessKind::WrongPathLoad | AccessKind::WrongThreadLoad => {
                self.wrong_accesses.inc();
            }
            AccessKind::Prefetch => {}
            AccessKind::InstFetch => {
                self.ifetch_accesses.inc();
                if !hit {
                    self.ifetch_misses.inc();
                }
            }
        }
    }

    /// Total accesses that reached this cache (Figure 17's "traffic").
    pub fn total_traffic(&self) -> u64 {
        self.demand_accesses.get() + self.wrong_accesses.get()
    }

    /// Demand miss rate (0 when idle).
    pub fn demand_miss_rate(&self) -> f64 {
        let acc = self.demand_accesses.get();
        if acc == 0 {
            0.0
        } else {
            self.demand_misses.get() as f64 / acc as f64
        }
    }

    /// Dump into a [`StatSet`] with the given namespace prefix.
    pub fn dump(&self, out: &mut StatSet, prefix: &str) {
        let mut put = |name: &str, v: u64| out.push(format!("{prefix}.{name}"), v);
        put("demand_accesses", self.demand_accesses.get());
        put("demand_misses", self.demand_misses.get());
        put(
            "demand_misses_to_next_level",
            self.demand_misses_to_next_level.get(),
        );
        put("wrong_accesses", self.wrong_accesses.get());
        put(
            "wrong_misses_to_next_level",
            self.wrong_misses_to_next_level.get(),
        );
        put("prefetches_issued", self.prefetches_issued.get());
        put("ifetch_accesses", self.ifetch_accesses.get());
        put("ifetch_misses", self.ifetch_misses.get());
        put("evictions", self.evictions.get());
        put("writebacks", self.writebacks.get());
        put("side_hits", self.side_hits.get());
        put("useful_wrong_fetches", self.useful_wrong_fetches.get());
        put("useful_prefetches", self.useful_prefetches.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify() {
        assert!(AccessKind::WrongPathLoad.is_wrong());
        assert!(AccessKind::WrongThreadLoad.is_wrong());
        assert!(!AccessKind::CorrectLoad.is_wrong());
        assert!(AccessKind::CorrectStore.is_correct_demand());
        assert!(!AccessKind::Prefetch.is_correct_demand());
    }

    #[test]
    fn record_buckets_by_kind() {
        let mut s = CacheStats::default();
        s.record(AccessKind::CorrectLoad, false);
        s.record(AccessKind::CorrectStore, true);
        s.record(AccessKind::WrongPathLoad, false);
        s.record(AccessKind::InstFetch, false);
        assert_eq!(s.demand_accesses.get(), 2);
        assert_eq!(s.demand_misses.get(), 1);
        assert_eq!(s.wrong_accesses.get(), 1);
        assert_eq!(s.ifetch_misses.get(), 1);
        assert_eq!(s.total_traffic(), 3);
        assert!((s.demand_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dump_namespaces_keys() {
        let mut s = CacheStats::default();
        s.record(AccessKind::CorrectLoad, false);
        let mut out = StatSet::new();
        s.dump(&mut out, "tu0.l1d");
        assert_eq!(out.get("tu0.l1d.demand_accesses"), Some(1));
        assert_eq!(out.get("tu0.l1d.demand_misses"), Some(1));
    }

    #[test]
    fn miss_rate_idle_is_zero() {
        assert_eq!(CacheStats::default().demand_miss_rate(), 0.0);
    }
}
