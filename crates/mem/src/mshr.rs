//! Miss-status holding registers: outstanding-miss tracking.
//!
//! When a block is already being fetched, a second access to it must merge
//! into the in-flight miss (one refill, one unit of L2 traffic) instead of
//! issuing again; and when all MSHRs are busy, new misses must stall.  Both
//! effects matter for the paper's mechanisms: wrong-execution loads often
//! touch blocks correct execution is about to miss on, and the merge is
//! precisely how a late wrong-execution prefetch still shortens the correct
//! miss.
//!
//! Every L1 and L2 access first expires the refills that have completed.
//! The file remembers its earliest outstanding completion, so until that
//! cycle the expiry returns without looking at an entry.

use wec_common::ids::{Addr, Cycle};

/// Outcome of registering a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the caller should issue the refill.
    /// The access completes at the returned cycle.
    NewMiss(Cycle),
    /// Merged into an in-flight miss for the same block; completes when the
    /// existing refill does.
    Merged(Cycle),
    /// All MSHRs busy — the access must retry next cycle.
    Full,
}

/// A small file of outstanding misses, keyed by block base address.
#[derive(Clone, Debug)]
pub struct Mshrs {
    entries: Vec<(Addr, Cycle)>,
    /// The earliest completion among `entries` (`Cycle(u64::MAX)` when
    /// empty): nothing expires before it.
    earliest: Cycle,
    capacity: usize,
    block_bytes: u64,
}

impl Mshrs {
    pub fn new(capacity: usize, block_bytes: u64) -> Self {
        assert!(capacity >= 1);
        Mshrs {
            entries: Vec::with_capacity(capacity),
            earliest: Cycle(u64::MAX),
            capacity,
            block_bytes,
        }
    }

    /// Drop entries whose refill completed at or before `now`.
    fn expire(&mut self, now: Cycle) {
        if now < self.earliest {
            return;
        }
        self.entries.retain(|&(_, ready)| ready > now);
        self.earliest = self
            .entries
            .iter()
            .map(|&(_, ready)| ready)
            .min()
            .unwrap_or(Cycle(u64::MAX));
    }

    /// Is a refill for the block containing `addr` already in flight? If so,
    /// when does it complete?
    pub fn pending(&mut self, addr: Addr, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        if self.entries.is_empty() {
            return None;
        }
        let base = addr.block_base(self.block_bytes);
        self.entries
            .iter()
            .find(|&&(a, _)| a == base)
            .map(|&(_, ready)| ready)
    }

    /// Register a miss for the block containing `addr`. `fetch` is called
    /// only if a new refill must be issued and returns its completion cycle.
    pub fn register(
        &mut self,
        addr: Addr,
        now: Cycle,
        fetch: impl FnOnce() -> Cycle,
    ) -> MshrOutcome {
        self.expire(now);
        let base = addr.block_base(self.block_bytes);
        if let Some(&(_, ready)) = self.entries.iter().find(|&&(a, _)| a == base) {
            return MshrOutcome::Merged(ready);
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let ready = fetch();
        debug_assert!(ready > now, "refill must take at least one cycle");
        self.entries.push((base, ready));
        self.earliest = self.earliest.min(ready);
        MshrOutcome::NewMiss(ready)
    }

    /// Outstanding misses right now.
    pub fn in_flight(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_miss_then_merge() {
        let mut m = Mshrs::new(4, 64);
        let r = m.register(Addr(0x100), Cycle(10), || Cycle(210));
        assert_eq!(r, MshrOutcome::NewMiss(Cycle(210)));
        // Different byte, same block: merges without a second fetch.
        let r = m.register(Addr(0x13f), Cycle(11), || panic!("must not refetch"));
        assert_eq!(r, MshrOutcome::Merged(Cycle(210)));
        assert_eq!(m.in_flight(Cycle(11)), 1);
    }

    #[test]
    fn full_when_capacity_reached() {
        let mut m = Mshrs::new(2, 64);
        m.register(Addr(0x000), Cycle(0), || Cycle(100));
        m.register(Addr(0x040), Cycle(0), || Cycle(100));
        let r = m.register(Addr(0x080), Cycle(0), || Cycle(100));
        assert_eq!(r, MshrOutcome::Full);
    }

    #[test]
    fn entries_expire_when_refill_completes() {
        let mut m = Mshrs::new(1, 64);
        m.register(Addr(0x000), Cycle(0), || Cycle(50));
        assert_eq!(m.in_flight(Cycle(49)), 1);
        assert_eq!(m.in_flight(Cycle(50)), 0);
        // Capacity is free again.
        let r = m.register(Addr(0x040), Cycle(50), || Cycle(99));
        assert!(matches!(r, MshrOutcome::NewMiss(_)));
    }

    #[test]
    fn pending_lookup() {
        let mut m = Mshrs::new(2, 64);
        assert_eq!(m.pending(Addr(0x100), Cycle(0)), None);
        m.register(Addr(0x100), Cycle(0), || Cycle(30));
        assert_eq!(m.pending(Addr(0x108), Cycle(1)), Some(Cycle(30)));
        assert_eq!(m.pending(Addr(0x100), Cycle(30)), None);
    }

    #[test]
    fn each_refill_expires_at_its_own_cycle() {
        // The later refill registers first, so the earliest completion
        // drops after it was set; after the first expiry the file must
        // wait for the second refill's own cycle.
        let mut m = Mshrs::new(4, 64);
        m.register(Addr(0x000), Cycle(0), || Cycle(80));
        m.register(Addr(0x040), Cycle(1), || Cycle(40));
        assert_eq!(m.in_flight(Cycle(39)), 2);
        assert_eq!(m.in_flight(Cycle(40)), 1);
        assert_eq!(m.pending(Addr(0x040), Cycle(40)), None);
        assert_eq!(m.pending(Addr(0x000), Cycle(79)), Some(Cycle(80)));
        assert_eq!(m.in_flight(Cycle(79)), 1);
        assert_eq!(m.in_flight(Cycle(80)), 0);
        assert_eq!(m.pending(Addr(0x000), Cycle(80)), None);
        // Empty again: a new refill starts a fresh earliest completion.
        m.register(Addr(0x080), Cycle(90), || Cycle(120));
        assert_eq!(m.in_flight(Cycle(119)), 1);
        assert_eq!(m.in_flight(Cycle(120)), 0);
    }
}
