//! The fully-associative side structure beside each L1 data cache: the
//! paper's Wrong Execution Cache, the victim cache, or the `nlp` prefetch
//! buffer (2 to 128 entries in the geometry sweep of Figs. 15–16).
//!
//! Replacement is exact LRU, with a free slot used first: the choice
//! [`Cache`](crate::cache::Cache) makes within a set.  Two structures keep
//! the common operations off a scan of every entry:
//!
//! * a **counting miss filter**: one count of resident blocks per hash
//!   bucket (4 × entries buckets, at least 16).  Most probes miss the side
//!   structure; a probe whose bucket counts zero is answered without
//!   looking at a slot.  Otherwise the slots are scanned.
//! * a **recency list**: a doubly-linked list over the occupied slots,
//!   most recently used at the head, plus a stack of free slots.  The
//!   victim is the tail.

use crate::cache::Evicted;
use crate::line::LineFlags;
use wec_common::ids::Addr;

/// Block number of a free slot.  No real block reaches it: a block number
/// is the address shifted right past the block-offset bits.
const EMPTY: u64 = u64::MAX;

/// End of a slot list.
const NIL: u16 = u16::MAX;

/// Odd multiplier of the filter hash (2^64 over the golden ratio); a
/// bucket is the top bits of the product with the block number.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The side structure's tag store: block numbers and flags per slot, with
/// a miss filter and an LRU list over them.  Probes that the filter
/// rejects are O(1); hits and filter false positives scan the slots.
/// Inserts, takes and touches are O(1) beyond that probe.
///
/// ```
/// use wec_common::ids::Addr;
/// use wec_mem::line::LineFlags;
/// use wec_mem::side::SideCache;
///
/// // The paper's default WEC: 8 entries of 64-byte blocks.
/// let mut wec = SideCache::new(8, 64);
/// assert!(wec.insert(Addr(0x1000), LineFlags::WRONG).is_none());
/// assert!(wec.contains(Addr(0x103f)));            // same block
/// // A correct-path hit takes the block out (it swaps into the L1).
/// assert!(wec.take(Addr(0x1000)).unwrap().wrong_fetched);
/// assert_eq!(wec.occupancy(), 0);
/// ```
pub struct SideCache {
    /// `log2(block_bytes)`: address → block number.
    block_shift: u32,
    /// `64 - log2(buckets)`: hash → bucket.
    bucket_shift: u32,
    /// Block number per slot (`EMPTY` when free), scanned on a probe the
    /// filter does not reject.
    blocks: Vec<u64>,
    /// Recency links and flags per slot.
    links: Vec<Link>,
    /// Ends of the recency list over the occupied slots: most and least
    /// recently used.
    head: u16,
    tail: u16,
    /// First free slot; free slots chain through their `next` links, as a
    /// stack.
    free: u16,
    /// Occupied slots.
    len: usize,
    /// Resident blocks per filter bucket.  No count can exceed the entry
    /// count, which [`SideCache::MAX_ENTRIES`] keeps within `u16`.
    counts: Vec<u16>,
}

/// One slot's place in the recency list (or the free stack) and its flags.
#[derive(Clone, Copy)]
struct Link {
    /// Towards the head (most recently used).
    prev: u16,
    /// Towards the tail (least recently used), or the next free slot.
    next: u16,
    flags: LineFlags,
}

impl SideCache {
    /// Largest entry count: slot indexes, and so filter counts, fit in a
    /// `u16` beside the `NIL` link.
    pub const MAX_ENTRIES: usize = NIL as usize;

    /// Panics unless `1 ≤ entries ≤ MAX_ENTRIES` and `block_bytes` is a
    /// power of two.
    pub fn new(entries: usize, block_bytes: u64) -> Self {
        assert!(
            (1..=Self::MAX_ENTRIES).contains(&entries),
            "side structure of {entries} entries (1..={} allowed)",
            Self::MAX_ENTRIES
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size {block_bytes} not a power of two"
        );
        let buckets = (4 * entries).next_power_of_two().max(16);
        // Every slot starts free, chained in index order.
        let links = (1..=entries)
            .map(|next| Link {
                prev: NIL,
                next: if next == entries { NIL } else { next as u16 },
                flags: LineFlags::DEMAND,
            })
            .collect();
        SideCache {
            block_shift: block_bytes.trailing_zeros(),
            bucket_shift: 64 - buckets.trailing_zeros(),
            blocks: vec![EMPTY; entries],
            links,
            head: NIL,
            tail: NIL,
            free: 0,
            len: 0,
            counts: vec![0; buckets],
        }
    }

    /// Resident blocks.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    #[inline]
    fn block(&self, addr: Addr) -> u64 {
        let block = addr.0 >> self.block_shift;
        debug_assert_ne!(block, EMPTY, "{addr:?} aliases the empty slot");
        block
    }

    #[inline]
    fn bucket(&self, block: u64) -> usize {
        (block.wrapping_mul(HASH_MUL) >> self.bucket_shift) as usize
    }

    /// Slot holding `block` (whose filter bucket is `bucket`), if
    /// resident: the filter first, then a scan.
    #[inline]
    fn slot_of(&self, block: u64, bucket: usize) -> Option<usize> {
        if self.counts[bucket] == 0 {
            return None;
        }
        self.blocks.iter().position(|&b| b == block)
    }

    /// Slot of `addr`'s block, if resident.
    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let block = self.block(addr);
        self.slot_of(block, self.bucket(block))
    }

    /// Detach an occupied slot from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Link { prev, next, .. } = self.links[slot];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
    }

    /// Attach a detached slot at the head, as most recently used.
    fn push_head(&mut self, slot: usize) {
        let link = &mut self.links[slot];
        link.prev = NIL;
        link.next = self.head;
        if self.head == NIL {
            self.tail = slot as u16;
        } else {
            self.links[self.head as usize].prev = slot as u16;
        }
        self.head = slot as u16;
    }

    fn make_mru(&mut self, slot: usize) {
        if self.head as usize != slot {
            self.unlink(slot);
            self.push_head(slot);
        }
    }

    /// Does the structure hold the block containing `addr`? (No LRU
    /// update.)
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Flags of a resident block, without touching LRU state.
    pub fn peek(&self, addr: Addr) -> Option<LineFlags> {
        self.find(addr).map(|slot| self.links[slot].flags)
    }

    /// Hit path: if resident, make the block most recently used and return
    /// its flags.
    pub fn touch(&mut self, addr: Addr) -> Option<LineFlags> {
        let slot = self.find(addr)?;
        self.make_mru(slot);
        Some(self.links[slot].flags)
    }

    /// Insert the block containing `addr` as most recently used, into a
    /// free slot if there is one, else over the least recently used block,
    /// which is returned.  A resident block gets the new flags and becomes
    /// most recently used (no eviction).
    pub fn insert(&mut self, addr: Addr, flags: LineFlags) -> Option<Evicted> {
        let block = self.block(addr);
        let bucket = self.bucket(block);
        if let Some(slot) = self.slot_of(block, bucket) {
            self.links[slot].flags = flags;
            self.make_mru(slot);
            return None;
        }
        let (slot, evicted) = if self.free != NIL {
            let slot = self.free as usize;
            self.free = self.links[slot].next;
            self.len += 1;
            (slot, None)
        } else {
            let slot = self.tail as usize;
            let old = self.blocks[slot];
            self.unlink(slot);
            let old_bucket = self.bucket(old);
            self.counts[old_bucket] -= 1;
            let evicted = Evicted {
                addr: Addr(old << self.block_shift),
                flags: self.links[slot].flags,
            };
            (slot, Some(evicted))
        };
        self.blocks[slot] = block;
        self.links[slot].flags = flags;
        self.counts[bucket] += 1;
        self.push_head(slot);
        evicted
    }

    /// Remove the block containing `addr` and return its flags (the swap
    /// paths: WEC → L1, victim cache → L1, prefetch buffer → L1).
    pub fn take(&mut self, addr: Addr) -> Option<LineFlags> {
        let block = self.block(addr);
        let bucket = self.bucket(block);
        let slot = self.slot_of(block, bucket)?;
        self.unlink(slot);
        self.counts[bucket] -= 1;
        self.blocks[slot] = EMPTY;
        self.links[slot].next = self.free;
        self.free = slot as u16;
        self.len -= 1;
        Some(self.links[slot].flags)
    }

    /// Structural invariants (tests and debug builds): the filter counts
    /// equal a recount of the resident blocks, no block is resident twice,
    /// the recency list links exactly the occupied slots in both
    /// directions, the free stack chains exactly the other slots, and the
    /// occupancy count matches.
    #[cfg(any(test, debug_assertions))]
    pub fn check(&self) -> Result<(), String> {
        let n = self.blocks.len();
        let resident: Vec<u64> = self
            .blocks
            .iter()
            .copied()
            .filter(|&b| b != EMPTY)
            .collect();
        let mut counts = vec![0u16; self.counts.len()];
        for &b in &resident {
            counts[self.bucket(b)] += 1;
        }
        if counts != self.counts {
            return Err("filter counts differ from a recount of the resident blocks".into());
        }
        let mut distinct = resident.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != resident.len() {
            return Err("a block is resident in two slots".into());
        }
        if self.len != resident.len() {
            return Err(format!(
                "occupancy reads {} but {} slots are occupied",
                self.len,
                resident.len()
            ));
        }
        // Each slot is visited at most once, by the recency list or the
        // free stack.
        let mut seen = vec![false; n];
        let (mut slot, mut prev, mut listed) = (self.head, NIL, 0);
        while slot != NIL {
            let s = slot as usize;
            if s >= n || seen[s] || self.blocks[s] == EMPTY {
                return Err(format!("recency list reaches slot {s} twice or while free"));
            }
            if self.links[s].prev != prev {
                return Err(format!(
                    "slot {s} links back to {} not {prev}",
                    self.links[s].prev
                ));
            }
            seen[s] = true;
            listed += 1;
            (prev, slot) = (slot, self.links[s].next);
        }
        if self.tail != prev {
            return Err(format!("tail is {} but the list ends at {prev}", self.tail));
        }
        if listed != resident.len() {
            return Err(format!(
                "recency list holds {listed} slots, {} are occupied",
                resident.len()
            ));
        }
        let (mut slot, mut free) = (self.free, 0);
        while slot != NIL {
            let s = slot as usize;
            if s >= n || seen[s] || self.blocks[s] != EMPTY {
                return Err(format!(
                    "free stack reaches slot {s} twice or while occupied"
                ));
            }
            seen[s] = true;
            free += 1;
            slot = self.links[s].next;
        }
        if free + listed != n {
            return Err(format!(
                "{free} free and {listed} occupied slots, {n} entries"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(entries: usize) -> SideCache {
        SideCache::new(entries, 64)
    }

    fn insert(s: &mut SideCache, addr: u64) -> Option<Evicted> {
        let ev = s.insert(Addr(addr), LineFlags::DEMAND);
        s.check().unwrap();
        ev
    }

    #[test]
    fn new_rejects_zero_entries_and_bad_block_size() {
        for (entries, block) in [(0, 64), (SideCache::MAX_ENTRIES + 1, 64), (8, 48)] {
            assert!(
                std::panic::catch_unwind(|| SideCache::new(entries, block)).is_err(),
                "{entries} entries of {block} bytes"
            );
        }
        // The largest structure the slot links can name still builds.
        SideCache::new(SideCache::MAX_ENTRIES, 64).check().unwrap();
    }

    #[test]
    fn filter_has_four_buckets_per_entry_and_at_least_sixteen() {
        for (entries, buckets) in [
            (1, 16),
            (2, 16),
            (8, 32),
            (24, 128),
            (128, 512),
            (255, 1024),
        ] {
            assert_eq!(side(entries).counts.len(), buckets, "{entries} entries");
        }
    }

    #[test]
    fn insert_existing_block_updates_flags_without_eviction() {
        let mut c = side(2);
        let a = Addr(0x100);
        c.insert(a, LineFlags::WRONG);
        assert!(c.peek(a).unwrap().wrong_fetched);
        assert!(c.insert(a, LineFlags::DEMAND).is_none());
        assert!(!c.peek(a).unwrap().wrong_fetched);
        assert_eq!(c.occupancy(), 1);
        c.check().unwrap();
    }

    #[test]
    fn take_removes_for_swap() {
        let mut c = side(4);
        let a = Addr(0x40);
        c.insert(a, LineFlags::PREFETCH);
        assert!(c.take(a).unwrap().prefetched);
        assert!(!c.contains(a));
        assert!(c.take(a).is_none());
        c.check().unwrap();
    }

    #[test]
    fn insert_after_take_refills_the_vacated_slot() {
        // A full structure with a hole that is not its LRU slot: the next
        // insert fills the hole and evicts nothing.
        let mut c = side(4);
        for i in 0..4u64 {
            insert(&mut c, i * 64);
        }
        c.take(Addr(2 * 64)).unwrap();
        assert!(insert(&mut c, 9 * 64).is_none());
        assert_eq!(c.occupancy(), 4);
        // Block 0 is still the LRU entry and goes next.
        assert_eq!(insert(&mut c, 10 * 64).unwrap().addr, Addr(0));
    }

    #[test]
    fn fills_all_entries_before_evicting() {
        let mut c = side(8);
        for i in 0..8u64 {
            assert!(insert(&mut c, i * 64).is_none());
        }
        assert_eq!(c.occupancy(), 8);
        let ev = insert(&mut c, 8 * 64).unwrap();
        assert_eq!(ev.addr, Addr(0)); // first-inserted is LRU
    }

    #[test]
    fn filter_collisions_still_find_the_right_block() {
        // Blocks whose filter bucket is shared: a probe for one must scan,
        // and taking one must leave the other findable.
        let mut c = side(2);
        let base = 7u64;
        let twin = (base + 1..)
            .find(|&b| c.bucket(b) == c.bucket(base))
            .unwrap();
        insert(&mut c, base * 64);
        assert!(!c.contains(Addr(twin * 64)), "shared bucket, absent block");
        insert(&mut c, twin * 64);
        assert_eq!(c.counts[c.bucket(base)], 2);
        c.take(Addr(base * 64)).unwrap();
        assert!(c.contains(Addr(twin * 64)) && !c.contains(Addr(base * 64)));
        c.check().unwrap();
    }
}
