//! Set-associative tag array with true LRU replacement.
//!
//! One structure covers the machine's caches: the direct-mapped or 4-way
//! L1s (a direct-mapped cache is `ways = 1`) and the 4-way unified L2.
//! The small fully-associative side structures (WEC, victim cache,
//! prefetch buffer) have their own type, [`SideCache`](crate::side::SideCache).

use crate::line::LineFlags;
use wec_common::error::{SimError, SimResult};
use wec_common::ids::Addr;

/// Shape of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    pub sets: u64,
    pub ways: usize,
    pub block_bytes: u64,
}

impl CacheGeometry {
    /// Geometry from a total capacity: `total_bytes / ways / block_bytes`
    /// sets.  Errors unless everything divides into powers of two.
    pub fn from_capacity(total_bytes: u64, ways: usize, block_bytes: u64) -> SimResult<Self> {
        if !block_bytes.is_power_of_two() || block_bytes == 0 {
            return Err(SimError::Config(format!(
                "block size {block_bytes} not a power of two"
            )));
        }
        if ways == 0 || total_bytes == 0 {
            return Err(SimError::Config("zero ways or capacity".into()));
        }
        let per_way = total_bytes / ways as u64;
        if per_way * ways as u64 != total_bytes || !per_way.is_multiple_of(block_bytes) {
            return Err(SimError::Config(format!(
                "capacity {total_bytes} not divisible into {ways} ways of {block_bytes}B blocks"
            )));
        }
        let sets = per_way / block_bytes;
        if !sets.is_power_of_two() {
            return Err(SimError::Config(format!(
                "set count {sets} not a power of two"
            )));
        }
        Ok(CacheGeometry {
            sets,
            ways,
            block_bytes,
        })
    }

    pub fn total_bytes(&self) -> u64 {
        self.sets * self.ways as u64 * self.block_bytes
    }
}

/// A block pushed out of the cache by an insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the evicted block.
    pub addr: Addr,
    pub flags: LineFlags,
}

/// Tag of an invalid way.  No real tag reaches it: a tag is the address
/// shifted right past the block-offset bits.
const INVALID: u64 = u64::MAX;

/// The tag array.  All operations are O(associativity).
///
/// ```
/// use wec_common::ids::Addr;
/// use wec_mem::cache::{Cache, CacheGeometry};
/// use wec_mem::line::LineFlags;
///
/// // The paper's default L1D: 8 KB direct-mapped, 64-byte blocks.
/// let mut l1 = Cache::new(CacheGeometry::from_capacity(8 * 1024, 1, 64)?);
/// assert!(l1.insert(Addr(0x1000), LineFlags::DEMAND).is_none());
/// assert!(l1.contains(Addr(0x103f)));            // same block
/// // A conflicting block (8 KB away) evicts it:
/// let victim = l1.insert(Addr(0x3000), LineFlags::DEMAND).unwrap();
/// assert_eq!(victim.addr, Addr(0x1000));
/// # Ok::<(), wec_common::SimError>(())
/// ```
pub struct Cache {
    geom: CacheGeometry,
    /// `log2(block_bytes)`: address → block number.
    block_shift: u32,
    /// `log2(block_bytes * sets)`: address → tag.
    set_shift: u32,
    /// `sets - 1`: block number → set index.
    set_mask: u64,
    /// Tag (`INVALID` when empty), flags and last-touch stamp per way,
    /// flattened to `set * ways + way`.  A probe is one pass over a
    /// contiguous slice of `tags`.
    tags: Vec<u64>,
    flags: Vec<LineFlags>,
    /// 0 for an invalid way, else the clock at its last touch, so the
    /// first minimum of a set is its first invalid way, or else its exact
    /// LRU way.
    stamps: Vec<u64>,
    /// Global recency clock shared by all sets (only relative order within
    /// a set matters; stamps are unique, so the order is total).  Starts at
    /// 1 so that no valid way carries stamp 0.
    clock: u64,
}

impl Cache {
    /// Panics unless `sets` and `block_bytes` are powers of two and
    /// `ways ≥ 1`.  [`CacheGeometry::from_capacity`] guarantees all three;
    /// a struct literal may not.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            geom.sets.is_power_of_two(),
            "set count {} not a power of two",
            geom.sets
        );
        assert!(
            geom.block_bytes.is_power_of_two(),
            "block size {} not a power of two",
            geom.block_bytes
        );
        assert!(geom.ways >= 1, "a cache needs at least one way");
        let block_shift = geom.block_bytes.trailing_zeros();
        let slots = geom.sets as usize * geom.ways;
        Cache {
            geom,
            block_shift,
            set_shift: block_shift + geom.sets.trailing_zeros(),
            set_mask: geom.sets - 1,
            tags: vec![INVALID; slots],
            flags: vec![LineFlags::DEMAND; slots],
            stamps: vec![0; slots],
            clock: 1,
        }
    }

    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn locate(&self, addr: Addr) -> (usize, u64) {
        let set = ((addr.0 >> self.block_shift) & self.set_mask) as usize;
        let tag = addr.0 >> self.set_shift;
        debug_assert_ne!(tag, INVALID, "{addr:?} aliases the invalid tag");
        (set, tag)
    }

    /// Rebuild the base address of a block from its set and tag.
    #[inline]
    fn block_addr(&self, set: usize, tag: u64) -> Addr {
        let set_bits = self.set_shift - self.block_shift;
        Addr(((tag << set_bits) | set as u64) << self.block_shift)
    }

    /// Flat index of the first way of `set`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.geom.ways
    }

    /// Flat index of the line with `tag` in `set`, if resident.
    #[inline]
    fn slot_of(&self, set: usize, tag: u64) -> Option<usize> {
        let base = self.base(set);
        self.tags[base..base + self.geom.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Flat index of `addr`'s line, if resident.
    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let (set, tag) = self.locate(addr);
        self.slot_of(set, tag)
    }

    #[inline]
    fn stamp(&mut self, slot: usize) {
        self.stamps[slot] = self.clock;
        self.clock += 1;
    }

    /// Does the cache hold the block containing `addr`? (No LRU update.)
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Flags of a resident line, without touching LRU state.
    pub fn peek(&self, addr: Addr) -> Option<LineFlags> {
        self.find(addr).map(|slot| self.flags[slot])
    }

    /// Hit path: if resident, update LRU and return a mutable reference to
    /// the line's flags (callers adjust them: dirty on store, clear
    /// `prefetched` on first demand hit, …).
    pub fn touch(&mut self, addr: Addr) -> Option<&mut LineFlags> {
        let slot = self.find(addr)?;
        self.stamp(slot);
        Some(&mut self.flags[slot])
    }

    /// Insert the block containing `addr` as most-recently-used, replacing an
    /// invalid way if one exists, else the LRU way.  Returns the displaced
    /// valid line, if any.  If the block is already resident its flags are
    /// overwritten and LRU updated (no eviction).
    pub fn insert(&mut self, addr: Addr, flags: LineFlags) -> Option<Evicted> {
        let (set, tag) = self.locate(addr);
        let base = self.base(set);
        let ways = self.geom.ways;
        let tags = &self.tags[base..base + ways];
        let stamps = &self.stamps[base..base + ways];
        // One pass: a resident block ends it; otherwise it leaves the first
        // minimum stamp.  Invalid ways carry 0 and valid ways ≥ 1, so that
        // is the first invalid way in way order, else the exact LRU.
        let (mut way, mut oldest) = (0, u64::MAX);
        for w in 0..ways {
            if tags[w] == tag {
                self.stamp(base + w);
                self.flags[base + w] = flags;
                return None;
            }
            if stamps[w] < oldest {
                (way, oldest) = (w, stamps[w]);
            }
        }
        let slot = base + way;
        let old = self.tags[slot];
        let evicted = (old != INVALID).then(|| Evicted {
            addr: self.block_addr(set, old),
            flags: self.flags[slot],
        });
        self.tags[slot] = tag;
        self.flags[slot] = flags;
        self.stamp(slot);
        evicted
    }

    /// Mark the block containing `addr` dirty if resident (store hit).
    /// Returns true on hit.
    pub fn set_dirty(&mut self, addr: Addr) -> bool {
        match self.touch(addr) {
            Some(flags) => {
                flags.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines (tests, occupancy assertions).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Structural invariant: no duplicate tags within a set. Used by tests
    /// and debug assertions.
    pub fn check_no_duplicate_tags(&self) -> bool {
        self.tags.chunks(self.geom.ways).all(|set| {
            let mut tags: Vec<u64> = set.iter().copied().filter(|&t| t != INVALID).collect();
            let before = tags.len();
            tags.sort_unstable();
            tags.dedup();
            tags.len() == before
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_l1() -> Cache {
        // The paper's default: 8 KB direct-mapped, 64 B blocks.
        Cache::new(CacheGeometry::from_capacity(8 * 1024, 1, 64).unwrap())
    }

    /// Two sets of two ways, 64 B blocks.
    fn two_way() -> Cache {
        Cache::new(CacheGeometry::from_capacity(4 * 64, 2, 64).unwrap())
    }

    #[test]
    fn geometry_from_capacity() {
        let g = CacheGeometry::from_capacity(8 * 1024, 1, 64).unwrap();
        assert_eq!(g.sets, 128);
        assert_eq!(g.total_bytes(), 8 * 1024);
        let g = CacheGeometry::from_capacity(512 * 1024, 4, 128).unwrap();
        assert_eq!(g.sets, 1024);
        assert!(CacheGeometry::from_capacity(1000, 1, 64).is_err());
        assert!(CacheGeometry::from_capacity(8 * 1024, 3, 64).is_err());
        assert!(CacheGeometry::from_capacity(0, 1, 64).is_err());
        assert!(CacheGeometry::from_capacity(8 * 1024, 1, 63).is_err());
    }

    #[test]
    #[should_panic(expected = "set count 96 not a power of two")]
    fn new_rejects_a_geometry_that_bypasses_from_capacity() {
        Cache::new(CacheGeometry {
            sets: 96,
            ways: 1,
            block_bytes: 64,
        });
    }

    #[test]
    fn new_rejects_bad_block_size_and_zero_ways() {
        for geom in [
            CacheGeometry {
                sets: 128,
                ways: 1,
                block_bytes: 48,
            },
            CacheGeometry {
                sets: 128,
                ways: 0,
                block_bytes: 64,
            },
        ] {
            assert!(
                std::panic::catch_unwind(|| Cache::new(geom)).is_err(),
                "{geom:?}"
            );
        }
    }

    #[test]
    fn shift_and_mask_match_division() {
        for geom in [
            CacheGeometry::from_capacity(8 * 1024, 1, 64).unwrap(),
            CacheGeometry::from_capacity(512 * 1024, 4, 128).unwrap(),
            CacheGeometry::from_capacity(24 * 64, 24, 64).unwrap(),
        ] {
            let c = Cache::new(geom);
            for a in [
                0u64,
                0x3f,
                0x40,
                0x1234_5678,
                0xdead_beef_cafe,
                u64::MAX >> 1,
            ] {
                let a = Addr(a);
                let (set, tag) = c.locate(a);
                assert_eq!(set, a.set_index(geom.block_bytes, geom.sets));
                assert_eq!(tag, a.tag(geom.block_bytes, geom.sets));
                assert_eq!(c.block_addr(set, tag), a.block_base(geom.block_bytes));
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = dm_l1();
        let a = Addr(0x1000);
        assert!(!c.contains(a));
        assert!(c.insert(a, LineFlags::DEMAND).is_none());
        assert!(c.contains(a));
        assert!(c.touch(a).is_some());
        // Same block, different byte.
        assert!(c.contains(Addr(0x103f)));
        assert!(!c.contains(Addr(0x1040)));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_l1();
        let a = Addr(0x0000);
        let b = Addr(0x2000); // same set (8 KB apart), different tag
        c.insert(a, LineFlags::DEMAND);
        let ev = c.insert(b, LineFlags::DEMAND).unwrap();
        assert_eq!(ev.addr, Addr(0x0000));
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn evicted_address_reconstruction() {
        let mut c = Cache::new(CacheGeometry::from_capacity(4 * 1024, 2, 64).unwrap());
        let sets = c.geometry().sets; // 32
        let conflicting: Vec<Addr> = (0..3).map(|i| Addr(5 * 64 + i * sets * 64)).collect();
        c.insert(conflicting[0], LineFlags::DEMAND);
        c.insert(conflicting[1], LineFlags::DEMAND);
        let ev = c.insert(conflicting[2], LineFlags::DEMAND).unwrap();
        assert_eq!(ev.addr, conflicting[0]); // LRU of the two
    }

    #[test]
    fn lru_respects_touch_order() {
        let mut c = Cache::new(CacheGeometry::from_capacity(2 * 64, 2, 64).unwrap());
        let (a, b, d) = (Addr(0), Addr(64), Addr(128));
        c.insert(a, LineFlags::DEMAND);
        c.insert(b, LineFlags::DEMAND);
        c.touch(a); // a is now MRU
        let ev = c.insert(d, LineFlags::DEMAND).unwrap();
        assert_eq!(ev.addr, b);
        assert!(c.contains(a) && c.contains(d));
    }

    #[test]
    fn insert_existing_block_updates_flags_without_eviction() {
        let mut c = two_way();
        let a = Addr(0x100);
        c.insert(a, LineFlags::WRONG);
        assert!(c.peek(a).unwrap().wrong_fetched);
        assert!(c.insert(a, LineFlags::DEMAND).is_none());
        assert!(!c.peek(a).unwrap().wrong_fetched);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn set_dirty_on_hit_only() {
        let mut c = dm_l1();
        let a = Addr(0x80);
        assert!(!c.set_dirty(a));
        c.insert(a, LineFlags::DEMAND);
        assert!(c.set_dirty(a));
        assert!(c.peek(a).unwrap().dirty);
    }
}
