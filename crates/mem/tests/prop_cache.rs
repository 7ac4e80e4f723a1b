//! Property tests: the set-associative cache and the fully-associative
//! side structure against one executable reference model (a per-set
//! most-recent-first list).

use proptest::prelude::*;
use wec_common::ids::Addr;
use wec_mem::cache::{Cache, CacheGeometry};
use wec_mem::line::LineFlags;
use wec_mem::side::SideCache;

/// Reference model: per set, a most-recent-first vector of (tag, flags).
struct RefCache {
    sets: u64,
    ways: usize,
    block: u64,
    data: Vec<Vec<(u64, LineFlags)>>,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        RefCache {
            sets: geom.sets,
            ways: geom.ways,
            block: geom.block_bytes,
            data: (0..geom.sets).map(|_| Vec::new()).collect(),
        }
    }

    fn locate(&self, a: Addr) -> (usize, u64) {
        (
            a.set_index(self.block, self.sets),
            a.tag(self.block, self.sets),
        )
    }

    fn position(&self, a: Addr) -> (usize, u64, Option<usize>) {
        let (s, t) = self.locate(a);
        (s, t, self.data[s].iter().position(|&(tag, _)| tag == t))
    }

    fn contains(&self, a: Addr) -> bool {
        self.position(a).2.is_some()
    }

    /// Moves a resident block to the front; returns its flags.
    fn touch(&mut self, a: Addr) -> Option<LineFlags> {
        let (s, _, pos) = self.position(a);
        let e = self.data[s].remove(pos?);
        self.data[s].insert(0, e);
        Some(e.1)
    }

    /// Returns the evicted block address and flags, if any.
    fn insert(&mut self, a: Addr, flags: LineFlags) -> Option<(Addr, LineFlags)> {
        let (s, t, pos) = self.position(a);
        if let Some(pos) = pos {
            self.data[s].remove(pos);
            self.data[s].insert(0, (t, flags));
            return None;
        }
        let evicted = if self.data[s].len() == self.ways {
            let (tag, f) = self.data[s].pop().unwrap();
            Some((Addr((tag * self.sets + s as u64) * self.block), f))
        } else {
            None
        };
        self.data[s].insert(0, (t, flags));
        evicted
    }

    fn take(&mut self, a: Addr) -> Option<LineFlags> {
        let (s, _, pos) = self.position(a);
        Some(self.data[s].remove(pos?).1)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u8),
    Touch(u64),
    Take(u64),
    Contains(u64),
}

impl Op {
    fn addr(&self) -> u64 {
        match *self {
            Op::Insert(a, _) | Op::Touch(a) | Op::Take(a) | Op::Contains(a) => a,
        }
    }
}

/// Addresses in a window that exercises conflicts: a few hundred blocks.
const OP_WINDOW: u64 = 1 << 14;

/// The set-associative cache's operations (it has no `take`).
fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..OP_WINDOW;
    prop_oneof![
        (addr.clone(), any::<u8>()).prop_map(|(a, f)| Op::Insert(a, f)),
        addr.clone().prop_map(Op::Touch),
        addr.prop_map(Op::Contains),
    ]
}

/// Three inserts per take, so a structure whose window is twice its size
/// runs full and keeps evicting between the holes that takes punch.
fn fill_heavy_op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..OP_WINDOW;
    let insert = (addr.clone(), any::<u8>()).prop_map(|(a, f)| Op::Insert(a, f));
    prop_oneof![
        insert.clone(),
        insert.clone(),
        insert,
        addr.clone().prop_map(Op::Touch),
        addr.clone().prop_map(Op::Take),
        addr.prop_map(Op::Contains),
    ]
}

/// Flags from the low three bits, so evictions carry distinguishable flags.
fn flags_of(bits: u8) -> LineFlags {
    LineFlags {
        dirty: bits & 1 != 0,
        wrong_fetched: bits & 2 != 0,
        prefetched: bits & 4 != 0,
    }
}

/// `op`'s address folded into a window of `window_blocks` blocks.
fn folded(op: &Op, block: u64, window_blocks: u64) -> Addr {
    let raw = op.addr();
    Addr((raw / block % window_blocks) * block + raw % block)
}

/// Drive `ops` through a cache of shape `geom` and the reference model,
/// after folding every address into `window_blocks` blocks.
fn check_against_reference(
    geom: CacheGeometry,
    ops: &[Op],
    window_blocks: u64,
) -> Result<(), String> {
    let mut cache = Cache::new(geom);
    let mut reference = RefCache::new(geom);
    for op in ops {
        let a = folded(op, geom.block_bytes, window_blocks);
        match *op {
            Op::Insert(_, bits) => {
                let flags = flags_of(bits);
                let got = cache.insert(a, flags);
                let want = reference.insert(a, flags);
                prop_assert_eq!(got.map(|e| (e.addr, e.flags)), want);
            }
            Op::Touch(_) => {
                let got = cache.touch(a).map(|f| *f);
                prop_assert_eq!(got, reference.touch(a));
            }
            Op::Take(_) => unreachable!("the set-associative cache has no take"),
            Op::Contains(_) => {
                prop_assert_eq!(cache.contains(a), reference.contains(a));
            }
        }
        prop_assert!(cache.check_no_duplicate_tags());
        prop_assert!(cache.valid_lines() <= geom.sets as usize * geom.ways);
    }
    Ok(())
}

/// The side structure's structural check, where the library compiles it
/// (test and debug builds).
fn structure_ok(side: &SideCache) -> Result<(), String> {
    #[cfg(debug_assertions)]
    return side.check();
    #[cfg(not(debug_assertions))]
    Ok(())
}

/// Drive `ops` through a side structure of `entries` 64-byte blocks and
/// the reference model (one set of `entries` ways), after folding every
/// address into `window_blocks` blocks; the structural check runs after
/// every operation.
fn check_side_against_reference(
    entries: usize,
    ops: &[Op],
    window_blocks: u64,
) -> Result<(), String> {
    let geom = CacheGeometry {
        sets: 1,
        ways: entries,
        block_bytes: 64,
    };
    let mut side = SideCache::new(entries, geom.block_bytes);
    let mut reference = RefCache::new(geom);
    for op in ops {
        let a = folded(op, geom.block_bytes, window_blocks);
        match *op {
            Op::Insert(_, bits) => {
                let flags = flags_of(bits);
                let got = side.insert(a, flags);
                let want = reference.insert(a, flags);
                prop_assert_eq!(got.map(|e| (e.addr, e.flags)), want);
            }
            Op::Touch(_) => {
                prop_assert_eq!(side.touch(a), reference.touch(a));
            }
            Op::Take(_) => {
                prop_assert_eq!(side.take(a), reference.take(a));
            }
            Op::Contains(_) => {
                prop_assert_eq!(side.contains(a), reference.contains(a));
            }
        }
        structure_ok(&side)?;
        prop_assert_eq!(side.occupancy(), reference.data[0].len());
    }
    Ok(())
}

/// The entry counts the side-structure properties run: every sweep size,
/// odd sizes, and the largest the wire accepts.
fn side_entries() -> Vec<usize> {
    vec![1, 2, 3, 4, 8, 16, 24, 32, 64, 128, 255]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        ways in proptest::sample::select(vec![1usize, 2, 4]),
    ) {
        let geom = CacheGeometry::from_capacity(4 * 1024, ways, 64).unwrap();
        check_against_reference(geom, &ops, OP_WINDOW / 64)?;
    }

    /// The side structure at the sizes of the geometry sweep and beyond.
    /// The address window is twice the entry count, so the structure
    /// fills, evicts, and refills the holes that `take` leaves: the victim
    /// must be a free slot, else the exact LRU entry, with its flags intact.
    #[test]
    fn fully_associative_matches_reference_model(
        ops in proptest::collection::vec(fill_heavy_op_strategy(), 1..1200),
        entries in proptest::sample::select(side_entries()),
    ) {
        check_side_against_reference(entries, &ops, 2 * entries as u64)?;
    }

    #[test]
    fn fully_associative_never_exceeds_capacity(
        addrs in proptest::collection::vec(0u64..(1 << 16), 1..200),
        entries in proptest::sample::select(side_entries()),
    ) {
        let mut c = SideCache::new(entries, 64);
        for a in addrs {
            c.insert(Addr(a), LineFlags::WRONG);
            prop_assert!(c.occupancy() <= entries);
            prop_assert!(c.contains(Addr(a)), "just-inserted block must be resident");
            structure_ok(&c)?;
        }
    }

    #[test]
    fn eviction_reconstructs_a_real_block_address(
        addrs in proptest::collection::vec(0u64..(1 << 15), 1..200),
    ) {
        let geom = CacheGeometry::from_capacity(2 * 1024, 2, 64).unwrap();
        let mut c = Cache::new(geom);
        let mut inserted: Vec<Addr> = Vec::new();
        for a in addrs {
            let a = Addr(a).block_base(64);
            if let Some(ev) = c.insert(a, LineFlags::DEMAND) {
                prop_assert!(
                    inserted.contains(&ev.addr),
                    "evicted {:?} was never inserted", ev.addr
                );
            }
            if !inserted.contains(&a) {
                inserted.push(a);
            }
        }
    }
}
