//! The reorder buffer and its wakeup/select structures.
//!
//! Entries carry their operand values (renamed from the RAT at dispatch,
//! filled in by wakeup), their computed result, and — for memory
//! operations — the effective address and issue state the load/store queue
//! logic in the core works on.
//!
//! An entry has two numbers.  Its sequence number (`seq`) is its identity:
//! unique, never reused, and what the commit trace records.  Its *rid* is
//! its window index: the entry at position `i` (0 = oldest) has rid
//! `head_rid + i`, and commit advances `head_rid`.  Every scheduler handle
//! is a rid — the ready set, consumer-chain links, `SrcState::Waiting`, the
//! rename table's `Mapping::Rob` — so finding an entry is a subtraction and
//! a bounds check, and rid order is age order.  A squash removes a suffix,
//! and the next dispatch reuses the rids above the mispredicted branch; a
//! rid below `head_rid` is never reused, so a mapping to one reads the
//! architectural file.  A handle that can outlive a squash (the core's
//! completion queue) also carries the `seq`, as a tag, like sim-outorder's
//! `RSLINK` pointer-plus-tag pair.
//!
//! Recovery takes no snapshot of the rename table: each entry remembers the
//! mapping its destination had before it renamed it, and
//! [`Rob::squash_younger`] puts those back, youngest first.
//!
//! Scheduling work scales with events, not with the window size, using the
//! structures of `sim-outorder`'s RUU:
//!
//! - **Wakeup** follows per-producer consumer chains.  [`Rob::push`] links
//!   every waiting source operand into its producer's chain — an intrusive
//!   LIFO list threaded through the consumers' entries, like sim-outorder's
//!   output-dependence (`odep`) lists — and `Rob::wakeup` visits exactly
//!   the operands waiting on the completing producer.
//! - **Select** walks the ready set: the rids of the `Waiting` entries
//!   whose sources are all ready, oldest first.  Push, wakeup, issue
//!   (`Rob::unready`), squash and clear keep it exact.
//!
//! The third structure, the completion queue, belongs to the core, since
//! only its issue stage fills it.

use std::collections::{vec_deque, VecDeque};
use std::num::NonZeroU64;

use wec_common::ids::{Addr, Cycle};
use wec_isa::inst::Inst;

use crate::regs::{Mapping, Rat};

/// A renamed source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcState {
    /// Value available.
    Ready(u64),
    /// Waiting on the ROB entry with this rid.
    Waiting(u64),
}

/// Pipeline stage of a ROB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Not yet issued (operands may still be pending).
    Waiting,
    /// In a functional unit or the memory system; completes at `done_at`.
    Executing,
    /// Result available; eligible for commit when it reaches the head.
    Done,
}

/// A link in a consumer chain: source slot `src` of the entry with rid
/// `rid`, packed as `rid << 1 | src` (rids start at 1, so the packed value
/// is never zero and `Option<Link>` costs no extra space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link(NonZeroU64);

impl Link {
    fn new(rid: u64, src: usize) -> Link {
        Link(NonZeroU64::new(rid << 1 | src as u64).expect("rid 0"))
    }

    fn rid(self) -> u64 {
        self.0.get() >> 1
    }

    fn src(self) -> usize {
        (self.0.get() & 1) as usize
    }
}

/// One in-flight instruction.
#[derive(Debug)]
pub struct RobEntry {
    pub seq: u64,
    pub pc: u32,
    pub inst: Inst,
    pub stage: Stage,
    pub srcs: [SrcState; 2],
    /// Register result (f64 as bits); for branches, unused.
    pub result: u64,
    pub done_at: Cycle,
    /// Effective address once computed (loads, stores, tsannounce).
    pub eff_addr: Option<Addr>,
    /// Store data value once known.
    pub store_data: Option<u64>,
    /// Load has been sent to the memory system (or forwarded).
    pub mem_issued: bool,
    /// Load was satisfied by store-to-load forwarding.
    pub forwarded: bool,
    /// Fetch-time prediction (conditional branches and `jr`).
    pub predicted_taken: bool,
    pub predicted_target: u32,
    /// Execute-time resolution (applied when the entry completes).
    pub resolved_taken: bool,
    pub resolved_target: u32,
    /// The mapping this entry's destination register had before it renamed
    /// it; a squash puts it back.  Unused without a destination.
    pub prev_mapping: Mapping,
    /// Head of this entry's consumer chain: the youngest source operand
    /// still waiting on it.
    consumers: Option<Link>,
    /// Per source slot, while it waits: the next (older) operand waiting
    /// on the same producer.
    next_consumer: [Option<Link>; 2],
}

impl RobEntry {
    pub fn new(seq: u64, pc: u32, inst: Inst) -> Self {
        RobEntry {
            seq,
            pc,
            inst,
            stage: Stage::Waiting,
            srcs: [SrcState::Ready(0), SrcState::Ready(0)],
            result: 0,
            done_at: Cycle::ZERO,
            eff_addr: None,
            store_data: None,
            mem_issued: false,
            forwarded: false,
            predicted_taken: false,
            predicted_target: u32::MAX,
            resolved_taken: false,
            resolved_target: u32::MAX,
            prev_mapping: Mapping::Arch,
            consumers: None,
            next_consumer: [None, None],
        }
    }

    /// Are all operands available?
    #[inline]
    pub fn srcs_ready(&self) -> bool {
        self.srcs.iter().all(|s| matches!(s, SrcState::Ready(_)))
    }

    /// Value of source slot `i` (must be ready).
    #[inline]
    pub fn src_val(&self, i: usize) -> u64 {
        match self.srcs[i] {
            SrcState::Ready(v) => v,
            SrcState::Waiting(rid) => panic!("source {i} still waiting on rid {rid}"),
        }
    }

    /// Waiting for issue with every operand available?
    #[inline]
    fn is_ready(&self) -> bool {
        self.stage == Stage::Waiting && self.srcs_ready()
    }
}

/// Is this instruction dispatch-serializing?  `begin` must kill leftover
/// wrong threads before anything from the new region runs, and `tsagdone`
/// is the run-time dependence-checking sync point: computation-stage loads
/// may not issue until the upstream announcements have arrived (§2.2).
#[inline]
pub fn is_serializing(inst: &Inst) -> bool {
    matches!(inst, Inst::Begin { .. } | Inst::TsagDone)
}

/// The reorder buffer proper.
///
/// Dispatch pushes at the back, commit pops the front and recovery removes
/// a suffix, so rids are dense and ascending front to back (see the module
/// docs).  Occupancy facts the dispatch stage asks about every cycle (LSQ
/// slots, serializing instructions in flight) are maintained as counters on
/// push/pop instead of being recounted.
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Rid of the oldest entry.
    head_rid: u64,
    /// Memory operations currently in the window (the LSQ occupancy).
    mem_ops: usize,
    /// In-flight dispatch-serializing instructions (`begin` / `tsagdone`).
    serializers: usize,
    /// The ready set: rids of the `Waiting` entries whose sources are all
    /// ready, oldest first.
    ready: Vec<u64>,
}

impl Rob {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            head_rid: 1,
            mem_ops: 0,
            serializers: 0,
            ready: Vec::with_capacity(capacity),
        }
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Memory operations currently in flight (the LSQ occupancy).
    pub fn mem_count(&self) -> usize {
        self.mem_ops
    }

    /// Is a dispatch-serializing instruction in flight?
    pub fn has_serializer(&self) -> bool {
        self.serializers > 0
    }

    /// Rid of the oldest entry; every lower rid has retired.
    pub(crate) fn head_rid(&self) -> u64 {
        self.head_rid
    }

    /// The rid [`push`](Self::push) gives the next entry.
    pub(crate) fn next_rid(&self) -> u64 {
        self.head_rid + self.entries.len() as u64
    }

    /// The ready set, oldest first: the `Waiting` entries whose sources
    /// are all ready.
    pub(crate) fn ready(&self) -> &[u64] {
        &self.ready
    }

    /// Drop position `k` of the ready set: its entry left `Waiting` (the
    /// issue stage started it).
    pub(crate) fn unready(&mut self, k: usize) {
        debug_assert!(!self.get(self.ready[k]).is_some_and(RobEntry::is_ready));
        self.ready.remove(k);
    }

    /// Occupancy bookkeeping for an entry leaving the window.
    fn retire_entry(&mut self, entry: &RobEntry) {
        if entry.inst.is_mem() {
            self.mem_ops -= 1;
        }
        if is_serializing(&entry.inst) {
            self.serializers -= 1;
        }
    }

    /// Append the youngest entry, as rid [`next_rid`](Self::next_rid).
    /// Each waiting source is linked into its producer's consumer chain
    /// (the producer must be in flight), and the entry joins the ready set
    /// if it can issue at once.
    pub fn push(&mut self, mut entry: RobEntry) {
        debug_assert!(!self.is_full());
        debug_assert!(self
            .entries
            .back()
            .map(|b| b.seq < entry.seq)
            .unwrap_or(true));
        let rid = self.next_rid();
        for src in 0..2 {
            if let SrcState::Waiting(p) = entry.srcs[src] {
                let producer = self
                    .get_mut(p)
                    .expect("source waits on a producer outside the window");
                entry.next_consumer[src] = producer.consumers;
                producer.consumers = Some(Link::new(rid, src));
            }
        }
        if entry.inst.is_mem() {
            self.mem_ops += 1;
        }
        if is_serializing(&entry.inst) {
            self.serializers += 1;
        }
        if entry.is_ready() {
            self.ready.push(rid); // youngest: order is kept
        }
        self.entries.push_back(entry);
    }

    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Retire the oldest entry (commit).  It is `Done`, so nothing waits
    /// on it.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        debug_assert!(e.consumers.is_none(), "retiring #{} with waiters", e.seq);
        self.head_rid += 1;
        self.retire_entry(&e);
        Some(e)
    }

    /// Window position of the entry with rid `rid`, if still in flight.
    #[inline]
    pub(crate) fn pos(&self, rid: u64) -> Option<usize> {
        let i = rid.wrapping_sub(self.head_rid);
        (i < self.entries.len() as u64).then_some(i as usize)
    }

    pub fn get(&self, rid: u64) -> Option<&RobEntry> {
        self.pos(rid).map(|i| &self.entries[i])
    }

    pub fn get_mut(&mut self, rid: u64) -> Option<&mut RobEntry> {
        self.pos(rid).map(|i| &mut self.entries[i])
    }

    /// The entry `rid` names, if it is still the one tagged `seq`.  A
    /// handle kept across a squash may hold a rid that the next dispatch
    /// gave to a younger entry.
    pub(crate) fn get_tagged_mut(&mut self, rid: u64, seq: u64) -> Option<&mut RobEntry> {
        self.get_mut(rid).filter(|e| e.seq == seq)
    }

    /// Entry by position (0 = oldest). O(1).
    pub fn at(&self, idx: usize) -> &RobEntry {
        &self.entries[idx]
    }

    /// Mutable entry by position (0 = oldest). O(1).
    pub fn at_mut(&mut self, idx: usize) -> &mut RobEntry {
        &mut self.entries[idx]
    }

    /// The entries with their rids, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &RobEntry)> {
        (self.head_rid..).zip(&self.entries)
    }

    /// How many entries are `rid` or older.
    fn kept(&self, rid: u64) -> usize {
        (rid + 1)
            .saturating_sub(self.head_rid)
            .min(self.entries.len() as u64) as usize
    }

    /// The entries younger than `rid`, oldest first: what
    /// [`squash_younger`](Self::squash_younger) would remove.  Their rids
    /// run from `rid + 1` with no gaps.
    pub(crate) fn younger_than(&self, rid: u64) -> vec_deque::Iter<'_, RobEntry> {
        self.entries.range(self.kept(rid)..)
    }

    /// Remove every entry younger than `rid` in place (misprediction
    /// recovery) and return how many went.  The suffix is walked youngest
    /// first.  Each entry puts back in `rat` the mapping its destination
    /// replaced, so every register ends up naming its youngest surviving
    /// writer, or — with none in flight — the architectural file or a
    /// retired entry, which reads the same value.  Each squashed operand
    /// also leaves its producer's chain: chains are LIFO and every squashed
    /// operand was linked after every surviving one, so it is its
    /// producer's chain head when its turn comes.
    pub fn squash_younger(&mut self, rid: u64, rat: &mut Rat) -> usize {
        let keep = self.kept(rid);
        let squashed = self.entries.len() - keep;
        for i in (keep..self.entries.len()).rev() {
            let c = self.head_rid + i as u64;
            let e = &self.entries[i];
            if let Some(rd) = e.inst.dest_ireg() {
                rat.restore_i(rd, e.prev_mapping);
            }
            if let Some(fd) = e.inst.dest_freg() {
                rat.restore_f(fd, e.prev_mapping);
            }
            for src in (0..2).rev() {
                let SrcState::Waiting(p) = self.entries[i].srcs[src] else {
                    continue;
                };
                if p > rid {
                    continue; // the producer goes too, chain and all
                }
                let next = self.entries[i].next_consumer[src];
                let producer = self.get_mut(p).expect("producer outside the window");
                debug_assert_eq!(producer.consumers, Some(Link::new(c, src)));
                producer.consumers = next;
            }
        }
        for _ in 0..squashed {
            let e = self.entries.pop_back().unwrap();
            self.retire_entry(&e);
        }
        let ready_keep = self.ready.partition_point(|&r| r <= rid);
        self.ready.truncate(ready_keep);
        squashed
    }

    /// Drop everything in place (full flush); the buffers keep their
    /// capacity.  The flushed rids are reused: the core clears everything
    /// that could name them (the rename table and completion queue) too.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ready.clear();
        self.mem_ops = 0;
        self.serializers = 0;
    }

    /// Wakeup: deliver `value` from producer `rid` to every operand waiting
    /// on it, walking only the producer's consumer chain; consumers left
    /// with no waiting operand join the ready set.
    pub(crate) fn wakeup(&mut self, rid: u64, value: u64) {
        let p = self.pos(rid).expect("waking a producer outside the window");
        let mut link = self.entries[p].consumers.take();
        while let Some(l) = link {
            let (c, src) = (l.rid(), l.src());
            let i = self.pos(c).expect("consumer chains hold in-flight entries");
            let e = &mut self.entries[i];
            debug_assert_eq!(e.srcs[src], SrcState::Waiting(rid));
            e.srcs[src] = SrcState::Ready(value);
            link = e.next_consumer[src].take();
            if e.is_ready() {
                let at = self.ready.partition_point(|&r| r < c);
                self.ready.insert(at, c);
            }
        }
    }

    /// Check the wakeup/select structures against the entries: the ready
    /// set is exactly the ready `Waiting` entries in age order, every
    /// waiting source names an older in-flight producer and is registered
    /// in its consumer chain, and every chain link names a source waiting
    /// on that producer.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_scheduler(&self) -> Result<(), String> {
        let want: Vec<u64> = self
            .iter()
            .filter(|(_, e)| e.is_ready())
            .map(|(rid, _)| rid)
            .collect();
        if self.ready != want {
            return Err(format!("ready set {:?}, want {want:?}", self.ready));
        }
        let chain = |producer: &RobEntry| {
            std::iter::successors(producer.consumers, |l| {
                self.get(l.rid()).and_then(|c| c.next_consumer[l.src()])
            })
        };
        for (rid, e) in self.iter() {
            for l in chain(e) {
                let c = self.get(l.rid()).map(|c| c.srcs[l.src()]);
                if c != Some(SrcState::Waiting(rid)) {
                    return Err(format!(
                        "rid {rid} chains rid {} source {}, which is {c:?}",
                        l.rid(),
                        l.src()
                    ));
                }
            }
            for (src, s) in e.srcs.iter().enumerate() {
                let &SrcState::Waiting(p) = s else { continue };
                if p >= rid {
                    return Err(format!("rid {rid} source {src} waits on younger rid {p}"));
                }
                let registered = self
                    .get(p)
                    .is_some_and(|p| chain(p).any(|l| l == Link::new(rid, src)));
                if !registered {
                    return Err(format!(
                        "rid {rid} source {src} waits on rid {p} unregistered"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_isa::reg::{FReg, Reg};

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq as u32, Inst::Nop)
    }

    fn waiting(seq: u64, srcs: [SrcState; 2]) -> RobEntry {
        let mut e = entry(seq);
        e.srcs = srcs;
        e
    }

    /// Dispatch as the core does: rename the destination, keep what it
    /// replaced.
    fn dispatch(rob: &mut Rob, rat: &mut Rat, seq: u64, inst: Inst) {
        let rid = rob.next_rid();
        let mut e = RobEntry::new(seq, 0, inst);
        if let Some(rd) = inst.dest_ireg() {
            e.prev_mapping = rat.set_i(rd, rid);
        }
        if let Some(fd) = inst.dest_freg() {
            e.prev_mapping = rat.set_f(fd, rid);
        }
        rob.push(e);
    }

    fn li(r: u8) -> Inst {
        Inst::Li { rd: Reg(r), imm: 0 }
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut rob = Rob::new(2);
        rob.push(entry(1));
        assert!(!rob.is_full());
        rob.push(entry(2));
        assert!(rob.is_full());
        assert_eq!(rob.head().unwrap().seq, 1);
        assert_eq!(rob.pop_head().unwrap().seq, 1);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn wakeup_delivers_to_waiting_sources() {
        let mut rob = Rob::new(4);
        rob.push(entry(7)); // rid 1
        rob.push(waiting(8, [SrcState::Waiting(1), SrcState::Ready(5)])); // rid 2
        assert_eq!(rob.ready(), &[1]);
        rob.wakeup(1, 99);
        let e = rob.get(2).unwrap();
        assert_eq!(e.seq, 8);
        assert!(e.srcs_ready());
        assert_eq!(e.src_val(0), 99);
        assert_eq!(e.src_val(1), 5);
        assert_eq!(rob.ready(), &[1, 2]);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn wakeup_ignores_other_producers() {
        let mut rob = Rob::new(4);
        rob.push(entry(7)); // rid 1
        rob.push(entry(8)); // rid 2
        rob.push(waiting(9, [SrcState::Waiting(1), SrcState::Ready(0)])); // rid 3
        rob.wakeup(2, 1);
        assert!(!rob.get(3).unwrap().srcs_ready());
        assert_eq!(rob.ready(), &[1, 2]);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn wakeup_readies_a_consumer_only_once_both_sources_arrive() {
        let mut rob = Rob::new(8);
        rob.push(entry(1));
        rob.push(entry(2));
        // #3 reads #1 twice and #2 once; #4 reads #1.
        rob.push(waiting(3, [SrcState::Waiting(1), SrcState::Waiting(1)]));
        rob.push(waiting(4, [SrcState::Waiting(2), SrcState::Waiting(1)]));
        for s in [1, 2] {
            rob.get_mut(s).unwrap().stage = Stage::Executing; // issued
            rob.unready(0);
        }
        rob.check_scheduler().unwrap();
        rob.wakeup(2, 20);
        assert!(rob.ready().is_empty());
        rob.wakeup(1, 10);
        assert_eq!(
            rob.ready(),
            &[3, 4],
            "woken youngest first, kept in age order"
        );
        assert_eq!(rob.get(3).unwrap().srcs, [SrcState::Ready(10); 2]);
        assert_eq!(rob.get(4).unwrap().src_val(0), 20);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn squash_unlinks_squashed_consumers_from_surviving_producers() {
        let mut rob = Rob::new(8);
        rob.push(entry(1));
        rob.push(waiting(2, [SrcState::Waiting(1), SrcState::Ready(0)]));
        rob.push(entry(3));
        rob.push(waiting(4, [SrcState::Waiting(1), SrcState::Waiting(3)]));
        rob.push(waiting(5, [SrcState::Waiting(3), SrcState::Ready(0)]));
        assert_eq!(rob.squash_younger(3, &mut Rat::new()), 2);
        rob.check_scheduler().unwrap();
        assert_eq!(rob.ready(), &[1, 3]);
        rob.wakeup(1, 7);
        assert_eq!(rob.get(2).unwrap().src_val(0), 7);
        assert_eq!(rob.ready(), &[1, 2, 3]);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn rids_stay_dense_across_seq_gaps_and_reject_a_stale_seq() {
        let mut rob = Rob::new(8);
        for s in [3, 4, 7, 9] {
            rob.push(entry(s));
        }
        let pairs = [(1, 3), (2, 4), (3, 7), (4, 9)];
        let got: Vec<(u64, u64)> = rob.iter().map(|(rid, e)| (rid, e.seq)).collect();
        assert_eq!(got, pairs, "rids count the window, not the seqs");
        for (rid, seq) in pairs {
            assert_eq!(rob.get(rid).unwrap().seq, seq);
            assert_eq!(rob.get_mut(rid).unwrap().seq, seq);
        }
        for rid in [0, 5, 7, 9] {
            assert!(rob.get(rid).is_none());
        }
        rob.pop_head();
        assert_eq!(rob.head_rid(), 2);
        assert!(rob.get(1).is_none(), "a retired rid leaves the window");
        // Squash behind seq 4 (rid 2): the next dispatch reuses rid 3.
        assert_eq!(rob.squash_younger(2, &mut Rat::new()), 2);
        assert_eq!(rob.next_rid(), 3);
        rob.push(entry(10));
        assert_eq!(rob.get(3).unwrap().seq, 10);
        assert!(
            rob.get_tagged_mut(3, 7).is_none(),
            "a handle to the squashed #7 must not reach #10"
        );
        assert_eq!(rob.get_tagged_mut(3, 10).unwrap().seq, 10);
        assert!(rob.get_tagged_mut(1, 3).is_none(), "retired");
    }

    #[test]
    fn squash_younger_splits_by_age() {
        let mut rob = Rob::new(8);
        for s in 1..=5 {
            rob.push(entry(s));
        }
        assert_eq!(
            rob.younger_than(3).map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(rob.squash_younger(3, &mut Rat::new()), 2);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.iter().last().unwrap().1.seq, 3);
        assert_eq!(rob.ready(), &[1, 2, 3]);
    }

    #[test]
    fn squash_walks_renames_back_youngest_first() {
        let mut rob = Rob::new(8);
        let mut rat = Rat::new();
        let cvt = |f: u8| Inst::CvtIF {
            fd: FReg(f),
            rs: Reg(1),
        };
        dispatch(&mut rob, &mut rat, 1, li(3)); // rid 1: r3
        dispatch(&mut rob, &mut rat, 2, li(4)); // rid 2: r4
        dispatch(&mut rob, &mut rat, 3, Inst::Nop); // rid 3: the branch
        dispatch(&mut rob, &mut rat, 4, li(3)); // rid 4: r3 over rid 1
        dispatch(&mut rob, &mut rat, 5, cvt(2)); // rid 5: f2 over arch
        dispatch(&mut rob, &mut rat, 6, li(3)); // rid 6: r3 over rid 4
        dispatch(&mut rob, &mut rat, 7, li(5)); // rid 7: r5 over arch
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Rob(6));

        // rid 1 commits while rid 4 holds r3: the table still names rid 6.
        rob.pop_head();
        rat.retire_i(Reg(3), 1);
        assert_eq!(rob.squash_younger(3, &mut rat), 4);
        // r3 goes back to rid 1, which retired: a stale mapping that reads
        // the architectural file (rid 1 is below the head, never reused).
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Rob(1));
        assert!(1 < rob.head_rid());
        assert_eq!(rat.lookup_i(Reg(4)), Mapping::Rob(2));
        assert_eq!(rat.lookup_f(FReg(2)), Mapping::Arch);
        assert_eq!(rat.lookup_i(Reg(5)), Mapping::Arch);

        // A flush clears the table with the window; rids are then reused.
        rob.clear();
        rat.clear();
        dispatch(&mut rob, &mut rat, 8, li(4));
        assert_eq!(rob.iter().next().map(|(rid, e)| (rid, e.seq)), Some((2, 8)));
        assert_eq!(rob.squash_younger(1, &mut rat), 1);
        assert_eq!(rat.lookup_i(Reg(4)), Mapping::Arch);
    }

    #[test]
    fn checkpoint_slots_are_reused() {
        // A branch's recovery state is one saved mapping in each entry
        // after it.  A squash frees those rids, and the next dispatch
        // reuses them with mappings saved afresh.
        let mut rob = Rob::new(8);
        let mut rat = Rat::new();
        dispatch(&mut rob, &mut rat, 1, li(3)); // rid 1
        dispatch(&mut rob, &mut rat, 2, Inst::Nop); // rid 2: the branch
        dispatch(&mut rob, &mut rat, 3, li(3)); // rid 3: r3 over rid 1
        rob.pop_head(); // commit #1 while rid 3 holds r3
        rat.retire_i(Reg(3), 1);
        assert_eq!(rob.squash_younger(2, &mut rat), 1);
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Rob(1));
        assert_eq!(rob.next_rid(), 3, "the squashed rid is free again");

        for seq in [4, 6, 8] {
            dispatch(&mut rob, &mut rat, seq, li(3)); // reuses rid 3
            dispatch(&mut rob, &mut rat, seq + 1, li(3)); // rid 4: over rid 3
            assert_eq!(rob.get(3).unwrap().seq, seq);
            assert_eq!(rob.get(3).unwrap().prev_mapping, Mapping::Rob(1));
            assert_eq!(rob.get(4).unwrap().prev_mapping, Mapping::Rob(3));
            assert_eq!(rob.squash_younger(2, &mut rat), 2);
            assert_eq!(rat.lookup_i(Reg(3)), Mapping::Rob(1));
        }

        // A flush clears the table with the window; the next recovery
        // puts back the architectural mapping.
        rob.clear();
        rat.clear();
        dispatch(&mut rob, &mut rat, 10, Inst::Nop); // rid 2 again
        dispatch(&mut rob, &mut rat, 11, li(3));
        assert_eq!(rob.squash_younger(2, &mut rat), 1);
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Arch);
    }

    #[test]
    fn mem_count_tracks_lsq_occupancy() {
        use wec_isa::inst::{LoadKind, StoreKind};
        let mut rob = Rob::new(8);
        rob.push(entry(1));
        let mut l = entry(2);
        l.inst = Inst::Load {
            kind: LoadKind::D,
            rd: Reg(1),
            base: Reg(2),
            off: 0,
        };
        rob.push(l);
        let mut s = entry(3);
        s.inst = Inst::Store {
            kind: StoreKind::D,
            rs: Reg(1),
            base: Reg(2),
            off: 0,
        };
        rob.push(s);
        assert_eq!(rob.mem_count(), 2);
        rob.pop_head(); // the nop
        assert_eq!(rob.mem_count(), 2);
        rob.pop_head(); // the load
        assert_eq!(rob.mem_count(), 1);
        rob.squash_younger(2, &mut Rat::new());
        assert_eq!(rob.mem_count(), 0);
    }

    #[test]
    fn serializer_presence_tracks_push_pop_squash() {
        let mut rob = Rob::new(8);
        assert!(!rob.has_serializer());
        rob.push(entry(1));
        let mut b = entry(2);
        b.inst = Inst::TsagDone;
        rob.push(b);
        assert!(rob.has_serializer());
        rob.squash_younger(1, &mut Rat::new());
        assert!(!rob.has_serializer());

        let mut b = entry(3);
        b.inst = Inst::TsagDone;
        rob.push(b);
        rob.pop_head(); // entry 1
        assert!(rob.has_serializer());
        rob.pop_head(); // the tsagdone
        assert!(!rob.has_serializer());

        let mut b = entry(4);
        b.inst = Inst::TsagDone;
        rob.push(b);
        rob.clear();
        assert!(!rob.has_serializer());
    }

    #[test]
    #[should_panic(expected = "still waiting")]
    fn src_val_panics_if_pending() {
        let mut e = entry(1);
        e.srcs[0] = SrcState::Waiting(9);
        e.src_val(0);
    }
}
