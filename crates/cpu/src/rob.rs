//! The reorder buffer and its wakeup/select structures.
//!
//! Entries carry their operand values (renamed from the RAT at dispatch,
//! filled in by wakeup), their computed result, and — for memory
//! operations — the effective address and issue state the load/store queue
//! logic in the core works on.  Entries are identified by monotonically
//! increasing sequence numbers, so age comparison is just `<`.
//!
//! Scheduling work scales with events, not with the window size, using the
//! structures of `sim-outorder`'s RUU:
//!
//! - **Wakeup** follows per-producer consumer chains.  [`Rob::push`] links
//!   every waiting source operand into its producer's chain — an intrusive
//!   LIFO list threaded through the consumers' entries, like sim-outorder's
//!   output-dependence (`odep`) lists — and `Rob::wakeup` visits exactly
//!   the operands waiting on the completing producer.
//! - **Select** walks the ready set: the sequence numbers of the `Waiting`
//!   entries whose sources are all ready, oldest first.  Push, wakeup,
//!   issue (`Rob::unready`), squash and clear keep it exact.
//!
//! The third structure, the completion queue, belongs to the core, since
//! only its issue stage fills it.

use std::collections::{vec_deque, VecDeque};
use std::num::NonZeroU64;

use wec_common::ids::{Addr, Cycle};
use wec_isa::inst::Inst;

use crate::regs::Rat;

/// A renamed source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcState {
    /// Value available.
    Ready(u64),
    /// Waiting on the ROB entry with this sequence number.
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

/// A link in a consumer chain: source slot `src` of the entry `seq`,
/// packed as `seq << 1 | src` (sequence numbers start at 1, so the packed
/// value is never zero and `Option<Link>` costs no extra space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link(NonZeroU64);

impl Link {
    fn new(seq: u64, src: usize) -> Link {
        Link(NonZeroU64::new(seq << 1 | src as u64).expect("sequence number 0"))
    }

    fn seq(self) -> u64 {
        self.0.get() >> 1
    }

    fn src(self) -> usize {
        (self.0.get() & 1) as usize
    }
}

/// A branch's RAT snapshot, held in the ROB's checkpoint store (see
/// `Rob::checkpoint`).  Not `Clone`: its slot is freed exactly once, when
/// it is restored or its branch leaves the window.
#[derive(Debug)]
pub struct Checkpoint(u32);

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
    /// RAT snapshot for recovery (conditional branches and `jr`).
    pub checkpoint: Option<Checkpoint>,
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
            checkpoint: None,
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
            SrcState::Waiting(seq) => panic!("source {i} still waiting on #{seq}"),
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
/// Entry sequence numbers are strictly increasing front-to-back (dispatch
/// pushes at the back, commit pops the front, recovery removes a suffix),
/// so age lookups are binary searches rather than scans.  Occupancy facts
/// the dispatch stage asks about every cycle (LSQ slots, serializing
/// instructions in flight) are maintained as counters on push/pop instead
/// of being recounted.
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Memory operations currently in the window (the LSQ occupancy).
    mem_ops: usize,
    /// In-flight dispatch-serializing instructions (`begin` / `tsagdone`).
    serializers: usize,
    /// The ready set: sequence numbers of the `Waiting` entries whose
    /// sources are all ready, oldest first.
    ready: Vec<u64>,
    /// Checkpoint store: RAT snapshots of in-flight branches.  Slots are
    /// recycled through `free_checkpoints`, so dispatch stops allocating
    /// once the store has grown to the most branches ever in flight.
    checkpoints: Vec<Rat>,
    free_checkpoints: Vec<u32>,
}

impl Rob {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            mem_ops: 0,
            serializers: 0,
            ready: Vec::with_capacity(capacity),
            checkpoints: Vec::new(),
            free_checkpoints: Vec::new(),
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

    /// Snapshot `rat` into the checkpoint store, reusing a free slot.
    pub(crate) fn checkpoint(&mut self, rat: &Rat) -> Checkpoint {
        match self.free_checkpoints.pop() {
            Some(i) => {
                self.checkpoints[i as usize].clone_from(rat);
                Checkpoint(i)
            }
            None => {
                self.checkpoints.push(rat.clone());
                Checkpoint(self.checkpoints.len() as u32 - 1)
            }
        }
    }

    /// Restore `rat` from `checkpoint` (misprediction recovery) and free
    /// its slot.
    pub(crate) fn restore_checkpoint(&mut self, checkpoint: Checkpoint, rat: &mut Rat) {
        rat.restore(&self.checkpoints[checkpoint.0 as usize]);
        self.free_checkpoints.push(checkpoint.0);
    }

    /// Bookkeeping for an entry leaving the window: occupancy counters and
    /// its checkpoint slot.
    fn retire_entry(&mut self, entry: &mut RobEntry) {
        if entry.inst.is_mem() {
            self.mem_ops -= 1;
        }
        if is_serializing(&entry.inst) {
            self.serializers -= 1;
        }
        if let Some(Checkpoint(i)) = entry.checkpoint.take() {
            self.free_checkpoints.push(i);
        }
    }

    /// Append the youngest entry.  Each waiting source is linked into its
    /// producer's consumer chain (the producer must be in flight), and the
    /// entry joins the ready set if it can issue at once.
    pub fn push(&mut self, mut entry: RobEntry) {
        debug_assert!(!self.is_full());
        debug_assert!(self
            .entries
            .back()
            .map(|b| b.seq < entry.seq)
            .unwrap_or(true));
        for src in 0..2 {
            if let SrcState::Waiting(p) = entry.srcs[src] {
                let producer = self
                    .get_mut(p)
                    .expect("source waits on a producer outside the window");
                entry.next_consumer[src] = producer.consumers;
                producer.consumers = Some(Link::new(entry.seq, src));
            }
        }
        if entry.inst.is_mem() {
            self.mem_ops += 1;
        }
        if is_serializing(&entry.inst) {
            self.serializers += 1;
        }
        if entry.is_ready() {
            self.ready.push(entry.seq); // youngest: order is kept
        }
        self.entries.push_back(entry);
    }

    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Retire the oldest entry (commit).  It is `Done`, so nothing waits
    /// on it; its checkpoint slot, if any, is freed.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let mut e = self.entries.pop_front()?;
        debug_assert!(e.consumers.is_none(), "retiring #{} with waiters", e.seq);
        self.retire_entry(&mut e);
        Some(e)
    }

    /// Index of the entry with sequence number `seq`, if still in flight.
    #[inline]
    pub(crate) fn pos(&self, seq: u64) -> Option<usize> {
        let i = self.entries.partition_point(|e| e.seq < seq);
        (i < self.entries.len() && self.entries[i].seq == seq).then_some(i)
    }

    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        self.pos(seq).map(|i| &self.entries[i])
    }

    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        self.pos(seq).map(|i| &mut self.entries[i])
    }

    /// Entry by position (0 = oldest). O(1).
    pub fn at(&self, idx: usize) -> &RobEntry {
        &self.entries[idx]
    }

    /// Mutable entry by position (0 = oldest). O(1).
    pub fn at_mut(&mut self, idx: usize) -> &mut RobEntry {
        &mut self.entries[idx]
    }

    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// The entries younger than `seq`, oldest first: what
    /// [`squash_younger`](Self::squash_younger) would remove.
    pub(crate) fn younger_than(&self, seq: u64) -> vec_deque::Iter<'_, RobEntry> {
        let keep = self.entries.partition_point(|e| e.seq <= seq);
        self.entries.range(keep..)
    }

    /// Remove every entry younger than `seq` in place (misprediction
    /// recovery) and return how many went.  The squashed operands leave
    /// their producers' chains youngest first: chains are LIFO and every
    /// squashed operand was linked after every surviving one, so each is
    /// its producer's chain head when its turn comes.
    pub fn squash_younger(&mut self, seq: u64) -> usize {
        let keep = self.entries.partition_point(|e| e.seq <= seq);
        let squashed = self.entries.len() - keep;
        for i in (keep..self.entries.len()).rev() {
            let c = self.entries[i].seq;
            for src in (0..2).rev() {
                let SrcState::Waiting(p) = self.entries[i].srcs[src] else {
                    continue;
                };
                if p > seq {
                    continue; // the producer goes too, chain and all
                }
                let next = self.entries[i].next_consumer[src];
                let producer = self.get_mut(p).expect("producer outside the window");
                debug_assert_eq!(producer.consumers, Some(Link::new(c, src)));
                producer.consumers = next;
            }
        }
        for _ in 0..squashed {
            let mut e = self.entries.pop_back().unwrap();
            self.retire_entry(&mut e);
        }
        let ready_keep = self.ready.partition_point(|&s| s <= seq);
        self.ready.truncate(ready_keep);
        squashed
    }

    /// Drop everything in place (full flush); the buffers keep their
    /// capacity.
    pub fn clear(&mut self) {
        self.free_checkpoints.clear();
        self.free_checkpoints
            .extend(0..self.checkpoints.len() as u32);
        self.entries.clear();
        self.ready.clear();
        self.mem_ops = 0;
        self.serializers = 0;
    }

    /// Wakeup: deliver `value` from producer `seq` to every operand waiting
    /// on it, walking only the producer's consumer chain; consumers left
    /// with no waiting operand join the ready set.
    pub(crate) fn wakeup(&mut self, seq: u64, value: u64) {
        let p = self.pos(seq).expect("waking a producer outside the window");
        let mut link = self.entries[p].consumers.take();
        while let Some(l) = link {
            let (c, src) = (l.seq(), l.src());
            let i = self.pos(c).expect("consumer chains hold in-flight entries");
            let e = &mut self.entries[i];
            debug_assert_eq!((e.seq, e.srcs[src]), (c, SrcState::Waiting(seq)));
            e.srcs[src] = SrcState::Ready(value);
            link = e.next_consumer[src].take();
            if e.is_ready() {
                let at = self.ready.partition_point(|&s| s < c);
                self.ready.insert(at, c);
            }
        }
    }

    /// Check the wakeup/select structures against the entries: the ready
    /// set is exactly the ready `Waiting` entries in age order, every
    /// waiting source is registered in its in-flight producer's consumer
    /// chain, and every chain link names a source waiting on that producer.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_scheduler(&self) -> Result<(), String> {
        let want: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.is_ready())
            .map(|e| e.seq)
            .collect();
        if self.ready != want {
            return Err(format!("ready set {:?}, want {want:?}", self.ready));
        }
        let chain = |producer: &RobEntry| {
            std::iter::successors(producer.consumers, |l| {
                self.get(l.seq()).and_then(|c| c.next_consumer[l.src()])
            })
        };
        for e in &self.entries {
            for l in chain(e) {
                let c = self.get(l.seq()).map(|c| c.srcs[l.src()]);
                if c != Some(SrcState::Waiting(e.seq)) {
                    return Err(format!(
                        "#{} chains #{} source {}, which is {c:?}",
                        e.seq,
                        l.seq(),
                        l.src()
                    ));
                }
            }
            for (src, s) in e.srcs.iter().enumerate() {
                let &SrcState::Waiting(p) = s else { continue };
                let registered = self
                    .get(p)
                    .is_some_and(|p| chain(p).any(|l| l == Link::new(e.seq, src)));
                if !registered {
                    return Err(format!(
                        "#{} source {src} waits on #{p} unregistered",
                        e.seq
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

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq as u32, Inst::Nop)
    }

    fn waiting(seq: u64, srcs: [SrcState; 2]) -> RobEntry {
        let mut e = entry(seq);
        e.srcs = srcs;
        e
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
        rob.push(entry(7));
        rob.push(waiting(8, [SrcState::Waiting(7), SrcState::Ready(5)]));
        assert_eq!(rob.ready(), &[7]);
        rob.wakeup(7, 99);
        let e = rob.get(8).unwrap();
        assert!(e.srcs_ready());
        assert_eq!(e.src_val(0), 99);
        assert_eq!(e.src_val(1), 5);
        assert_eq!(rob.ready(), &[7, 8]);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn wakeup_ignores_other_producers() {
        let mut rob = Rob::new(4);
        rob.push(entry(7));
        rob.push(entry(8));
        rob.push(waiting(9, [SrcState::Waiting(7), SrcState::Ready(0)]));
        rob.wakeup(8, 1);
        assert!(!rob.get(9).unwrap().srcs_ready());
        assert_eq!(rob.ready(), &[7, 8]);
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
        assert_eq!(rob.squash_younger(3), 2);
        rob.check_scheduler().unwrap();
        assert_eq!(rob.ready(), &[1, 3]);
        rob.wakeup(1, 7);
        assert_eq!(rob.get(2).unwrap().src_val(0), 7);
        assert_eq!(rob.ready(), &[1, 2, 3]);
        rob.check_scheduler().unwrap();
    }

    #[test]
    fn get_finds_by_seq_with_gaps() {
        let mut rob = Rob::new(8);
        for s in [3, 4, 7, 9] {
            rob.push(entry(s));
        }
        for s in [3, 4, 7, 9] {
            assert_eq!(rob.get(s).unwrap().seq, s);
            assert_eq!(rob.get_mut(s).unwrap().seq, s);
        }
        for s in [1, 2, 5, 6, 8, 10] {
            assert!(rob.get(s).is_none());
        }
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
        assert_eq!(rob.squash_younger(3), 2);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.iter().last().unwrap().seq, 3);
        assert_eq!(rob.ready(), &[1, 2, 3]);
    }

    #[test]
    fn checkpoint_slots_are_reused() {
        use crate::regs::Mapping;
        use wec_isa::reg::Reg;
        let mut rob = Rob::new(8);
        let mut rat = Rat::new();
        rat.set_i(Reg(3), 1);
        for seq in 1..=3 {
            let mut b = entry(seq);
            b.checkpoint = Some(rob.checkpoint(&rat));
            rob.push(b);
        }
        rob.pop_head(); // commit frees #1's slot
        rob.squash_younger(2); // squash frees #3's
        let cp = rob.get_mut(2).unwrap().checkpoint.take().unwrap();
        rat.set_i(Reg(3), 9);
        rob.restore_checkpoint(cp, &mut rat); // recovery frees #2's
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Rob(1));
        assert_eq!(rob.free_checkpoints.len(), 3);

        rob.push(entry(4));
        let mut b = entry(5);
        b.checkpoint = Some(rob.checkpoint(&Rat::new()));
        rob.push(b);
        rob.clear();
        assert_eq!(rob.checkpoints.len(), 3, "no slot allocated after warm-up");
        assert_eq!(rob.free_checkpoints.len(), 3, "flush frees every slot");
        let cp = rob.checkpoint(&Rat::new());
        rob.restore_checkpoint(cp, &mut rat);
        assert_eq!(rat.lookup_i(Reg(3)), Mapping::Arch);
    }

    #[test]
    fn mem_count_tracks_lsq_occupancy() {
        use wec_isa::inst::{LoadKind, StoreKind};
        use wec_isa::reg::Reg;
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
        rob.squash_younger(2);
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
        rob.squash_younger(1);
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
