//! The out-of-order pipeline.
//!
//! One [`Core`] models one thread unit's superscalar engine.  Each global
//! cycle the machine calls [`Core::tick`], which walks the pipeline stages in
//! reverse order (commit → complete → issue → dispatch → fetch) so values
//! flow between stages with the intended one-cycle boundaries.
//!
//! Per-cycle work scales with events, not with the window size.  Issue
//! fills a completion queue of `(done_at, seq, rid)` items, and complete
//! pops only what is due this cycle, oldest first: the `(done_at, seq)`
//! order.  The rid finds the entry (see [`crate::rob`]); the `seq` is a tag
//! that drops an item whose entry was squashed, even when the next dispatch
//! reused its rid.  Issue walks the ROB's ready set (the `Waiting` entries
//! whose operands are all ready, in age order), and a completing producer
//! wakes only the operands registered on it at rename.  A running unit
//! whose window is full but idle therefore costs almost nothing per cycle.
//!
//! After its tick a core can report itself [`Parked`] ([`Core::parked`]):
//! nothing is ready, the ROB head is not done, dispatch is blocked and
//! fetch is stalled, so every tick until its earliest queued completion
//! (or `fetch_ready_at`, when fetch waits on it) would only bump
//! `active_cycles` and at most two stall counters.  The machine jumps over
//! such cycles when every busy unit is parked and adds the skipped ticks
//! with [`Parked::bump`].
//!
//! Wrong-path behaviour (the paper's §3.1.1) is concentrated in the
//! recovery path of [`Core::tick`]: on a branch misprediction the squashed younger
//! instructions are sifted, and — when `CoreConfig::wrong_path_loads` is set
//! — every squashed load whose effective address is already computable is
//! handed to the [`WrongPathEngine`], which keeps issuing them to the memory
//! system tagged as wrong execution.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use wec_common::ids::{Addr, Cycle};
use wec_common::stats::{Counter, StatSet};
use wec_isa::inst::{FuClass, Inst, LoadKind};
use wec_isa::program::Program;
use wec_isa::reg::Reg;
use wec_isa::semantics::sext;
use wec_telemetry::profile::{NoProf, Phase, PhaseSink};
use wec_telemetry::{FlushRec, FlushTrace};

use crate::bpred::{Btb, DirectionPredictor, Ras};
use crate::config::CoreConfig;
use crate::env::{CoreEnv, MemIssue, StaOutcome, TEXT_BASE};
use crate::exec::{execute, gather_sources, ExecResult, SrcReg};
use crate::regs::{ArchRegs, Mapping, Rat};
use crate::rob::{Rob, RobEntry, SrcState, Stage};
use crate::trace::CommitTrace;
use crate::wrongpath::WrongPathEngine;

/// Instruction-cache block size assumed by the fetch stage (bytes). 8
/// instructions per block at 8 bytes per instruction.
pub const FETCH_BLOCK_BYTES: u64 = 64;

/// The "physical" address of an instruction index (for the I-cache).
#[inline]
pub fn pc_addr(pc: u32) -> Addr {
    Addr(TEXT_BASE + 8 * pc as u64)
}

/// Per-core statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles this core was active (running a thread or sequential code).
    pub active_cycles: Counter,
    pub fetched: Counter,
    pub dispatched: Counter,
    pub committed: Counter,
    pub committed_loads: Counter,
    pub committed_stores: Counter,
    pub cond_branches: Counter,
    pub mispredicted_branches: Counter,
    pub indirect_jumps: Counter,
    pub mispredicted_indirect: Counter,
    pub recoveries: Counter,
    pub forwarded_loads: Counter,
    /// Cycles fetch waited on the instruction cache.
    pub icache_stall_cycles: Counter,
    /// Dispatch attempts blocked by a full ROB.
    pub rob_full_stalls: Counter,
    /// Commit attempts blocked by the environment (fork/abort/store stalls).
    pub commit_stalls: Counter,
}

impl CoreStats {
    pub fn dump(&self, out: &mut StatSet, prefix: &str) {
        let mut put = |name: &str, v: u64| out.push(format!("{prefix}.{name}"), v);
        put("active_cycles", self.active_cycles.get());
        put("fetched", self.fetched.get());
        put("dispatched", self.dispatched.get());
        put("committed", self.committed.get());
        put("committed_loads", self.committed_loads.get());
        put("committed_stores", self.committed_stores.get());
        put("cond_branches", self.cond_branches.get());
        put("mispredicted_branches", self.mispredicted_branches.get());
        put("indirect_jumps", self.indirect_jumps.get());
        put("mispredicted_indirect", self.mispredicted_indirect.get());
        put("recoveries", self.recoveries.get());
        put("forwarded_loads", self.forwarded_loads.get());
        put("icache_stall_cycles", self.icache_stall_cycles.get());
        put("rob_full_stalls", self.rob_full_stalls.get());
        put("commit_stalls", self.commit_stalls.get());
    }

    /// Branch misprediction rate over conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        let b = self.cond_branches.get();
        if b == 0 {
            0.0
        } else {
            self.mispredicted_branches.get() as f64 / b as f64
        }
    }
}

/// What a parked core's ticks do until it wakes: nothing but bump
/// `active_cycles`, and the two stall counters flagged here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parked {
    /// The first cycle at which the core can act again: its earliest
    /// queued completion, or `fetch_ready_at` when fetch waits on it.
    pub wake: Cycle,
    /// Each parked tick bumps `rob_full_stalls`: dispatch stops at the
    /// full ROB.
    pub rob_full: bool,
    /// Each parked tick bumps `icache_stall_cycles`: fetch waits for
    /// `fetch_ready_at`.
    pub icache: bool,
}

impl Parked {
    /// Add to `stats` exactly the bumps of `cycles` parked ticks.
    pub fn bump(&self, stats: &mut CoreStats, cycles: u64) {
        stats.active_cycles.add(cycles);
        if self.rob_full {
            stats.rob_full_stalls.add(cycles);
        }
        if self.icache {
            stats.icache_stall_cycles.add(cycles);
        }
    }
}

/// A core's [`Core::quiet_fingerprint`] (a test aid).
#[cfg(any(test, debug_assertions))]
#[derive(Debug, PartialEq)]
pub struct QuietCore {
    running: bool,
    stages: Vec<Stage>,
    ready: Vec<u64>,
    completions: Vec<(Cycle, u64, u64)>,
    fetch_queue: Vec<u32>,
    /// PC, ready cycle, enabled, `jr` stall, current block.
    fetch: (u32, Cycle, bool, bool, Option<Addr>),
    next_seq: u64,
    wrong_path: usize,
    stats: CoreStats,
}

/// An instruction waiting between fetch and dispatch.
#[derive(Clone, Debug)]
struct FetchedInst {
    pc: u32,
    inst: Inst,
    predicted_taken: bool,
    predicted_target: u32,
}

const FU_CLASSES: usize = 7;

#[inline]
fn fu_index(class: FuClass) -> Option<usize> {
    Some(match class {
        FuClass::IntAlu => 0,
        FuClass::IntMul => 1,
        FuClass::IntDiv => 2,
        FuClass::FpAlu => 3,
        FuClass::FpMul => 4,
        FuClass::FpDiv => 5,
        FuClass::Mem => 6,
        FuClass::None => return None,
    })
}

/// One thread unit's out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    // -------- fetch --------
    running: bool,
    fetch_enabled: bool,
    fetch_pc: u32,
    fetch_ready_at: Cycle,
    fetch_block: Option<Addr>,
    fetch_queue: VecDeque<FetchedInst>,
    jr_stall: bool,
    bimodal: DirectionPredictor,
    btb: Btb,
    ras: Ras,
    // -------- rename / window --------
    next_seq: u64,
    rat: Rat,
    rob: Rob,
    /// Committed architectural state. The machine writes this directly when
    /// it starts a thread on this core (fork register transfer).
    pub arch: ArchRegs,
    // -------- per-cycle FU accounting --------
    fu_cycle: Cycle,
    fu_used: [u32; FU_CLASSES],
    // -------- wrong path --------
    pub wp_engine: WrongPathEngine,
    /// Recovery scratch: squashed-producer results, indexed by position in
    /// the squashed suffix.  Kept on the core so a mispredict-heavy run
    /// does not allocate a map per recovery.
    recover_produced: Vec<Option<u64>>,
    /// Pending completions, `(done_at, seq, rid)`, earliest first: one per
    /// `Executing` entry, pushed at issue.  An entry squashed after issuing
    /// leaves a stale item; when it comes due its rid is outside the window
    /// or names a younger entry with another `seq`, and it is dropped.
    completions: BinaryHeap<Reverse<(Cycle, u64, u64)>>,
    pub stats: CoreStats,
    /// Recent commits (enabled via `CoreConfig::commit_trace`).
    pub commit_trace: CommitTrace,
    /// Gated telemetry buffer of pipeline flushes (branch recoveries);
    /// drained by the machine each cycle.
    pub flush_trace: FlushTrace,
}

impl Core {
    pub fn new(cfg: CoreConfig, program: Arc<Program>) -> Self {
        let bimodal = DirectionPredictor::new(cfg.bpred, cfg.bimodal_entries);
        let btb = Btb::new(cfg.btb_entries, cfg.btb_ways);
        let ras = Ras::new(cfg.ras_depth);
        let rob = Rob::new(cfg.rob_size);
        let wp_engine = WrongPathEngine::new(cfg.wrong_path_queue);
        let commit_trace = CommitTrace::new(cfg.commit_trace);
        Core {
            cfg,
            program,
            running: false,
            fetch_enabled: false,
            fetch_pc: 0,
            fetch_ready_at: Cycle::ZERO,
            fetch_block: None,
            fetch_queue: VecDeque::new(),
            jr_stall: false,
            bimodal,
            btb,
            ras,
            next_seq: 1,
            rat: Rat::new(),
            rob,
            arch: ArchRegs::new(),
            fu_cycle: Cycle::ZERO,
            fu_used: [0; FU_CLASSES],
            wp_engine,
            recover_produced: Vec::new(),
            completions: BinaryHeap::new(),
            stats: CoreStats::default(),
            commit_trace,
            flush_trace: FlushTrace::default(),
        }
    }

    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Begin executing at `pc` (thread start or sequential resume).  The
    /// caller sets `self.arch` beforehand.  Predictor state persists across
    /// threads (it is per thread *unit*).
    pub fn start(&mut self, pc: u32, now: Cycle) {
        self.flush();
        self.running = true;
        self.fetch_enabled = true;
        self.fetch_pc = pc;
        self.fetch_ready_at = now;
    }

    /// Stop executing and drop all in-flight state (thread killed or ended).
    pub fn force_stop(&mut self) {
        self.flush();
        self.running = false;
    }

    pub fn is_running(&self) -> bool {
        self.running
    }

    /// In-flight instructions (tests, occupancy probes).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// One-line description of the ROB head and fetch state (debugging).
    pub fn debug_head(&self) -> String {
        let head = self
            .rob
            .head()
            .map(|e| {
                format!(
                    "head #{} pc={} {:?} {:?} srcs_ready={}",
                    e.seq,
                    e.pc,
                    e.inst,
                    e.stage,
                    e.srcs_ready()
                )
            })
            .unwrap_or_else(|| "rob empty".into());
        format!(
            "{head} | fetch_pc={} enabled={} jr_stall={} queue={}",
            self.fetch_pc,
            self.fetch_enabled,
            self.jr_stall,
            self.fetch_queue.len()
        )
    }

    /// Check the scheduler's invariants: the ROB's ready set and consumer
    /// chains (see `Rob::check_scheduler`), the rename table, and exactly
    /// one queued completion per `Executing` entry, due at its `done_at`.
    /// A test aid (the scheduler property test calls it after every tick);
    /// release builds do not contain it.
    #[cfg(any(test, debug_assertions))]
    pub fn check_scheduler(&self) -> Result<(), String> {
        use wec_isa::reg::{FReg, NUM_FREGS, NUM_IREGS};
        self.rob.check_scheduler()?;
        // Each register's rename mapping names its youngest in-flight
        // writer; with none in flight, the architectural file or a retired
        // entry (whose value the architectural file holds).
        let mut writer_i = [None; NUM_IREGS];
        let mut writer_f = [None; NUM_FREGS];
        for (rid, e) in self.rob.iter() {
            if let Some(rd) = e.inst.dest_ireg() {
                writer_i[rd.index()] = Some(rid);
            }
            if let Some(fd) = e.inst.dest_freg() {
                writer_f[fd.index()] = Some(rid);
            }
        }
        let retired_below = self.rob.head_rid();
        let mappings = (1..NUM_IREGS)
            .map(|i| ('r', i, self.rat.lookup_i(Reg(i as u8)), writer_i[i]))
            .chain((0..NUM_FREGS).map(|i| ('f', i, self.rat.lookup_f(FReg(i as u8)), writer_f[i])));
        for (file, i, mapping, writer) in mappings {
            let ok = match (writer, mapping) {
                (Some(w), m) => m == Mapping::Rob(w),
                (None, Mapping::Arch) => true,
                (None, Mapping::Rob(s)) => s < retired_below,
            };
            if !ok {
                return Err(format!(
                    "{file}{i} maps to {mapping:?}, youngest in-flight writer {writer:?}"
                ));
            }
        }
        for &Reverse((at, seq, rid)) in &self.completions {
            match self.rob.get(rid) {
                Some(e) if e.seq == seq && (e.stage != Stage::Executing || e.done_at != at) => {
                    return Err(format!(
                        "completion ({at:?}, #{seq}, rid {rid}) queued for {:?} entry done at {:?}",
                        e.stage, e.done_at
                    ));
                }
                _ => {}
            }
        }
        for (rid, e) in self.rob.iter().filter(|(_, e)| e.stage == Stage::Executing) {
            let n = self
                .completions
                .iter()
                .filter(|&&Reverse((_, seq, r))| (seq, r) == (e.seq, rid))
                .count();
            if n != 1 {
                return Err(format!("executing #{} has {n} queued completions", e.seq));
            }
        }
        Ok(())
    }

    /// Everything the ticks of a parked core must leave alone: each ROB
    /// entry's stage, the ready set, the queued completions, the fetch
    /// queue and fetch state, the next sequence number, the wrong-path
    /// queue, and every counter except the three a parked tick bumps.  A
    /// test aid beside [`Core::check_scheduler`] (see [`Core::parked`]).
    #[cfg(any(test, debug_assertions))]
    pub fn quiet_fingerprint(&self) -> QuietCore {
        let mut completions: Vec<_> = self.completions.iter().map(|r| r.0).collect();
        completions.sort_unstable();
        let mut stats = self.stats.clone();
        stats.active_cycles = Counter::default();
        stats.rob_full_stalls = Counter::default();
        stats.icache_stall_cycles = Counter::default();
        QuietCore {
            running: self.running,
            stages: self.rob.iter().map(|(_, e)| e.stage).collect(),
            ready: self.rob.ready().to_vec(),
            completions,
            fetch_queue: self.fetch_queue.iter().map(|f| f.pc).collect(),
            fetch: (
                self.fetch_pc,
                self.fetch_ready_at,
                self.fetch_enabled,
                self.jr_stall,
                self.fetch_block,
            ),
            next_seq: self.next_seq,
            wrong_path: self.wp_engine.len(),
            stats,
        }
    }

    /// After the tick of cycle `now`: `Some` when every tick from `now + 1`
    /// up to (not including) the returned wake would change nothing but
    /// the counters [`Parked`] names.  That holds when the core runs, its
    /// wrong-path queue and ready set are empty, the ROB head is not
    /// `Done`, dispatch is blocked (empty fetch queue, full ROB, serializer
    /// in flight, or full LSQ) and fetch is stalled (disabled, a `jr`
    /// stall, a full queue, or waiting for `fetch_ready_at`).  Only a
    /// completion or `fetch_ready_at` can then end the wait.  A stale
    /// completion of a squashed entry wakes the core early, which is safe.
    /// Store-blocked loads sit in the ready set and heads stalled at commit
    /// are `Done`, so neither parks.
    pub fn parked(&self, now: Cycle) -> Option<Parked> {
        if !self.running || !self.wp_engine.is_empty() || !self.rob.ready().is_empty() {
            return None;
        }
        if self.rob.head().is_some_and(|h| h.stage == Stage::Done) {
            return None;
        }
        // Dispatch's checks, in its order.
        let rob_full = match self.fetch_queue.front() {
            None => false,
            Some(_) if self.rob.is_full() => true,
            Some(_) if self.rob.has_serializer() => false,
            Some(f) if f.inst.is_mem() && self.rob.mem_count() >= self.cfg.lsq_size => false,
            Some(_) => return None,
        };
        // Fetch's checks, in its order.
        let fetch_wake = if !self.fetch_enabled
            || self.jr_stall
            || self.fetch_queue.len() >= 2 * self.cfg.width as usize
        {
            None
        } else if now.plus(1) < self.fetch_ready_at {
            Some(self.fetch_ready_at)
        } else {
            return None;
        };
        let completion = self.completions.peek().map(|r| r.0 .0);
        let wake = match (completion, fetch_wake) {
            (Some(c), Some(f)) => c.min(f),
            (c, f) => c.or(f)?,
        };
        (wake > now.plus(1)).then_some(Parked {
            wake,
            rob_full,
            icache: fetch_wake.is_some(),
        })
    }

    fn flush(&mut self) {
        self.rob.clear();
        self.completions.clear();
        self.rat.clear();
        self.fetch_queue.clear();
        self.fetch_block = None;
        self.jr_stall = false;
        self.fetch_enabled = false;
    }

    // ------------------------------------------------------------------
    // The pipeline
    // ------------------------------------------------------------------

    /// Advance one cycle.
    pub fn tick(&mut self, env: &mut dyn CoreEnv, now: Cycle) {
        self.tick_with(&mut NoProf, env, now);
    }

    /// [`Core::tick`] with per-phase wall-clock attribution.  The pipeline
    /// is written once, generic over the [`PhaseSink`]; the [`NoProf`]
    /// instantiation (what [`Core::tick`] calls) monomorphizes to exactly
    /// the uninstrumented loop, so profiling costs nothing when off.
    pub fn tick_with<S: PhaseSink>(&mut self, sink: &mut S, env: &mut dyn CoreEnv, now: Cycle) {
        let mut t = S::mark();
        // Wrong-path loads keep issuing even while the core itself idles
        // (e.g. a wrong thread already died but its loads are queued).
        self.wp_engine.tick(env, now, 2);
        sink.lap(&mut t, Phase::Mem);
        if !self.running {
            return;
        }
        self.stats.active_cycles.inc();
        self.commit(env, now);
        sink.lap(&mut t, Phase::CommitRecovery);
        if !self.running {
            return;
        }
        self.complete(now);
        self.issue(env, now);
        sink.lap(&mut t, Phase::Exec);
        self.dispatch(now);
        self.fetch(env, now);
        sink.lap(&mut t, Phase::FetchRename);
    }

    // -------- commit --------

    /// Release the committing instruction's RAT mappings (only its own
    /// destination slots can name its rid).
    fn retire_rat(&mut self, inst: &Inst, rid: u64) {
        if let Some(rd) = inst.dest_ireg() {
            self.rat.retire_i(rd, rid);
        }
        if let Some(fd) = inst.dest_freg() {
            self.rat.retire_f(fd, rid);
        }
    }

    fn commit(&mut self, env: &mut dyn CoreEnv, now: Cycle) {
        let mut committed = 0;
        while committed < self.cfg.width {
            let Some(head) = self.rob.head() else { break };
            if head.stage != Stage::Done {
                break;
            }
            let inst = head.inst;
            let rid = self.rob.head_rid();

            if inst.is_store() {
                let addr = head.eff_addr.expect("done store without address");
                let data = head.store_data.expect("done store without data");
                let bytes = inst.mem_bytes().unwrap();
                if !env.commit_store(addr, bytes, data, now) {
                    self.stats.commit_stalls.inc();
                    break;
                }
                self.stats.committed_stores.inc();
            } else if inst.is_sta() || matches!(inst, Inst::Halt) {
                match env.sta_commit(&inst, &self.arch, now) {
                    StaOutcome::Continue => {}
                    StaOutcome::Stall => {
                        self.stats.commit_stalls.inc();
                        break;
                    }
                    StaOutcome::Redirect(pc) => {
                        let entry = self.rob.pop_head().unwrap();
                        self.stats.committed.inc();
                        self.commit_trace
                            .record(now, entry.seq, entry.pc, entry.inst);
                        self.flush();
                        self.fetch_enabled = true;
                        self.fetch_pc = pc;
                        self.fetch_ready_at = now.plus(1);
                        return;
                    }
                    StaOutcome::Stop => {
                        self.stats.committed.inc();
                        self.force_stop();
                        return;
                    }
                }
            } else {
                if let Some(rd) = inst.dest_ireg() {
                    self.arch.write_i(rd, self.rob.head().unwrap().result);
                }
                if let Some(fd) = inst.dest_freg() {
                    self.arch.write_f_bits(fd, self.rob.head().unwrap().result);
                }
                if inst.is_load() {
                    self.stats.committed_loads.inc();
                }
            }
            let retired = self.rob.pop_head().unwrap();
            self.retire_rat(&inst, rid);
            self.stats.committed.inc();
            self.commit_trace
                .record(now, retired.seq, retired.pc, retired.inst);
            committed += 1;
        }
    }

    // -------- complete / resolve --------

    fn complete(&mut self, now: Cycle) {
        // Pop what is due, oldest first.  A completion comes due exactly at
        // its `done_at` (latencies are at least one cycle, and this runs
        // every cycle the core runs), so everything popped here shares
        // `now` and the `(done_at, seq)` order is age order.  A recovery may
        // squash younger entries; their queued items then fail the tagged
        // lookup.
        while let Some(&Reverse((at, seq, rid))) = self.completions.peek() {
            if at > now {
                break;
            }
            self.completions.pop();
            let Some(e) = self.rob.get_tagged_mut(rid, seq) else {
                continue; // squashed after it issued
            };
            debug_assert_eq!((at, e.stage), (now, Stage::Executing));
            e.stage = Stage::Done;
            let inst = e.inst;
            let (pc, result) = (e.pc, e.result);
            let (taken, target) = (e.resolved_taken, e.resolved_target);
            let (predicted_taken, predicted_target) = (e.predicted_taken, e.predicted_target);
            if inst.dest_ireg().is_some() || inst.dest_freg().is_some() {
                self.rob.wakeup(rid, result);
            }
            match inst {
                Inst::Branch { .. } => {
                    self.stats.cond_branches.inc();
                    self.bimodal.update(pc, taken);
                    if taken {
                        self.btb.update(pc, target);
                    }
                    let actual_next = if taken { target } else { pc + 1 };
                    if taken != predicted_taken {
                        self.stats.mispredicted_branches.inc();
                        self.recover(rid, actual_next, now);
                    }
                }
                Inst::Jr { .. } => {
                    self.stats.indirect_jumps.inc();
                    self.btb.update(pc, target);
                    if predicted_target == u32::MAX {
                        // Fetch was stalled waiting for this jr: redirect,
                        // nothing younger exists to squash.
                        self.jr_stall = false;
                        self.fetch_enabled = true;
                        self.fetch_pc = target;
                        self.fetch_ready_at = now.plus(1);
                        self.fetch_block = None;
                    } else if predicted_target != target {
                        self.stats.mispredicted_indirect.inc();
                        self.recover(rid, target, now);
                    }
                }
                _ => {}
            }
        }
    }

    /// Branch misprediction recovery: squash everything younger than the
    /// branch `rid`, walking the RAT back, redirect fetch — and feed
    /// address-ready squashed loads to the wrong-path engine (§3.1.1).
    fn recover(&mut self, rid: u64, new_pc: u32, now: Cycle) {
        self.stats.recoveries.inc();
        let branch_pc = self
            .rob
            .get(rid)
            .expect("recovering branch without ROB entry")
            .pc;
        if self.cfg.wrong_path_loads {
            // Results of squashed producers that already issued: functional
            // execution computes a value at issue, so any non-waiting entry
            // carries its result even if its latency has not elapsed.  A
            // squashed load whose base comes from such a producer is
            // "ready" in the paper's sense — its effective address is
            // computable when the branch resolves (Figure 3's loads C/D).
            // Squashed rids run from `rid + 1` with no gaps, so the producer
            // table is a dense vector indexed by `p - (rid + 1)`, reused
            // across recoveries.  The suffix is sifted in place, before it
            // is squashed.
            let squashed = self.rob.younger_than(rid);
            self.recover_produced.clear();
            self.recover_produced.extend(squashed.clone().map(|e| {
                let produces = e.inst.dest_ireg().is_some() || e.inst.dest_freg().is_some();
                (e.stage != Stage::Waiting && produces).then_some(e.result)
            }));
            for e in squashed {
                if !e.inst.is_load() || e.mem_issued {
                    continue;
                }
                let base = match e.srcs[0] {
                    SrcState::Ready(base) => Some(base),
                    // A producer at or before the branch survives and has
                    // no slot in the table: None.
                    SrcState::Waiting(p) => p
                        .checked_sub(rid + 1)
                        .and_then(|i| self.recover_produced.get(i as usize))
                        .copied()
                        .flatten(),
                };
                let addr = e.eff_addr.or_else(|| {
                    base.map(|b| {
                        let off = e.inst.mem_offset().unwrap_or(0);
                        Addr(b.wrapping_add(off as i64 as u64))
                    })
                });
                if let Some(addr) = addr {
                    self.wp_engine.push(addr, e.inst.mem_bytes().unwrap(), e.pc);
                }
            }
        }
        let squashed = self.rob.squash_younger(rid, &mut self.rat);
        self.flush_trace.push(FlushRec {
            cycle: now.0,
            pc: branch_pc,
            new_pc,
            squashed: squashed as u32,
        });
        self.fetch_queue.clear();
        self.jr_stall = false;
        self.fetch_enabled = true;
        self.fetch_pc = new_pc;
        self.fetch_ready_at = now.plus(1);
        self.fetch_block = None;
    }

    // -------- issue / execute --------

    fn claim_fu(&mut self, class: FuClass, now: Cycle) -> bool {
        let Some(idx) = fu_index(class) else {
            return true;
        };
        if self.fu_cycle != now {
            self.fu_cycle = now;
            self.fu_used = [0; FU_CLASSES];
        }
        if self.fu_used[idx] < self.cfg.units(class) {
            self.fu_used[idx] += 1;
            true
        } else {
            false
        }
    }

    fn issue(&mut self, env: &mut dyn CoreEnv, now: Cycle) {
        // Select walks the ready set oldest first.  Issuing never wakes an
        // entry (wakeup happens at completion), so the set only shrinks
        // during the walk; an entry that fails to start stays for next cycle.
        let mut issued = 0;
        let mut k = 0;
        while k < self.rob.ready().len() && issued < self.cfg.width {
            let rid = self.rob.ready()[k];
            let idx = self.rob.pos(rid).expect("ready entry outside the window");
            let inst = self.rob.at(idx).inst;
            let class = inst.fu_class();
            if inst.is_load() {
                if self.try_issue_load(env, idx, rid, now) {
                    issued += 1;
                }
            } else if inst.is_store() {
                if self.claim_fu(FuClass::Mem, now) {
                    let e = self.rob.at_mut(idx);
                    let (v0, v1) = (e.src_val(0), e.src_val(1));
                    if let ExecResult::StoreReady { addr, data } = execute(&e.inst, v0, v1, e.pc) {
                        e.eff_addr = Some(addr);
                        e.store_data = Some(data);
                        e.stage = Stage::Done;
                        e.done_at = now;
                    } else {
                        unreachable!("store executed to non-store result");
                    }
                    issued += 1;
                }
            } else if self.claim_fu(class, now) {
                let latency = self.cfg.latency(class);
                let e = self.rob.at_mut(idx);
                let (v0, v1) = (e.src_val(0), e.src_val(1));
                match execute(&e.inst, v0, v1, e.pc) {
                    ExecResult::Value(v) => e.result = v,
                    ExecResult::Branch { taken, target } => {
                        e.resolved_taken = taken;
                        e.resolved_target = target;
                    }
                    ExecResult::IndirectTarget(t) => e.resolved_target = t,
                    ExecResult::AnnounceAddr(a) => {
                        e.eff_addr = Some(a);
                        e.result = a.0;
                    }
                    ExecResult::None => {}
                    other => unreachable!("unexpected exec result {other:?}"),
                }
                e.stage = Stage::Executing;
                e.done_at = now.plus(latency);
                self.completions.push(Reverse((e.done_at, e.seq, rid)));
                issued += 1;
            }
            if self.rob.at(idx).stage == Stage::Waiting {
                k += 1;
            } else {
                self.rob.unready(k);
            }
        }
    }

    /// Try to issue the load at ROB position `idx` (rid `rid`).  Returns
    /// true if it consumed an issue slot (even if it only computed its
    /// address).
    fn try_issue_load(&mut self, env: &mut dyn CoreEnv, idx: usize, rid: u64, now: Cycle) -> bool {
        // Compute the effective address first (cheap, idempotent).
        {
            let e = self.rob.at_mut(idx);
            if e.eff_addr.is_none() {
                let base = e.src_val(0);
                let off = e.inst.mem_offset().unwrap();
                e.eff_addr = Some(Addr(base.wrapping_add(off as i64 as u64)));
            }
        }
        let (addr, bytes, kind, pc) = {
            let e = self.rob.at(idx);
            let kind = match e.inst {
                Inst::Load { kind, .. } => Some(kind),
                _ => None,
            };
            (e.eff_addr.unwrap(), e.inst.mem_bytes().unwrap(), kind, e.pc)
        };

        // Memory-ordering check against all older stores (conservative: no
        // memory-dependence speculation, like sim-outorder's default).
        let mut forward_from: Option<u64> = None;
        for j in (0..idx).rev() {
            let older = self.rob.at(j);
            if !older.inst.is_store() {
                continue;
            }
            match older.eff_addr {
                None => return false, // unknown older store address: wait
                Some(saddr) => {
                    let sbytes = older.inst.mem_bytes().unwrap();
                    let overlap = saddr.0 < addr.0 + bytes && addr.0 < saddr.0 + sbytes;
                    if !overlap {
                        continue;
                    }
                    if saddr == addr && sbytes == bytes {
                        match older.store_data {
                            Some(d) => {
                                forward_from = Some(d);
                                break;
                            }
                            None => return false, // data not ready yet
                        }
                    }
                    // Partial overlap: wait for the store to commit.
                    return false;
                }
            }
        }

        if !self.claim_fu(FuClass::Mem, now) {
            return false;
        }

        if let Some(raw) = forward_from {
            let e = self.rob.at_mut(idx);
            e.result = extend_load(kind, raw, bytes);
            e.stage = Stage::Executing;
            e.done_at = now.plus(1);
            e.mem_issued = true;
            e.forwarded = true;
            self.completions.push(Reverse((e.done_at, e.seq, rid)));
            self.stats.forwarded_loads.inc();
            return true;
        }

        match env.load(addr, bytes, now, false, pc) {
            MemIssue::Done { ready_at, value } => {
                let e = self.rob.at_mut(idx);
                e.result = extend_load(kind, value, bytes);
                e.stage = Stage::Executing;
                e.done_at = ready_at.max(now.plus(1));
                e.mem_issued = true;
                self.completions.push(Reverse((e.done_at, e.seq, rid)));
                true
            }
            // Port/MSHR pressure or dependence wait: retry next cycle (the
            // issue slot was consumed by the attempt).
            MemIssue::Retry | MemIssue::Blocked => true,
        }
    }

    // -------- dispatch / rename --------

    fn dispatch(&mut self, now: Cycle) {
        let mut dispatched = 0;
        while dispatched < self.cfg.width {
            if self.fetch_queue.is_empty() {
                break;
            }
            if self.rob.is_full() {
                self.stats.rob_full_stalls.inc();
                break;
            }
            if self.rob.has_serializer() {
                break;
            }
            let f = self.fetch_queue.front().unwrap();
            if f.inst.is_mem() && self.rob.mem_count() >= self.cfg.lsq_size {
                break;
            }
            let f = self.fetch_queue.pop_front().unwrap();
            let seq = self.next_seq;
            self.next_seq += 1;
            let rid = self.rob.next_rid();
            let mut e = RobEntry::new(seq, f.pc, f.inst);
            e.predicted_taken = f.predicted_taken;
            e.predicted_target = f.predicted_target;

            // Rename sources.
            for (slot, src) in gather_sources(&f.inst).into_iter().enumerate() {
                e.srcs[slot] = match src {
                    None => SrcState::Ready(0),
                    Some(SrcReg::I(r)) => {
                        if r.is_zero() {
                            SrcState::Ready(0)
                        } else {
                            match self.rat.lookup_i(r) {
                                Mapping::Arch => SrcState::Ready(self.arch.read_i(r)),
                                Mapping::Rob(p) => self.producer_state(p, self.arch.read_i(r)),
                            }
                        }
                    }
                    Some(SrcReg::F(r)) => match self.rat.lookup_f(r) {
                        Mapping::Arch => SrcState::Ready(self.arch.read_f_bits(r)),
                        Mapping::Rob(p) => self.producer_state(p, self.arch.read_f_bits(r)),
                    },
                };
            }

            // Rename the destination, keeping the mapping it replaces for
            // recovery to put back.
            if let Some(rd) = f.inst.dest_ireg() {
                e.prev_mapping = self.rat.set_i(rd, rid);
            }
            if let Some(fd) = f.inst.dest_freg() {
                e.prev_mapping = self.rat.set_f(fd, rid);
            }

            // Zero-latency instructions complete at dispatch.
            if f.inst.fu_class() == FuClass::None {
                if let ExecResult::Value(v) = execute(&f.inst, 0, 0, f.pc) {
                    e.result = v; // jal's return index
                }
                e.stage = Stage::Done;
                e.done_at = now;
            }

            self.rob.push(e);
            self.stats.dispatched.inc();
            dispatched += 1;
        }
    }

    fn producer_state(&self, producer: u64, arch_value: u64) -> SrcState {
        match self.rob.get(producer) {
            Some(p) if p.stage == Stage::Done => SrcState::Ready(p.result),
            Some(_) => SrcState::Waiting(producer),
            // The producer already committed.  This happens when recovery
            // puts back a mapping whose entry retired while a squashed
            // writer displaced it; its value is in the architectural file
            // (rids below the head are never reused, so no aliasing).
            None => SrcState::Ready(arch_value),
        }
    }

    // -------- fetch --------

    fn fetch(&mut self, env: &mut dyn CoreEnv, now: Cycle) {
        if !self.fetch_enabled || self.jr_stall {
            return;
        }
        if self.fetch_queue.len() >= 2 * self.cfg.width as usize {
            return;
        }
        if now < self.fetch_ready_at {
            self.stats.icache_stall_cycles.inc();
            return;
        }
        // Instruction-cache access for the current fetch block.
        let block = pc_addr(self.fetch_pc).block_base(FETCH_BLOCK_BYTES);
        if self.fetch_block != Some(block) {
            match env.ifetch(block, now) {
                MemIssue::Done { ready_at, .. } => {
                    self.fetch_block = Some(block);
                    if ready_at > now.plus(1) {
                        self.fetch_ready_at = ready_at;
                        self.stats.icache_stall_cycles.inc();
                        return;
                    }
                }
                MemIssue::Retry | MemIssue::Blocked => {
                    self.stats.icache_stall_cycles.inc();
                    return;
                }
            }
        }

        let mut fetched = 0;
        while fetched < self.cfg.width {
            if pc_addr(self.fetch_pc).block_base(FETCH_BLOCK_BYTES) != block {
                break; // next block next cycle
            }
            let pc = self.fetch_pc;
            let Ok(inst) = self.program.fetch(pc) else {
                // Ran off the text segment (only possible on a wrong path
                // that will be squashed, or a malformed program the machine's
                // cycle limit will catch).
                self.fetch_enabled = false;
                break;
            };
            self.stats.fetched.inc();
            fetched += 1;
            let mut fi = FetchedInst {
                pc,
                inst,
                predicted_taken: false,
                predicted_target: u32::MAX,
            };
            match inst {
                Inst::Branch { target, .. } => {
                    let taken = self.bimodal.predict(pc);
                    fi.predicted_taken = taken;
                    if taken {
                        fi.predicted_target = target;
                        // BTB models the redirect timing: a miss costs one
                        // fetch bubble even though the target is in the
                        // instruction word.
                        if self.btb.lookup(pc).is_none() {
                            self.btb.update(pc, target);
                            self.fetch_ready_at = now.plus(2);
                        }
                        self.fetch_pc = target;
                        self.fetch_queue.push_back(fi);
                        break;
                    } else {
                        fi.predicted_target = pc + 1;
                        self.fetch_pc = pc + 1;
                        self.fetch_queue.push_back(fi);
                    }
                }
                Inst::Jump { target } => {
                    if self.btb.lookup(pc).is_none() {
                        self.btb.update(pc, target);
                        self.fetch_ready_at = now.plus(2);
                    }
                    self.fetch_pc = target;
                    self.fetch_queue.push_back(fi);
                    break;
                }
                Inst::Jal { target, .. } => {
                    self.ras.push(pc + 1);
                    if self.btb.lookup(pc).is_none() {
                        self.btb.update(pc, target);
                        self.fetch_ready_at = now.plus(2);
                    }
                    self.fetch_pc = target;
                    self.fetch_queue.push_back(fi);
                    break;
                }
                Inst::Jr { rs } => {
                    let predicted = if rs == Reg::RA {
                        self.ras.pop().or_else(|| self.btb.lookup(pc))
                    } else {
                        self.btb.lookup(pc)
                    };
                    match predicted {
                        Some(t) => {
                            fi.predicted_target = t;
                            self.fetch_pc = t;
                            self.fetch_queue.push_back(fi);
                        }
                        None => {
                            self.jr_stall = true;
                            self.fetch_queue.push_back(fi);
                        }
                    }
                    break;
                }
                Inst::Abort { .. } | Inst::ThreadEnd | Inst::Halt => {
                    // Nothing after these is architecturally reachable from
                    // this thread; stop fetching until commit redirects.
                    self.fetch_queue.push_back(fi);
                    self.fetch_enabled = false;
                    break;
                }
                _ => {
                    self.fetch_pc = pc + 1;
                    self.fetch_queue.push_back(fi);
                }
            }
        }
    }
}

/// Apply the load kind's extension rule to a raw little-endian value.
#[inline]
fn extend_load(kind: Option<LoadKind>, raw: u64, bytes: u64) -> u64 {
    let masked = if bytes == 8 {
        raw
    } else {
        raw & ((1u64 << (8 * bytes)) - 1)
    };
    match kind {
        Some(LoadKind::W) => sext(masked, 32),
        // LoadKind::B zero-extends; LoadKind::D and FLoad pass through.
        _ => masked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use wec_isa::ProgramBuilder;

    fn run_to_halt(program: Program, cfg: CoreConfig) -> (Core, MockEnv, u64) {
        let data = program.data.clone();
        let entry = program.entry;
        let mut core = Core::new(cfg, Arc::new(program));
        let mut env = MockEnv::new(data);
        core.start(entry, Cycle(0));
        let mut cycle = 0u64;
        while core.is_running() && !env.halted {
            core.tick(&mut env, Cycle(cycle));
            cycle += 1;
            assert!(cycle < 1_000_000, "runaway program");
        }
        // Drain the wrong-path engine.
        for _ in 0..64 {
            core.tick(&mut env, Cycle(cycle));
            cycle += 1;
        }
        (core, env, cycle)
    }

    use wec_isa::program::Program;

    #[test]
    fn straight_line_arithmetic_commits_correct_values() {
        let mut b = ProgramBuilder::new("t");
        let (r1, r2, r3) = (Reg(1), Reg(2), Reg(3));
        b.li(r1, 6);
        b.li(r2, 7);
        b.mul(r3, r1, r2);
        let buf = b.alloc_zeroed_u64s(1);
        b.la(Reg(4), buf);
        b.sd(r3, Reg(4), 0);
        b.halt();
        let (_, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.stores, vec![(buf, 8, 42)]);
        assert_eq!(env.mem.read_u64(buf).unwrap(), 42);
    }

    #[test]
    fn loop_sums_an_array() {
        let mut b = ProgramBuilder::new("sum");
        let vals: Vec<u64> = (1..=50).collect();
        let arr = b.alloc_u64s(&vals);
        let out = b.alloc_zeroed_u64s(1);
        let (ptr, cnt, acc, v, outr) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        b.la(ptr, arr);
        b.li(cnt, 50);
        b.li(acc, 0);
        b.label("loop");
        b.ld(v, ptr, 0);
        b.add(acc, acc, v);
        b.addi(ptr, ptr, 8);
        b.addi(cnt, cnt, -1);
        b.bne(cnt, Reg::ZERO, "loop");
        b.la(outr, out);
        b.sd(acc, outr, 0);
        b.halt();
        let (core, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.mem.read_u64(out).unwrap(), (1..=50u64).sum::<u64>());
        assert_eq!(core.stats.committed_loads.get(), 50);
        assert!(core.stats.cond_branches.get() >= 50);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = ProgramBuilder::new("fwd");
        let buf = b.alloc_zeroed_u64s(1);
        b.la(Reg(1), buf);
        b.li(Reg(2), 123);
        b.sd(Reg(2), Reg(1), 0);
        b.ld(Reg(3), Reg(1), 0); // must see 123 via forwarding
        let out = b.alloc_zeroed_u64s(1);
        b.la(Reg(4), out);
        b.sd(Reg(3), Reg(4), 0);
        b.halt();
        let (core, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.mem.read_u64(out).unwrap(), 123);
        assert!(core.stats.forwarded_loads.get() >= 1);
    }

    #[test]
    fn call_and_return_via_ras() {
        let mut b = ProgramBuilder::new("call");
        let out = b.alloc_zeroed_u64s(1);
        b.jal(Reg::RA, "fun");
        b.la(Reg(4), out);
        b.sd(Reg(3), Reg(4), 0);
        b.halt();
        b.label("fun");
        b.li(Reg(3), 9);
        b.jr(Reg::RA);
        let (core, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.mem.read_u64(out).unwrap(), 9);
        assert_eq!(core.stats.indirect_jumps.get(), 1);
        assert_eq!(core.stats.mispredicted_indirect.get(), 0);
    }

    #[test]
    fn misprediction_recovers_architecturally() {
        // A data-dependent branch the predictor cannot learn: alternate
        // taken/not-taken, accumulating different values on each side.
        let mut b = ProgramBuilder::new("br");
        let out = b.alloc_zeroed_u64s(1);
        let (i, acc, bit) = (Reg(1), Reg(2), Reg(3));
        b.li(i, 40);
        b.li(acc, 0);
        b.label("loop");
        b.andi(bit, i, 1);
        b.beq(bit, Reg::ZERO, "even");
        b.addi(acc, acc, 3);
        b.j("next");
        b.label("even");
        b.addi(acc, acc, 5);
        b.label("next");
        b.addi(i, i, -1);
        b.bne(i, Reg::ZERO, "loop");
        b.la(Reg(4), out);
        b.sd(acc, Reg(4), 0);
        b.halt();
        let (core, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        // 20 odd iterations (+3) and 20 even (+5).
        assert_eq!(env.mem.read_u64(out).unwrap(), 20 * 3 + 20 * 5);
        assert!(core.stats.mispredicted_branches.get() > 0);
    }

    #[test]
    fn wrong_path_loads_reach_the_engine_when_enabled() {
        // The branch direction flips at i == 16, so the bimodal predictor
        // mispredicts there and a burst of wrong-path loads is fetched.  On
        // a narrow (2-wide) core only a couple of them can issue before the
        // branch resolves — the rest are exactly the paper's "ready but not
        // yet issued" loads that the engine must pick up.
        let mut b = ProgramBuilder::new("wp");
        let arr = b.alloc_u64s(&(0..128).collect::<Vec<_>>());
        let (i, flag, base) = (Reg(1), Reg(2), Reg(3));
        b.la(base, arr);
        b.li(i, 30);
        b.label("loop");
        b.slti(flag, i, 16); // false for i>=16 → branch pattern flips
        b.bne(flag, Reg::ZERO, "low");
        for k in 0..8 {
            b.ld(Reg(10 + k), base, k as i32 * 8);
        }
        b.j("next");
        b.label("low");
        for k in 0..8 {
            b.ld(Reg(10 + k), base, 512 + k as i32 * 8);
        }
        b.label("next");
        b.addi(i, i, -1);
        b.bne(i, Reg::ZERO, "loop");
        b.halt();
        let prog = b.build().unwrap();

        let mut cfg = CoreConfig::with_width(2);
        cfg.wrong_path_loads = true;
        let (core, env, _) = run_to_halt(prog.clone(), cfg);
        assert!(
            core.wp_engine.queued.get() > 0,
            "no wrong-path loads queued"
        );
        assert!(!env.wrong_path_loads.is_empty());

        // Without wp, none are issued.
        let (core2, env2, _) = run_to_halt(prog, CoreConfig::with_width(2));
        assert_eq!(core2.wp_engine.queued.get(), 0);
        assert!(env2.wrong_path_loads.is_empty());
    }

    #[test]
    fn wrong_path_execution_never_changes_results() {
        // Same program under wp and no-wp must produce identical memory.
        let build = || {
            let mut b = ProgramBuilder::new("det");
            let arr = b.alloc_u64s(&(1..=32).collect::<Vec<_>>());
            let out = b.alloc_zeroed_u64s(1);
            let (i, acc, v, base, t) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
            b.la(base, arr);
            b.li(i, 32);
            b.li(acc, 0);
            b.label("loop");
            b.ld(v, base, 0);
            b.andi(t, v, 3);
            b.beq(t, Reg::ZERO, "skip");
            b.add(acc, acc, v);
            b.label("skip");
            b.addi(base, base, 8);
            b.addi(i, i, -1);
            b.bne(i, Reg::ZERO, "loop");
            b.la(base, out);
            b.sd(acc, base, 0);
            b.halt();
            (b.build().unwrap(), out)
        };
        let (p1, out) = build();
        let cfg = CoreConfig {
            wrong_path_loads: true,
            ..CoreConfig::default()
        };
        let (_, env1, _) = run_to_halt(p1, cfg);
        let (p2, _) = build();
        let (_, env2, _) = run_to_halt(p2, CoreConfig::default());
        assert_eq!(
            env1.mem.read_u64(out).unwrap(),
            env2.mem.read_u64(out).unwrap()
        );
        assert_eq!(env1.mem.checksum(), env2.mem.checksum());
    }

    #[test]
    fn fp_pipeline_end_to_end() {
        use wec_isa::reg::FReg;
        let mut b = ProgramBuilder::new("fp");
        let xs = b.alloc_f64s(&[1.5, 2.5, 3.0]);
        let out = b.alloc_bytes(8, 8);
        b.la(Reg(1), xs);
        b.fld(FReg(1), Reg(1), 0);
        b.fld(FReg(2), Reg(1), 8);
        b.fld(FReg(3), Reg(1), 16);
        b.fadd(FReg(4), FReg(1), FReg(2)); // 4.0
        b.fmul(FReg(5), FReg(4), FReg(3)); // 12.0
        b.la(Reg(2), out);
        b.fsd(FReg(5), Reg(2), 0);
        b.halt();
        let (_, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.mem.read_f64(out).unwrap(), 12.0);
    }

    #[test]
    fn narrower_widths_still_execute_correctly() {
        for width in [1u32, 2, 4] {
            let mut b = ProgramBuilder::new("w");
            let out = b.alloc_zeroed_u64s(1);
            let (i, acc) = (Reg(1), Reg(2));
            b.li(i, 10);
            b.li(acc, 0);
            b.label("loop");
            b.add(acc, acc, i);
            b.addi(i, i, -1);
            b.bne(i, Reg::ZERO, "loop");
            b.la(Reg(3), out);
            b.sd(acc, Reg(3), 0);
            b.halt();
            let (_, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::with_width(width));
            assert_eq!(env.mem.read_u64(out).unwrap(), 55, "width {width}");
        }
    }

    #[test]
    fn wider_core_is_faster_on_ilp_kernel() {
        let build = || {
            let mut b = ProgramBuilder::new("ilp");
            // Eight independent accumulator chains.
            for r in 1..=8u8 {
                b.li(Reg(r), 0);
            }
            b.li(Reg(9), 200);
            b.label("loop");
            for r in 1..=8u8 {
                b.addi(Reg(r), Reg(r), 1);
            }
            b.addi(Reg(9), Reg(9), -1);
            b.bne(Reg(9), Reg::ZERO, "loop");
            b.halt();
            b.build().unwrap()
        };
        let (_, _, t1) = run_to_halt(build(), CoreConfig::with_width(1));
        let (_, _, t8) = run_to_halt(build(), CoreConfig::with_width(8));
        assert!(
            t8 * 2 < t1,
            "8-wide ({t8}) should be much faster than 1-wide ({t1})"
        );
    }

    #[test]
    fn serializing_markers_commit_in_order() {
        let mut b = ProgramBuilder::new("ser");
        b.li(Reg(1), 1);
        b.tsagdone();
        b.li(Reg(2), 2);
        b.halt();
        let (_, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.sta_log, vec![Inst::TsagDone]);
    }

    #[test]
    fn lw_sign_extends_lbu_zero_extends() {
        let mut b = ProgramBuilder::new("ext");
        let data = b.alloc_u64s(&[0xffff_ffff_ffff_ffff]);
        let out = b.alloc_zeroed_u64s(2);
        b.la(Reg(1), data);
        b.lw(Reg(2), Reg(1), 0); // -1 sign-extended
        b.lbu(Reg(3), Reg(1), 0); // 0xff
        b.la(Reg(4), out);
        b.sd(Reg(2), Reg(4), 0);
        b.sd(Reg(3), Reg(4), 8);
        b.halt();
        let (_, env, _) = run_to_halt(b.build().unwrap(), CoreConfig::default());
        assert_eq!(env.mem.read_u64(out).unwrap(), u64::MAX);
        assert_eq!(env.mem.read_u64(out + 8).unwrap(), 0xff);
    }
}
