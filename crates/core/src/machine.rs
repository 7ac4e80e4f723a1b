//! The superthreaded machine: thread units on a unidirectional ring sharing
//! a unified L2, executing the thread-pipelining model of §2.2 with the
//! wrong-execution semantics of §3.
//!
//! One global clock steps every thread unit's out-of-order core; the machine
//! realizes the [`wec_cpu::CoreEnv`] services per TU — routing loads through
//! the speculative memory buffer and the L1/WEC data path, and implementing
//! `begin`/`fork`/`abort`/`tsannounce`/`tsagdone`/`thread_end`.
//!
//! ## The busy set and the jump
//!
//! A `u64` mask holds the units that can have work: a running core, a
//! non-empty wrong-path queue, an attached thread, or committed stores
//! waiting for a port (so at most 64 units).  The cycle loop, the occupant
//! snapshot and the scheduler's per-unit passes visit only those units, in
//! ascending TU order; a unit's bit is recomputed after its own tick and
//! wherever the scheduler changes it (a kill, a thread start, a wrong
//! thread dying at write-back, a retirement, a store drain).
//!
//! After each cycle the machine asks whether the next ones are quiet: every
//! busy unit with a running core is [`Parked`] (see [`Core::parked`]), no
//! stores or wrong-path loads are queued, no `WaitWb` thread is at the
//! watermark or marked wrong, no deferred fork has a free target, and no
//! kill, void or update is pending.  Then the clock jumps to the cycle
//! before the earliest wake: the parked cores' wakes, the ring deliveries,
//! the pending fork starts, the write-back ends, and with telemetry on the
//! next interval sample and the earliest held-back L2 event.  The skipped
//! span is added to each parked core's `active_cycles` and flagged stall
//! counters ([`Parked::bump`]), and to `region_cycles` in parallel mode, so
//! every statistic, event stream and artifact equals that of ticking each
//! cycle.  Skipped cycles are never executed, so `--profile` never samples
//! them.  In debug builds [`Machine::check_jumps`] ticks the spans instead
//! and checks them.
//!
//! ## Scheduling rules (paper §2, §3.1.2)
//!
//! * The head thread is the oldest; write-back stages retire strictly in
//!   thread order (the watermark).
//! * `fork` targets the ring successor; if it is busy the fork is
//!   *deferred* — the youngest thread delays forking until a TU frees.
//! * `abort` by a correct thread kills its successors (or, with
//!   wrong-thread execution, *marks them wrong*), waits for all older
//!   threads to write back, then resumes sequential execution.
//! * Wrong threads keep running — loads tagged wrong-execution, forks
//!   suppressed, dependence waits bypassed — and die at their own abort or
//!   thread-end, or when the next `begin` sweeps them away.

use std::collections::VecDeque;
use std::sync::Arc;

use wec_common::error::{SimError, SimResult};
use wec_common::ids::{Addr, Cycle, ThreadId};
use wec_common::stats::{Counter, StatSet};
use wec_cpu::core::{Core, Parked};
#[cfg(debug_assertions)]
use wec_cpu::core::{CoreStats, QuietCore};
use wec_cpu::env::{CoreEnv, MemIssue, StaOutcome};
use wec_cpu::regs::ArchRegs;
use wec_isa::inst::Inst;
use wec_isa::program::{MemImage, Program};
use wec_mem::l2::SharedL2;
use wec_mem::stats::AccessKind;
#[cfg(debug_assertions)]
use wec_mem::stats::CacheStats;

use wec_isa::disasm::disassemble_inst;
use wec_telemetry::attr::AttributionReport;
use wec_telemetry::profile::{CycleProfiler, NoProf, Phase, PhaseNs, PhaseSink};
use wec_telemetry::{TelemetrySummary, TraceEvent};

use crate::config::MachineConfig;
use crate::dpath::{DataPath, DpResult};
use crate::events::{EventLog, SchedEvent};
use crate::membuf::{apply_word, LoadCheck};
use crate::metrics::{L1dAggregate, MachineMetrics};
use crate::telemetry::MachineTelemetry;
use crate::thread::{AliveTable, ThreadCtx, ThreadState, TsagDone, WrongSet};

/// Execution mode of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Sequential { tu: usize },
    Parallel { region: u16 },
}

/// One entry of the region's target-store log (kept for replay when a new
/// thread forks mid-region).
#[derive(Clone, Debug)]
struct TsEvent {
    from: u64,
    addr: Addr,
    release: Option<(u64, u64)>, // (bytes, value)
}

#[derive(Clone, Debug)]
enum DeliveryEvent {
    Announce {
        addr: Addr,
        from: u64,
    },
    Release {
        addr: Addr,
        bytes: u64,
        value: u64,
        from: u64,
    },
}

#[derive(Clone, Debug)]
struct Delivery {
    at: Cycle,
    to: u64,
    ev: DeliveryEvent,
}

/// A fork whose start time has been fixed (target TU was free).
#[derive(Clone, Debug)]
struct PendingFork {
    start_at: Cycle,
    tu: usize,
    id: u64,
    body: u32,
    mask: u32,
    values: ArchRegs,
}

/// A fork waiting for its target TU to become idle.
#[derive(Clone, Debug)]
struct DeferredFork {
    tu: usize,
    id: u64,
    body: u32,
    mask: u32,
    values: ArchRegs,
}

#[derive(Clone, Debug)]
struct WbJob {
    id: u64,
    tu: usize,
    end_at: Cycle,
}

/// Machine-level counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineStats {
    pub regions: Counter,
    pub forks: Counter,
    pub deferred_forks: Counter,
    pub aborts: Counter,
    pub threads_started: Counter,
    pub threads_retired: Counter,
    pub threads_marked_wrong: Counter,
    pub threads_killed: Counter,
    pub wrong_loads_dropped: Counter,
    pub unmapped_spec_loads: Counter,
    pub wb_words: Counter,
    pub region_cycles: Counter,
    pub sequential_instructions: Counter,
    pub parallel_instructions: Counter,
    pub wrong_instructions: Counter,
    pub bus_broadcasts: Counter,
    pub bus_copies_updated: Counter,
    pub membuf_value_hits: Counter,
    pub dependence_waits: Counter,
}

/// Everything except the per-TU slots (split-borrowed against them).
struct Shared {
    cfg: MachineConfig,
    mem: MemImage,
    l2: SharedL2,
    now: Cycle,
    halted: bool,
    error: Option<SimError>,
    mode: Mode,
    next_thread: u64,
    /// All threads with id < watermark have fully retired.
    watermark: u64,
    region_first: u64,
    region_snapshot: ArchRegs,
    tu_busy: Vec<bool>,
    /// Alive threads (including wrong ones): id → TU.
    alive: AliveTable,
    wrong_set: WrongSet,
    ts_log: Vec<TsEvent>,
    deliveries: Vec<Delivery>,
    tsag_done: TsagDone,
    pending_forks: Vec<PendingFork>,
    deferred_forks: Vec<DeferredFork>,
    pending_kills: Vec<usize>,
    pending_voids: Vec<u64>,
    pending_updates: Vec<Addr>,
    wb_jobs: Vec<WbJob>,
    stats: MachineStats,
    events: EventLog,
    /// `Some` only when telemetry is enabled; every per-cycle hook is one
    /// `is_some` branch when off.
    tel: Option<Box<MachineTelemetry>>,
}

impl Shared {
    fn fail(&mut self, e: SimError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn is_wrong(&self, id: u64) -> bool {
        self.wrong_set.contains(id)
    }

    /// Log + deliver a TSAG announcement from `from`.
    fn announce_event(&mut self, from: u64, addr: Addr) {
        self.ts_log.push(TsEvent {
            from,
            addr,
            release: None,
        });
        let at = self.now.plus(self.cfg.ring_latency);
        for &(id, _) in self.alive.after(from) {
            if !self.wrong_set.contains(id) {
                self.deliveries.push(Delivery {
                    at,
                    to: id,
                    ev: DeliveryEvent::Announce { addr, from },
                });
            }
        }
    }

    /// Log + deliver a target-store release from `from`.
    fn release_event(&mut self, from: u64, addr: Addr, bytes: u64, value: u64) {
        if let Some(ev) = self
            .ts_log
            .iter_mut()
            .rev()
            .find(|e| e.from == from && e.addr.0 < addr.0 + bytes && addr.0 < e.addr.0 + 8)
        {
            ev.release = Some((bytes, value));
        }
        let at = self.now.plus(self.cfg.ring_latency);
        for &(id, _) in self.alive.after(from) {
            if !self.wrong_set.contains(id) {
                self.deliveries.push(Delivery {
                    at,
                    to: id,
                    ev: DeliveryEvent::Release {
                        addr,
                        bytes,
                        value,
                        from,
                    },
                });
            }
        }
    }

    /// Kill or mark wrong every thread younger than `of`; cancel their
    /// scheduled and deferred forks.
    fn cut_successors(&mut self, of: u64) {
        let mark_wrong = self.cfg.wrong_thread;
        let victims: Vec<(u64, usize)> = self.alive.after(of).to_vec();
        for (id, tu) in victims {
            self.pending_voids.push(id);
            if mark_wrong {
                if self.wrong_set.insert(id) {
                    self.stats.threads_marked_wrong.inc();
                    let now = self.now;
                    self.events.record(now, SchedEvent::MarkedWrong { id });
                }
            } else {
                self.alive.remove(id);
                self.tu_busy[tu] = false;
                self.pending_kills.push(tu);
                self.stats.threads_killed.inc();
                let now = self.now;
                self.events.record(now, SchedEvent::Killed { id, tu });
            }
        }
        // Forks that have not started yet are simply cancelled.
        let mut cancelled = Vec::new();
        self.pending_forks.retain(|f| {
            if f.id > of {
                cancelled.push(f.tu);
                false
            } else {
                true
            }
        });
        for tu in cancelled {
            self.tu_busy[tu] = false;
        }
        self.deferred_forks.retain(|f| f.id <= of);
    }

    /// Sweep all wrong threads (the `begin` rule of §3.1.2).
    fn kill_all_wrong(&mut self) {
        let victims: Vec<(u64, usize)> = self
            .alive
            .iter()
            .filter(|&(id, _)| self.wrong_set.contains(id))
            .collect();
        for (id, tu) in victims {
            self.alive.remove(id);
            self.tu_busy[tu] = false;
            self.pending_kills.push(tu);
            self.stats.threads_killed.inc();
        }
    }
}

/// The units of a busy-set mask, lowest TU first.
fn units(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One thread unit's non-core state.
struct TuSlot {
    core: Core,
    dpath: DataPath,
    icache: DataPath,
    /// Committed stores waiting for an L1 port (values already applied to
    /// memory; this queue only models cache timing/allocation).
    sbuf: VecDeque<Addr>,
    thread: Option<ThreadCtx>,
    last_committed: u64,
}

impl TuSlot {
    /// Can this unit have work?  Its core runs, its wrong-path queue is
    /// non-empty, a thread is attached, or committed stores wait for a port.
    fn is_busy(&self) -> bool {
        self.core.is_running()
            || !self.core.wp_engine.is_empty()
            || self.thread.is_some()
            || !self.sbuf.is_empty()
    }
}

/// The whole superthreaded machine.
pub struct Machine {
    program: Arc<Program>,
    tus: Vec<TuSlot>,
    shared: Shared,
    /// The busy set: bit `i` is set while unit `i` can have work
    /// ([`TuSlot::is_busy`]).  The cycle loop and `post_cycle`'s per-unit
    /// passes visit only these units.
    busy: u64,
    /// Scratch of [`Machine::quiet_until`]: the parked cores of a quiet
    /// span, with what their skipped ticks bump.
    parked: Vec<(usize, Parked)>,
    /// Test aid (see [`Machine::check_jumps`]): tick every span the
    /// machine would jump, and check it.
    #[cfg(debug_assertions)]
    jump_check: Option<JumpCheck>,
    /// Cycle-loop self-profiler (`None` unless `telemetry.profile` is on);
    /// kept outside [`Shared`] so the instrumented path can time the whole
    /// cycle body, which borrows `Shared` mutably.
    prof: Option<Box<CycleProfiler>>,
}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub cycles: u64,
    pub checksum: u64,
    pub metrics: MachineMetrics,
    pub stats: StatSet,
    /// What telemetry captured (`None` when telemetry was off).
    pub telemetry: Option<TelemetrySummary>,
    /// Speculation attribution ledger (`None` unless
    /// [`MachineConfig::attribution`] was on).
    pub attribution: Option<AttributionReport>,
}

impl Machine {
    pub fn new(cfg: MachineConfig, program: &Program) -> SimResult<Self> {
        if cfg.n_tus > 64 {
            return Err(SimError::Config(format!(
                "{} thread units; the machine supports at most 64",
                cfg.n_tus
            )));
        }
        let program = Arc::new(program.clone());
        let trace_events = cfg.telemetry.trace_events;
        let attribution = cfg.attribution;
        let mut tus = Vec::with_capacity(cfg.n_tus);
        for _ in 0..cfg.n_tus {
            let mut slot = TuSlot {
                core: Core::new(cfg.core.clone(), Arc::clone(&program)),
                dpath: DataPath::new(cfg.l1d)?,
                icache: DataPath::new(cfg.l1i)?,
                sbuf: VecDeque::new(),
                thread: None,
                last_committed: 0,
            };
            if trace_events {
                slot.dpath.observe().events = Some(Vec::new());
                slot.core.flush_trace.set_enabled(true);
            }
            if attribution {
                // The ledger watches the L1D only; instruction fetch has no
                // speculative side structure to attribute.
                let ledger = slot.dpath.new_ledger();
                slot.dpath.observe().ledger = Some(ledger);
            }
            tus.push(slot);
        }
        let mut l2 = SharedL2::new(cfg.l2)?;
        l2.trace.set_enabled(trace_events);
        let tel = if cfg.telemetry.enabled() {
            Some(Box::new(MachineTelemetry::new(
                cfg.telemetry.clone(),
                cfg.n_tus,
            )))
        } else {
            None
        };
        let shared = Shared {
            mem: program.data.clone(),
            l2,
            now: Cycle::ZERO,
            halted: false,
            error: None,
            mode: Mode::Sequential { tu: 0 },
            next_thread: 1,
            watermark: 1,
            region_first: 1,
            region_snapshot: ArchRegs::new(),
            tu_busy: {
                let mut v = vec![false; cfg.n_tus];
                v[0] = true;
                v
            },
            alive: AliveTable::new(),
            wrong_set: WrongSet::new(),
            ts_log: Vec::new(),
            deliveries: Vec::new(),
            tsag_done: TsagDone::new(),
            pending_forks: Vec::new(),
            deferred_forks: Vec::new(),
            pending_kills: Vec::new(),
            pending_voids: Vec::new(),
            pending_updates: Vec::new(),
            wb_jobs: Vec::new(),
            stats: MachineStats::default(),
            // Telemetry consumes scheduler events (thread spans, wrong-thread
            // lifetimes), so the log turns on with either switch.
            events: EventLog::new(cfg.event_log || cfg.telemetry.enabled()),
            tel,
            cfg,
        };
        let prof = if shared.cfg.telemetry.profile {
            Some(Box::new(CycleProfiler::new(CycleProfiler::DEFAULT_STRIDE)))
        } else {
            None
        };
        Ok(Machine {
            program,
            tus,
            shared,
            busy: 0,
            parked: Vec::new(),
            #[cfg(debug_assertions)]
            jump_check: None,
            prof,
        })
    }

    pub fn config(&self) -> &MachineConfig {
        &self.shared.cfg
    }

    /// Each thread unit's L1D and L1I, in TU order, for attaching
    /// observers ([`DataPath::observe`]) before [`Machine::run`].
    pub fn data_paths_mut(&mut self) -> impl Iterator<Item = (&mut DataPath, &mut DataPath)> {
        self.tus.iter_mut().map(|s| (&mut s.dpath, &mut s.icache))
    }

    /// Run to `halt` (or error / cycle limit).
    pub fn run(&mut self) -> SimResult<RunResult> {
        let entry = self.program.entry;
        self.tus[0].core.start(entry, Cycle::ZERO);
        self.refresh(0);
        let mut occupants: Vec<Option<u64>> = vec![None; self.tus.len()];
        loop {
            let now = self.shared.now;
            let busy = self.busy;
            for i in units(busy) {
                occupants[i] = self.tus[i].thread.as_ref().map(|t| t.id.0);
            }
            // One `is_some` branch per cycle when profiling is off; the
            // sampled path runs the same cycle body through the timing sink.
            let timed = match self.prof.as_deref() {
                Some(p) => p.due(now.0),
                None => false,
            };
            if timed {
                let mut laps = PhaseNs::default();
                self.cycle(busy, &occupants, now, &mut laps);
                if let Some(p) = self.prof.as_deref_mut() {
                    p.record(now.0, &laps);
                }
            } else {
                self.cycle(busy, &occupants, now, &mut NoProf);
            }
            if let Some(e) = self.shared.error.take() {
                return Err(e);
            }
            if self.shared.halted {
                break;
            }
            let wake = self.quiet_until(now);
            #[cfg(debug_assertions)]
            let wake = self.check_quiet(now, wake);
            if let Some(wake) = wake {
                self.skip_to(now, wake);
            }
            self.shared.now += 1;
            if self.shared.now.0 > self.shared.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.shared.cfg.max_cycles,
                });
            }
        }
        let telemetry = self.finish_telemetry()?;
        let mut result = self.collect();
        result.telemetry = telemetry;
        Ok(result)
    }

    /// One machine cycle: tick the units of the busy set `busy`, run the
    /// scheduler, drain telemetry.  A busy unit whose core is stopped and
    /// whose wrong-path queue is empty is skipped: its tick would change
    /// nothing.  Each ticked unit's busy bit is recomputed after its tick
    /// (a tick changes only its own unit; kills wait for `post_cycle`).
    /// Generic over the [`PhaseSink`] so the profiled and unprofiled paths
    /// share this one body (see [`Core::tick_with`]).
    fn cycle<S: PhaseSink>(
        &mut self,
        busy: u64,
        occupants: &[Option<u64>],
        now: Cycle,
        sink: &mut S,
    ) {
        let n = self.tus.len();
        for i in units(busy) {
            let slot = &mut self.tus[i];
            if !slot.core.is_running() && slot.core.wp_engine.is_empty() {
                continue;
            }
            let TuSlot {
                core,
                dpath,
                icache,
                sbuf,
                thread,
                ..
            } = slot;
            let mut env = TuEnv {
                tu: i,
                n_tus: n,
                dpath,
                icache,
                sbuf,
                thread,
                shared: &mut self.shared,
            };
            core.tick_with(sink, &mut env, now);
            self.refresh(i);
        }
        let mut t = S::mark();
        self.post_cycle(busy, occupants);
        sink.lap(&mut t, Phase::Sched);
        if self.shared.tel.is_some() {
            self.telemetry_cycle();
            sink.lap(&mut t, Phase::Telemetry);
        }
    }

    /// Drain the per-component telemetry buffers into the instruments and
    /// take an interval sample when one is due.  Called once per cycle, only
    /// when telemetry is enabled.
    fn telemetry_cycle(&mut self) {
        let shared = &mut self.shared;
        let Some(tel) = shared.tel.as_deref_mut() else {
            return;
        };
        for (i, slot) in self.tus.iter_mut().enumerate() {
            let tu = i as u32;
            if let Some(evs) = slot.dpath.obs.as_mut().and_then(|o| o.events.as_mut()) {
                for (cycle, ev, addr) in evs.drain(..) {
                    tel.on_l1(tu, cycle, ev, addr);
                }
            }
            for rec in slot.core.flush_trace.drain() {
                tel.on_flush(tu, rec);
            }
        }
        // The L2 stamps at request arrival time, which can run ahead of the
        // cycle being drained; hold those back until their cycle comes up so
        // the merged stream stays non-decreasing.
        for (cycle, ev, addr) in shared.l2.trace.drain_until(shared.now.0) {
            tel.on_l2(cycle, ev, addr);
        }
        let evs = shared.events.events();
        while tel.sched_cursor < evs.len() {
            let (cycle, ev) = evs[tel.sched_cursor];
            tel.sched_cursor += 1;
            // `Begin` does not carry the head thread's TU; look it up so the
            // head gets an occupancy span like forked threads do.
            let head_tu = match ev {
                SchedEvent::Begin { head, .. } => shared.alive.get(head).map(|t| t as u32),
                _ => None,
            };
            tel.on_sched(cycle.0, &ev, head_tu);
        }
        if tel.cfg.sample_interval > 0 && shared.now.0 >= tel.next_sample_at {
            tel.next_sample_at = shared.now.0 + tel.cfg.sample_interval;
            let mut committed = 0u64;
            let mut l1_demand_accesses = 0u64;
            let mut l1_demand_misses = 0u64;
            let mut l1_wrong_accesses = 0u64;
            let mut l1_side_hits = 0u64;
            let mut wec_occupancy = 0u64;
            for slot in &self.tus {
                let d = &slot.dpath.stats;
                committed += slot.core.stats.committed.get();
                l1_demand_accesses += d.demand_accesses.get();
                l1_demand_misses += d.demand_misses.get();
                l1_wrong_accesses += d.wrong_accesses.get();
                l1_side_hits += d.side_hits.get();
                wec_occupancy += slot.dpath.side_occupancy() as u64;
            }
            let alive = shared.alive.iter().count() as u64;
            let wrong = shared
                .alive
                .iter()
                .filter(|&(id, _)| shared.wrong_set.contains(id))
                .count() as u64;
            tel.sample(
                shared.now.0,
                vec![
                    shared.now.0,
                    committed,
                    l1_demand_accesses,
                    l1_demand_misses,
                    l1_wrong_accesses,
                    l1_side_hits,
                    shared.l2.stats.demand_misses_to_next_level.get(),
                    shared.l2.stats.wrong_misses_to_next_level.get(),
                    wec_occupancy,
                    alive,
                    wrong,
                ],
            );
        }
    }

    /// Final telemetry drain: surface the per-core commit rings, close the
    /// Perfetto spans, write artifact files, and detach the summary.
    fn finish_telemetry(&mut self) -> SimResult<Option<TelemetrySummary>> {
        if self.shared.tel.is_none() {
            return Ok(None);
        }
        self.telemetry_cycle();
        let mut tel = self.shared.tel.take().unwrap();
        // L2 requests still in flight at halt have arrival stamps beyond the
        // final cycle; flush them now so nothing is silently dropped.
        for (cycle, ev, addr) in self.shared.l2.trace.drain_until(u64::MAX) {
            tel.on_l2(cycle, ev, addr);
        }
        if tel.cfg.trace_events {
            let mut recs: Vec<(u64, u32, u64, u32, Inst)> = Vec::new();
            for (i, slot) in self.tus.iter().enumerate() {
                for r in slot.core.commit_trace.records() {
                    recs.push((r.cycle.0, i as u32, r.seq, r.pc, r.inst));
                }
            }
            recs.sort_unstable_by_key(|&(cycle, tu, seq, _, _)| (cycle, tu, seq));
            for (cycle, tu, seq, pc, inst) in recs {
                let op = disassemble_inst(&inst, |t| format!("@{t}"));
                tel.record_commit(cycle, TraceEvent::Commit { tu, seq, pc, op });
            }
        }
        if let Some(prof) = self.prof.take() {
            tel.profile = Some(prof.report(self.shared.now.0 + 1));
        }
        tel.finalize(self.shared.now.0 + 1).map(Some)
    }

    /// Apply all machine-level actions deferred out of the per-TU ticks.
    /// `ticked` is the busy set at the *start* of the cycle and `occupants`
    /// the thread id each of its units carried then, so commits from a
    /// thread that died mid-cycle are still attributed to it.  The per-unit
    /// passes walk the busy set (an attached thread or a queued store makes
    /// a unit busy), and every change to a unit recomputes its bit.  A
    /// section whose queue is empty does nothing.
    fn post_cycle(&mut self, ticked: u64, occupants: &[Option<u64>]) {
        let now = self.shared.now;

        // Instruction attribution (per-cycle commit deltas): only a ticked
        // unit can have committed.
        for i in units(ticked) {
            let (slot, occ) = (&mut self.tus[i], &occupants[i]);
            let committed = slot.core.stats.committed.get();
            let delta = committed - slot.last_committed;
            slot.last_committed = committed;
            if delta == 0 {
                continue;
            }
            match occ {
                Some(id) if self.shared.wrong_set.contains(*id) => {
                    self.shared.stats.wrong_instructions.add(delta)
                }
                Some(_) => self.shared.stats.parallel_instructions.add(delta),
                None => self.shared.stats.sequential_instructions.add(delta),
            }
        }
        if matches!(self.shared.mode, Mode::Parallel { .. }) {
            self.shared.stats.region_cycles.inc();
        }

        // Kills requested by begin/abort on other TUs.
        if !self.shared.pending_kills.is_empty() {
            for tu in std::mem::take(&mut self.shared.pending_kills) {
                self.tus[tu].core.force_stop();
                self.tus[tu].thread = None;
                self.refresh(tu);
            }
        }

        // Void announcements from killed / marked-wrong threads so no
        // correct thread deadlocks waiting on them.
        if !self.shared.pending_voids.is_empty() {
            for dead in std::mem::take(&mut self.shared.pending_voids) {
                for i in units(self.busy) {
                    if let Some(t) = self.tus[i].thread.as_mut() {
                        t.membuf.void_upstream(ThreadId(dead));
                    }
                }
                self.shared.deliveries.retain(
                    |d| !matches!(&d.ev, DeliveryEvent::Announce { from, .. } if *from == dead),
                );
                self.shared.ts_log.retain(|e| e.from != dead);
            }
        }

        if !self.shared.deliveries.is_empty() {
            self.deliver(now);
        }
        if !self.shared.deferred_forks.is_empty() {
            self.place_deferred_forks(now);
        }
        if !self.shared.pending_forks.is_empty() {
            self.start_due_forks(now);
        }
        self.write_back(now);
        if !self.shared.wb_jobs.is_empty() {
            self.retire_written_back(now);
        }

        // Drain committed-store timing queues through the L1 ports.
        for i in units(self.busy) {
            let slot = &mut self.tus[i];
            if slot.sbuf.is_empty() {
                continue;
            }
            while let Some(&addr) = slot.sbuf.front() {
                // Drained stores have left the pipeline: PC 0.
                match slot
                    .dpath
                    .access(addr, AccessKind::CorrectStore, 0, now, &mut self.shared.l2)
                {
                    DpResult::Done { .. } => {
                        slot.sbuf.pop_front();
                    }
                    DpResult::Retry => break,
                }
            }
            self.refresh(i);
        }

        // Sequential-mode update-protocol broadcasts (§3.2.2): copies in
        // other TUs' caches are refreshed in place; we count the traffic.
        if self.shared.pending_updates.is_empty() {
            return;
        }
        let writer = match self.shared.mode {
            Mode::Sequential { tu } => tu,
            Mode::Parallel { .. } => usize::MAX,
        };
        for addr in std::mem::take(&mut self.shared.pending_updates) {
            self.shared.stats.bus_broadcasts.inc();
            for (i, slot) in self.tus.iter().enumerate() {
                if i != writer && (slot.dpath.l1_contains(addr) || slot.dpath.side_contains(addr)) {
                    self.shared.stats.bus_copies_updated.inc();
                }
            }
        }
    }

    /// Ring deliveries due this cycle.
    fn deliver(&mut self, now: Cycle) {
        let mut due = Vec::new();
        self.shared.deliveries.retain(|d| {
            if d.at <= now {
                due.push(d.clone());
                false
            } else {
                true
            }
        });
        for d in due {
            let Some(tu) = self.shared.alive.get(d.to) else {
                continue;
            };
            let Some(t) = self.tus[tu].thread.as_mut() else {
                continue;
            };
            if t.id.0 != d.to {
                continue;
            }
            match d.ev {
                DeliveryEvent::Announce { addr, from } => {
                    t.membuf.announce_upstream(addr, ThreadId(from))
                }
                DeliveryEvent::Release {
                    addr,
                    bytes,
                    value,
                    from,
                } => t
                    .membuf
                    .release_upstream(addr, bytes, value, ThreadId(from)),
            }
        }
    }

    /// Deferred forks whose target TU has become idle get a start time.
    fn place_deferred_forks(&mut self, now: Cycle) {
        let mut still_deferred = Vec::new();
        for f in std::mem::take(&mut self.shared.deferred_forks) {
            if self.shared.tu_busy[f.tu] {
                still_deferred.push(f);
            } else {
                self.shared.tu_busy[f.tu] = true;
                let start_at = now
                    .plus(self.shared.cfg.fork_delay)
                    .plus(self.shared.cfg.fork_per_value * u64::from(f.mask.count_ones()));
                self.shared.pending_forks.push(PendingFork {
                    start_at,
                    tu: f.tu,
                    id: f.id,
                    body: f.body,
                    mask: f.mask,
                    values: f.values,
                });
            }
        }
        self.shared.deferred_forks = still_deferred;
    }

    /// Forks whose transfer delay has elapsed: start the thread.
    fn start_due_forks(&mut self, now: Cycle) {
        let mut starting = Vec::new();
        self.shared.pending_forks.retain(|f| {
            if f.start_at <= now {
                starting.push(f.clone());
                false
            } else {
                true
            }
        });
        for f in starting {
            self.start_thread(f, now);
        }
    }

    /// Write-back stage: the oldest thread that has finished its body
    /// starts writing back.  An attached thread makes its unit busy.
    fn write_back(&mut self, now: Cycle) {
        for i in units(self.busy) {
            let slot = &mut self.tus[i];
            let Some(t) = slot.thread.as_mut() else {
                continue;
            };
            // A thread that reached thread_end *before* being marked wrong
            // must still be squashed before its write-back stage (§3.1.2).
            if t.state == ThreadState::WaitWb && self.shared.wrong_set.contains(t.id.0) {
                let id = t.id.0;
                self.shared.events.record(now, SchedEvent::WrongDied { id });
                self.shared.alive.remove(id);
                self.shared.tu_busy[i] = false;
                self.shared.pending_voids.push(id);
                slot.core.force_stop();
                slot.thread = None;
                self.refresh(i);
                continue;
            }
            if t.state == ThreadState::WaitWb && t.id.0 == self.shared.watermark {
                // Commit the memory buffer architecturally, in thread order.
                let words = t.membuf.drain_own();
                let count = words.len() as u64;
                for (addr, mask, value) in words {
                    let mem = &mut self.shared.mem;
                    let mut failed = false;
                    apply_word(addr, mask, value, |a, b| {
                        if mem.write(a, 1, b as u64).is_err() {
                            failed = true;
                        }
                    });
                    if failed {
                        self.shared.fail(SimError::UnmappedAccess {
                            addr,
                            what: "write-back store",
                        });
                    }
                    self.shared.pending_updates.push(addr);
                }
                self.shared.stats.wb_words.add(count);
                self.shared.events.record(
                    now,
                    SchedEvent::WbStart {
                        id: t.id.0,
                        words: count,
                    },
                );
                t.state = ThreadState::WritingBack;
                self.shared.wb_jobs.push(WbJob {
                    id: t.id.0,
                    tu: i,
                    end_at: now.plus((2 * count).max(1)),
                });
            }
        }
    }

    /// Completed write-backs: retire threads in order.
    fn retire_written_back(&mut self, now: Cycle) {
        let mut retired = Vec::new();
        self.shared.wb_jobs.retain(|j| {
            if j.end_at <= now {
                retired.push((j.id, j.tu));
                false
            } else {
                true
            }
        });
        retired.sort_unstable();
        for (id, tu) in retired {
            debug_assert_eq!(id, self.shared.watermark);
            self.shared
                .events
                .record(now, SchedEvent::Retired { id, tu });
            self.shared.watermark = id + 1;
            self.shared.alive.remove(id);
            self.shared.tu_busy[tu] = false;
            self.tus[tu].thread = None;
            self.refresh(tu);
            self.shared.stats.threads_retired.inc();
        }
    }

    /// Recompute unit `i`'s bit in the busy set.
    fn refresh(&mut self, i: usize) {
        let bit = 1u64 << i;
        if self.tus[i].is_busy() {
            self.busy |= bit;
        } else {
            self.busy &= !bit;
        }
    }

    /// After cycle `now`: the wake W when no unit can act in any cycle
    /// from `now + 1` up to (not including) W, so the machine may jump
    /// there.  That needs every busy unit with a running core parked
    /// ([`Core::parked`]), no stores or wrong-path loads queued, no
    /// `WaitWb` thread at the watermark or marked wrong, no deferred fork
    /// with a free target, and no kill, void or update pending.  W is the
    /// earliest of the parked cores' wakes, the ring deliveries, the
    /// pending fork starts and the write-back ends; with telemetry on,
    /// also the next interval sample and the earliest L2 event still held
    /// back (its drain order is the order the event stream is written
    /// in).  Fills [`Machine::parked`].
    fn quiet_until(&mut self, now: Cycle) -> Option<Cycle> {
        self.parked.clear();
        let sh = &self.shared;
        if !sh.pending_kills.is_empty()
            || !sh.pending_voids.is_empty()
            || !sh.pending_updates.is_empty()
        {
            return None;
        }
        let mut wake = u64::MAX;
        for i in units(self.busy) {
            let slot = &self.tus[i];
            if !slot.sbuf.is_empty() || !slot.core.wp_engine.is_empty() {
                return None;
            }
            if let Some(t) = &slot.thread {
                if t.state == ThreadState::WaitWb && (t.id.0 == sh.watermark || sh.is_wrong(t.id.0))
                {
                    return None;
                }
            }
            if slot.core.is_running() {
                let p = slot.core.parked(now)?;
                wake = wake.min(p.wake.0);
                self.parked.push((i, p));
            }
        }
        if sh.deferred_forks.iter().any(|f| !sh.tu_busy[f.tu]) {
            return None;
        }
        let events = sh.deliveries.iter().map(|d| d.at);
        let events = events.chain(sh.pending_forks.iter().map(|f| f.start_at));
        let events = events.chain(sh.wb_jobs.iter().map(|j| j.end_at));
        wake = events.fold(wake, |w, c| w.min(c.0));
        if let Some(tel) = sh.tel.as_deref() {
            if tel.cfg.sample_interval > 0 {
                wake = wake.min(tel.next_sample_at);
            }
            wake = wake.min(sh.l2.trace.earliest().unwrap_or(u64::MAX));
        }
        (wake != u64::MAX && wake > now.0 + 1).then_some(Cycle(wake))
    }

    /// Jump over the quiet cycles `now + 1 .. wake`: add the counter bumps
    /// their ticks would have made, and leave the clock on the last one.
    fn skip_to(&mut self, now: Cycle, wake: Cycle) {
        let span = wake.0 - now.0 - 1;
        for (i, p) in &self.parked {
            p.bump(&mut self.tus[*i].core.stats, span);
        }
        if matches!(self.shared.mode, Mode::Parallel { .. }) {
            self.shared.stats.region_cycles.add(span);
        }
        self.shared.now = Cycle(wake.0 - 1);
    }

    fn start_thread(&mut self, f: PendingFork, now: Cycle) {
        let mut ctx = ThreadCtx::new(ThreadId(f.id));
        // Replay the region's target-store history from still-alive,
        // still-correct older threads (anything older that already retired
        // is visible in memory).
        for ev in &self.shared.ts_log {
            if ev.from < f.id
                && self.shared.alive.contains(ev.from)
                && !self.shared.wrong_set.contains(ev.from)
            {
                ctx.membuf.announce_upstream(ev.addr, ThreadId(ev.from));
                if let Some((bytes, value)) = ev.release {
                    ctx.membuf
                        .release_upstream(ev.addr, bytes, value, ThreadId(ev.from));
                }
            }
        }
        let slot = &mut self.tus[f.tu];
        debug_assert!(slot.thread.is_none(), "fork onto an occupied TU");
        slot.core.arch = self.shared.region_snapshot.clone();
        slot.core.arch.copy_masked_from(&f.values, f.mask);
        slot.core.start(f.body, now);
        slot.last_committed = slot.core.stats.committed.get();
        slot.thread = Some(ctx);
        self.shared.alive.insert(f.id, f.tu);
        self.refresh(f.tu);
        self.shared.stats.threads_started.inc();
        self.shared
            .events
            .record(now, SchedEvent::ThreadStart { id: f.id, tu: f.tu });
    }

    /// Turn on the jump check, a test aid beside [`Core::check_scheduler`]
    /// that debug builds alone contain.  [`Machine::run`] then ticks every
    /// span it would jump, one cycle at a time, and panics at the first
    /// cycle that changes anything but the predicted counter bumps (or
    /// bumps those by other amounts).  The outputs are those of the jump.
    #[cfg(debug_assertions)]
    pub fn check_jumps(&mut self) {
        self.jump_check = Some(JumpCheck::default());
    }

    /// The jump check's step after cycle `now`: verify `now` when it lies
    /// in a span being ticked, else open a span at `wake`.  Returns the
    /// wake to jump to: `wake` itself while the check is off, never one
    /// while it is on.
    #[cfg(debug_assertions)]
    fn check_quiet(&mut self, now: Cycle, wake: Option<Cycle>) -> Option<Cycle> {
        let Some(mut check) = self.jump_check.take() else {
            return wake;
        };
        if let Some(span) = check.span.take() {
            span.verify(self, now.0);
            if now.0 < span.last {
                check.span = Some(span);
            }
        } else if let Some(wake) = wake {
            check.span = Some(QuietSpan::open(self, now.0, wake.0));
        }
        self.jump_check = Some(check);
        None
    }

    /// The state a quiet span must leave alone: the busy set, the
    /// machine's queues, watermark and mode, each busy unit's core
    /// ([`Core::quiet_fingerprint`]), store queue, thread and cache
    /// counters, and every counter except `region_cycles` and the three
    /// [`Parked`] names.
    #[cfg(debug_assertions)]
    fn quiet_fingerprint(&self) -> QuietMachine {
        let sh = &self.shared;
        let mut stats = sh.stats.clone();
        stats.region_cycles = Counter::default();
        QuietMachine {
            busy: self.busy,
            mode: sh.mode,
            watermark: sh.watermark,
            queues: [
                sh.deliveries.len(),
                sh.pending_forks.len(),
                sh.deferred_forks.len(),
                sh.wb_jobs.len(),
                sh.pending_kills.len(),
                sh.pending_voids.len(),
                sh.pending_updates.len(),
            ],
            stats,
            l2: sh.l2.stats.clone(),
            units: units(self.busy)
                .map(|i| {
                    let slot = &self.tus[i];
                    QuietUnit {
                        core: slot.core.quiet_fingerprint(),
                        sbuf: slot.sbuf.len(),
                        thread: slot.thread.as_ref().map(|t| (t.id, t.state)),
                        l1d: slot.dpath.stats.clone(),
                        l1i: slot.icache.stats.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Aggregate results after a run.
    fn collect(&self) -> RunResult {
        let mut stats = StatSet::new();
        let mut l1d = L1dAggregate::default();
        let mut cond_branches = 0;
        let mut mispredicts = 0;
        for (i, slot) in self.tus.iter().enumerate() {
            slot.core.stats.dump(&mut stats, &format!("tu{i}.core"));
            slot.dpath.stats.dump(&mut stats, &format!("tu{i}.l1d"));
            slot.icache.stats.dump(&mut stats, &format!("tu{i}.l1i"));
            let d = &slot.dpath.stats;
            l1d.demand_accesses += d.demand_accesses.get();
            l1d.demand_misses += d.demand_misses.get();
            l1d.misses_to_next_level += d.demand_misses_to_next_level.get();
            l1d.wrong_accesses += d.wrong_accesses.get();
            l1d.side_hits += d.side_hits.get();
            l1d.useful_wrong_fetches += d.useful_wrong_fetches.get();
            l1d.useful_prefetches += d.useful_prefetches.get();
            l1d.prefetches_issued += d.prefetches_issued.get();
            cond_branches += slot.core.stats.cond_branches.get();
            mispredicts += slot.core.stats.mispredicted_branches.get();
        }
        self.shared.l2.stats.dump(&mut stats, "l2");
        let s = &self.shared.stats;
        let metrics = MachineMetrics {
            cycles: self.shared.now.0 + 1,
            region_cycles: s.region_cycles.get(),
            sequential_instructions: s.sequential_instructions.get(),
            parallel_instructions: s.parallel_instructions.get(),
            wrong_instructions: s.wrong_instructions.get(),
            threads_started: s.threads_started.get(),
            threads_marked_wrong: s.threads_marked_wrong.get(),
            threads_killed: s.threads_killed.get(),
            forks: s.forks.get(),
            regions: s.regions.get(),
            l1d,
            l2_demand_misses: self.shared.l2.stats.demand_misses_to_next_level.get(),
            cond_branches,
            mispredicted_branches: mispredicts,
            wrong_loads_dropped: s.wrong_loads_dropped.get(),
            wb_words: s.wb_words.get(),
            checksum: self.shared.mem.checksum(),
        };
        metrics.dump(&mut stats);
        stats.push("machine.bus_broadcasts", s.bus_broadcasts.get());
        stats.push("machine.bus_copies_updated", s.bus_copies_updated.get());
        stats.push("machine.membuf_value_hits", s.membuf_value_hits.get());
        stats.push("machine.dependence_waits", s.dependence_waits.get());
        RunResult {
            cycles: self.shared.now.0 + 1,
            checksum: self.shared.mem.checksum(),
            metrics,
            stats,
            telemetry: None,
            attribution: self.attribution_report(),
        }
    }

    /// Fold the per-TU attribution probes into one report (`None` when
    /// attribution is off).  Callable both mid-run and after `run`.
    pub fn attribution_report(&self) -> Option<AttributionReport> {
        let ledgers: Vec<_> = self
            .tus
            .iter()
            .filter_map(|s| s.dpath.obs.as_ref()?.ledger.as_ref())
            .collect();
        (!ledgers.is_empty()).then(|| AttributionReport::from_probes(ledgers))
    }

    /// Direct read of committed memory (tests and examples).
    pub fn memory(&self) -> &MemImage {
        &self.shared.mem
    }

    /// The scheduler event log (empty unless `MachineConfig::event_log`).
    pub fn events(&self) -> &EventLog {
        &self.shared.events
    }

    /// A human-readable snapshot of scheduler and per-TU pipeline state —
    /// the first thing to look at when a simulation stops making progress.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let sh = &self.shared;
        let _ = writeln!(
            s,
            "cycle {} mode {:?} watermark {} next_thread {} halted {}",
            sh.now, sh.mode, sh.watermark, sh.next_thread, sh.halted
        );
        let _ = writeln!(
            s,
            "alive {:?} wrong {:?} busy {:?}",
            sh.alive, sh.wrong_set, sh.tu_busy
        );
        let _ = writeln!(
            s,
            "pending_forks {:?} deferred {:?} wb_jobs {:?} deliveries {} ts_log {}",
            sh.pending_forks
                .iter()
                .map(|f| (f.id, f.tu, f.start_at.0))
                .collect::<Vec<_>>(),
            sh.deferred_forks
                .iter()
                .map(|f| (f.id, f.tu))
                .collect::<Vec<_>>(),
            sh.wb_jobs
                .iter()
                .map(|j| (j.id, j.tu, j.end_at.0))
                .collect::<Vec<_>>(),
            sh.deliveries.len(),
            sh.ts_log.len(),
        );
        for (i, slot) in self.tus.iter().enumerate() {
            let thread = slot
                .thread
                .as_ref()
                .map(|t| {
                    format!(
                        "{} {:?} forked={} aborted={}",
                        t.id, t.state, t.forked, t.aborted
                    )
                })
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                s,
                "tu{i}: running={} rob={} thread[{thread}] {}",
                slot.core.is_running(),
                slot.core.rob_len(),
                slot.core.debug_head(),
            );
            if !slot.core.commit_trace.is_empty() {
                let _ = write!(s, "{}", slot.core.commit_trace.render());
            }
        }
        s
    }
}

/// A machine's quiet fingerprint (see [`Machine::check_jumps`]).
#[cfg(debug_assertions)]
#[derive(Debug, PartialEq)]
struct QuietMachine {
    busy: u64,
    mode: Mode,
    watermark: u64,
    /// Deliveries, pending and deferred forks, write-back jobs, kills,
    /// voids and updates.
    queues: [usize; 7],
    stats: MachineStats,
    l2: CacheStats,
    units: Vec<QuietUnit>,
}

/// One busy unit of a [`QuietMachine`].
#[cfg(debug_assertions)]
#[derive(Debug, PartialEq)]
struct QuietUnit {
    core: QuietCore,
    sbuf: usize,
    thread: Option<(ThreadId, ThreadState)>,
    l1d: CacheStats,
    l1i: CacheStats,
}

/// State of the jump check ([`Machine::check_jumps`]).
#[cfg(debug_assertions)]
#[derive(Default)]
struct JumpCheck {
    /// The span being ticked, if any.
    span: Option<QuietSpan>,
}

/// A span the machine would have jumped, ticked for checking: cycles
/// `first ..= last`, and what stood before them.
#[cfg(debug_assertions)]
struct QuietSpan {
    first: u64,
    last: u64,
    parked: Vec<(usize, Parked)>,
    parallel: bool,
    fingerprint: QuietMachine,
    /// Each unit's core counters before the span.
    stats: Vec<CoreStats>,
    region_cycles: u64,
}

#[cfg(debug_assertions)]
impl QuietSpan {
    fn open(m: &Machine, now: u64, wake: u64) -> QuietSpan {
        QuietSpan {
            first: now + 1,
            last: wake - 1,
            parked: m.parked.clone(),
            parallel: matches!(m.shared.mode, Mode::Parallel { .. }),
            fingerprint: m.quiet_fingerprint(),
            stats: m.tus.iter().map(|s| s.core.stats.clone()).collect(),
            region_cycles: m.shared.stats.region_cycles.get(),
        }
    }

    /// Cycle `now` of the span has just been ticked: nothing may have
    /// changed but the counters [`Parked::bump`] predicts, by what it
    /// predicts.
    fn verify(&self, m: &Machine, now: u64) {
        let ticked = now - self.first + 1;
        let at = || {
            format!(
                "jump check: cycle {now} of the span {}..={} (parked {:?})",
                self.first, self.last, self.parked
            )
        };
        let fingerprint = m.quiet_fingerprint();
        assert!(
            fingerprint == self.fingerprint,
            "{}: state changed\nbefore: {:?}\nnow:    {fingerprint:?}",
            at(),
            self.fingerprint
        );
        for (i, (before, slot)) in self.stats.iter().zip(&m.tus).enumerate() {
            let mut want = before.clone();
            if let Some((_, p)) = self.parked.iter().find(|(u, _)| *u == i) {
                p.bump(&mut want, ticked);
            }
            assert!(
                slot.core.stats == want,
                "{}: tu{i} core counters\npredicted {want:?}\ngot       {:?}",
                at(),
                slot.core.stats
            );
        }
        let region = m.shared.stats.region_cycles.get() - self.region_cycles;
        let want = ticked * u64::from(self.parallel);
        assert!(
            region == want,
            "{}: region_cycles rose by {region}, predicted {want}",
            at()
        );
    }
}

/// Convenience: build and run in one call.
pub fn simulate(cfg: MachineConfig, program: &Program) -> SimResult<RunResult> {
    Machine::new(cfg, program)?.run()
}

// ----------------------------------------------------------------------
// The per-TU CoreEnv implementation
// ----------------------------------------------------------------------

struct TuEnv<'a> {
    tu: usize,
    n_tus: usize,
    dpath: &'a mut DataPath,
    icache: &'a mut DataPath,
    sbuf: &'a mut VecDeque<Addr>,
    thread: &'a mut Option<ThreadCtx>,
    shared: &'a mut Shared,
}

impl TuEnv<'_> {
    fn thread_is_wrong(&self) -> bool {
        self.thread
            .as_ref()
            .is_some_and(|t| self.shared.is_wrong(t.id.0))
    }
}

impl CoreEnv for TuEnv<'_> {
    fn load(&mut self, addr: Addr, bytes: u64, now: Cycle, wrong_path: bool, pc: u32) -> MemIssue {
        let kind = if wrong_path {
            AccessKind::WrongPathLoad
        } else if self.thread_is_wrong() {
            AccessKind::WrongThreadLoad
        } else {
            AccessKind::CorrectLoad
        };
        let wrong = kind.is_wrong();

        // Thread-level buffers first: own stores, upstream target stores.
        let mut partial: Option<(u64, u8)> = None;
        if let Some(t) = self.thread.as_ref() {
            match t.membuf.check_load(addr, bytes) {
                LoadCheck::Wait => {
                    if !wrong {
                        self.shared.stats.dependence_waits.inc();
                        return MemIssue::Blocked;
                    }
                    // Wrong execution ignores run-time dependences (§3.1.2);
                    // fall through to (possibly stale) memory.
                }
                LoadCheck::Value(v) => {
                    self.shared.stats.membuf_value_hits.inc();
                    return MemIssue::Done {
                        ready_at: now.plus(1),
                        value: v,
                    };
                }
                LoadCheck::Partial {
                    value,
                    buffered_mask,
                } => partial = Some((value, buffered_mask)),
                LoadCheck::Miss => {}
            }
        }

        let Some(mem_value) = self.shared.mem.try_read(addr, bytes) else {
            // Unmapped: wrong execution and not-yet-resolved speculation
            // both read as zero and skip the cache (a real machine would
            // squash the access at translation).
            if wrong {
                self.shared.stats.wrong_loads_dropped.inc();
            } else {
                self.shared.stats.unmapped_spec_loads.inc();
            }
            return MemIssue::Done {
                ready_at: now.plus(1),
                value: 0,
            };
        };
        let mut value = mem_value;
        if let Some((bval, mask)) = partial {
            for lane in 0..bytes as u32 {
                if mask & (1 << lane) != 0 {
                    value &= !(0xffu64 << (8 * lane));
                    value |= bval & (0xffu64 << (8 * lane));
                }
            }
        }

        match self.dpath.access(addr, kind, pc, now, &mut self.shared.l2) {
            DpResult::Done { ready_at } => {
                if let Some(tel) = self.shared.tel.as_deref_mut() {
                    tel.on_load(self.tu as u32, now.0, addr.0, kind, ready_at.0);
                }
                MemIssue::Done { ready_at, value }
            }
            DpResult::Retry => MemIssue::Retry,
        }
    }

    fn ifetch(&mut self, addr: Addr, now: Cycle) -> MemIssue {
        match self.icache.access(
            addr,
            AccessKind::InstFetch,
            addr.0 as u32,
            now,
            &mut self.shared.l2,
        ) {
            DpResult::Done { ready_at } => MemIssue::Done { ready_at, value: 0 },
            DpResult::Retry => MemIssue::Retry,
        }
    }

    fn commit_store(&mut self, addr: Addr, bytes: u64, value: u64, _now: Cycle) -> bool {
        if let Some(t) = self.thread.as_mut() {
            // Parallel region: stores stay in the speculative memory buffer
            // until the write-back stage; wrong threads never write back.
            t.membuf.record_store(addr, bytes, value);
            let id = t.id.0;
            let is_target = t.membuf.is_own_target_store(addr, bytes);
            // The release may only be broadcast by a thread that is still
            // alive, still on this TU, and not marked wrong.  (A thread
            // killed by a `begin` earlier in this same cycle can still be
            // ticking — after `wrong_set` was cleared — and must not leak a
            // garbage release into the new region.)
            let alive_here = self.shared.alive.get(id) == Some(self.tu);
            if is_target && alive_here && !self.shared.is_wrong(id) {
                self.shared.release_event(id, addr, bytes, value);
            }
            true
        } else {
            // Sequential: architecturally visible immediately; the store
            // buffer models cache port timing.
            if self.shared.mem.write(addr, bytes, value).is_err() {
                self.shared.fail(SimError::UnmappedAccess {
                    addr,
                    what: "store",
                });
                return true;
            }
            self.shared.pending_updates.push(addr);
            if self.sbuf.len() >= self.shared.cfg.core.store_buffer {
                return false;
            }
            self.sbuf.push_back(addr);
            true
        }
    }

    fn sta_commit(&mut self, inst: &Inst, regs: &ArchRegs, now: Cycle) -> StaOutcome {
        // A thread killed earlier in this very cycle (its TU ticks after the
        // killer's) may still reach commit before the deferred kill lands.
        // Nothing it commits may have machine-level effects — especially not
        // a fork, which would create an untracked zombie thread.
        if let Some(t) = self.thread.as_ref() {
            if !self.shared.alive.contains(t.id.0) {
                *self.thread = None;
                return StaOutcome::Stop;
            }
        }
        match *inst {
            Inst::Begin { region } => self.do_begin(region, regs),
            Inst::Fork { mask, body } => self.do_fork(mask, body, regs, now),
            Inst::Abort { seq } => self.do_abort(seq),
            Inst::TsAnnounce { base, off } => {
                let addr = Addr(regs.read_i(base).wrapping_add(off as i64 as u64));
                self.do_tsannounce(addr)
            }
            Inst::TsagDone => self.do_tsagdone(now),
            Inst::ThreadEnd => self.do_thread_end(),
            Inst::Halt => self.do_halt(),
            ref other => {
                self.shared.fail(SimError::IllegalInstruction {
                    pc: 0,
                    what: "non-STA instruction routed to sta_commit",
                });
                let _ = other;
                StaOutcome::Stop
            }
        }
    }
}

impl TuEnv<'_> {
    fn do_begin(&mut self, region: u16, regs: &ArchRegs) -> StaOutcome {
        if self.thread.is_some() {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "begin inside a parallel region",
            });
            return StaOutcome::Stop;
        }
        // Sweep leftover wrong threads from the previous region.
        self.shared.kill_all_wrong();
        self.shared.wrong_set.clear();
        self.shared.ts_log.clear();
        self.shared.deliveries.clear();
        self.shared.tsag_done.clear();
        self.shared.mode = Mode::Parallel { region };
        self.shared.region_snapshot = regs.clone();
        let id = self.shared.next_thread;
        self.shared.next_thread += 1;
        self.shared.region_first = id;
        self.shared.watermark = id;
        self.shared.alive.insert(id, self.tu);
        self.shared.tu_busy[self.tu] = true;
        *self.thread = Some(ThreadCtx::new(ThreadId(id)));
        self.shared.stats.regions.inc();
        self.shared.stats.threads_started.inc();
        let now = self.shared.now;
        self.shared
            .events
            .record(now, SchedEvent::Begin { region, head: id });
        StaOutcome::Continue
    }

    fn do_fork(&mut self, mask: u32, body: u32, regs: &ArchRegs, now: Cycle) -> StaOutcome {
        let Some(t) = self.thread.as_mut() else {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "fork outside a parallel region",
            });
            return StaOutcome::Stop;
        };
        if t.forked {
            return StaOutcome::Continue;
        }
        t.forked = true;
        let parent = t.id.0;
        if self.shared.is_wrong(parent) {
            // Wrong threads are not allowed to fork (§3.1.2).
            return StaOutcome::Continue;
        }
        self.shared.stats.forks.inc();
        let target = (self.tu + 1) % self.n_tus;
        let id = self.shared.next_thread;
        self.shared.next_thread += 1;
        if self.shared.tu_busy[target] {
            // The youngest thread delays forking until the TU frees (§2.1).
            self.shared.stats.deferred_forks.inc();
            self.shared.events.record(
                now,
                SchedEvent::ForkDeferred {
                    parent,
                    child: id,
                    tu: target,
                },
            );
            self.shared.deferred_forks.push(DeferredFork {
                tu: target,
                id,
                body,
                mask,
                values: regs.clone(),
            });
        } else {
            self.shared.tu_busy[target] = true;
            let start_at = now
                .plus(self.shared.cfg.fork_delay)
                .plus(self.shared.cfg.fork_per_value * u64::from(mask.count_ones()));
            self.shared.events.record(
                now,
                SchedEvent::ForkScheduled {
                    parent,
                    child: id,
                    tu: target,
                },
            );
            self.shared.pending_forks.push(PendingFork {
                start_at,
                tu: target,
                id,
                body,
                mask,
                values: regs.clone(),
            });
        }
        StaOutcome::Continue
    }

    fn do_abort(&mut self, seq: u32) -> StaOutcome {
        let Some(t) = self.thread.as_mut() else {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "abort outside a parallel region",
            });
            return StaOutcome::Stop;
        };
        let id = t.id.0;
        if self.shared.is_wrong(id) {
            // A wrong thread's abort kills only itself (§3.1.2).
            let now = self.shared.now;
            self.shared.events.record(now, SchedEvent::WrongDied { id });
            self.shared.alive.remove(id);
            self.shared.tu_busy[self.tu] = false;
            self.shared.pending_voids.push(id);
            *self.thread = None;
            return StaOutcome::Stop;
        }
        if !t.aborted {
            t.aborted = true;
            self.shared.stats.aborts.inc();
            let now = self.shared.now;
            self.shared.events.record(now, SchedEvent::Abort { id });
            self.shared.cut_successors(id);
        }
        // Drain: sequential execution may resume only after every older
        // thread has written back.
        if self.shared.watermark != id {
            return StaOutcome::Stall;
        }
        // Commit this thread's own (continuation-stage) stores and switch
        // the machine to sequential mode on this TU.
        let t = self.thread.as_mut().unwrap();
        for (addr, mask, value) in t.membuf.drain_own() {
            let mem = &mut self.shared.mem;
            let mut failed = false;
            apply_word(addr, mask, value, |a, b| {
                if mem.write(a, 1, b as u64).is_err() {
                    failed = true;
                }
            });
            if failed {
                self.shared.fail(SimError::UnmappedAccess {
                    addr,
                    what: "abort-path store",
                });
            }
        }
        self.shared.alive.remove(id);
        self.shared.watermark = id + 1;
        self.shared.mode = Mode::Sequential { tu: self.tu };
        let now = self.shared.now;
        self.shared
            .events
            .record(now, SchedEvent::Sequential { tu: self.tu });
        *self.thread = None;
        StaOutcome::Redirect(seq)
    }

    fn do_tsannounce(&mut self, addr: Addr) -> StaOutcome {
        let Some(t) = self.thread.as_mut() else {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "tsannounce outside a parallel region",
            });
            return StaOutcome::Stop;
        };
        let id = t.id.0;
        t.membuf.announce_own(addr);
        if !self.shared.is_wrong(id) {
            self.shared.announce_event(id, addr);
        }
        StaOutcome::Continue
    }

    fn do_tsagdone(&mut self, now: Cycle) -> StaOutcome {
        let Some(t) = self.thread.as_mut() else {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "tsagdone outside a parallel region",
            });
            return StaOutcome::Stop;
        };
        let id = t.id.0;
        if self.shared.is_wrong(id) {
            // Wrong threads skip the ring synchronization: their upstream
            // may already be dead.
            return StaOutcome::Continue;
        }
        let ready = if id == self.shared.region_first || self.shared.watermark >= id {
            true
        } else {
            match self.shared.tsag_done.get(id - 1) {
                Some(at) => at.plus(self.shared.cfg.ring_latency) <= now,
                None => false,
            }
        };
        if !ready {
            return StaOutcome::Stall;
        }
        t.tsag_done_at = Some(now);
        self.shared.tsag_done.insert(id, now);
        StaOutcome::Continue
    }

    fn do_thread_end(&mut self) -> StaOutcome {
        let Some(t) = self.thread.as_mut() else {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "thread_end outside a parallel region",
            });
            return StaOutcome::Stop;
        };
        let id = t.id.0;
        if self.shared.is_wrong(id) {
            // Squashed before the write-back stage (§3.1.2).
            let now = self.shared.now;
            self.shared.events.record(now, SchedEvent::WrongDied { id });
            self.shared.alive.remove(id);
            self.shared.tu_busy[self.tu] = false;
            self.shared.pending_voids.push(id);
            *self.thread = None;
            return StaOutcome::Stop;
        }
        t.state = ThreadState::WaitWb;
        StaOutcome::Stop
    }

    fn do_halt(&mut self) -> StaOutcome {
        if self.thread.is_some() {
            self.shared.fail(SimError::IllegalInstruction {
                pc: 0,
                what: "halt inside a parallel region",
            });
            return StaOutcome::Stop;
        }
        self.shared.halted = true;
        StaOutcome::Stop
    }
}
