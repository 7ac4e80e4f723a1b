//! The per-thread-unit L1 data path: L1 cache plus the side structure the
//! paper's configurations vary — **this is where the Wrong Execution Cache
//! lives** (§3.2, Figures 5 and 6).
//!
//! One [`DataPath`] implements all the paper's L1 arrangements:
//!
//! * [`SideKind::None`] — bare L1 (`orig`, `wp`, `wth`, `wth-wp`);
//! * [`SideKind::Victim`] — L1 + victim cache (`vc`, `wth-wp-vc`);
//! * [`SideKind::Wec`] — L1 + Wrong Execution Cache (`wth-wp-wec`);
//! * [`SideKind::PrefetchBuffer`] — L1 + tagged next-line prefetch buffer
//!   (`nlp`).
//!
//! The WEC policy, from Figure 6:
//!
//! * a **wrong-execution** load probes L1 and WEC in parallel; on a double
//!   miss the block is fetched into the **WEC**, never the L1 (pollution
//!   control); an L1 hit just updates LRU;
//! * a **correct** load that misses L1 but hits the WEC **swaps** the WEC
//!   block with the L1 victim and — if the block was brought in by wrong
//!   execution — issues a **next-line prefetch into the WEC**;
//! * a correct load that misses both fills the L1, and the displaced victim
//!   goes into the WEC (victim-cache behaviour);
//! * without a WEC, wrong-execution fills go straight into the L1 — exactly
//!   the pollution the paper measures in its `wp`/`wth` configurations.
//!
//! The L1 is a set-associative [`Cache`]; the side structure is a
//! fully-associative [`SideCache`], whose miss filter answers most probes
//! (most L1 misses miss the side structure too) without a scan.
//!
//! # Observation
//!
//! The data path reports what it does as one event stream: each
//! observation point makes one `emit` of a [`DpEvent`] (access, demand
//! hit/miss, side hit, side fill by origin, side evict, miss to the L2),
//! stamped with the cycle and raw address, into one optional
//! [`DpObserver`] slot.  The slot fans each event out to up to three
//! consumers: the telemetry buffer behind `events.jsonl`, the speculation
//! attribution ledger, and the trace-capture recorder.  With nothing
//! attached each site costs one `is_some` branch, and attaching any
//! consumer leaves every counter byte-identical.

use std::cell::RefCell;
use std::rc::Rc;

use wec_common::error::SimResult;
use wec_common::ids::{Addr, Cycle};
use wec_mem::cache::{Cache, CacheGeometry};
use wec_mem::l2::SharedL2;
use wec_mem::line::LineFlags;
use wec_mem::mshr::{MshrOutcome, Mshrs};
use wec_mem::ports::PortSet;
use wec_mem::prefetch::TaggedNextLine;
use wec_mem::side::SideCache;
use wec_mem::stats::{AccessKind, CacheStats};
use wec_telemetry::attr::{AttrProbe, FillOrigin};

/// Which side structure sits beside the L1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SideKind {
    None,
    Victim,
    Wec,
    PrefetchBuffer,
}

/// Configuration of one L1 data path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPathConfig {
    pub capacity_bytes: u64,
    pub ways: usize,
    pub block_bytes: u64,
    pub hit_latency: u64,
    pub ports: u32,
    pub mshrs: usize,
    pub side: SideKind,
    /// Entries in the side structure (ignored for `SideKind::None`).
    pub side_entries: usize,
}

impl DataPathConfig {
    /// The paper's default L1D (§5.2): 8 KB direct-mapped, 64 B blocks,
    /// 8-entry fully-associative side structure.
    pub fn paper_default(side: SideKind) -> Self {
        DataPathConfig {
            capacity_bytes: 8 * 1024,
            ways: 1,
            block_bytes: 64,
            hit_latency: 1,
            ports: 2,
            mshrs: 8,
            side,
            side_entries: 8,
        }
    }

    /// The paper's L1I (§4.1): 32 KB 2-way, no side structure.
    pub fn paper_icache() -> Self {
        DataPathConfig {
            capacity_bytes: 32 * 1024,
            ways: 2,
            block_bytes: 64,
            hit_latency: 1,
            ports: 1,
            mshrs: 2,
            side: SideKind::None,
            side_entries: 0,
        }
    }
}

/// One observation of the data path.  Each site emits exactly one, stamped
/// with the cycle and the raw byte address it concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpEvent {
    /// An access presented to [`DataPath::access`], emitted before the port
    /// check: an attempt that comes back `Retry` is observed, and observed
    /// again when it is re-presented.
    Access { pc: u32, kind: AccessKind },
    /// A correct-path access resolved against the L1 (`hit` mirrors the
    /// `CacheStats` hit/miss split exactly).
    Demand { hit: bool },
    /// A correct-path L1 miss served by the side structure.
    SideHit {
        wrong_fetched: bool,
        prefetched: bool,
    },
    /// The side structure accepted a fill.
    SideFill(FillOrigin),
    /// The side structure evicted a line to make room.
    SideEvict,
    /// A double miss sent to the L2 (`wrong` = wrong-execution access).
    MissToNext { wrong: bool },
}

/// Trace capture's consumer of the stream: it sees every
/// [`DpEvent::Access`] and nothing else.
pub trait AccessRecorder {
    fn record(&mut self, cycle: u64, pc: u32, addr: u64, kind: AccessKind);
}

/// The consumers of one data path's event stream, behind its one observer
/// slot.  Each is optional, and none feeds anything back into the model.
#[derive(Default)]
pub struct DpObserver {
    /// Telemetry buffer of `(cycle, event, block address)` for the events
    /// `events.jsonl` renders (side fills, side hits, misses to the L2);
    /// the machine drains it and tags the TU once per cycle.
    pub events: Option<Vec<(u64, DpEvent, u64)>>,
    /// Speculation attribution ledger.
    pub ledger: Option<AttrProbe>,
    /// Trace-capture recorder.  One thread unit's L1D and L1I share it, so
    /// both feed one per-TU stream in admission order.
    pub recorder: Option<Rc<RefCell<dyn AccessRecorder>>>,
}

impl DpObserver {
    /// Fan one event out to the attached consumers.  Out of line, so an
    /// unobserved site is only the branch around this call.
    #[inline(never)]
    fn on(&mut self, cycle: u64, addr: u64, ev: DpEvent, block_bytes: u64) {
        if let Some(ledger) = self.ledger.as_mut() {
            match ev {
                DpEvent::Access { pc, .. } => ledger.note_pc(pc),
                DpEvent::Demand { hit } => ledger.on_l1_demand(addr, hit),
                DpEvent::SideHit { .. } => ledger.on_side_hit(addr, cycle),
                DpEvent::SideFill(origin) => ledger.on_side_fill(addr, cycle, origin),
                DpEvent::SideEvict => ledger.on_side_evict(addr),
                DpEvent::MissToNext { .. } => {}
            }
        }
        match ev {
            DpEvent::Access { pc, kind } => {
                if let Some(r) = &self.recorder {
                    r.borrow_mut().record(cycle, pc, addr, kind);
                }
            }
            DpEvent::Demand { .. } | DpEvent::SideEvict => {}
            _ => {
                if let Some(buf) = self.events.as_mut() {
                    buf.push((cycle, ev, Addr(addr).block_base(block_bytes).0));
                }
            }
        }
    }
}

/// Result of a data-path access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpResult {
    /// Access accepted; data available at `ready_at`.
    Done { ready_at: Cycle },
    /// No port / no MSHR this cycle: retry.
    Retry,
}

/// One thread unit's L1 (data or instruction) with its side structure.
///
/// ```
/// use wec_common::ids::{Addr, Cycle};
/// use wec_core::dpath::{DataPath, DataPathConfig, DpResult, SideKind};
/// use wec_mem::l2::{L2Config, SharedL2};
/// use wec_mem::stats::AccessKind;
///
/// let mut dp = DataPath::new(DataPathConfig::paper_default(SideKind::Wec))?;
/// let mut l2 = SharedL2::new(L2Config::default())?;
/// // A wrong-execution load (PC 0x40) fills the WEC, never the L1 (Figure 6):
/// dp.access(Addr(0x4000), AccessKind::WrongPathLoad, 0x40, Cycle(0), &mut l2);
/// assert!(dp.side_contains(Addr(0x4000)) && !dp.l1_contains(Addr(0x4000)));
/// // The correct path later demands it: a fast WEC hit that swaps the
/// // block into the L1 and chains a next-line prefetch.
/// let r = dp.access(Addr(0x4000), AccessKind::CorrectLoad, 0x80, Cycle(500), &mut l2);
/// assert_eq!(r, DpResult::Done { ready_at: Cycle(501) });
/// assert!(dp.l1_contains(Addr(0x4000)));
/// # Ok::<(), wec_common::SimError>(())
/// ```
pub struct DataPath {
    cfg: DataPathConfig,
    l1: Cache,
    side: Option<SideCache>,
    ports: PortSet,
    mshrs: Mshrs,
    nlp: TaggedNextLine,
    pub stats: CacheStats,
    /// The one observer slot (`None` unless something watches this path).
    pub obs: Option<Box<DpObserver>>,
}

impl DataPath {
    pub fn new(cfg: DataPathConfig) -> SimResult<Self> {
        let geom = CacheGeometry::from_capacity(cfg.capacity_bytes, cfg.ways, cfg.block_bytes)?;
        let side = match cfg.side {
            SideKind::None => None,
            _ => Some(SideCache::new(cfg.side_entries, cfg.block_bytes)),
        };
        Ok(DataPath {
            cfg,
            l1: Cache::new(geom),
            side,
            ports: PortSet::new(cfg.ports),
            mshrs: Mshrs::new(cfg.mshrs, cfg.block_bytes),
            nlp: TaggedNextLine::new(),
            stats: CacheStats::default(),
            obs: None,
        })
    }

    pub fn config(&self) -> &DataPathConfig {
        &self.cfg
    }

    /// The observer slot, created empty on first use; consumers attach by
    /// setting its fields.
    pub fn observe(&mut self) -> &mut DpObserver {
        self.obs.get_or_insert_with(Default::default)
    }

    /// A speculation attribution ledger sized to this L1's geometry.
    pub fn new_ledger(&self) -> AttrProbe {
        AttrProbe::new(self.l1.geometry().sets as usize, self.cfg.block_bytes)
    }

    #[inline]
    fn emit(&mut self, now: Cycle, addr: Addr, ev: DpEvent) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.on(now.0, addr.0, ev, self.cfg.block_bytes);
        }
    }

    /// Access the data path. `kind` routes the access per Figure 6; stores
    /// pass `AccessKind::CorrectStore` (write-allocate, mark dirty).  `pc`
    /// is the issuing instruction's (0 for committed-store drains, the
    /// fetch address for instruction fetches); only observers read it.
    pub fn access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        pc: u32,
        now: Cycle,
        l2: &mut SharedL2,
    ) -> DpResult {
        self.emit(now, addr, DpEvent::Access { pc, kind });
        if !self.ports.try_claim(now) {
            return DpResult::Retry;
        }
        if kind.is_wrong() {
            self.wrong_access(addr, kind, now, l2)
        } else {
            self.correct_access(addr, kind, now, l2)
        }
    }

    // ---------------- correct path (Figure 6, right side) ----------------

    fn correct_access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        l2: &mut SharedL2,
    ) -> DpResult {
        let is_store = kind == AccessKind::CorrectStore;
        let hit_latency = self.cfg.hit_latency;
        let block_bytes = self.cfg.block_bytes;

        // Merge into an outstanding refill first.
        if let Some(ready) = self.mshrs.pending(addr, now) {
            self.stats.record(kind, true);
            self.emit(now, addr, DpEvent::Demand { hit: true });
            if is_store {
                self.l1.set_dirty(addr);
            }
            return DpResult::Done {
                ready_at: ready.max(now.plus(hit_latency)),
            };
        }

        // L1 hit?
        if let Some(flags) = self.l1.touch(addr) {
            let was_wrong = flags.wrong_fetched;
            let was_prefetched = flags.prefetched;
            flags.wrong_fetched = false;
            flags.prefetched = false;
            if is_store {
                flags.dirty = true;
            }
            self.stats.record(kind, true);
            self.emit(now, addr, DpEvent::Demand { hit: true });
            if was_wrong {
                self.stats.useful_wrong_fetches.inc();
            }
            if was_prefetched {
                self.stats.useful_prefetches.inc();
                if self.cfg.side == SideKind::PrefetchBuffer {
                    // Tagged prefetch re-arms on the first demand hit.
                    let next = addr.next_block(block_bytes);
                    self.issue_prefetch(next, LineFlags::PREFETCH, now, l2);
                }
            }
            return DpResult::Done {
                ready_at: now.plus(hit_latency),
            };
        }

        self.stats.record(kind, false);
        self.emit(now, addr, DpEvent::Demand { hit: false });

        // L1 miss: probe the side structure.
        if let Some(side_flags) = self.side.as_mut().and_then(|s| s.take(addr)) {
            self.stats.side_hits.inc();
            let was_wrong = side_flags.wrong_fetched;
            let was_prefetched = side_flags.prefetched;
            self.emit(
                now,
                addr,
                DpEvent::SideHit {
                    wrong_fetched: was_wrong,
                    prefetched: was_prefetched,
                },
            );
            if was_wrong {
                self.stats.useful_wrong_fetches.inc();
            }
            if was_prefetched {
                self.stats.useful_prefetches.inc();
            }
            // The block moves into the L1 as a demanded block.
            let flags = LineFlags {
                dirty: side_flags.dirty || is_store,
                ..LineFlags::DEMAND
            };
            match self.cfg.side {
                SideKind::Victim | SideKind::Wec => {
                    // Swap: the displaced L1 victim takes the side slot
                    // (guaranteed free: `take` just vacated one).
                    if let Some(victim) = self.l1.insert(addr, flags) {
                        self.stats.evictions.inc();
                        self.side
                            .as_mut()
                            .unwrap()
                            .insert(victim.addr, victim.flags);
                        self.emit(now, victim.addr, DpEvent::SideFill(FillOrigin::Victim));
                    }
                    if self.cfg.side == SideKind::Wec && (was_wrong || was_prefetched) {
                        // First correct use of a wrongly-fetched block:
                        // next-line prefetch into the WEC (§3.2.1).  The
                        // prefetched block is itself marked wrong-fetched so
                        // a hit to it keeps the chain going.
                        let next = addr.next_block(block_bytes);
                        let flags = LineFlags {
                            dirty: false,
                            wrong_fetched: true,
                            prefetched: true,
                        };
                        self.nlp.issued.inc();
                        self.stats.prefetches_issued.inc();
                        self.issue_prefetch_raw(next, flags, now, l2);
                    }
                }
                SideKind::PrefetchBuffer => {
                    // Jouppi-style buffer: block promotes to L1; the L1
                    // victim is evicted normally.
                    if let Some(victim) = self.l1.insert(addr, flags) {
                        self.evict_to_l2(victim.addr, victim.flags, now, l2);
                    }
                    if was_prefetched {
                        let next = addr.next_block(block_bytes);
                        self.issue_prefetch(next, LineFlags::PREFETCH, now, l2);
                    }
                }
                SideKind::None => unreachable!(),
            }
            return DpResult::Done {
                ready_at: now.plus(hit_latency),
            };
        }

        // Miss everywhere: fetch from L2 into the L1.
        self.stats.demand_misses_to_next_level.inc();
        self.emit(now, addr, DpEvent::MissToNext { wrong: false });
        let fetch_start = now.plus(hit_latency);
        let ready = match self
            .mshrs
            .register(addr, now, || l2.access(addr, kind, false, fetch_start))
        {
            MshrOutcome::NewMiss(r) | MshrOutcome::Merged(r) => r,
            MshrOutcome::Full => return DpResult::Retry,
        };
        let flags = LineFlags {
            dirty: is_store,
            ..LineFlags::DEMAND
        };
        if let Some(victim) = self.l1.insert(addr, flags) {
            self.stats.evictions.inc();
            match self.cfg.side {
                SideKind::Victim | SideKind::Wec => {
                    // Victim-cache behaviour: the displaced block parks in
                    // the side structure.
                    self.emit(now, victim.addr, DpEvent::SideFill(FillOrigin::Victim));
                    if let Some(side_victim) = self
                        .side
                        .as_mut()
                        .unwrap()
                        .insert(victim.addr, victim.flags)
                    {
                        self.emit(now, side_victim.addr, DpEvent::SideEvict);
                        self.writeback_if_dirty(side_victim.addr, side_victim.flags, now, l2);
                    }
                }
                _ => self.writeback_if_dirty(victim.addr, victim.flags, now, l2),
            }
        }
        if self.cfg.side == SideKind::PrefetchBuffer {
            // Tagged prefetch arms on every demand miss.
            let next = addr.next_block(block_bytes);
            self.issue_prefetch(next, LineFlags::PREFETCH, now, l2);
        }
        DpResult::Done { ready_at: ready }
    }

    // ---------------- wrong execution (Figure 6, left side) ----------------

    fn wrong_access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        l2: &mut SharedL2,
    ) -> DpResult {
        let hit_latency = self.cfg.hit_latency;
        self.stats.record(kind, false); // traffic counting; hit split below

        if let Some(ready) = self.mshrs.pending(addr, now) {
            return DpResult::Done {
                ready_at: ready.max(now.plus(hit_latency)),
            };
        }
        // L1 hit: just refresh LRU.
        if self.l1.touch(addr).is_some() {
            return DpResult::Done {
                ready_at: now.plus(hit_latency),
            };
        }
        // WEC (or other side) hit: refresh side LRU, serve from there.
        if let Some(side) = self.side.as_mut() {
            if side.touch(addr).is_some() {
                return DpResult::Done {
                    ready_at: now.plus(hit_latency),
                };
            }
        }
        // Double miss: fetch from the next level.
        self.stats.wrong_misses_to_next_level.inc();
        self.emit(now, addr, DpEvent::MissToNext { wrong: true });
        let fetch_start = now.plus(hit_latency);
        let ready = match self
            .mshrs
            .register(addr, now, || l2.access(addr, kind, false, fetch_start))
        {
            MshrOutcome::NewMiss(r) | MshrOutcome::Merged(r) => r,
            MshrOutcome::Full => return DpResult::Retry,
        };
        match self.cfg.side {
            SideKind::Wec => {
                // The paper's central rule: wrong-execution fills go to the
                // WEC, never the L1.
                self.emit(now, addr, DpEvent::SideFill(FillOrigin::Wrong));
                if let Some(victim) = self.side.as_mut().unwrap().insert(addr, LineFlags::WRONG) {
                    self.emit(now, victim.addr, DpEvent::SideEvict);
                    self.writeback_if_dirty(victim.addr, victim.flags, now, l2);
                }
            }
            SideKind::Victim | SideKind::None | SideKind::PrefetchBuffer => {
                // No WEC: the wrong fill pollutes the L1 (this is what the
                // wp/wth/wth-wp/wth-wp-vc configurations measure).
                if let Some(victim) = self.l1.insert(addr, LineFlags::WRONG) {
                    self.stats.evictions.inc();
                    if self.cfg.side == SideKind::Victim {
                        self.emit(now, victim.addr, DpEvent::SideFill(FillOrigin::Victim));
                        if let Some(side_victim) = self
                            .side
                            .as_mut()
                            .unwrap()
                            .insert(victim.addr, victim.flags)
                        {
                            self.emit(now, side_victim.addr, DpEvent::SideEvict);
                            self.writeback_if_dirty(side_victim.addr, side_victim.flags, now, l2);
                        }
                    } else {
                        self.writeback_if_dirty(victim.addr, victim.flags, now, l2);
                    }
                }
            }
        }
        DpResult::Done { ready_at: ready }
    }

    // ---------------- helpers ----------------

    /// Issue a hardware prefetch into the side structure (skipped if the
    /// block is already somewhere in this data path or in flight).
    fn issue_prefetch(&mut self, addr: Addr, flags: LineFlags, now: Cycle, l2: &mut SharedL2) {
        self.stats.prefetches_issued.inc();
        self.nlp.issued.inc();
        self.issue_prefetch_raw(addr, flags, now, l2);
    }

    fn issue_prefetch_raw(&mut self, addr: Addr, flags: LineFlags, now: Cycle, l2: &mut SharedL2) {
        if self.l1.contains(addr)
            || self.side.as_ref().is_some_and(|s| s.contains(addr))
            || self.mshrs.pending(addr, now).is_some()
        {
            return;
        }
        // Prefetches ride the L2 in the background; nobody waits on them, so
        // the instant-fill simplification costs nothing here.
        let _ = l2.access(
            addr,
            AccessKind::Prefetch,
            false,
            now.plus(self.cfg.hit_latency),
        );
        if self.side.is_some() {
            self.emit(now, addr, DpEvent::SideFill(FillOrigin::Prefetch));
            if let Some(victim) = self.side.as_mut().unwrap().insert(addr, flags) {
                self.emit(now, victim.addr, DpEvent::SideEvict);
                self.writeback_if_dirty(victim.addr, victim.flags, now, l2);
            }
        }
    }

    fn evict_to_l2(&mut self, addr: Addr, flags: LineFlags, now: Cycle, l2: &mut SharedL2) {
        self.stats.evictions.inc();
        self.writeback_if_dirty(addr, flags, now, l2);
    }

    fn writeback_if_dirty(&mut self, addr: Addr, flags: LineFlags, now: Cycle, l2: &mut SharedL2) {
        if flags.dirty {
            self.stats.writebacks.inc();
            let _ = l2.access(addr, AccessKind::CorrectStore, true, now);
        }
    }

    /// Is the block containing `addr` resident in the L1 proper? (Tests.)
    pub fn l1_contains(&self, addr: Addr) -> bool {
        self.l1.contains(addr)
    }

    /// Is the block resident in the side structure? (Tests.)
    pub fn side_contains(&self, addr: Addr) -> bool {
        self.side.as_ref().is_some_and(|s| s.contains(addr))
    }

    /// Wrong-fetched flag of a resident side block (tests).
    pub fn side_flags(&self, addr: Addr) -> Option<LineFlags> {
        self.side.as_ref()?.peek(addr)
    }

    /// Valid lines currently held by the side structure (WEC occupancy for
    /// the telemetry sampler; 0 without a side structure).
    pub fn side_occupancy(&self) -> usize {
        self.side.as_ref().map_or(0, |s| s.occupancy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_mem::l2::L2Config;

    fn l2() -> SharedL2 {
        SharedL2::new(L2Config::default()).unwrap()
    }

    fn dp(side: SideKind) -> DataPath {
        DataPath::new(DataPathConfig::paper_default(side)).unwrap()
    }

    fn done(r: DpResult) -> Cycle {
        match r {
            DpResult::Done { ready_at } => ready_at,
            DpResult::Retry => panic!("unexpected retry"),
        }
    }

    #[test]
    fn wrong_fill_goes_to_wec_not_l1() {
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        let a = Addr(0x1_0000);
        done(d.access(a, AccessKind::WrongPathLoad, 0, Cycle(0), &mut l2));
        assert!(!d.l1_contains(a), "wrong fill polluted the L1");
        assert!(d.side_contains(a));
        assert!(d.side_flags(a).unwrap().wrong_fetched);
    }

    #[test]
    fn wrong_fill_pollutes_l1_without_wec() {
        for side in [SideKind::None, SideKind::Victim] {
            let mut d = dp(side);
            let mut l2 = l2();
            let a = Addr(0x1_0000);
            done(d.access(a, AccessKind::WrongThreadLoad, 0, Cycle(0), &mut l2));
            assert!(d.l1_contains(a), "{side:?}");
        }
    }

    #[test]
    fn correct_hit_on_wec_block_swaps_and_prefetches() {
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        let a = Addr(0x2_0000);
        // Wrong execution brings the block into the WEC...
        done(d.access(a, AccessKind::WrongPathLoad, 0, Cycle(0), &mut l2));
        // ...then the correct path demands it (after the refill lands):
        // fast hit, block moves to L1, next line prefetched into the WEC.
        let t = done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        assert_eq!(t, Cycle(401), "WEC hit must cost the L1 hit latency");
        assert!(d.l1_contains(a));
        assert!(!d.l1.peek(a).unwrap().wrong_fetched);
        let next = a.next_block(64);
        assert!(d.side_contains(next), "next-line prefetch missing");
        assert_eq!(d.stats.useful_wrong_fetches.get(), 1);
        assert_eq!(d.stats.side_hits.get(), 1);
    }

    #[test]
    fn correct_miss_fills_l1_and_victim_goes_to_wec() {
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        // Two conflicting blocks (8 KB apart, direct-mapped).
        let a = Addr(0x0_0000);
        let b = Addr(0x0_2000);
        done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(0), &mut l2));
        done(d.access(b, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        assert!(d.l1_contains(b));
        assert!(!d.l1_contains(a));
        assert!(d.side_contains(a), "victim not parked in the WEC");
        // And the conflicting re-reference is now a cheap swap.
        let t = done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(800), &mut l2));
        assert_eq!(t, Cycle(801));
        assert!(d.l1_contains(a) && d.side_contains(b));
    }

    #[test]
    fn victim_cache_handles_conflicts_like_wec() {
        let mut d = dp(SideKind::Victim);
        let mut l2 = l2();
        let a = Addr(0x0_0000);
        let b = Addr(0x0_2000);
        done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(0), &mut l2));
        done(d.access(b, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        let t = done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(800), &mut l2));
        assert_eq!(t, Cycle(801));
        assert_eq!(d.stats.side_hits.get(), 1);
    }

    #[test]
    fn wrong_hit_in_l1_does_not_move_blocks() {
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        let a = Addr(0x3_0000);
        done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(0), &mut l2));
        done(d.access(a, AccessKind::WrongPathLoad, 0, Cycle(400), &mut l2));
        assert!(d.l1_contains(a));
        assert!(!d.side_contains(a));
        assert_eq!(d.stats.wrong_accesses.get(), 1);
        assert_eq!(d.stats.wrong_misses_to_next_level.get(), 0);
    }

    #[test]
    fn nlp_prefetches_on_miss_and_rearms_on_hit() {
        let mut d = dp(SideKind::PrefetchBuffer);
        let mut l2 = l2();
        let a = Addr(0x4_0000);
        done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(0), &mut l2));
        let next = a.next_block(64);
        assert!(d.side_contains(next), "miss must arm a prefetch");
        // Demand the prefetched block: it promotes to L1 and re-arms.
        let t = done(d.access(next, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        assert_eq!(t, Cycle(401), "prefetch-buffer hit should be fast");
        assert!(d.l1_contains(next));
        assert!(d.side_contains(next.next_block(64)));
        assert_eq!(d.stats.useful_prefetches.get(), 1);
    }

    /// `d` with an empty telemetry buffer attached.
    fn observed(side: SideKind) -> DataPath {
        let mut d = dp(side);
        d.observe().events = Some(Vec::new());
        d
    }

    fn drain(d: &mut DataPath) -> Vec<(u64, DpEvent, u64)> {
        d.observe().events.as_mut().unwrap().drain(..).collect()
    }

    #[test]
    fn trace_captures_wec_fill_and_hit() {
        let mut d = observed(SideKind::Wec);
        let mut l2 = l2();
        let a = Addr(0x2_0000);
        done(d.access(a, AccessKind::WrongPathLoad, 0, Cycle(0), &mut l2));
        done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        let evs = drain(&mut d);
        assert!(evs.contains(&(0, DpEvent::MissToNext { wrong: true }, a.0)));
        assert!(evs.contains(&(0, DpEvent::SideFill(FillOrigin::Wrong), a.0)));
        assert!(evs.iter().any(|&(c, e, ad)| c == 400
            && ad == a.0
            && matches!(
                e,
                DpEvent::SideHit {
                    wrong_fetched: true,
                    ..
                }
            )));
        assert!(
            evs.iter()
                .any(|&(_, e, _)| e == DpEvent::SideFill(FillOrigin::Prefetch)),
            "WEC hit must chain a next-line prefetch event"
        );
        assert!(
            evs.iter().all(|&(_, e, _)| !matches!(
                e,
                DpEvent::Access { .. } | DpEvent::Demand { .. } | DpEvent::SideEvict
            )),
            "the telemetry buffer keeps only the events it renders"
        );
        assert_eq!(d.side_occupancy(), 1);
    }

    #[test]
    fn every_victim_path_reports_its_side_fill() {
        let victim = DpEvent::SideFill(FillOrigin::Victim);
        // Two conflicting blocks (8 KB apart, direct-mapped), presented in
        // order: `(block, kind, cycle)`.
        let (a, b) = (Addr(0x0_0000), Addr(0x0_2000));
        let run = |side, steps: &[(Addr, AccessKind, u64)]| {
            let mut d = observed(side);
            let mut mem = l2();
            for &(addr, kind, cycle) in steps {
                done(d.access(addr, kind, 0, Cycle(cycle), &mut mem));
            }
            drain(&mut d)
        };

        // A correct miss parks its victim, and the swap after a side hit
        // parks the block it displaces.
        let load = AccessKind::CorrectLoad;
        let evs = run(
            SideKind::Wec,
            &[(a, load, 0), (b, load, 400), (a, load, 800)],
        );
        assert!(evs.contains(&(400, victim, a.0)), "miss victim");
        assert!(evs.contains(&(800, victim, b.0)), "swap victim");

        // A wrong fill that pollutes the L1 pushes its victim into the
        // victim cache.
        let wrong = AccessKind::WrongThreadLoad;
        let evs = run(SideKind::Victim, &[(a, load, 0), (b, wrong, 400)]);
        assert!(evs.contains(&(400, victim, a.0)), "wrong-fill victim");
    }

    #[test]
    fn recorder_sees_every_attempt_including_retries() {
        #[derive(Default)]
        struct Log(Vec<(u64, u32, u64, AccessKind)>);
        impl AccessRecorder for Log {
            fn record(&mut self, cycle: u64, pc: u32, addr: u64, kind: AccessKind) {
                self.0.push((cycle, pc, addr, kind));
            }
        }
        let log = Rc::new(RefCell::new(Log::default()));
        let mut d = dp(SideKind::None);
        d.observe().recorder = Some(log.clone());
        let mut l2 = l2();
        for (i, a) in [0x100, 0x200, 0x300].into_iter().enumerate() {
            d.access(
                Addr(a),
                AccessKind::CorrectLoad,
                4 * i as u32,
                Cycle(0),
                &mut l2,
            );
        }
        // The third attempt found no free port; it is recorded anyway.
        assert_eq!(log.borrow().0.len(), 3);
        assert_eq!(log.borrow().0[2], (0, 8, 0x300, AccessKind::CorrectLoad));
    }

    #[test]
    fn mshr_merges_wrong_then_correct_access() {
        // A wrong-execution load starts a refill; the correct path arrives
        // two cycles later and must merge (one L2 fetch, shortened miss).
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        let a = Addr(0x5_0000);
        let t_wrong = done(d.access(a, AccessKind::WrongPathLoad, 0, Cycle(0), &mut l2));
        let t_correct = done(d.access(a, AccessKind::CorrectLoad, 0, Cycle(2), &mut l2));
        assert_eq!(t_wrong, t_correct, "must merge into the same refill");
        assert_eq!(
            l2.stats.wrong_accesses.get() + l2.stats.demand_accesses.get(),
            1
        );
    }

    #[test]
    fn ports_reject_excess_accesses_per_cycle() {
        let mut d = dp(SideKind::None);
        let mut l2 = l2();
        let now = Cycle(0);
        assert!(matches!(
            d.access(Addr(0x100), AccessKind::CorrectLoad, 0, now, &mut l2),
            DpResult::Done { .. }
        ));
        assert!(matches!(
            d.access(Addr(0x200), AccessKind::CorrectLoad, 0, now, &mut l2),
            DpResult::Done { .. }
        ));
        assert_eq!(
            d.access(Addr(0x300), AccessKind::CorrectLoad, 0, now, &mut l2),
            DpResult::Retry
        );
        // Next cycle they are free again.
        assert!(matches!(
            d.access(Addr(0x300), AccessKind::CorrectLoad, 0, Cycle(1), &mut l2),
            DpResult::Done { .. }
        ));
    }

    #[test]
    fn store_miss_write_allocates_dirty_and_writes_back() {
        let mut d = dp(SideKind::None);
        let mut l2 = l2();
        let a = Addr(0x0_0000);
        let b = Addr(0x0_2000); // conflicts with a
        done(d.access(a, AccessKind::CorrectStore, 0, Cycle(0), &mut l2));
        assert!(d.l1.peek(a).unwrap().dirty);
        done(d.access(b, AccessKind::CorrectLoad, 0, Cycle(400), &mut l2));
        assert_eq!(d.stats.writebacks.get(), 1);
    }

    #[test]
    fn wec_eviction_never_reaches_l1() {
        // Fill the 8-entry WEC with nine wrong-execution blocks; the
        // overflow must evict the oldest WEC block, not touch the L1.
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        for i in 0..9u64 {
            done(d.access(
                Addr(0x10_0000 + i * 64),
                AccessKind::WrongPathLoad,
                0,
                Cycle(i * 400),
                &mut l2,
            ));
        }
        assert!(!d.side_contains(Addr(0x10_0000)), "oldest should be gone");
        assert!(d.side_contains(Addr(0x10_0000 + 8 * 64)));
        for i in 0..9u64 {
            assert!(!d.l1_contains(Addr(0x10_0000 + i * 64)));
        }
    }

    #[test]
    fn full_wec_swap_evicts_no_other_entry() {
        // Eight wrong-path blocks fill the WEC.  A correct load then hits
        // the fourth (neither its oldest nor its newest entry): the L1
        // victim must take exactly the slot that `take` vacated.
        let mut d = dp(SideKind::Wec);
        let mut l2 = l2();
        let blocks: Vec<Addr> = (0..8u64).map(|i| Addr(0x2_0000 + i * 64)).collect();
        let hit = blocks[3];
        let l1_victim = Addr(hit.0 + 0x2000); // same direct-mapped L1 set
        done(d.access(l1_victim, AccessKind::CorrectLoad, 0, Cycle(0), &mut l2));
        for (i, &b) in blocks.iter().enumerate() {
            let now = Cycle(400 * (i as u64 + 1));
            done(d.access(b, AccessKind::WrongPathLoad, 0, now, &mut l2));
        }
        assert_eq!(d.side_occupancy(), 8);

        let t = done(d.access(hit, AccessKind::CorrectLoad, 0, Cycle(8000), &mut l2));
        assert_eq!(t, Cycle(8001));
        assert_eq!(d.stats.side_hits.get(), 1);
        assert!(d.l1_contains(hit) && !d.side_contains(hit));
        assert!(d.side_contains(l1_victim), "L1 victim not swapped in");
        for &b in blocks.iter().filter(|&&b| b != hit) {
            assert!(d.side_contains(b), "{b:?} evicted by the swap");
        }
        // The chained next-line prefetch targets a resident entry, so it
        // does not fill (or evict) anything either.
        assert_eq!(d.side_occupancy(), 8);
    }
}
