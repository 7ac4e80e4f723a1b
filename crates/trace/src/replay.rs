//! Replay: re-drive the cache hierarchy from a captured trace.
//!
//! Builds fresh per-TU L1 data/instruction paths (with whatever WEC /
//! victim / next-line-prefetch side structure the target configuration
//! selects) and a fresh shared L2, then presents the merged record stream
//! through [`DataPath::access`] in the machine's global order, with each
//! record's PC.  Nothing else is needed: prefetch issue, victim/WEC
//! transfers, dirty writebacks, MSHR merging, and L2/DRAM timing are all
//! regenerated inside the data paths from the call sequence, so at the
//! captured configuration every cache counter comes out identical to the
//! full-timing run.  The data paths emit the same event stream as in full
//! timing, so an attribution ledger attached to each L1D (exactly as the
//! machine attaches it) sees the same events and yields the same report.
//! Replay attaches nothing to an L1I.
//!
//! # The instruction side, replayed once per slab
//!
//! About three quarters of a trace's records are instruction fetches, and
//! no geometry sweep point changes the L1I they go to.  So the first
//! replay of a [`TraceSlab`] leaves a plan on the slab: the merged-order
//! positions of every data record and of every fetch that went to the L2,
//! the L2 ready cycle each of those fetches got, and each TU's final L1I
//! counters.  A later replay of the slab with the same L1I configuration
//! drives only the listed records.  For each listed fetch it makes the
//! L1I miss's L2 request itself and checks that the L2 returns the
//! recorded cycle; if every cycle matches, the L1I counters come from the
//! plan, and at the first mismatch the point is replayed in full.
//!
//! This is exact.  An L1I changes state (tags and LRU, MSHRs, port,
//! counters) only on its own records, and its one input from outside is
//! the L2 ready cycle of each of its misses: that cycle decides when the
//! MSHR entry expires, and so whether a later fetch merges into the
//! pending refill or touches the line, and whether a miss finds the file
//! full.  It carries no observer in replay and its lines are never dirty,
//! so its one output is the L2 request each miss makes.  By induction
//! over the merged order: while every miss so far came back at its
//! recorded cycle, every L1I is in its recorded state, so the next fetch
//! has its recorded outcome and, if it misses, makes the recorded L2
//! request.  The check must stay, because the L2 below can change the
//! cycles: a shorter memory latency expires a refill before a fetch that
//! would have merged into it, and that fetch then refreshes the line's
//! LRU position instead.

use wec_common::ids::{Addr, Cycle};
use wec_common::stats::StatSet;
use wec_core::dpath::{DataPathConfig, DpResult};
use wec_core::{DataPath, MachineConfig};
use wec_mem::l2::SharedL2;
use wec_mem::stats::{AccessKind, CacheStats};
use wec_telemetry::attr::AttributionReport;

use crate::format::Trace;
use crate::record::TraceKind;
use crate::slab::{MergedOrder, TraceSlab};
use crate::TraceError;

/// Counters produced by one replay.
pub struct ReplayOutcome {
    /// Records replayed: every record of the trace, also the fetches a
    /// planned replay takes from the slab's plan.
    pub records: u64,
    /// Cache counters under the same keys the full-timing run emits:
    /// `tu{i}.l1d.*`, `tu{i}.l1i.*`, `l2.*`.
    pub stats: StatSet,
    /// Speculation attribution ledger (`None` unless the replay was asked
    /// for it; see [`replay_slab_with`]).  At the captured configuration
    /// this is byte-identical to the full-timing run's report.
    pub attribution: Option<AttributionReport>,
}

/// The replayed cache hierarchy: per-TU L1D/L1I paths and one shared L2.
struct Hierarchy {
    l1d: Vec<DataPath>,
    l1i: Vec<DataPath>,
    l2: SharedL2,
}

impl Hierarchy {
    /// Fresh structures at `cfg`'s cache geometry for a capture of `n_tus`
    /// thread units, with a ledger on every L1D when `attribution` is set
    /// (instruction fetch carries no speculation, as in the machine).
    fn new(n_tus: u32, cfg: &MachineConfig, attribution: bool) -> Result<Self, TraceError> {
        let n_tus = n_tus as usize;
        if cfg.n_tus != n_tus {
            return Err(TraceError::Corrupt(format!(
                "trace captured {n_tus} TUs but replay config has {}",
                cfg.n_tus
            )));
        }
        let mut l1d = Vec::with_capacity(n_tus);
        let mut l1i = Vec::with_capacity(n_tus);
        for _ in 0..n_tus {
            let mut dp = DataPath::new(cfg.l1d)?;
            if attribution {
                let ledger = dp.new_ledger();
                dp.observe().ledger = Some(ledger);
            }
            l1d.push(dp);
            l1i.push(DataPath::new(cfg.l1i)?);
        }
        let l2 = SharedL2::new(cfg.l2)?;
        Ok(Hierarchy { l1d, l1i, l2 })
    }

    /// Present one record.  The result is deliberately ignored: Retry
    /// outcomes were re-presented (and re-recorded) by the capturing run,
    /// so the stream already contains every attempt.
    #[inline]
    fn access(&mut self, tu: usize, kind: AccessKind, pc: u32, addr: u64, cycle: u64) {
        let dp = if kind == AccessKind::InstFetch {
            &mut self.l1i[tu]
        } else {
            &mut self.l1d[tu]
        };
        let _ = dp.access(Addr(addr), kind, pc, Cycle(cycle), &mut self.l2);
    }

    fn finish(self, records: u64) -> ReplayOutcome {
        let mut stats = StatSet::new();
        for (i, (d, f)) in self.l1d.iter().zip(&self.l1i).enumerate() {
            d.stats.dump(&mut stats, &format!("tu{i}.l1d"));
            f.stats.dump(&mut stats, &format!("tu{i}.l1i"));
        }
        self.l2.stats.dump(&mut stats, "l2");
        let ledgers: Vec<_> = self
            .l1d
            .iter()
            .filter_map(|dp| dp.obs.as_ref()?.ledger.as_ref())
            .collect();
        ReplayOutcome {
            records,
            stats,
            attribution: (!ledgers.is_empty()).then(|| AttributionReport::from_probes(ledgers)),
        }
    }
}

/// Replay `trace` against the cache geometry of `cfg` (core/scheduler
/// fields of `cfg` are ignored — only `l1d`, `l1i`, `l2`, `n_tus`
/// matter).  `cfg.n_tus` must match the captured TU count.
///
/// This decodes and merges the streams as it goes; production paths
/// replay a [`TraceSlab`] instead, and this streaming form is the
/// reference the slab replay is checked against.
pub fn replay(trace: &Trace, cfg: &MachineConfig) -> Result<ReplayOutcome, TraceError> {
    let mut h = Hierarchy::new(trace.header.n_tus, cfg, false)?;
    let mut records = 0u64;
    for rec in trace.merged()? {
        let rec = rec?;
        let tu = rec.tu as usize;
        if tu >= h.l1d.len() {
            return Err(TraceError::Corrupt(format!(
                "record for TU {tu} out of range"
            )));
        }
        h.access(tu, rec.kind.access_kind(), rec.pc, rec.addr, rec.cycle);
        records += 1;
    }
    Ok(h.finish(records))
}

/// Records per batch in the slab replay loop.  Batching keeps the hot
/// loop's working set (a few contiguous array windows plus the scratch
/// vectors below) resident while amortizing the per-batch precompute.
const REPLAY_BATCH: usize = 4096;

/// The instruction side of a slab's first replay: what a later replay at
/// the same L1I configuration drives, and what it checks (see the module
/// docs).
pub(crate) struct IfetchPlan {
    /// The L1I configuration the plan was recorded at.
    l1i: DataPathConfig,
    /// Merged-order positions a planned replay drives, ascending: every
    /// data record, and every fetch that went to the L2.
    drive: Vec<u32>,
    /// The L2 ready cycle of each listed fetch, in order.
    ready: Vec<u64>,
    /// Each TU's final L1I counters.
    l1i_stats: Vec<CacheStats>,
}

impl IfetchPlan {
    /// Present record `pos` to `h` as [`Hierarchy::access`] does, and list
    /// it if a planned replay must drive it.
    fn list(
        &mut self,
        pos: u32,
        h: &mut Hierarchy,
        (tu, kind, pc, addr, cycle): (usize, AccessKind, u32, u64, u64),
    ) {
        if kind != AccessKind::InstFetch {
            self.drive.push(pos);
            h.access(tu, kind, pc, addr, cycle);
            return;
        }
        let dp = &mut h.l1i[tu];
        let misses = dp.stats.demand_misses_to_next_level.get();
        // A miss that finds the MSHR file full is counted too, but comes
        // back `Retry` without an L2 request.
        if let DpResult::Done { ready_at } =
            dp.access(Addr(addr), kind, pc, Cycle(cycle), &mut h.l2)
        {
            if dp.stats.demand_misses_to_next_level.get() > misses {
                self.drive.push(pos);
                self.ready.push(ready_at.0);
            }
        }
    }

    /// Drive the listed records of `m` through `h`, whose L1Is stay idle
    /// and end with the recorded counters.  `false` at the first fetch
    /// whose L2 ready cycle differs from the recorded one (`h` is then
    /// spent).
    fn replay(&self, m: &MergedOrder, h: &mut Hierarchy) -> bool {
        let mut ready = self.ready.iter();
        for &pos in &self.drive {
            let i = pos as usize;
            let (tu, addr, cycle) = (m.tus[i] as usize, Addr(m.addrs[i]), Cycle(m.cycles[i]));
            match m.kinds[i] {
                TraceKind::InstFetch => {
                    let fetch_start = cycle.plus(self.l1i.hit_latency);
                    let got = h.l2.access(addr, AccessKind::InstFetch, false, fetch_start);
                    if ready.next() != Some(&got.0) {
                        return false;
                    }
                }
                kind => {
                    let _ = h.l1d[tu].access(addr, kind.access_kind(), m.pcs[i], cycle, &mut h.l2);
                }
            }
        }
        for (dp, stats) in h.l1i.iter_mut().zip(&self.l1i_stats) {
            dp.stats = stats.clone();
        }
        true
    }
}

/// Replay a decoded [`TraceSlab`] against the cache geometry of `cfg`.
///
/// Semantically identical to [`replay`] on the trace the slab was built
/// from — same accesses, same global order, byte-identical counters —
/// but the decode and k-way merge were paid once at slab construction,
/// and the first replay of the slab records its instruction side (see
/// the module docs): a later replay with the same L1I configuration
/// drives only the data records and the fetches that went to the L2.  A
/// sweep replays one shared slab at many geometries without re-decoding
/// and without re-fetching.
pub fn replay_slab(slab: &TraceSlab, cfg: &MachineConfig) -> Result<ReplayOutcome, TraceError> {
    replay_slab_with(slab, cfg, false)
}

/// [`replay_slab`] with an optional speculation attribution ledger on
/// each L1D path.  The ledgers observe the same access stream, PCs, and
/// cycles the timing run saw, so at the captured configuration the
/// resulting report is byte-identical to full timing — and the cache
/// counters are byte-identical either way.
pub fn replay_slab_with(
    slab: &TraceSlab,
    cfg: &MachineConfig,
    attribution: bool,
) -> Result<ReplayOutcome, TraceError> {
    match replay_planned(slab, cfg, attribution)? {
        Some(outcome) => Ok(outcome),
        None => replay_full(slab, cfg, attribution),
    }
}

/// Replay from the slab's plan.  `None` when the slab has no plan for
/// `cfg.l1i`, or when a fetch the plan lists gets another L2 ready cycle.
fn replay_planned(
    slab: &TraceSlab,
    cfg: &MachineConfig,
    attribution: bool,
) -> Result<Option<ReplayOutcome>, TraceError> {
    let Some(plan) = slab.ifetch.get().filter(|p| p.l1i == cfg.l1i) else {
        return Ok(None);
    };
    let mut h = Hierarchy::new(slab.header().n_tus, cfg, attribution)?;
    Ok(plan
        .replay(slab.merged(), &mut h)
        .then(|| h.finish(slab.records())))
}

/// Replay every record of the slab, streaming batches out of the merged
/// structure-of-arrays: per batch it first resolves TU routing and access
/// kinds over the contiguous `tus`/`kinds` arrays, then drives the
/// probes.  The first full replay of a slab records its plan.
fn replay_full(
    slab: &TraceSlab,
    cfg: &MachineConfig,
    attribution: bool,
) -> Result<ReplayOutcome, TraceError> {
    let n_tus = slab.header().n_tus;
    let mut h = Hierarchy::new(n_tus, cfg, attribution)?;

    let m = slab.merged();
    // Plan positions are `u32`s; a longer slab is always replayed in full.
    let mut plan =
        (slab.ifetch.get().is_none() && u32::try_from(m.len()).is_ok()).then(|| IfetchPlan {
            l1i: cfg.l1i,
            drive: Vec::new(),
            ready: Vec::new(),
            l1i_stats: Vec::new(),
        });
    let mut akinds: Vec<AccessKind> = Vec::with_capacity(REPLAY_BATCH);
    let mut start = 0usize;
    while start < m.len() {
        let end = usize::min(start + REPLAY_BATCH, m.len());
        let tus = &m.tus[start..end];
        let cycles = &m.cycles[start..end];
        let addrs = &m.addrs[start..end];
        let pcs = &m.pcs[start..end];

        // Precompute pass over the contiguous arrays: bounds-check TU
        // routing and resolve access kinds for the whole batch.
        if let Some(&bad) = tus.iter().find(|&&tu| tu as u32 >= n_tus) {
            return Err(TraceError::Corrupt(format!(
                "record for TU {bad} out of range"
            )));
        }
        akinds.clear();
        akinds.extend(m.kinds[start..end].iter().map(|k| k.access_kind()));

        // Probe pass.
        for (i, ((((&tu, &kind), &pc), &addr), &cycle)) in tus
            .iter()
            .zip(&akinds)
            .zip(pcs)
            .zip(addrs)
            .zip(cycles)
            .enumerate()
        {
            let tu = tu as usize;
            match plan.as_mut() {
                Some(plan) => plan.list((start + i) as u32, &mut h, (tu, kind, pc, addr, cycle)),
                None => h.access(tu, kind, pc, addr, cycle),
            }
        }
        start = end;
    }
    if let Some(mut plan) = plan {
        plan.l1i_stats = h.l1i.iter().map(|dp| dp.stats.clone()).collect();
        // Of two first replays that race, the first to finish sets the
        // plan; outputs do not depend on which one it was.
        let _ = slab.ifetch.set(plan);
    }
    Ok(h.finish(m.len() as u64))
}

/// Extract the cache-counter subset of a full-timing run's stats — the
/// exact key set [`replay`] emits — sorted by key.  Comparing this
/// against a replay at the captured configuration must show zero drift.
pub fn cache_stat_subset(stats: &StatSet) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = stats
        .iter()
        .filter(|(k, _)| is_cache_key(k))
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out.sort();
    out
}

fn is_cache_key(key: &str) -> bool {
    if key.strip_prefix("l2.").is_some_and(|r| !r.is_empty()) {
        return true;
    }
    let Some(rest) = key.strip_prefix("tu") else {
        return false;
    };
    let digits = rest.chars().take_while(char::is_ascii_digit).count();
    if digits == 0 {
        return false;
    }
    rest[digits..].starts_with(".l1d.") || rest[digits..].starts_with(".l1i.")
}

/// Render counter pairs as the workspace's `.kv` format (one `key value`
/// per line, sorted input expected) — loadable by `metricsdiff`.
pub fn kv_string(pairs: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_run, CaptureMeta};
    use crate::format::{TraceHeader, FORMAT_VERSION};
    use crate::record::TraceRecord;
    use crate::stream::StreamEncoder;
    use wec_core::ProcPreset;
    use wec_workloads::{Bench, Scale};

    /// Three blocks in one set of the paper's 32 KB 2-way L1I (16 KB
    /// apart); `A` and `C` are 32 KB apart, so they share a set of the
    /// direct-mapped 32 KB L1I too.
    const A: u64 = 0x1_0000;
    const B: u64 = 0x1_4000;
    const C: u64 = 0x1_8000;

    /// A one-TU trace of instruction fetches, `(cycle, address)` each.
    fn fetches(list: &[(u64, u64)]) -> Trace {
        let mut enc = StreamEncoder::new();
        for &(cycle, addr) in list {
            enc.push(&TraceRecord {
                cycle,
                tu: 0,
                pc: addr as u32,
                addr,
                kind: TraceKind::InstFetch,
                squashed: false,
            });
        }
        Trace {
            header: TraceHeader {
                format_version: FORMAT_VERSION,
                sim_revision: wec_core::SIM_REVISION,
                n_tus: 1,
                scale_units: 1,
                bench: "replay.test".into(),
                cfg_label: "replay/cfg".into(),
                total_records: list.len() as u64,
            },
            streams: vec![enc.finish()],
        }
    }

    fn counters(outcome: &ReplayOutcome) -> Vec<(String, u64)> {
        cache_stat_subset(&outcome.stats)
    }

    fn ifetch_misses(trace: &Trace, cfg: &MachineConfig) -> u64 {
        let outcome = replay(trace, cfg).unwrap();
        outcome.stats.get("tu0.l1i.ifetch_misses").unwrap()
    }

    /// Replay one slab at each configuration in turn (the first replay
    /// records the plan, the second may use it); each must equal the
    /// streaming replay at its configuration.
    fn replay_in_turn(trace: &Trace, cfgs: [&MachineConfig; 2]) {
        let slab = TraceSlab::build_seq(trace).unwrap();
        for (i, cfg) in cfgs.into_iter().enumerate() {
            assert_eq!(
                counters(&replay_slab(&slab, cfg).unwrap()),
                counters(&replay(trace, cfg).unwrap()),
                "replay {i} of the slab"
            );
        }
    }

    #[test]
    fn another_memory_latency_falls_back_at_the_first_changed_cycle() {
        let trace = fetches(&[(0, A), (1, B), (100, A), (300, C), (600, A)]);
        let slow = MachineConfig::paper_default(1);
        let mut fast = slow.clone();
        fast.l2.memory_latency = 20;
        // At the default memory A's refill is still pending at cycle 100,
        // so that fetch merges into it without refreshing A, and C evicts
        // A.  At 20 cycles the refill has landed, the fetch refreshes A,
        // and C evicts B.
        assert_eq!(ifetch_misses(&trace, &slow), 4);
        assert_eq!(ifetch_misses(&trace, &fast), 3);
        replay_in_turn(&trace, [&slow, &fast]);
        replay_in_turn(&trace, [&fast, &slow]);
    }

    #[test]
    fn another_l1i_geometry_replays_in_full() {
        let trace = fetches(&[(0, A), (1, C), (600, A)]);
        let two_way = MachineConfig::paper_default(1);
        let mut direct = two_way.clone();
        direct.l1i.ways = 1;
        // The L2 returns the same cycles to both; only the L1I differs.
        assert_eq!(ifetch_misses(&trace, &two_way), 2);
        assert_eq!(ifetch_misses(&trace, &direct), 3);
        replay_in_turn(&trace, [&two_way, &direct]);
        replay_in_turn(&trace, [&direct, &two_way]);
    }

    /// On captured traces a later replay answers from the plan, without
    /// falling back, at both side kinds, the sweep's smallest and largest
    /// side structure, and a direct-mapped and a 4-way L1D; and with the
    /// ledger on, at the captured configuration it equals full timing.
    #[test]
    fn the_plan_answers_on_captured_traces() {
        for bench in [Bench::Mcf, Bench::Parser] {
            let w = bench.build(Scale::SMOKE);
            let mut captured = ProcPreset::WthWpWec.machine(8);
            captured.attribution = true;
            let meta = CaptureMeta {
                bench: w.name.to_string(),
                scale_units: Scale::SMOKE.units,
                cfg_label: captured.preset.name().to_string(),
            };
            let (timing, trace) = capture_run(&w, captured.clone(), &meta).unwrap();
            let slab = TraceSlab::build_seq(&trace).unwrap();
            assert!(replay_planned(&slab, &captured, true).unwrap().is_none());
            replay_slab(&slab, &captured).unwrap();

            let planned = replay_planned(&slab, &captured, true)
                .unwrap()
                .unwrap_or_else(|| panic!("{}: the captured point fell back", w.name));
            assert_eq!(counters(&planned), cache_stat_subset(&timing.stats));
            assert_eq!(
                planned.attribution.unwrap().to_json(),
                timing.attribution.unwrap().to_json(),
                "{}: planned replay and full timing ledgers diverge",
                w.name
            );

            for preset in [ProcPreset::WthWpWec, ProcPreset::WthWpVc] {
                for side_entries in [2, 128] {
                    for ways in [1, 4] {
                        let mut cfg = preset.machine(8);
                        cfg.l1d.side_entries = side_entries;
                        cfg.l1d.ways = ways;
                        let at =
                            format!("{} {} side{side_entries} ways{ways}", w.name, preset.name());
                        let planned = replay_planned(&slab, &cfg, false)
                            .unwrap()
                            .unwrap_or_else(|| panic!("{at}: fell back"));
                        let full = replay_full(&slab, &cfg, false).unwrap();
                        assert_eq!(counters(&planned), counters(&full), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn cache_key_filter() {
        assert!(is_cache_key("l2.demand_accesses"));
        assert!(is_cache_key("tu0.l1d.demand_misses"));
        assert!(is_cache_key("tu12.l1i.ifetch_accesses"));
        assert!(!is_cache_key("tu0.core.committed"));
        assert!(!is_cache_key("machine.l1d.demand_accesses"));
        assert!(!is_cache_key("l2_other"));
        assert!(!is_cache_key("tux.l1d.demand_misses"));
        assert!(!is_cache_key("l2."));
    }

    #[test]
    fn kv_renders_lines() {
        let pairs = vec![("a.b".to_string(), 1u64), ("c.d".to_string(), 2u64)];
        assert_eq!(kv_string(&pairs), "a.b 1\nc.d 2\n");
    }
}
