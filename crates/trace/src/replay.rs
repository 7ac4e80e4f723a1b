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

use wec_common::ids::{Addr, Cycle};
use wec_common::stats::StatSet;
use wec_core::{DataPath, MachineConfig};
use wec_mem::l2::SharedL2;
use wec_mem::stats::AccessKind;
use wec_telemetry::attr::AttributionReport;

use crate::format::Trace;
use crate::slab::TraceSlab;
use crate::TraceError;

/// Counters produced by one replay.
pub struct ReplayOutcome {
    /// Records driven through the hierarchy.
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

/// Replay a decoded [`TraceSlab`] against the cache geometry of `cfg`.
///
/// Semantically identical to [`replay`] on the trace the slab was built
/// from — same accesses, same global order, byte-identical counters —
/// but the decode and k-way merge were paid once at slab construction,
/// and the loop streams batches out of the merged structure-of-arrays:
/// per batch it first resolves TU routing and access kinds over the
/// contiguous `tus`/`kinds` arrays, then drives the probes.  A sweep
/// replays one shared slab at many geometries without re-decoding.
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
    let n_tus = slab.header().n_tus;
    let mut h = Hierarchy::new(n_tus, cfg, attribution)?;

    let m = slab.merged();
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
        for ((((&tu, &kind), &pc), &addr), &cycle) in
            tus.iter().zip(&akinds).zip(pcs).zip(addrs).zip(cycles)
        {
            h.access(tu as usize, kind, pc, addr, cycle);
        }
        start = end;
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
