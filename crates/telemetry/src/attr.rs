//! Speculation attribution ledger: *who* did each prefetch win come from?
//!
//! The aggregate counters in `CacheStats` can say the WEC won; this module
//! says **where and why**.  An [`AttrProbe`] rides on one L1 data path and
//! tracks every side-structure line's lifecycle from fill (the wrong-path
//! load PC that caused it, the fill cycle, the cache set it maps to) to
//! outcome:
//!
//! * **useful** — first correct-path hit, with fill→first-hit timeliness;
//! * **victim-rescued** — a displaced L1 victim re-demanded out of the side
//!   structure (victim-cache behaviour, not speculation);
//! * **wasted** — evicted unused, or overwritten by a newer fill;
//! * **still-resident** — alive when the run ends.
//!
//! Per-TU probes are folded into one [`AttributionReport`]: global and
//! per-TU totals obeying the conservation invariant
//! `useful + wasted + victim_rescued + still_resident == wec_fills`,
//! a top-N per-PC credit table (useful count, waste count, median
//! timeliness, bytes of pollution), and per-set pressure heatmaps for the
//! L1, the WEC, and the victim-transfer path.  The report renders as a
//! strict one-line `wec-attribution-v1` JSON document with no wall-clock or
//! host state, so a full-timing run and a trace replay of the same run
//! produce byte-identical artifacts.
//!
//! Like the other instruments in this crate, the probe is a leaf: raw
//! `u64`/`u32` in, JSON out, no dependency on the simulator crates.  It is
//! one consumer of the L1 data path's event stream (the `ledger` field of
//! `wec-core`'s `DpObserver`): the access event announces the PC, and the
//! demand, side-hit, side-fill and side-evict events drive the methods
//! below.  With nothing observing, the data path pays one `is_some`
//! branch per event site.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

use crate::hist::Log2Histogram;

/// FNV-1a for the probe's maps.  They key small dense block numbers and
/// PCs that the simulator itself produced — SipHash's flood resistance
/// buys nothing here and its setup cost lands on every side-structure
/// fill, hit, and evict.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// How many PCs the report's credit table keeps.
pub const TOP_PCS: usize = 32;

/// Where a side-structure line came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillOrigin {
    /// Filled by a wrong-execution load (the paper's WEC fill).
    Wrong,
    /// A displaced L1 victim parked in the side structure.
    Victim,
    /// A hardware next-line prefetch chained off a useful speculative hit.
    Prefetch,
}

/// One live side-structure line awaiting its outcome.
#[derive(Clone, Copy, Debug)]
struct LiveLine {
    pc: u32,
    fill_cycle: u64,
    origin: FillOrigin,
}

/// Lifecycle totals for one probe (or, with `still_resident` filled in, one
/// row of the report).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct AttrTotals {
    /// Every fill the side structure accepted (all three origins).
    pub wec_fills: u64,
    pub fills_wrong: u64,
    pub fills_victim: u64,
    pub fills_prefetch: u64,
    pub useful: u64,
    pub wasted: u64,
    pub victim_rescued: u64,
    pub still_resident: u64,
}

impl AttrTotals {
    /// The ledger conservation invariant the validator enforces.
    pub fn conserved(&self) -> bool {
        self.useful + self.wasted + self.victim_rescued + self.still_resident == self.wec_fills
            && self.fills_wrong + self.fills_victim + self.fills_prefetch == self.wec_fills
    }

    fn add(&mut self, o: &AttrTotals) {
        self.wec_fills += o.wec_fills;
        self.fills_wrong += o.fills_wrong;
        self.fills_victim += o.fills_victim;
        self.fills_prefetch += o.fills_prefetch;
        self.useful += o.useful;
        self.wasted += o.wasted;
        self.victim_rescued += o.victim_rescued;
        self.still_resident += o.still_resident;
    }
}

/// Per-PC credit: speculative fills only (victim transfers carry no
/// speculation credit and stay out of this table).
#[derive(Clone, Debug, Default)]
struct PcStats {
    useful: u64,
    wasted: u64,
    timeliness: Log2Histogram,
}

/// Per-L1-set pressure arrays (the heatmap rows of the report).
#[derive(Clone, Debug)]
pub struct SetHeat {
    /// Correct-path demand accesses per L1 set.
    pub l1_accesses: Vec<u64>,
    /// Correct-path demand misses per L1 set.
    pub l1_misses: Vec<u64>,
    /// Speculative side fills (wrong-execution + chained prefetch) per set.
    pub side_fills: Vec<u64>,
    /// Correct-path side hits per set — the sets the side structure relieves.
    pub side_hits: Vec<u64>,
    /// Victim transfers into the side structure per set.
    pub victim_transfers: Vec<u64>,
}

impl SetHeat {
    fn new(sets: usize) -> Self {
        SetHeat {
            l1_accesses: vec![0; sets],
            l1_misses: vec![0; sets],
            side_fills: vec![0; sets],
            side_hits: vec![0; sets],
            victim_transfers: vec![0; sets],
        }
    }

    fn add(&mut self, o: &SetHeat) {
        for (dst, src) in [
            (&mut self.l1_accesses, &o.l1_accesses),
            (&mut self.l1_misses, &o.l1_misses),
            (&mut self.side_fills, &o.side_fills),
            (&mut self.side_hits, &o.side_hits),
            (&mut self.victim_transfers, &o.victim_transfers),
        ] {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }
}

/// The per-data-path ledger.  All addresses are raw byte addresses; the
/// probe normalises to block granularity itself.
#[derive(Clone, Debug)]
pub struct AttrProbe {
    l1_sets: usize,
    block_bytes: u64,
    current_pc: u32,
    /// PC credit carried from a useful speculative hit to the next-line
    /// prefetch it chains within the same access.
    chain_pc: Option<u32>,
    live: FnvMap<u64, LiveLine>,
    pcs: FnvMap<u32, PcStats>,
    totals: AttrTotals,
    timeliness: Log2Histogram,
    sets: SetHeat,
}

impl AttrProbe {
    pub fn new(l1_sets: usize, block_bytes: u64) -> Self {
        let l1_sets = l1_sets.max(1);
        AttrProbe {
            l1_sets,
            block_bytes: block_bytes.max(1),
            current_pc: 0,
            chain_pc: None,
            live: FnvMap::default(),
            pcs: FnvMap::default(),
            totals: AttrTotals::default(),
            timeliness: Log2Histogram::new(),
            sets: SetHeat::new(l1_sets),
        }
    }

    #[inline]
    fn block_of(&self, addr: u64) -> u64 {
        // Block sizes are powers of two in every real geometry; the shift
        // keeps the two calls per demand access off the integer divider.
        if self.block_bytes.is_power_of_two() {
            addr >> self.block_bytes.trailing_zeros()
        } else {
            addr / self.block_bytes
        }
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        let block = self.block_of(addr);
        let sets = self.l1_sets as u64;
        if sets.is_power_of_two() {
            (block & (sets - 1)) as usize
        } else {
            (block % sets) as usize
        }
    }

    /// Announce the PC of the access about to be presented to the data
    /// path (stores use 0, matching the trace-record convention).
    #[inline]
    pub fn note_pc(&mut self, pc: u32) {
        self.current_pc = pc;
        self.chain_pc = None;
    }

    /// A correct-path demand access resolved against the L1 (`hit` mirrors
    /// the `CacheStats::record` split exactly).
    #[inline]
    pub fn on_l1_demand(&mut self, addr: u64, hit: bool) {
        let set = self.set_of(addr);
        self.sets.l1_accesses[set] += 1;
        if !hit {
            self.sets.l1_misses[set] += 1;
        }
    }

    /// The side structure accepted a fill.  Any line it overwrites at the
    /// same block is closed as wasted first, so every fill opens exactly
    /// one live entry and conservation holds by construction.
    pub fn on_side_fill(&mut self, addr: u64, cycle: u64, origin: FillOrigin) {
        let block = self.block_of(addr);
        if let Some(old) = self.live.remove(&block) {
            self.close_wasted(old);
        }
        let set = self.set_of(addr);
        self.totals.wec_fills += 1;
        let pc = match origin {
            FillOrigin::Wrong => {
                self.totals.fills_wrong += 1;
                self.sets.side_fills[set] += 1;
                self.current_pc
            }
            FillOrigin::Victim => {
                self.totals.fills_victim += 1;
                self.sets.victim_transfers[set] += 1;
                self.current_pc
            }
            FillOrigin::Prefetch => {
                self.totals.fills_prefetch += 1;
                self.sets.side_fills[set] += 1;
                self.chain_pc.unwrap_or(self.current_pc)
            }
        };
        self.live.insert(
            block,
            LiveLine {
                pc,
                fill_cycle: cycle,
                origin,
            },
        );
    }

    /// First correct-path demand hit on a side-structure line: the win.
    pub fn on_side_hit(&mut self, addr: u64, cycle: u64) {
        let set = self.set_of(addr);
        self.sets.side_hits[set] += 1;
        let block = self.block_of(addr);
        let Some(line) = self.live.remove(&block) else {
            return;
        };
        match line.origin {
            FillOrigin::Wrong | FillOrigin::Prefetch => {
                self.totals.useful += 1;
                let dt = cycle.saturating_sub(line.fill_cycle);
                self.timeliness.observe(dt);
                let pc = self.pcs.entry(line.pc).or_default();
                pc.useful += 1;
                pc.timeliness.observe(dt);
                // A chained next-line prefetch issued by this same access
                // inherits the credit of the PC that started the chain.
                self.chain_pc = Some(line.pc);
            }
            FillOrigin::Victim => {
                self.totals.victim_rescued += 1;
            }
        }
    }

    /// A side-structure line was evicted without ever being demanded.
    pub fn on_side_evict(&mut self, addr: u64) {
        let block = self.block_of(addr);
        if let Some(line) = self.live.remove(&block) {
            self.close_wasted(line);
        }
    }

    fn close_wasted(&mut self, line: LiveLine) {
        self.totals.wasted += 1;
        if line.origin != FillOrigin::Victim {
            self.pcs.entry(line.pc).or_default().wasted += 1;
        }
    }

    /// Totals with the lines still alive counted as `still_resident`.
    pub fn snapshot_totals(&self) -> AttrTotals {
        let mut t = self.totals;
        t.still_resident = self.live.len() as u64;
        t
    }
}

/// One row of the report's per-PC credit table.
#[derive(Clone, Copy, Debug)]
pub struct PcRow {
    pub pc: u32,
    pub useful: u64,
    pub wasted: u64,
    /// Median fill→first-hit latency in cycles (0 when never useful).
    pub median_timeliness: u64,
    /// `wasted × block_bytes` — dead bytes this PC pulled in.
    pub pollution_bytes: u64,
}

/// Aggregated attribution for one run: per-TU and global totals, the
/// merged timeliness histogram, the top-PC credit table, and the per-set
/// heatmaps.  Deterministic: building it twice from equal event streams
/// yields byte-identical [`AttributionReport::to_json`] output.
#[derive(Clone, Debug)]
pub struct AttributionReport {
    pub block_bytes: u64,
    pub l1_sets: usize,
    pub totals: AttrTotals,
    pub tus: Vec<AttrTotals>,
    pub timeliness: Log2Histogram,
    pub top_pcs: Vec<PcRow>,
    pub sets: SetHeat,
}

impl AttributionReport {
    /// Fold per-TU probes (in TU order) into one report.
    pub fn from_probes<'a>(probes: impl IntoIterator<Item = &'a AttrProbe>) -> Self {
        let mut tus = Vec::new();
        let mut totals = AttrTotals::default();
        let mut timeliness = Log2Histogram::new();
        let mut pcs: HashMap<u32, PcStats> = HashMap::new();
        let mut sets: Option<SetHeat> = None;
        let mut block_bytes = 0;
        let mut l1_sets = 0;
        for p in probes {
            block_bytes = p.block_bytes;
            l1_sets = p.l1_sets;
            let t = p.snapshot_totals();
            totals.add(&t);
            tus.push(t);
            timeliness.merge(&p.timeliness);
            for (pc, s) in &p.pcs {
                let dst = pcs.entry(*pc).or_default();
                dst.useful += s.useful;
                dst.wasted += s.wasted;
                dst.timeliness.merge(&s.timeliness);
            }
            match sets.as_mut() {
                Some(h) => h.add(&p.sets),
                None => sets = Some(p.sets.clone()),
            }
        }
        let mut top: Vec<(u32, PcStats)> = pcs.into_iter().collect();
        top.sort_by(|(pa, a), (pb, b)| {
            b.useful
                .cmp(&a.useful)
                .then(b.wasted.cmp(&a.wasted))
                .then(pa.cmp(pb))
        });
        top.truncate(TOP_PCS);
        let top_pcs = top
            .into_iter()
            .map(|(pc, s)| PcRow {
                pc,
                useful: s.useful,
                wasted: s.wasted,
                median_timeliness: s.timeliness.quantile(0.5),
                pollution_bytes: s.wasted * block_bytes,
            })
            .collect();
        AttributionReport {
            block_bytes,
            l1_sets,
            totals,
            tus,
            timeliness,
            top_pcs,
            sets: sets.unwrap_or_else(|| SetHeat::new(l1_sets.max(1))),
        }
    }

    /// Does the conservation invariant hold globally and per TU?
    pub fn conserved(&self) -> bool {
        self.totals.conserved() && self.tus.iter().all(AttrTotals::conserved)
    }

    /// Render as one strict `wec-attribution-v1` JSON line (no trailing
    /// newline; callers add one when writing the artifact).
    pub fn to_json(&self) -> String {
        fn totals_json(out: &mut String, t: &AttrTotals, block_bytes: u64) {
            let _ = write!(
                out,
                "{{\"wec_fills\":{},\"fills_wrong\":{},\"fills_victim\":{},\
                 \"fills_prefetch\":{},\"useful\":{},\"wasted\":{},\
                 \"victim_rescued\":{},\"still_resident\":{},\"pollution_bytes\":{}}}",
                t.wec_fills,
                t.fills_wrong,
                t.fills_victim,
                t.fills_prefetch,
                t.useful,
                t.wasted,
                t.victim_rescued,
                t.still_resident,
                t.wasted * block_bytes,
            );
        }
        fn array_json(out: &mut String, vals: &[u64]) {
            out.push('[');
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"wec-attribution-v1\",\"block_bytes\":{},\
             \"l1_sets\":{},\"n_tus\":{},\"totals\":",
            self.block_bytes,
            self.l1_sets,
            self.tus.len(),
        );
        totals_json(&mut out, &self.totals, self.block_bytes);
        out.push_str(",\"tus\":[");
        for (i, t) in self.tus.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            totals_json(&mut out, t, self.block_bytes);
        }
        out.push_str("],\"timeliness\":");
        out.push_str(&self.timeliness.to_json());
        out.push_str(",\"top_pcs\":[");
        for (i, r) in self.top_pcs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"pc\":{},\"useful\":{},\"wasted\":{},\
                 \"median_timeliness\":{},\"pollution_bytes\":{}}}",
                r.pc, r.useful, r.wasted, r.median_timeliness, r.pollution_bytes,
            );
        }
        out.push_str("],\"sets\":{\"l1_accesses\":");
        array_json(&mut out, &self.sets.l1_accesses);
        out.push_str(",\"l1_misses\":");
        array_json(&mut out, &self.sets.l1_misses);
        out.push_str(",\"side_fills\":");
        array_json(&mut out, &self.sets.side_fills);
        out.push_str(",\"side_hits\":");
        array_json(&mut out, &self.sets.side_hits);
        out.push_str(",\"victim_transfers\":");
        array_json(&mut out, &self.sets.victim_transfers);
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> AttrProbe {
        // 8 sets of 64-byte blocks, like a tiny direct-mapped L1.
        AttrProbe::new(8, 64)
    }

    #[test]
    fn useful_line_credits_its_pc_with_timeliness() {
        let mut p = probe();
        p.note_pc(0x40);
        p.on_side_fill(0x1000, 100, FillOrigin::Wrong);
        p.note_pc(0); // a store in between must not steal credit
        p.on_side_hit(0x1000, 400);
        let t = p.snapshot_totals();
        assert_eq!(t.wec_fills, 1);
        assert_eq!(t.useful, 1);
        assert_eq!(t.still_resident, 0);
        assert!(t.conserved());
        let r = AttributionReport::from_probes([&p]);
        assert_eq!(r.top_pcs.len(), 1);
        assert_eq!(r.top_pcs[0].pc, 0x40);
        assert_eq!(r.top_pcs[0].useful, 1);
        assert_eq!(r.timeliness.max(), 300);
    }

    #[test]
    fn refill_over_a_live_line_closes_it_as_wasted() {
        let mut p = probe();
        p.note_pc(0x10);
        p.on_side_fill(0x2000, 5, FillOrigin::Wrong);
        p.note_pc(0x14);
        p.on_side_fill(0x2000, 9, FillOrigin::Wrong); // same block again
        let t = p.snapshot_totals();
        assert_eq!(t.wec_fills, 2);
        assert_eq!(t.wasted, 1);
        assert_eq!(t.still_resident, 1);
        assert!(t.conserved());
        let r = AttributionReport::from_probes([&p]);
        let row = r.top_pcs.iter().find(|r| r.pc == 0x10).unwrap();
        assert_eq!(row.wasted, 1);
        assert_eq!(row.pollution_bytes, 64);
    }

    #[test]
    fn victim_lines_rescue_without_speculation_credit() {
        let mut p = probe();
        p.note_pc(0x88);
        p.on_side_fill(0x3000, 10, FillOrigin::Victim);
        p.on_side_hit(0x3000, 60);
        let t = p.snapshot_totals();
        assert_eq!(t.victim_rescued, 1);
        assert_eq!(t.useful, 0);
        assert!(t.conserved());
        assert!(AttributionReport::from_probes([&p]).top_pcs.is_empty());
    }

    #[test]
    fn chained_prefetch_inherits_the_originating_pc() {
        let mut p = probe();
        p.note_pc(0x70);
        p.on_side_fill(0x4000, 0, FillOrigin::Wrong);
        // The correct path (different PC) demands it; the hit chains a
        // next-line prefetch that must still credit 0x70.
        p.note_pc(0x90);
        p.on_side_hit(0x4000, 50);
        p.on_side_fill(0x4040, 50, FillOrigin::Prefetch);
        p.on_side_hit(0x4040, 80);
        let r = AttributionReport::from_probes([&p]);
        assert_eq!(r.top_pcs.len(), 1, "both wins belong to one PC");
        assert_eq!(r.top_pcs[0].pc, 0x70);
        assert_eq!(r.top_pcs[0].useful, 2);
    }

    #[test]
    fn eviction_without_use_is_pollution() {
        let mut p = probe();
        p.note_pc(0x20);
        p.on_side_fill(0x5000, 0, FillOrigin::Wrong);
        p.on_side_evict(0x5000);
        p.on_side_evict(0x5000); // double evict must be harmless
        let t = p.snapshot_totals();
        assert_eq!(t.wasted, 1);
        assert!(t.conserved());
    }

    #[test]
    fn set_heatmaps_follow_the_block_mapping() {
        let mut p = probe();
        p.on_l1_demand(0x40, true); // block 1 → set 1
        p.on_l1_demand(0x40 + 8 * 64, false); // wraps back to set 1
        p.note_pc(1);
        p.on_side_fill(0x80, 0, FillOrigin::Wrong); // set 2
        assert_eq!(p.sets.l1_accesses[1], 2);
        assert_eq!(p.sets.l1_misses[1], 1);
        assert_eq!(p.sets.side_fills[2], 1);
    }

    #[test]
    fn report_json_is_strict_and_deterministic() {
        let mut a = probe();
        a.note_pc(3);
        a.on_side_fill(0x100, 0, FillOrigin::Wrong);
        a.on_side_hit(0x100, 9);
        let mut b = probe();
        b.note_pc(7);
        b.on_side_fill(0x200, 1, FillOrigin::Victim);
        let r1 = AttributionReport::from_probes([&a, &b]);
        let r2 = AttributionReport::from_probes([&a, &b]);
        assert!(r1.conserved());
        assert_eq!(r1.to_json(), r2.to_json());
        let json = r1.to_json();
        assert!(json.starts_with("{\"schema\":\"wec-attribution-v1\""));
        assert!(json.contains("\"n_tus\":2"));
        assert!(json.contains("\"top_pcs\":[{\"pc\":3,"));
        assert!(!json.contains(' '), "one strict line, no padding");
    }
}
