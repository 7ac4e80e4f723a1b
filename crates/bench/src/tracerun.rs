//! Trace capture and trace-driven replay sweeps — the `--capture-trace` /
//! `--replay-trace` modes of the `experiments` binary.
//!
//! Capture runs each selected workload once on the paper's `wth-wp-wec`
//! 8-TU machine with the trace recorder attached to its data paths,
//! writing into the capture directory:
//!
//! * `<bench>.wectrace` — the compressed access trace;
//! * `golden/<bench>.kv` — the full-timing run's cache counters (the
//!   exact key subset replay emits), for drift gating with `metricsdiff`;
//! * `capture.json` — a manifest of what was captured at which revision.
//!
//! Replay re-drives *only* the cache hierarchy from those traces across
//! the WEC geometry sweep ([`sweep_keys`]: side-structure entries × L1
//! associativity × side-structure kind), so a 48-point geometry sweep
//! reuses one timing run per benchmark instead of 48.  Each trace is
//! decoded **once** into a shared [`TraceSlab`] (block decoding fanned
//! over the job pool), then the sweep's points — embarrassingly parallel,
//! each worker owning a fresh L1/WEC/L2 hierarchy — are fanned across
//! the same pool ([`replay_sweep`]).  Every replayed trace is first
//! re-checked at the captured configuration against the goldens
//! (`golden-check/<bench>.kv` must diff clean), and every sweep point is
//! memoized in the persistent result store keyed by the trace identity,
//! the configuration label and the simulator revision — job count never
//! changes a counter or a memo key.

use std::path::{Path, PathBuf};
use std::time::Instant;

use wec_common::table::Table;
use wec_core::config::ProcPreset;
use wec_telemetry::attr::AttributionReport;
use wec_trace::{
    cache_stat_subset, capture_run, kv_string, replay_slab, replay_slab_with, CaptureMeta, Trace,
    TraceSlab,
};
use wec_workloads::{Bench, Scale};

use crate::runner::{default_disk_dir, fnv1a, CfgKey};

/// TU count every capture uses (the §5.2 paper machine).
pub const CAPTURE_TUS: usize = 8;

/// One replayed sweep point: its golden counter subset, whether it
/// replayed cold, and its attribution ledger when the ledger was on.
type PointOutcome = (Vec<(String, u64)>, bool, Option<AttributionReport>);

/// The fixed full-timing configuration every capture runs.  Geometry
/// sweeps replay from this one timing run, so the capture point never
/// varies; replay refuses traces captured under any other label.
pub fn capture_key() -> CfgKey {
    CfgKey::paper(ProcPreset::WthWpWec, CAPTURE_TUS)
}

/// The replay sweep: every side-structure geometry of interest — entry
/// counts from a quarter to 16× the paper's 8, the three L1
/// associativities the evaluation contrasts, under both the WEC and the
/// victim-cache side structure (48 points per benchmark).
pub fn sweep_keys() -> Vec<CfgKey> {
    let mut keys = Vec::new();
    for preset in [ProcPreset::WthWpWec, ProcPreset::WthWpVc] {
        for side in [2u8, 4, 8, 16, 24, 32, 64, 128] {
            for ways in [1u8, 2, 4] {
                let mut k = capture_key();
                k.preset = preset;
                k.side_entries = side;
                k.l1_ways = ways;
                keys.push(k);
            }
        }
    }
    keys
}

fn selected(only: Option<&str>) -> Vec<Bench> {
    match only {
        None => Bench::ALL.to_vec(),
        Some(f) => Bench::ALL
            .iter()
            .copied()
            .filter(|b| b.name().contains(f))
            .collect(),
    }
}

/// `"181.mcf"` → `"181_mcf"`, the artifact file stem.
fn stem_of(bench: &str) -> String {
    bench.replace('.', "_")
}

/// Capture mode: one full-timing traced run per selected benchmark.
pub fn capture_traces(scale: Scale, only: Option<&str>, dir: &Path) {
    let benches = selected(only);
    if benches.is_empty() {
        panic!("--only {only:?} matches no benchmark");
    }
    let key = capture_key();
    std::fs::create_dir_all(dir.join("golden"))
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    eprintln!(
        "capturing {} workload(s) at scale {} on {} …",
        benches.len(),
        scale.units,
        key.label()
    );
    let t0 = Instant::now();
    let mut entries = String::new();
    for bench in benches {
        let w = bench.build(scale);
        let meta = CaptureMeta {
            bench: w.name.to_string(),
            scale_units: scale.units,
            cfg_label: key.label(),
        };
        let t = Instant::now();
        let (result, trace) = capture_run(&w, key.build(), &meta)
            .unwrap_or_else(|e| panic!("capture of {} failed: {e}", w.name));
        let stem = stem_of(w.name);
        let path = dir.join(format!("{stem}.wectrace"));
        trace
            .write_to(&path)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let golden = kv_string(&cache_stat_subset(&result.stats));
        let golden_path = dir.join("golden").join(format!("{stem}.kv"));
        std::fs::write(&golden_path, golden)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", golden_path.display()));
        let payload = trace.encoded_bytes();
        let records = trace.header.total_records;
        println!(
            "captured {:<12} {:>9} records, {:>9} bytes ({:.3} bytes/record), {} cycles [{:.1}s]",
            w.name,
            records,
            payload,
            payload as f64 / records.max(1) as f64,
            result.cycles,
            t.elapsed().as_secs_f64()
        );
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"bench\": \"{}\", \"file\": \"{stem}.wectrace\", \"records\": {records}, \
             \"payload_bytes\": {payload}, \"identity\": \"{:016x}\"}}",
            w.name,
            trace.identity()
        ));
    }
    let manifest = format!(
        "{{\n  \"schema\": \"wec-capture-v1\",\n  \"scale_units\": {},\n  \
         \"sim_revision\": {},\n  \"n_tus\": {CAPTURE_TUS},\n  \"cfg_label\": \"{}\",\n  \
         \"traces\": [\n{entries}\n  ]\n}}\n",
        scale.units,
        wec_core::SIM_REVISION,
        key.label()
    );
    let manifest_path = dir.join("capture.json");
    std::fs::write(&manifest_path, manifest)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", manifest_path.display()));
    eprintln!(
        "capture done in {:.1}s: traces + goldens + capture.json under {}",
        t0.elapsed().as_secs_f64(),
        dir.display()
    );
}

/// Parse a `.kv` snapshot back into sorted counter pairs; `None` on any
/// malformed line (the cache entry is then recomputed).
fn parse_kv_u64(text: &str) -> Option<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (k, v) = line.split_once(' ')?;
        out.push((k.to_string(), v.trim().parse().ok()?));
    }
    out.sort();
    Some(out)
}

/// Sum every counter whose key ends with `suffix` (e.g. all per-TU
/// `.l1d.demand_misses`).
fn sum(subset: &[(String, u64)], suffix: &str) -> u64 {
    subset
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Replay one sweep point, memoized in `cache_dir` by (trace identity,
/// configuration label, simulator revision).  Returns the cache-counter
/// subset and whether it was replayed cold.  Shared with the serve
/// daemon's replay jobs, so a point replayed by a sweep is warm for the
/// server and vice versa; the memo write is atomic ([`crate::store`])
/// because daemon workers race on shared keys.
pub fn replay_point(
    slab: &TraceSlab,
    key: CfgKey,
    cache_dir: Option<&Path>,
) -> (Vec<(String, u64)>, bool) {
    let id = format!(
        "trace|{:016x}|{}|rev{}",
        slab.identity(),
        key.label(),
        wec_core::SIM_REVISION
    );
    let path = cache_dir.map(|d| d.join(format!("trace_{:016x}.kv", fnv1a(id.as_bytes()))));
    if let Some(p) = &path {
        if let Some(subset) = std::fs::read_to_string(p)
            .ok()
            .and_then(|t| parse_kv_u64(&t))
        {
            return (subset, false);
        }
    }
    let outcome = replay_slab(slab, &key.build()).unwrap_or_else(|e| {
        panic!(
            "replay of {} at {} failed: {e}",
            slab.header().bench,
            key.label()
        )
    });
    let subset = cache_stat_subset(&outcome.stats);
    if let Some(p) = &path {
        crate::store::atomic_write_best_effort(p, &kv_string(&subset));
    }
    (subset, true)
}

/// Replay one sweep point cold with the speculation attribution ledger on
/// the L1D paths.  Never consults or feeds the result store — the store
/// memoizes cache counters, not ledgers — so the counters come back
/// byte-identical to [`replay_point`]'s while the report captures per-PC
/// credit and per-set pressure for this geometry.  Shared with the serve
/// daemon's attribution-enabled replay jobs.
pub fn replay_point_attr(slab: &TraceSlab, key: CfgKey) -> (Vec<(String, u64)>, AttributionReport) {
    let outcome = replay_slab_with(slab, &key.build(), true).unwrap_or_else(|e| {
        panic!(
            "replay of {} at {} failed: {e}",
            slab.header().bench,
            key.label()
        )
    });
    let report = outcome
        .attribution
        .expect("attribution requested but replay returned no report");
    assert!(
        report.conserved(),
        "attribution ledger violates conservation on {} at {}",
        slab.header().bench,
        key.label()
    );
    (cache_stat_subset(&outcome.stats), report)
}

/// One replayed point: the cache-counter subset and whether it was
/// replayed cold (vs answered from the result store).
pub type PointResult = (Vec<(String, u64)>, bool);

/// Replay every key of a sweep against one shared slab, fanning points
/// across `jobs` worker threads (1 = inline).  Points are independent —
/// each worker builds its own L1/WEC/L2 hierarchy and only reads the
/// slab — so results are identical at any job count; they come back in
/// `keys` order regardless of completion order.  Memoization goes
/// through [`replay_point`], whose store writes are atomic, so
/// concurrent workers (or concurrent sweeps) never publish a torn entry.
pub fn replay_sweep(
    slab: &TraceSlab,
    keys: &[CfgKey],
    cache_dir: Option<&Path>,
    jobs: usize,
) -> Vec<PointResult> {
    fan_points(keys, jobs, |key| replay_point(slab, key, cache_dir))
}

/// Fan one closure over every sweep key with `jobs` workers (1 = inline),
/// returning results in `keys` order regardless of completion order.
fn fan_points<T: Send + Sync>(
    keys: &[CfgKey],
    jobs: usize,
    point: impl Fn(CfgKey) -> T + Sync,
) -> Vec<T> {
    let jobs = jobs.max(1).min(keys.len().max(1));
    if jobs <= 1 {
        return keys.iter().map(|key| point(*key)).collect();
    }
    let slots: Vec<std::sync::OnceLock<T>> = (0..keys.len())
        .map(|_| std::sync::OnceLock::new())
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(key) = keys.get(i) else {
                    return;
                };
                let _ = slots[i].set(point(*key));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("replay pool exited with an unfilled slot")
        })
        .collect()
}

/// Replay mode: golden-check every trace at the captured configuration,
/// then sweep [`sweep_keys`] over it with `jobs` workers, printing one
/// table per benchmark.  `jobs` caps both the slab decoder pool and the
/// sweep-point pool; results and memo entries are identical at any count.
/// With `attribution` on, every point replays cold through
/// [`replay_point_attr`] (the result store is bypassed — it memoizes
/// counters, not ledgers) and each `.kv` gains a sibling `.attr.json`,
/// including `golden-check/<bench>.attr.json` at the captured
/// configuration, byte-identical to the full-timing ledger.
pub fn replay_traces(
    dir: &Path,
    out: &Path,
    no_cache: bool,
    csv: bool,
    only: Option<&str>,
    jobs: usize,
    attribution: bool,
) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read --replay-trace {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wectrace"))
        .collect();
    files.sort();
    if files.is_empty() {
        panic!(
            "no .wectrace files in {} (run experiments --capture-trace first)",
            dir.display()
        );
    }
    let base = capture_key();
    let keys = sweep_keys();
    let jobs = jobs.max(1);
    let cache_dir = if no_cache || attribution {
        None
    } else {
        Some(default_disk_dir())
    };
    if let Some(d) = &cache_dir {
        eprintln!("replay result cache: {}", d.display());
    }
    if attribution {
        eprintln!("attribution ledger on: every point replays cold (ledgers are not memoized)");
    }
    eprintln!("replay jobs: {jobs}");
    std::fs::create_dir_all(out.join("golden-check"))
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));

    let t0 = Instant::now();
    let (mut traces_replayed, mut records_driven, mut cold_points, mut cached_points) =
        (0u64, 0u64, 0u64, 0u64);
    for path in &files {
        let trace = Trace::read_from(path)
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
        let h = &trace.header;
        if let Some(f) = only {
            if !h.bench.contains(f) {
                continue;
            }
        }
        if h.sim_revision != wec_core::SIM_REVISION {
            panic!(
                "{}: captured at simulator revision {} but this binary is revision {} — recapture",
                path.display(),
                h.sim_revision,
                wec_core::SIM_REVISION
            );
        }
        if h.cfg_label != base.label() {
            panic!(
                "{}: captured at {} but replay sweeps assume the paper base {} — recapture",
                path.display(),
                h.cfg_label,
                base.label()
            );
        }
        let stem = stem_of(&h.bench);
        eprintln!(
            "replaying {} ({} records, scale {})…",
            h.bench, h.total_records, h.scale_units
        );
        let slab = TraceSlab::build(&trace, jobs)
            .unwrap_or_else(|e| panic!("cannot decode {}: {e}", path.display()));

        // Golden check: the captured configuration must reproduce the
        // full-timing counters exactly (gated by `metricsdiff
        // <capture>/golden <out>/golden-check`).  With attribution on the
        // same cold replay also yields the captured-config ledger, which
        // must match the full-timing run's byte for byte.
        let golden_subset = if attribution {
            let (subset, report) = replay_point_attr(&slab, base);
            let attr_path = out.join("golden-check").join(format!("{stem}.attr.json"));
            std::fs::write(&attr_path, format!("{}\n", report.to_json()))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", attr_path.display()));
            subset
        } else {
            replay_point(&slab, base, None).0
        };
        records_driven += h.total_records;
        let check_path = out.join("golden-check").join(format!("{stem}.kv"));
        std::fs::write(&check_path, kv_string(&golden_subset))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", check_path.display()));

        let point_dir = out.join(&stem);
        std::fs::create_dir_all(&point_dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", point_dir.display()));
        let mut table = Table::new(
            format!(
                "replay sweep: {} (scale {}, {} points)",
                h.bench,
                h.scale_units,
                keys.len()
            ),
            &["config", "l1d_miss%", "side_hits", "l2_misses"],
        );
        let results: Vec<PointOutcome> = if attribution {
            fan_points(&keys, jobs, |key| {
                let (subset, report) = replay_point_attr(&slab, key);
                (subset, true, Some(report))
            })
        } else {
            replay_sweep(&slab, &keys, cache_dir.as_deref(), jobs)
                .into_iter()
                .map(|(subset, cold)| (subset, cold, None))
                .collect()
        };
        for (key, (subset, cold, report)) in keys.iter().zip(results) {
            if cold {
                cold_points += 1;
                records_driven += h.total_records;
            } else {
                cached_points += 1;
            }
            let label = format!(
                "{}/side{}/{}w",
                key.preset.name(),
                key.side_entries,
                key.l1_ways
            );
            let point_stem = format!(
                "{}_side{:03}_{}w",
                key.preset.name(),
                key.side_entries,
                key.l1_ways
            );
            let kv_path = point_dir.join(format!("{point_stem}.kv"));
            std::fs::write(&kv_path, kv_string(&subset))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", kv_path.display()));
            if let Some(report) = &report {
                let attr_path = point_dir.join(format!("{point_stem}.attr.json"));
                std::fs::write(&attr_path, format!("{}\n", report.to_json()))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", attr_path.display()));
            }
            let accesses = sum(&subset, ".l1d.demand_accesses");
            let misses = sum(&subset, ".l1d.demand_misses");
            table.row(vec![
                label,
                format!("{:.2}", 100.0 * misses as f64 / accesses.max(1) as f64),
                sum(&subset, ".l1d.side_hits").to_string(),
                subset
                    .iter()
                    .find(|(k, _)| k == "l2.demand_misses")
                    .map_or(0, |(_, v)| *v)
                    .to_string(),
            ]);
        }
        if csv {
            println!("# replay_{stem}");
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
        println!();
        traces_replayed += 1;
    }
    if traces_replayed == 0 {
        panic!(
            "--only {only:?} matches no captured trace in {}",
            dir.display()
        );
    }
    let wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "replayed {traces_replayed} trace(s), {} sweep points ({cold_points} cold, \
         {cached_points} cached) in {wall:.1}s; goldens re-checked under {}",
        cold_points + cached_points,
        out.join("golden-check").display()
    );
    if wall > 0.0 && records_driven > 0 {
        eprintln!(
            "replay throughput: {:.0} records/s driven cold",
            records_driven as f64 / wall
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_48_distinct_points() {
        let keys = sweep_keys();
        assert_eq!(keys.len(), 48);
        let labels: std::collections::HashSet<String> = keys.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 48, "sweep labels collide");
        // The captured base point is part of the sweep, so the golden
        // configuration is always re-checked by the sweep itself too.
        assert!(keys.contains(&capture_key()));
    }

    #[test]
    fn kv_round_trips_through_parse() {
        let pairs = vec![("a.b".to_string(), 3u64), ("z".to_string(), 9)];
        assert_eq!(parse_kv_u64(&kv_string(&pairs)).unwrap(), pairs);
        assert!(parse_kv_u64("a.b notanumber\n").is_none());
    }

    #[test]
    fn suffix_sum_aggregates_per_tu_counters() {
        let subset = vec![
            ("tu0.l1d.demand_misses".to_string(), 3u64),
            ("tu1.l1d.demand_misses".to_string(), 4),
            ("tu0.l1i.demand_misses".to_string(), 100),
            ("l2.demand_misses".to_string(), 7),
        ];
        assert_eq!(sum(&subset, ".l1d.demand_misses"), 7);
    }
}
