//! Differential regression net for the hot-path data structures.
//!
//! Every workload analog runs at scale 1 under three presets spanning the
//! simulator's feature space (`orig`, `wp`, `wth-wp-wec`) and the resulting
//! [`MachineMetrics`] must match the goldens in `tests/goldens/hotpath/`
//! byte for byte.  The goldens were recorded before the flat-structure
//! overhaul of the membuf / machine / cache hot paths, so any optimization
//! that changes simulated behaviour — even by one cycle — fails here.
//!
//! `MachineMetrics` is a digest; it does not see per-unit pipeline counters
//! such as `rob_full_stalls` or `icache_stall_cycles`, and the three presets
//! all run 8-issue cores.  A second net pins the *full* statistics set
//! (`RunResult::stats`: every `tuN.core.*`, `tuN.l1d.*`, `tuN.l1i.*`, `l2.*`
//! and `machine.*` counter) in `tests/goldens/stats/`, for the same 18
//! points plus the Figure 8 configurations (the single-issue reference and
//! Table 3's 1- to 16-issue cores with 8- to 128-entry ROBs) on two
//! benchmarks.
//!
//! A third net pins what the data path's observers see, which no cache
//! counter reads: a `capture_run` with the attribution ledger on, per
//! benchmark under `wth-wp-wec`, `wth-wp-vc` and `nlp` (the WEC, the
//! victim cache and the prefetch buffer take different fill paths).  The
//! `.wectrace` bytes (record count and FNV-1a digest) and the
//! `attribution.json` text must match `tests/goldens/capture/` exactly, so
//! a wrong PC or a lost access moves a golden even when full timing and
//! replay move together.
//!
//! A fourth net pins the sequence numbers a user can see: the commit trace
//! `Machine::debug_snapshot` prints (and telemetry's `commit` events
//! carry).  For the Figure 8 benchmarks under `wth-wp-wec`, each thread
//! unit's retained `(cycle, seq, pc)` commit records hash to the FNV-1a
//! digest in `tests/goldens/commit/`, so a renumbering of in-flight
//! instructions fails even when every counter agrees.
//!
//! A fifth net pins replay away from the captured point, where no
//! full-timing run can check it: mcf and parser captured at the replay
//! sweep's capture point, then replayed under `wth-wp-wec` and
//! `wth-wp-vc` at 2, 32 and 128 side entries and 1- and 4-way L1s.  Each
//! point's counter listing hashes to one FNV-1a digest per line in
//! `tests/goldens/replay/`.
//!
//! To re-record after an *intentional* model change:
//!
//! ```text
//! WEC_BLESS=1 cargo test -p integration-tests --test hotpath_equivalence
//! ```
//!
//! and commit the diff (it IS the behaviour change; review it like one).

use std::path::PathBuf;

use wec_bench::tracerun::capture_key;
use wec_bench::CfgKey;
use wec_common::stats::StatSet;
use wec_core::config::{MachineConfig, ProcPreset};
use wec_core::metrics::MachineMetrics;
use wec_core::Machine;
use wec_trace::codec::fnv1a;
use wec_trace::{cache_stat_subset, capture_run, kv_string, replay_slab, CaptureMeta, TraceSlab};
use wec_workloads::{run_and_verify, Bench, Scale};

const PRESETS: [ProcPreset; 3] = [ProcPreset::Orig, ProcPreset::Wp, ProcPreset::WthWpWec];
const N_TUS: usize = 8;

/// Benchmarks the Figure 8 configurations run on: one integer, pointer-
/// chasing analog and one floating-point analog.
const FIG8_BENCHES: [Bench; 2] = [Bench::Mcf, Bench::Equake];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/hotpath")
}

fn stats_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/stats")
}

fn golden_path(bench: Bench, preset: ProcPreset) -> PathBuf {
    // "181.mcf" / "wth-wp-wec" → "181.mcf__wth-wp-wec.kv"
    golden_dir().join(format!("{}__{}.kv", bench.name(), preset.name()))
}

/// The divergent lines of two `name value` listings (the exact fields,
/// not just "mismatch"), plus a note when their lengths differ.
fn kv_diff(got: &str, want: &str) -> String {
    let mut diff: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("    got `{g}` want `{w}`"))
        .collect();
    let (n_got, n_want) = (got.lines().count(), want.lines().count());
    if n_got != n_want {
        diff.push(format!("    {n_got} lines, golden has {n_want}"));
    }
    diff.join("\n")
}

fn run_point(bench: Bench, preset: ProcPreset) -> MachineMetrics {
    let w = bench.build(Scale::SMOKE);
    run_and_verify(&w, preset.machine(N_TUS))
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, preset.name()))
        .metrics
}

#[test]
fn metrics_match_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(golden_dir()).unwrap();
    }

    // All 18 points, fanned over host threads (each simulation is
    // single-threaded and deterministic).
    let points: Vec<(Bench, ProcPreset)> = Bench::ALL
        .iter()
        .flat_map(|&b| PRESETS.iter().map(move |&p| (b, p)))
        .collect();
    let results: Vec<(Bench, ProcPreset, MachineMetrics)> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .iter()
            .map(|&(b, p)| s.spawn(move || (b, p, run_point(b, p))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut failures = Vec::new();
    for (bench, preset, got) in results {
        let path = golden_path(bench, preset);
        if bless {
            std::fs::write(&path, got.to_kv()).unwrap();
            continue;
        }
        let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); record it with WEC_BLESS=1",
                path.display()
            )
        });
        let want = MachineMetrics::from_kv(&recorded)
            .unwrap_or_else(|e| panic!("corrupt golden {}: {e}", path.display()));
        if got != want {
            failures.push(format!(
                "{} under {}:\n{}",
                bench.name(),
                preset.name(),
                kv_diff(&got.to_kv(), &want.to_kv())
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "hot-path metrics diverged from goldens:\n{}",
        failures.join("\n")
    );
}

#[test]
fn goldens_cover_every_point() {
    if std::env::var_os("WEC_BLESS").is_some() {
        return; // metrics_match_recorded_goldens is writing them right now
    }
    for &bench in &Bench::ALL {
        for &preset in &PRESETS {
            let path = golden_path(bench, preset);
            assert!(path.is_file(), "golden missing: {}", path.display());
        }
    }
}

/// Every full-statistics point: a golden file stem and its machine.
fn stats_points() -> Vec<(Bench, String, MachineConfig)> {
    let mut points = Vec::new();
    for &bench in &Bench::ALL {
        for &preset in &PRESETS {
            points.push((bench, preset.name().to_string(), preset.machine(N_TUS)));
        }
    }
    let mut fig8 = vec![("single-issue".to_string(), CfgKey::single_issue())];
    for tus in [1usize, 2, 4, 8, 16] {
        fig8.push((format!("table3-t{tus}"), CfgKey::table3(tus)));
    }
    for &bench in &FIG8_BENCHES {
        for (label, key) in &fig8 {
            points.push((bench, label.clone(), key.build()));
        }
    }
    points
}

fn stats_path(bench: Bench, label: &str) -> PathBuf {
    stats_dir().join(format!("{}__{label}.kv", bench.name()))
}

/// One `name value` line per statistic, in recording order.
fn stats_kv(stats: &StatSet) -> String {
    stats.iter().map(|(n, v)| format!("{n} {v}\n")).collect()
}

#[test]
fn full_stats_match_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(stats_dir()).unwrap();
    }
    let points = stats_points();
    // Split the points over a few host threads, in order (each simulation
    // is single-threaded and deterministic).
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .chunks(points.len().div_ceil(workers))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(bench, label, cfg)| {
                            let w = bench.build(Scale::SMOKE);
                            let r = run_and_verify(&w, cfg.clone())
                                .unwrap_or_else(|e| panic!("{} under {label}: {e}", w.name));
                            stats_kv(&r.stats)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut failures = Vec::new();
    for ((bench, label, _), got) in points.iter().zip(results) {
        let path = stats_path(*bench, label);
        if bless {
            std::fs::write(&path, got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); record it with WEC_BLESS=1",
                path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "{} under {label}:\n{}",
                bench.name(),
                kv_diff(&got, &want)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "full statistics diverged from goldens:\n{}",
        failures.join("\n")
    );
}

#[test]
fn stats_goldens_cover_every_point() {
    if std::env::var_os("WEC_BLESS").is_some() {
        return; // full_stats_match_recorded_goldens is writing them right now
    }
    for (bench, label, _) in stats_points() {
        let path = stats_path(bench, &label);
        assert!(path.is_file(), "golden missing: {}", path.display());
    }
}

/// The capture-pin points: every benchmark under the three side
/// structures (WEC, victim cache, prefetch buffer).
const CAPTURE_PRESETS: [ProcPreset; 3] =
    [ProcPreset::WthWpWec, ProcPreset::WthWpVc, ProcPreset::Nlp];

fn capture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/capture")
}

/// One capture with the ledger on: the trace's record count and byte
/// digest as a `name value` listing, and the attribution document.
fn capture_point(bench: Bench, preset: ProcPreset) -> (String, String) {
    let w = bench.build(Scale::SMOKE);
    let mut cfg = preset.machine(N_TUS);
    cfg.attribution = true;
    let meta = CaptureMeta {
        bench: w.name.to_string(),
        scale_units: Scale::SMOKE.units,
        cfg_label: format!("{}/t{N_TUS}", preset.name()),
    };
    let (result, trace) = capture_run(&w, cfg, &meta)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name, preset.name()));
    let bytes = trace.to_bytes();
    let kv = format!(
        "records {}\nbytes {}\nfnv1a {:#018x}\n",
        trace.header.total_records,
        bytes.len(),
        fnv1a(&bytes)
    );
    let ledger = result
        .attribution
        .unwrap_or_else(|| panic!("{} under {}: no ledger", w.name, preset.name()))
        .to_json();
    (kv, ledger + "\n")
}

#[test]
fn capture_bytes_and_ledgers_match_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(capture_dir()).unwrap();
    }
    let points: Vec<(Bench, ProcPreset)> = Bench::ALL
        .iter()
        .flat_map(|&b| CAPTURE_PRESETS.iter().map(move |&p| (b, p)))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let results: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .chunks(points.len().div_ceil(workers))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(b, p)| capture_point(b, p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut failures = Vec::new();
    for (&(bench, preset), (kv, ledger)) in points.iter().zip(results) {
        let stem = format!("{}__{}", bench.name(), preset.name());
        for (file, got) in [
            (format!("{stem}.trace.kv"), kv),
            (format!("{stem}.attribution.json"), ledger),
        ] {
            let path = capture_dir().join(&file);
            if bless {
                std::fs::write(&path, got).unwrap();
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden {} ({e}); record it with WEC_BLESS=1",
                    path.display()
                )
            });
            if got != want {
                failures.push(format!("{file}:\n{}", kv_diff(&got, &want)));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "captures or ledgers diverged from goldens:\n{}",
        failures.join("\n")
    );
}

/// Commits each thread unit's trace ring keeps for the commit-sequence pin.
const COMMIT_TRACE: usize = 64;

fn commit_path(bench: Bench) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/commit")
        .join(format!("{}__wth-wp-wec.kv", bench.name()))
}

/// Per thread unit, the record count and FNV-1a digest of its retained
/// commits, each hashed as little-endian `cycle` (u64), `seq` (u64) and
/// `pc` (u32), read back from the rendered snapshot (`tuN:` headers, then
/// `  [cycle] #seq pc=pc ...` lines).
fn commit_digests(bench: Bench) -> String {
    let w = bench.build(Scale::SMOKE);
    let mut cfg = ProcPreset::WthWpWec.machine(N_TUS);
    cfg.core.commit_trace = COMMIT_TRACE;
    let mut m = Machine::new(cfg, &w.program).unwrap();
    m.run()
        .unwrap_or_else(|e| panic!("{} under wth-wp-wec: {e}", w.name));
    let mut units: Vec<Vec<u8>> = Vec::new();
    for line in m.debug_snapshot().lines() {
        if line.starts_with("tu") && line.contains(':') {
            units.push(Vec::new());
        } else if let Some(rest) = line.strip_prefix("  [") {
            let (cycle, rest) = rest.split_once(']').unwrap();
            let mut fields = rest.split_whitespace();
            let seq = fields.next().and_then(|f| f.strip_prefix('#')).unwrap();
            let pc = fields.next().and_then(|f| f.strip_prefix("pc=")).unwrap();
            let bytes = units.last_mut().expect("commit line before a tu header");
            bytes.extend(cycle.trim().parse::<u64>().unwrap().to_le_bytes());
            bytes.extend(seq.parse::<u64>().unwrap().to_le_bytes());
            bytes.extend(pc.parse::<u32>().unwrap().to_le_bytes());
        }
    }
    assert_eq!(units.len(), N_TUS, "one header per thread unit");
    units
        .iter()
        .enumerate()
        .map(|(tu, bytes)| {
            let records = bytes.len() / (8 + 8 + 4);
            format!("tu{tu} records {records} fnv1a {:#018x}\n", fnv1a(bytes))
        })
        .collect()
}

#[test]
fn commit_sequence_numbers_match_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    let mut failures = Vec::new();
    for bench in FIG8_BENCHES {
        let got = commit_digests(bench);
        assert!(
            got.lines().any(|l| !l.contains("records 0 ")),
            "{}: no commits traced",
            bench.name()
        );
        let path = commit_path(bench);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); record it with WEC_BLESS=1",
                path.display()
            )
        });
        if got != want {
            failures.push(format!("{}:\n{}", bench.name(), kv_diff(&got, &want)));
        }
    }
    assert!(
        failures.is_empty(),
        "commit traces diverged from goldens:\n{}",
        failures.join("\n")
    );
}

/// Benchmarks the replay pin captures: the two with the highest L1D miss
/// rates, so the side structure sees the most probes and fills.
const REPLAY_BENCHES: [Bench; 2] = [Bench::Mcf, Bench::Parser];

fn replay_path(bench: Bench) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/replay")
        .join(format!("{}.txt", bench.name()))
}

/// The pinned replay points: both side structures of the geometry sweep,
/// at its smallest, a middle and its largest entry count, each with a
/// direct-mapped and a 4-way L1 (12 points).
fn replay_keys() -> Vec<CfgKey> {
    let mut keys = Vec::new();
    for preset in [ProcPreset::WthWpWec, ProcPreset::WthWpVc] {
        for side_entries in [2u8, 32, 128] {
            for l1_ways in [1u8, 4] {
                keys.push(CfgKey {
                    preset,
                    side_entries,
                    l1_ways,
                    ..capture_key()
                });
            }
        }
    }
    keys
}

/// One capture at the sweep's capture point, replayed at every pinned
/// point: one line per point with the FNV-1a digest of its counter
/// listing (`kv_string` of the cache-counter subset).
fn replay_digests(bench: Bench) -> String {
    let w = bench.build(Scale::SMOKE);
    let key = capture_key();
    let meta = CaptureMeta {
        bench: w.name.to_string(),
        scale_units: Scale::SMOKE.units,
        cfg_label: key.label(),
    };
    let (_, trace) =
        capture_run(&w, key.build(), &meta).unwrap_or_else(|e| panic!("{} capture: {e}", w.name));
    let slab = TraceSlab::build_seq(&trace).unwrap();
    replay_keys()
        .into_iter()
        .map(|k| {
            let outcome = replay_slab(&slab, &k.build())
                .unwrap_or_else(|e| panic!("{} replay at {}: {e}", w.name, k.label()));
            let kv = kv_string(&cache_stat_subset(&outcome.stats));
            format!(
                "{} side{} ways{} fnv1a {:#018x}\n",
                k.preset.name(),
                k.side_entries,
                k.l1_ways,
                fnv1a(kv.as_bytes())
            )
        })
        .collect()
}

#[test]
fn replay_away_from_the_capture_point_matches_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = REPLAY_BENCHES
            .iter()
            .map(|&b| s.spawn(move || replay_digests(b)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut failures = Vec::new();
    for (bench, got) in REPLAY_BENCHES.into_iter().zip(results) {
        assert_eq!(got.lines().count(), replay_keys().len());
        let path = replay_path(bench);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); record it with WEC_BLESS=1",
                path.display()
            )
        });
        if got != want {
            failures.push(format!("{}:\n{}", bench.name(), kv_diff(&got, &want)));
        }
    }
    assert!(
        failures.is_empty(),
        "replay counters diverged from goldens:\n{}",
        failures.join("\n")
    );
}
