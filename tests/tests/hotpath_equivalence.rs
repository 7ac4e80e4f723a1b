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
//! To re-record after an *intentional* model change:
//!
//! ```text
//! WEC_BLESS=1 cargo test -p integration-tests --test hotpath_equivalence
//! ```
//!
//! and commit the diff (it IS the behaviour change; review it like one).

use std::path::PathBuf;

use wec_bench::CfgKey;
use wec_common::stats::StatSet;
use wec_core::config::{MachineConfig, ProcPreset};
use wec_core::metrics::MachineMetrics;
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
