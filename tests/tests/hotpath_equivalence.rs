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
//! A sixth net pins the telemetry artifacts, whose events carry cycle
//! stamps in drain order: mcf and parser under `wth-wp-wec` with trace
//! events, a sample interval, a 64-entry commit trace and attribution on.
//! The byte length and FNV-1a digest of `events.jsonl`, `commits.jsonl`,
//! `timeseries.csv`, `histograms.json`, `trace.perfetto.json` and
//! `attribution.json` must match `tests/goldens/telemetry/`.
//!
//! In debug builds one more test turns on the machine's jump check
//! (`Machine::check_jumps`) for the 18 preset points, Table 3's 16-unit
//! machine and a hand-built region: every span of cycles the machine would
//! jump over is ticked instead and must change nothing but the counters
//! the jump adds.  The nets above keep running the jump itself.
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
use wec_telemetry::TelemetryConfig;
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

/// The jump check's points: the 18 preset points, and Table 3's 16-unit
/// machine on the Figure 8 benchmarks.
#[cfg(debug_assertions)]
fn jump_check_points() -> Vec<(Bench, String, MachineConfig)> {
    stats_points()
        .into_iter()
        .filter(|(_, label, _)| label == "table3-t16" || PRESETS.iter().any(|p| p.name() == label))
        .collect()
}

/// A region whose ring deliveries come due while every unit waits on
/// memory, which none of the SMOKE preset points produces (a wake that
/// ignores deliveries passes them all): each thread announces its
/// target store once a first miss returns, while a second miss (its
/// address depends on the first) is in flight, and its successors wait on
/// misses of their own.  Each thread then adds one to the target word.
#[cfg(debug_assertions)]
fn announce_behind_misses(n: i64) -> (wec_isa::Program, wec_common::ids::Addr) {
    use wec_isa::reg::Reg;
    let mut b = wec_isa::ProgramBuilder::new("announce");
    let acc = b.alloc_zeroed_u64s(1);
    // 8 KiB per thread: both misses go to memory.
    let far = b.alloc_zeroed_u64s(1024 * n as u64);
    let (i, my, n_r, accb, farb) = (Reg(1), Reg(3), Reg(22), Reg(21), Reg(20));
    let (p, first, q, second, t) = (Reg(5), Reg(6), Reg(7), Reg(8), Reg(4));
    b.la(accb, acc);
    b.la(farb, far);
    b.li(n_r, n);
    b.li(i, 0);
    b.begin(1);
    b.label("body");
    b.mv(my, i);
    b.addi(i, i, 1);
    b.fork(&[i], "body");
    b.slli(p, my, 13);
    b.add(p, p, farb);
    b.ld(first, p, 0);
    b.add(q, p, first);
    b.tsannounce(accb, 0);
    b.ld(second, q, 4096);
    for _ in 0..8 {
        b.add(second, second, second);
    }
    b.tsagdone();
    b.ld(t, accb, 0);
    b.addi(t, t, 1);
    b.add(t, t, second);
    b.sd(t, accb, 0);
    b.blt(i, n_r, "done");
    b.abort_to("seq");
    b.label("done");
    b.thread_end();
    b.label("seq");
    b.halt();
    (b.build().unwrap(), acc)
}

/// With the jump check on, the machine ticks every span it would jump and
/// panics at the first ticked cycle that changes more than the predicted
/// counters.  The ticked runs must still pass their workload self-checks
/// and match the full-statistics goldens the jump path is pinned to.  The
/// check is a debug-build aid, so this test compiles only there.
#[cfg(debug_assertions)]
#[test]
fn jumps_skip_only_quiet_cycles() {
    let (program, acc) = announce_behind_misses(24);
    let mut m = Machine::new(ProcPreset::WthWpWec.machine(N_TUS), &program).unwrap();
    m.check_jumps();
    m.run().unwrap();
    assert_eq!(m.memory().read_u64(acc).unwrap(), 24);

    let points = jump_check_points();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = points
            .chunks(points.len().div_ceil(workers))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(bench, label, cfg)| {
                            let w = bench.build(Scale::SMOKE);
                            let mut m = Machine::new(cfg.clone(), &w.program).unwrap();
                            m.check_jumps();
                            let r = m
                                .run()
                                .unwrap_or_else(|e| panic!("{} under {label}: {e}", w.name));
                            let check = m.memory().read_u64(w.check_addr).unwrap();
                            assert_eq!(check, w.expected_check, "{} under {label}", w.name);
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
        let want = std::fs::read_to_string(stats_path(*bench, label)).unwrap();
        if got != want {
            failures.push(format!(
                "{} under {label}:\n{}",
                bench.name(),
                kv_diff(&got, &want)
            ));
        }
    }
    assert_eq!(points.len(), 20);
    assert!(
        failures.is_empty(),
        "checked runs diverged from the statistics goldens:\n{}",
        failures.join("\n")
    );
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

/// Benchmarks the telemetry pin runs: the two with the highest L1D miss
/// rates, so the event stream holds the most fills, hits and L2 misses.
const TELEMETRY_BENCHES: [Bench; 2] = [Bench::Mcf, Bench::Parser];

/// The artifacts a telemetry run writes, in listing order; all but
/// `profile.json`, which holds host timings.
const TELEMETRY_FILES: [&str; 6] = [
    "events.jsonl",
    "commits.jsonl",
    "timeseries.csv",
    "histograms.json",
    "trace.perfetto.json",
    "attribution.json",
];

fn telemetry_path(bench: Bench) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/telemetry")
        .join(format!("{}__wth-wp-wec.kv", bench.name()))
}

/// One telemetry run written to a scratch directory: per artifact, its
/// byte length and FNV-1a digest.  `attribution.json` is rendered the way
/// `experiments --attribution` writes it.
fn telemetry_digests(bench: Bench) -> String {
    let w = bench.build(Scale::SMOKE);
    let dir = std::env::temp_dir().join(format!(
        "wec-telemetry-pin-{}-{}",
        bench.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ProcPreset::WthWpWec.machine(N_TUS);
    cfg.telemetry = TelemetryConfig {
        trace_events: true,
        sample_interval: 500,
        profile: false,
        out_dir: Some(dir.clone()),
    };
    cfg.core.commit_trace = COMMIT_TRACE;
    cfg.attribution = true;
    let r = run_and_verify(&w, cfg).unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
    let ledger = r.attribution.expect("attribution was on").to_json();
    std::fs::write(dir.join("attribution.json"), format!("{ledger}\n")).unwrap();
    let listing = TELEMETRY_FILES
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("{}: no {name} ({e})", w.name));
            format!(
                "{name} bytes {} fnv1a {:#018x}\n",
                bytes.len(),
                fnv1a(&bytes)
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    listing
}

#[test]
fn telemetry_artifacts_match_recorded_goldens() {
    let bless = std::env::var_os("WEC_BLESS").is_some();
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = TELEMETRY_BENCHES
            .iter()
            .map(|&b| s.spawn(move || telemetry_digests(b)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut failures = Vec::new();
    for (bench, got) in TELEMETRY_BENCHES.into_iter().zip(results) {
        let path = telemetry_path(bench);
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
        "telemetry artifacts diverged from goldens:\n{}",
        failures.join("\n")
    );
}
