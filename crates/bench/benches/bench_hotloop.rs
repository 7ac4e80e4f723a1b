//! Hot-loop component benchmarks: the per-cycle structures the simulator
//! spends its time in (speculative memory buffer, cache tag probe, whole
//! machine cycle loop).  `BENCH_hotloop.json` records these numbers before
//! and after the flat-structure overhaul; regenerate with
//!
//! ```text
//! WEC_BENCH_JSON=/tmp/hotloop.json cargo bench -p wec-bench --bench bench_hotloop
//! ```
//!
//! then gate the capture against the record with
//! `cargo run -p wec-bench --bin bench_guard -- /tmp/hotloop.json`.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wec_common::ids::{Addr, ThreadId};
use wec_common::SplitMix64;
use wec_core::config::ProcPreset;
use wec_core::membuf::MemBuffer;
use wec_mem::cache::{Cache, CacheGeometry};
use wec_mem::line::LineFlags;
use wec_telemetry::TelemetryConfig;
use wec_trace::{capture_run, replay_slab, CaptureMeta, TraceSlab};
use wec_workloads::{run_and_verify, Bench, Scale};

fn bench_membuf(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotloop");
    group.sample_size(20);

    // The per-thread buffer pattern of a parallel region: a burst of stores,
    // interleaved loads (hit + miss + partial), upstream traffic, one drain.
    group.bench_function("membuf store/load/drain region", |b| {
        let mut rng = SplitMix64::new(42);
        b.iter(|| {
            let mut buf = MemBuffer::new();
            buf.announce_upstream(Addr(0x2000), ThreadId(1));
            for i in 0..64u64 {
                let addr = Addr(0x1000 + (rng.below(128) & !7) * 8);
                buf.record_store(addr, 8, i.wrapping_mul(0x9E37));
                black_box(buf.check_load(Addr(0x1000 + (rng.below(1024)) * 8), 8));
                black_box(buf.check_load(addr, 4));
            }
            buf.release_upstream(Addr(0x2000), 8, 7, ThreadId(1));
            black_box(buf.check_load(Addr(0x2000), 8));
            black_box(buf.drain_own().len())
        })
    });

    // Pure dependence-checking path: announced-but-unreleased overlap probes.
    group.bench_function("membuf announced overlap probe", |b| {
        let mut buf = MemBuffer::new();
        for t in 0..4u64 {
            buf.announce_upstream(Addr(0x4000 + t * 64), ThreadId(t));
        }
        for i in 0..32u64 {
            buf.record_store(Addr(0x1000 + i * 8), 8, i);
        }
        let mut rng = SplitMix64::new(7);
        b.iter(|| {
            let addr = Addr(0x1000 + (rng.below(2048)) * 4);
            black_box(buf.check_load(addr, 8))
        })
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotloop");
    group.sample_size(20);

    // The L1 probe mix of a running simulation: mostly hits, periodic
    // conflict-miss inserts.  Direct-mapped (paper default) and 4-way.
    for (name, ways) in [("dm", 1usize), ("4way", 4)] {
        group.bench_function(&format!("cache probe+insert mix ({name})"), |b| {
            let mut cache = Cache::new(CacheGeometry::from_capacity(8 * 1024, ways, 64).unwrap());
            for i in 0..128u64 {
                cache.insert(Addr(i * 64), LineFlags::DEMAND);
            }
            let mut rng = SplitMix64::new(3);
            b.iter(|| {
                let addr = Addr(rng.below(64 * 1024) & !7);
                if cache.touch(addr).is_none() {
                    black_box(cache.insert(addr, LineFlags::DEMAND));
                }
                black_box(cache.contains(addr))
            })
        });
    }
    group.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotloop");
    group.sample_size(10);

    // End-to-end cycle loop on the paper machine: mcf (pointer-chasing, the
    // WEC's motivating workload) under the full wth-wp-wec preset exercises
    // fork/announce/release, wrong threads, and the write-back watermark.
    let mcf = Bench::Mcf.build(Scale::SMOKE);
    group.bench_function("simulate mcf smoke (wth-wp-wec, 8 TU)", |b| {
        b.iter(|| {
            run_and_verify(&mcf, ProcPreset::WthWpWec.machine(8))
                .unwrap()
                .cycles
        })
    });

    let gzip = Bench::Gzip.build(Scale::SMOKE);
    group.bench_function("simulate gzip smoke (orig, 8 TU)", |b| {
        b.iter(|| {
            run_and_verify(&gzip, ProcPreset::Orig.machine(8))
                .unwrap()
                .cycles
        })
    });

    // Telemetry overhead guard: the same mcf run with every instrument on
    // (in-memory only — no artifact files).  Compare against the untraced
    // "simulate mcf smoke" number above; the gated-buffer design should
    // keep the telemetry-off run within noise of a build without telemetry,
    // and this bench bounds what turning it on costs.
    group.bench_function("simulate mcf smoke (wth-wp-wec, telemetry on)", |b| {
        b.iter(|| {
            let mut cfg = ProcPreset::WthWpWec.machine(8);
            cfg.telemetry = TelemetryConfig {
                trace_events: true,
                sample_interval: 1000,
                profile: false,
                out_dir: None,
            };
            run_and_verify(&mcf, cfg).unwrap().cycles
        })
    });

    // Profiler overhead guard: the same mcf run with only the cycle-loop
    // self-profiler on (stride-sampled phase timers, no other instrument,
    // no artifact files).  Compare against the untraced "simulate mcf
    // smoke" number above; sampling 1-in-64 cycles should keep this within
    // a few percent of it.
    group.bench_function("simulate mcf smoke (wth-wp-wec, profiled)", |b| {
        b.iter(|| {
            let mut cfg = ProcPreset::WthWpWec.machine(8);
            cfg.telemetry = TelemetryConfig {
                trace_events: false,
                sample_interval: 0,
                profile: true,
                out_dir: None,
            };
            run_and_verify(&mcf, cfg).unwrap().cycles
        })
    });

    // Attribution overhead guard: the same mcf run with only the
    // speculation attribution ledger on (per-line origin tags, per-PC and
    // per-set counters, no artifact files).  Compare against the untraced
    // "simulate mcf smoke" number above; `bench_guard` warns when this
    // entry exceeds it by more than 10%.
    group.bench_function("simulate mcf smoke (wth-wp-wec, attribution on)", |b| {
        b.iter(|| {
            let mut cfg = ProcPreset::WthWpWec.machine(8);
            cfg.attribution = true;
            run_and_verify(&mcf, cfg).unwrap().cycles
        })
    });
    group.finish();

    // Direct median-of-5 comparison so the warning works even without a
    // criterion JSON capture, mirroring the capture-overhead guard below.
    let median = |f: &dyn Fn() -> u64| {
        let mut ns: Vec<u128> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        ns[2]
    };
    let off = median(&|| {
        run_and_verify(&mcf, ProcPreset::WthWpWec.machine(8))
            .unwrap()
            .cycles
    });
    let on = median(&|| {
        let mut cfg = ProcPreset::WthWpWec.machine(8);
        cfg.attribution = true;
        run_and_verify(&mcf, cfg).unwrap().cycles
    });
    let overhead = (on as f64 / off as f64 - 1.0) * 100.0;
    if overhead > 10.0 {
        eprintln!(
            "WARN attribution overhead {overhead:.1}% (>10%): attribution-off median {off} ns, attribution-on median {on} ns"
        );
    } else {
        eprintln!(
            "attribution overhead {overhead:.1}% (attribution-off median {off} ns, attribution-on median {on} ns)"
        );
    }
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotloop");
    group.sample_size(10);

    let mcf = Bench::Mcf.build(Scale::SMOKE);
    let cfg = ProcPreset::WthWpWec.machine(8);
    let meta = CaptureMeta {
        bench: mcf.name.to_string(),
        scale_units: Scale::SMOKE.units,
        cfg_label: "bench/wth-wp-wec/t8".to_string(),
    };

    // Full-timing run with the trace recorder attached to every L1D and
    // L1I (compare against the untraced "simulate mcf smoke" number above
    // for capture overhead).
    group.bench_function("simulate mcf smoke (wth-wp-wec, capture on)", |b| {
        b.iter(|| {
            capture_run(&mcf, cfg.clone(), &meta)
                .unwrap()
                .1
                .header
                .total_records
        })
    });

    // Trace-driven replay of one sweep point: the cache hierarchy alone,
    // re-driven from the captured stream (records/s = trace records over
    // the median time of this entry).  This is the slab loop every sweep
    // runs; the decode and merge it amortizes stay outside the timing.
    let (_, trace) = capture_run(&mcf, cfg.clone(), &meta).unwrap();
    let slab = TraceSlab::build_seq(&trace).unwrap();
    eprintln!(
        "replay throughput entry drives {} records per iteration",
        slab.records()
    );
    group.bench_function("replay mcf smoke trace (one sweep point)", |b| {
        b.iter(|| replay_slab(&slab, &cfg).unwrap().records)
    });
    group.finish();

    // Capture-overhead guard: the recorder must stay cheap relative to the
    // timing model it records.  Direct median-of-5 comparison so the
    // warning works even without a criterion JSON capture.
    let median = |f: &dyn Fn() -> u64| {
        let mut ns: Vec<u128> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        ns[2]
    };
    let off = median(&|| run_and_verify(&mcf, cfg.clone()).unwrap().cycles);
    let on = median(&|| capture_run(&mcf, cfg.clone(), &meta).unwrap().0.cycles);
    let overhead = (on as f64 / off as f64 - 1.0) * 100.0;
    if overhead > 10.0 {
        eprintln!(
            "WARN capture overhead {overhead:.1}% (>10%): capture-off median {off} ns, capture-on median {on} ns"
        );
    } else {
        eprintln!(
            "capture overhead {overhead:.1}% (capture-off median {off} ns, capture-on median {on} ns)"
        );
    }
}

criterion_group!(
    benches,
    bench_membuf,
    bench_cache,
    bench_machine,
    bench_trace
);
criterion_main!(benches);
