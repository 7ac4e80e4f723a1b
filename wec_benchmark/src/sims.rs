//! The two in-process workloads: the cold Fig. 11 sweep through the
//! full-timing simulator, and the cache-geometry replay sweep over
//! captured traces.  Both call the libraries' public functions directly and
//! time them from outside.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wec_bench::experiments::{fig11, FIG11_PRESETS};
use wec_bench::tracerun::{capture_key, replay_point, replay_sweep, sweep_keys, PointResult};
use wec_bench::{CacheSource, CfgKey, RunObserver, Runner, Suite};
use wec_core::config::ProcPreset;
use wec_core::metrics::MachineMetrics;
use wec_telemetry::{Phase, TelemetryConfig};
use wec_trace::{cache_stat_subset, capture_run, CaptureMeta, Trace, TraceSlab};
use wec_workloads::{run_and_verify, Bench, Scale, Workload};

use crate::goldens::{bench_index, sweep_digest, Goldens};
use crate::stats::{median, tail};
use crate::{fan, ms, short, Ctx, Report, HOSTS, SETUPS};

/// Host seconds one pass takes on the reference 2-CPU host; the number of
/// passes a run measures is `--seconds` over this, so every run of a given
/// length does the same work and reports the same sample count.
const FIG11_PASS_S: f64 = 5.0;
const REPLAY_PASS_S: f64 = 1.2;

/// Measured passes for a run of `seconds` (at least one).
fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

/// Instructions the model committed, wrong threads included: the host
/// work a simulation does scales with these.
fn instructions(m: &MachineMetrics) -> u64 {
    m.sequential_instructions + m.parallel_instructions + m.wrong_instructions
}

/// One finished cold simulation, timed exactly from outside the runner.
struct SimTime {
    bench: &'static str,
    key: CfgKey,
    worker: usize,
    start: Instant,
    end: Instant,
}

/// A [`RunObserver`] that clocks every cold simulation of a sweep.
#[derive(Default)]
struct SimClock {
    started: Mutex<HashMap<(&'static str, CfgKey), Instant>>,
    done: Mutex<Vec<SimTime>>,
}

impl RunObserver for SimClock {
    fn sim_started(&self, bench: &'static str, key: &CfgKey, _worker: usize) {
        let now = Instant::now();
        self.started
            .lock()
            .expect("clock poisoned")
            .insert((bench, *key), now);
    }

    fn sim_finished(
        &self,
        bench: &'static str,
        key: &CfgKey,
        worker: usize,
        src: CacheSource,
        _dur_ms: u64,
        _sim_cycles: u64,
    ) {
        let end = Instant::now();
        if src != CacheSource::Cold {
            return;
        }
        let start = self
            .started
            .lock()
            .expect("clock poisoned")
            .remove(&(bench, *key));
        let start = start.expect("finished a simulation that never started");
        self.done.lock().expect("clock poisoned").push(SimTime {
            bench,
            key: *key,
            worker,
            start,
            end,
        });
    }
}

/// Host speed of a set of simulations, overall and per benchmark:
/// `(bench, instructions, host seconds)` in, Minst/s readings out.
fn core_speed(r: &mut Report, runs: &[(&str, u64, f64)]) {
    let total = |f: &dyn Fn(&str) -> bool| {
        let (i, s) = runs
            .iter()
            .filter(|(b, _, _)| f(b))
            .fold((0u64, 0.0), |(i, s), &(_, n, t)| (i + n, s + t));
        (s > 0.0).then(|| i as f64 / s / 1e6)
    };
    if let Some(v) = total(&|_| true) {
        r.put("core.minst_per_s", v, "Minst/s");
    }
    for b in Bench::ALL {
        if let Some(v) = total(&|n| n == b.name()) {
            r.put(
                format!("core.minst_per_s.{}", short(b.name())),
                v,
                "Minst/s",
            );
        }
    }
}

/// Fig. 11's points in `experiments::fig11` order: every benchmark under
/// `orig` and the seven compared presets (48 points); two benchmarks under
/// two presets in smoke mode.
fn fig11_points(smoke: bool) -> Vec<(usize, CfgKey)> {
    let mut keys = vec![CfgKey::paper(ProcPreset::Orig, 8)];
    keys.extend(FIG11_PRESETS.iter().map(|&p| CfgKey::paper(p, 8)));
    let benches = if smoke { 2 } else { Bench::ALL.len() };
    if smoke {
        keys.retain(|k| matches!(k.preset, ProcPreset::Orig | ProcPreset::WthWpWec));
    }
    (0..benches)
        .flat_map(|b| keys.iter().map(move |&k| (b, k)))
        .collect()
}

/// One sim-fig11 set-up: build the scale-1 suite, then one simulation so
/// the first measured points do not pay the process's first-touch costs
/// (page faults, allocator growth); the smallest point of the sweep.
/// Returns the suite, the set-up's seconds and the build's milliseconds.
fn fig11_setup(ctx: &Ctx, r: &mut Report, i: usize) -> (Suite, f64, f64) {
    let spans = &ctx.spans;
    let t = Instant::now();
    let setup = spans.open();
    let suite = spans.time("workloads.build", setup, 0, |_| Suite::build(Scale::SMOKE));
    let build_ms = ms(t.elapsed());
    let mesa = &suite.workloads[bench_index(Bench::Mesa)];
    let warm = spans.time("core.warm_up", setup, 0, |_| {
        run_and_verify(mesa, CfgKey::paper(ProcPreset::Orig, 8).build())
    });
    r.gate(
        warm.map(drop)
            .map_err(|e| format!("warm-up simulation: {e}")),
    );
    spans.close(setup, "setup", 0, i as u64, t, Instant::now());
    (suite, t.elapsed().as_secs_f64(), build_ms)
}

/// Set-ups per sim-fig11 run.  One takes a sixth of a second, so more of
/// them are affordable than elsewhere, and their median needs them: on a
/// shared host a fraction of a second is often all slow or all fast.
const FIG11_SETUPS: usize = 3 * SETUPS;

/// sim-fig11: build the scale-1 suite (set-up), then run the Fig. 11 sweep
/// cold on [`HOSTS`] host threads, every pass with a fresh runner.  The
/// set-ups are spread over the run in equal groups: before the first
/// pass, between passes, after the last.
pub fn sim_fig11(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let goldens = Goldens::load();
    r.gate(goldens.stale().map_or(Ok(()), Err));
    let spans = &ctx.spans;

    let points = fig11_points(ctx.smoke);
    let n_passes = passes(ctx.seconds, FIG11_PASS_S);
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    let (mut walls, mut durations, mut tail_idle) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs: Vec<(&str, u64, f64)> = Vec::new();
    let mut suite = None;
    for pass in 0..=n_passes {
        // Set-up k belongs to group k(n+1)/FIG11_SETUPS, run before pass
        // `group` (the last group after the last pass).
        while setup_s.len() < FIG11_SETUPS && setup_s.len() * (n_passes + 1) / FIG11_SETUPS <= pass
        {
            let (s, seconds, build) = fig11_setup(ctx, &mut r, setup_s.len());
            setup_s.push(seconds);
            build_ms.push(build);
            suite = Some(s);
        }
        if pass == n_passes {
            break;
        }
        let suite = suite.as_ref().expect("set up before the first pass");
        let clock = Arc::new(SimClock::default());
        let mut runner = Runner::without_disk_cache(suite);
        runner.set_observer(clock.clone());
        let pass_id = spans.open();
        let t = Instant::now();
        runner.warm_with_hosts(&points, HOSTS);
        let end = Instant::now();
        spans.close(pass_id, "runner.warm_with_hosts", 0, pass as u64, t, end);
        walls.push((end - t).as_secs_f64());

        let done = std::mem::take(&mut *clock.done.lock().expect("clock poisoned"));
        r.attempted += points.len() as u64;
        r.failed += (points.len() - done.len()) as u64;
        let mut last_finish = [t; HOSTS];
        for (i, s) in done.iter().enumerate() {
            let name = format!("core.sim.w{}", s.worker);
            spans.leaf(&name, pass_id, i as u64, s.start, s.end);
            durations.push(ms(s.end - s.start));
            let slot = &mut last_finish[s.worker.min(HOSTS - 1)];
            *slot = (*slot).max(s.end);
            let b = suite.workloads.iter().position(|w| w.name == s.bench);
            let m = runner.metrics(b.expect("simulated bench is in the suite"), s.key);
            runs.push((s.bench, instructions(&m), (s.end - s.start).as_secs_f64()));
            r.gate(goldens.check_sim(s.bench, &s.key, &m.to_kv()));
        }
        let first_idle = last_finish.iter().min().copied().unwrap_or(end);
        tail_idle.push((end - first_idle).as_secs_f64());
        if pass + 1 == n_passes {
            last_pass_readings(ctx, &mut r, &runner);
        }
    }

    r.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    r.latencies("", &durations);
    let wall: f64 = walls.iter().sum();
    r.put("ops_per_s", durations.len() as f64 / wall, "1/s");

    r.put("workloads.build_ms", median(&build_ms).unwrap_or(0.0), "ms");
    core_speed(&mut r, &runs);
    let busy: f64 = runs.iter().map(|&(_, _, s)| s).sum();
    r.put("runner.busy_share", busy / (HOSTS as f64 * wall), "share");
    r.put(
        "runner.tail_idle_s",
        tail_idle.iter().sum::<f64>() / n_passes as f64,
        "s",
    );
    if ctx.traced {
        let suite = suite.expect("at least one set-up");
        phase_shares(ctx, &suite, &mut r);
        attribution_overhead(ctx, &suite, &mut r);
    }
    r
}

/// Exact counts of one pass, and the Fig. 11 table it fills.
fn last_pass_readings(ctx: &Ctx, r: &mut Report, runner: &Runner) {
    let snap = runner.snapshot();
    let insts: u64 = snap.iter().map(|(_, _, m)| instructions(m)).sum();
    let cycles: u64 = snap.iter().map(|(_, _, m)| m.cycles).sum();
    r.put("core.instructions", insts as f64, "count");
    r.put("core.sim_cycles", cycles as f64, "count");
    if ctx.smoke {
        return;
    }
    // Every point is memoized now, so this only tabulates.  The average
    // row follows the benchmarks; column 0 is the row label.
    let table = fig11(runner);
    let col = 1 + FIG11_PRESETS
        .iter()
        .position(|&p| p == ProcPreset::WthWpWec)
        .expect("Fig. 11 compares wth-wp-wec");
    let gain = table.cell(Bench::ALL.len(), col);
    if let Some(g) = gain.and_then(|c| c.trim().parse::<f64>().ok()) {
        r.put("fig11_wec_gain_pct", g, "%");
        r.put("fig11_wec_gain_paper_pct", 9.7, "%");
    }
}

/// Host-time shares of the cycle loop's phases, from the simulator's own
/// sampled self-profile of each benchmark's `wth-wp-wec` point.
fn phase_shares(ctx: &Ctx, suite: &Suite, r: &mut Report) {
    let benches = if ctx.smoke { 1 } else { suite.workloads.len() };
    let ns = fan(benches, HOSTS, |b| {
        let w = &suite.workloads[b];
        let mut cfg = CfgKey::paper(ProcPreset::WthWpWec, 8).build();
        cfg.telemetry = TelemetryConfig {
            profile: true,
            ..TelemetryConfig::default()
        };
        let res = ctx
            .spans
            .time("core.profile", 0, b as u64, |_| run_and_verify(w, cfg));
        res.ok()
            .and_then(|res| res.telemetry)
            .and_then(|t| t.profile)
            .map(|p| p.ns)
    });
    let mut total = [0u64; Phase::ALL.len()];
    for per_bench in ns.into_iter().flatten() {
        for (acc, v) in total.iter_mut().zip(per_bench) {
            *acc += v;
        }
    }
    let sum: u64 = total.iter().sum();
    if sum > 0 {
        for phase in Phase::ALL {
            let share = total[phase as usize] as f64 / sum as f64;
            r.put(format!("core.phase_share.{}", phase.name()), share, "share");
        }
    }
}

/// Host-time cost of the speculation attribution ledger on the mcf
/// `wth-wp-wec` point: best of two runs on over best of two off, minus 1.
fn attribution_overhead(ctx: &Ctx, suite: &Suite, r: &mut Report) {
    let w = &suite.workloads[bench_index(Bench::Mcf)];
    let mut best = [f64::MAX; 2];
    for round in 0..4 {
        let on = round % 2 == 1;
        let mut cfg = CfgKey::paper(ProcPreset::WthWpWec, 8).build();
        cfg.attribution = on;
        let t = Instant::now();
        let ok = ctx
            .spans
            .time("telemetry.attr", 0, round, |_| run_and_verify(w, cfg))
            .is_ok();
        r.gate(if ok {
            Ok(())
        } else {
            Err("attribution run failed".to_string())
        });
        let slot = &mut best[on as usize];
        *slot = slot.min(t.elapsed().as_secs_f64());
    }
    r.put("telemetry.attr_overhead", best[1] / best[0] - 1.0, "ratio");
}

/// What one capture set-up leaves for the measured phase.
struct Captured {
    bench: &'static str,
    /// The full-timing run's cache counters at the captured configuration.
    golden: Vec<(String, u64)>,
    instructions: u64,
    cycles: u64,
    capture_s: f64,
    trace: Trace,
}

/// Full-timing run of `w` at the captured configuration with the access
/// tap attached.
fn capture(ctx: &Ctx, w: &Workload, parent: u64, req: u64) -> Result<Captured, String> {
    let meta = CaptureMeta {
        bench: w.name.to_string(),
        scale_units: Scale::SMOKE.units,
        cfg_label: capture_key().label(),
    };
    let t = Instant::now();
    let res = capture_run(w, capture_key().build(), &meta);
    let end = Instant::now();
    ctx.spans
        .leaf(&format!("trace.capture {}", w.name), parent, req, t, end);
    let (run, trace) = res.map_err(|e| format!("capture of {}: {e}", w.name))?;
    Ok(Captured {
        bench: w.name,
        golden: cache_stat_subset(&run.stats),
        instructions: instructions(&run.metrics),
        cycles: run.cycles,
        capture_s: (end - t).as_secs_f64(),
        trace,
    })
}

/// replay-geometry: capture all six workloads and decode their traces into
/// slabs (set-up), then replay the 48-point geometry sweep over every slab
/// cold, each sweep on [`HOSTS`] threads.
pub fn replay_geometry(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let goldens = Goldens::load();
    r.gate(goldens.stale().map_or(Ok(()), Err));
    let spans = &ctx.spans;
    let benches: &[Bench] = if ctx.smoke {
        &[Bench::Mcf]
    } else {
        &Bench::ALL
    };
    let keys = if ctx.smoke {
        sweep_keys()[4..8].to_vec()
    } else {
        sweep_keys()
    };
    let base = keys
        .iter()
        .position(|k| *k == capture_key())
        .expect("the sweep replays the captured configuration");

    let (mut setup_s, mut build_ms, mut capture_s, mut slab_ms) = (vec![], vec![], vec![], vec![]);
    let mut prepared = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let setup = spans.open();
        let workloads: Vec<Workload> = spans.time("workloads.build", setup, 0, |_| {
            benches.iter().map(|b| b.build(Scale::SMOKE)).collect()
        });
        build_ms.push(ms(t.elapsed()));
        let tc = Instant::now();
        let captured: Vec<Captured> = fan(workloads.len(), HOSTS, |b| {
            capture(ctx, &workloads[b], setup, b as u64)
        })
        .into_iter()
        .filter_map(|c| c.map_err(|e| r.gate(Err(e))).ok())
        .collect();
        capture_s.push(tc.elapsed().as_secs_f64());
        let ts = Instant::now();
        let slabs: Vec<TraceSlab> = captured
            .iter()
            .filter_map(|c| {
                spans
                    .time(&format!("trace.slab_build {}", c.bench), setup, 0, |_| {
                        TraceSlab::build(&c.trace, HOSTS)
                    })
                    .map_err(|e| r.gate(Err(format!("slab of {}: {e}", c.bench))))
                    .ok()
            })
            .collect();
        slab_ms.push(ms(ts.elapsed()));
        spans.close(setup, "setup", 0, i as u64, t, Instant::now());
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((workloads, captured, slabs));
    }
    let (workloads, captured, slabs) = prepared.expect("at least one set-up");
    if slabs.len() != benches.len() {
        r.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
        return r;
    }

    // One operation is one pass: the whole geometry study, every sweep
    // point of every trace.  (Per-trace sweeps differ in size, so their
    // median would sit between two traces rather than on one.)
    let n_passes = passes(ctx.seconds, REPLAY_PASS_S);
    let mut pass_ms = Vec::new();
    let mut first: Vec<Vec<PointResult>> = Vec::new();
    for pass in 0..n_passes {
        let pass_id = spans.open();
        let t = Instant::now();
        let mut same = true;
        for (b, slab) in slabs.iter().enumerate() {
            let ts = Instant::now();
            let results = replay_sweep(slab, &keys, None, HOSTS);
            let bench = &slab.header().bench;
            spans.leaf(
                &format!("tracerun.replay_sweep {bench}"),
                pass_id,
                b as u64,
                ts,
                Instant::now(),
            );
            if pass == 0 {
                first.push(results);
            } else if results != first[b] {
                same = false;
                r.gate(Err(format!("{bench}: pass {pass} differs from pass 0")));
            }
        }
        let end = Instant::now();
        spans.close(pass_id, "pass", 0, pass as u64, t, end);
        pass_ms.push(ms(end - t));
        r.attempted += 1;
        r.failed += u64::from(!same);
    }

    for ((c, results), slab) in captured.iter().zip(&first).zip(&slabs) {
        if results[base].0 != c.golden {
            r.gate(Err(format!(
                "{}: replay at the captured configuration differs from the full-timing run",
                c.bench
            )));
        }
        if !ctx.smoke {
            r.gate(goldens.check_sweep(slab.header().bench.as_str(), sweep_digest(results)));
        }
    }

    r.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    r.latencies("", &pass_ms);
    let wall: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    r.put("ops_per_s", pass_ms.len() as f64 / wall, "1/s");

    r.put("workloads.build_ms", median(&build_ms).unwrap_or(0.0), "ms");
    let runs: Vec<(&str, u64, f64)> = captured
        .iter()
        .map(|c| (c.bench, c.instructions, c.capture_s))
        .collect();
    core_speed(&mut r, &runs);
    r.put(
        "core.instructions",
        captured.iter().map(|c| c.instructions).sum::<u64>() as f64,
        "count",
    );
    r.put(
        "core.sim_cycles",
        captured.iter().map(|c| c.cycles).sum::<u64>() as f64,
        "count",
    );
    r.put("trace.capture_s", median(&capture_s).unwrap_or(0.0), "s");
    r.put("trace.slab_build_ms", median(&slab_ms).unwrap_or(0.0), "ms");
    let records: u64 = slabs.iter().map(TraceSlab::records).sum();
    let bytes: u64 = captured.iter().map(|c| c.trace.encoded_bytes()).sum();
    r.put("trace.records", records as f64, "count");
    r.put(
        "trace.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
        "B/record",
    );

    if ctx.traced {
        // Capture cost: each workload run once without the access tap and
        // once with it, back to back on the same thread.
        let times = fan(workloads.len(), HOSTS, |i| {
            let t = Instant::now();
            let plain = run_and_verify(&workloads[i], capture_key().build());
            let plain_s = t.elapsed().as_secs_f64();
            let tapped = capture(ctx, &workloads[i], 0, i as u64).map(|c| c.capture_s);
            (plain.is_ok(), plain_s, tapped)
        });
        let (mut plain_s, mut tapped_s) = (0.0, 0.0);
        for (ok, p, t) in times {
            r.gate(match (ok, t) {
                (true, Ok(t)) => {
                    (plain_s, tapped_s) = (plain_s + p, tapped_s + t);
                    Ok(())
                }
                _ => Err("capture overhead run failed".to_string()),
            });
        }
        r.put("trace.capture_overhead", tapped_s / plain_s - 1.0, "ratio");

        // Every point once more, one at a time on this thread: the replay
        // loop's own speed, and how well the pool used its threads.
        let mut point_ms = Vec::new();
        for (b, slab) in slabs.iter().enumerate() {
            let t = Instant::now();
            for (k, key) in keys.iter().enumerate() {
                let tp = Instant::now();
                let _ = replay_point(slab, *key, None);
                let end = Instant::now();
                spans.leaf(
                    "trace.replay_point",
                    0,
                    (b * keys.len() + k) as u64,
                    tp,
                    end,
                );
                point_ms.push(ms(end - tp));
            }
            let ns = t.elapsed().as_nanos() as f64 / (keys.len() as f64 * slab.records() as f64);
            r.put(
                format!("trace.replay_ns_per_record.{}", short(&slab.header().bench)),
                ns,
                "ns",
            );
        }
        if let (Some(p50), Some(t)) = (median(&point_ms), tail(&point_ms)) {
            r.put("tracerun.point_ms_p50", p50, "ms");
            r.put("tracerun.point_ms_tail", t, "ms");
        }
        let serial_s: f64 = point_ms.iter().sum::<f64>() / 1e3;
        let pass_s = wall / n_passes as f64;
        r.put(
            "tracerun.pool_efficiency",
            serial_s / (HOSTS as f64 * pass_s),
            "share",
        );
    }
    r
}
