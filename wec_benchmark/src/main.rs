//! `wec_benchmark` — the repository's benchmark.
//!
//! ```text
//! wec_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!               [--smoke] [--out DIR]
//! wec_benchmark compare DIR_A DIR_B
//! wec_benchmark compare --overhead DIR
//! wec_benchmark goldens
//! ```
//!
//! Runs one workload (or all four in turn), prints every reading as
//! `workload metric value unit`, appends the run's record to
//! `DIR/records.jsonl` (default `DIR` = `.bench_out`), and ends its output
//! with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which also writes the run's spans to
//! `DIR/<workload>-s<seed>.spans.jsonl`).  Exits 1 when a correctness
//! gate fails.  See README.md for the workloads and metrics.

mod compare;
mod daemon;
mod goldens;
mod http;
mod metrics;
mod serve;
mod sims;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use spans::Spans;

/// Seconds one run measures unless `--seconds` says otherwise
/// (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Host threads of every in-process sweep, load threads of every service
/// workload, and workers of the single serve daemon: the reference host
/// has two CPUs, and pinning the count keeps `WEC_JOBS` out of the numbers.
pub const HOSTS: usize = 2;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Records and the reference stores reused across runs.
    pub out: PathBuf,
    /// This run's scratch directory (stores, daemon logs), emptied first.
    pub dir: PathBuf,
    /// Where `wec_serve` and `wec_router` were built.
    pub bin_dir: PathBuf,
    pub spans: Spans,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold, one line each.
    pub misses: Vec<String>,
    /// Every reading in emission order: name, value, unit.
    pub readings: Vec<(String, f64, String)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        if value.is_finite() {
            self.readings.push((name.into(), value, unit.to_string()));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Record a correctness gate's outcome.
    pub fn gate(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.misses.push(why);
        }
    }

    /// Median and tail of latency samples (ms), with the tail's quantile
    /// level and the sample count, under `prefix`.
    pub fn latencies(&mut self, prefix: &str, samples: &[f64]) {
        if let (Some(p50), Some(t)) = (stats::median(samples), stats::tail(samples)) {
            self.put(format!("{prefix}p50_ms"), p50, "ms");
            self.put(format!("{prefix}tail_ms"), t, "ms");
            let q = stats::tail_level(samples.len());
            self.put(format!("{prefix}tail_quantile"), q, "quantile");
            self.put(format!("{prefix}samples"), samples.len() as f64, "count");
        }
    }

    pub fn correct(&self) -> bool {
        self.misses.is_empty() && self.failed == 0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `"175.vpr"` → `"vpr"`, the benchmark part of per-benchmark metric names.
pub fn short(bench: &str) -> &str {
    bench.split_once('.').map_or(bench, |(_, b)| b)
}

/// Run `f(0..n)` on `threads` scoped threads; results in index order.
pub fn fan<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let v = f(i);
                slots.lock().expect("fan slots poisoned")[i] = Some(v);
            });
        }
    });
    slots
        .into_inner()
        .expect("fan slots poisoned")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// Where and on what a record was taken.
struct Stamp {
    nproc: usize,
    rustc: String,
    commit: String,
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Stamp {
    fn take(repo: &Path) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"], repo),
            commit: command_line("git", &["rev-parse", "HEAD"], repo),
        }
    }
}

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: wec_benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--out DIR]\n       \
                     wec_benchmark compare DIR_A DIR_B | compare --overhead DIR\n       \
                     wec_benchmark goldens";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().map(|&(w, _)| w).collect(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                let name = WORKLOADS
                    .iter()
                    .map(|&(n, _)| n)
                    .find(|n| n == w)
                    .ok_or(format!("unknown workload {w:?}"))?;
                o.workloads = vec![name];
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !o.seconds.is_finite() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// One reading as a JSON member: `"name": {"value": v, "unit": "u"}`.
fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    wec_telemetry::json::escape_into(out, name);
    out.push_str(&format!(": {{\"value\": {value}, \"unit\": "));
    wec_telemetry::json::escape_into(out, unit);
    out.push('}');
}

/// The final output line: exactly the end-to-end metrics (untraced) or the
/// per-layer metrics (traced); a layer the workload never crossed reads 0.
fn result_line(r: &Report, traced: bool) -> String {
    let table = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut metrics = String::from("{");
    for m in table {
        json_metric(&mut metrics, m.name, r.get(m.name).unwrap_or(0.0), m.unit);
    }
    metrics.push('}');
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed
    )
}

fn record_line(w: &str, o: &Opts, stamp: &Stamp, r: &Report) -> String {
    let mut metrics = String::from("{");
    for (name, value, unit) in &r.readings {
        json_metric(&mut metrics, name, *value, unit);
    }
    metrics.push('}');
    let mut misses = String::from("[");
    for (i, m) in r.misses.iter().enumerate() {
        if i > 0 {
            misses.push_str(", ");
        }
        wec_telemetry::json::escape_into(&mut misses, m);
    }
    misses.push(']');
    let mut rustc = String::new();
    wec_telemetry::json::escape_into(&mut rustc, &stamp.rustc);
    format!(
        "{{\"workload\": \"{w}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"nproc\": {}, \"rustc\": {rustc}, \"sim_revision\": {}, \"commit\": \"{}\", \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"misses\": {misses}, \"metrics\": {metrics}}}",
        o.seed,
        o.seconds,
        u8::from(o.traced),
        o.smoke,
        stamp.nproc,
        wec_core::SIM_REVISION,
        stamp.commit,
        r.correct(),
        r.attempted,
        r.failed
    )
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "sim-fig11" => sims::sim_fig11(ctx),
        "replay-geometry" => sims::replay_geometry(ctx),
        "serve-warm" => serve::serve_warm(ctx),
        "serve-routed" => serve::serve_routed(ctx),
        other => unreachable!("workload {other} is not in the table"),
    }
}

fn run(o: &Opts) -> Result<bool, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    if o.workloads.iter().any(|w| w.starts_with("serve")) {
        let target = bin_dir
            .parent()
            .ok_or("executable is not in a target directory")?;
        daemon::build_daemons(repo, target).map_err(|e| e.to_string())?;
    }
    let stamp = Stamp::take(repo);
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let mut all_correct = true;
    for &w in &o.workloads {
        let dir = o.out.join("run").join(w);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ctx = Ctx {
            seed: o.seed,
            seconds: o.seconds,
            traced: o.traced,
            smoke: o.smoke,
            out: o.out.clone(),
            dir,
            bin_dir: bin_dir.clone(),
            spans: Spans::new(o.traced),
        };
        let r = run_workload(w, &ctx);
        for (name, value, unit) in &r.readings {
            println!("{w} {name} {value} {unit}");
        }
        for m in &r.misses {
            eprintln!("{w}: correctness gate failed: {m}");
        }
        let records = o.out.join("records.jsonl");
        let line = record_line(w, o, &stamp, &r) + "\n";
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&records)
            .map_err(|e| format!("{}: {e}", records.display()))?;
        std::io::Write::write_all(&mut f, line.as_bytes())
            .map_err(|e| format!("{}: {e}", records.display()))?;
        if o.traced {
            let path = o.out.join(format!("{w}-s{}.spans.jsonl", o.seed));
            ctx.spans
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{}", result_line(&r, o.traced));
        all_correct &= r.correct();
    }
    Ok(all_correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        Some("goldens") => {
            print!("{}", goldens::generate(HOSTS));
            return;
        }
        _ => {}
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wec_benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str) -> Report {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("smoke-test");
        let ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            traced: true,
            smoke: true,
            dir: out.join(workload),
            out,
            bin_dir: PathBuf::new(),
            spans: Spans::new(true),
        };
        let r = run_workload(workload, &ctx);
        assert!(r.correct(), "{workload}: {:?}", r.misses);
        assert!(ctx.spans.len() > 0);
        r
    }

    /// A few points of each in-process workload, end to end through the
    /// same code the measured runs use.
    #[test]
    fn smoke_runs_of_the_in_process_workloads_pass_their_gates() {
        for w in ["sim-fig11", "replay-geometry"] {
            let r = smoke(w);
            for m in &END_TO_END {
                assert!(
                    r.get(m.name).is_some_and(|v| v > 0.0),
                    "{w}: {} missing",
                    m.name
                );
            }
            let line = result_line(&r, true);
            let v = wec_telemetry::json::parse(&line).unwrap();
            let metrics = v.get("metrics").unwrap();
            assert!(PER_LAYER.iter().all(|m| metrics.get(m.name).is_some()));
            assert!(r.get("core.minst_per_s").is_some_and(|v| v > 0.0), "{w}");
        }
    }

    #[test]
    fn the_result_line_carries_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("p50_ms", 12.25, "ms");
        r.put("not-a-contract-metric", 1.0, "count");
        r.put("nan", f64::NAN, "ms");
        let v = wec_telemetry::json::parse(&result_line(&r, false)).unwrap();
        let wec_telemetry::json::Json::Obj(fields) = v.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let p50 = v.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(|x| x.as_f64()), Some(12.25));
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
        assert!(r.get("nan").is_none());
    }

    #[test]
    fn options_parse_the_driver_interface() {
        let args: Vec<String> = "--workload serve-warm --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_opts(&args).unwrap();
        assert_eq!(
            (o.workloads, o.seed, o.seconds, o.traced),
            (vec!["serve-warm"], 7, 15.0, true)
        );
        assert!(parse_opts(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_opts(&["--trace".into(), "2".into()]).is_err());
    }
}
