//! The two service workloads: `wec_serve` alone answering warm repeats,
//! and `wec_router` in front of two `wec_serve` backends answering a mix
//! of warm, on-disk and never-seen jobs.  Load comes from this process: an
//! open-loop schedule of Poisson arrivals drawn from the seed, at most two
//! load threads each holding at most one connection.  Every job is timed
//! from the instant it was due, so a stalled daemon shows as latency on
//! the jobs queued behind the stall, and the generator's own lateness is
//! reported beside it.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wec_bench::{CfgKey, Runner, Suite};
use wec_common::rng::SplitMix64;
use wec_core::config::ProcPreset;
use wec_telemetry::json::{self, Json};
use wec_workloads::{Bench, Scale};

use crate::daemon::Daemon;
use crate::goldens::{self, Goldens, SIDES, WAYS};
use crate::http::{Client, Exchange};
use crate::spans::Spans;
use crate::stats::{median, quantile, tail};
use crate::{fan, ms, Ctx, Report, HOSTS, SETUPS};

/// Offered load of the serve-warm workload: the highest rate two load
/// threads sustain against the daemon's 20 ms accept poll.
const WARM_RATE: f64 = 50.0;
const ROUTED_RATE: f64 = 15.0;
/// The serve-warm ladder (traced run): rates tried from [`WARM_RATE`] up,
/// each for [`STEP_S`], stopping at the first that misses the limit.
const LADDER: [f64; 4] = [WARM_RATE, 100.0, 200.0, 400.0];
const STEP_S: f64 = 3.0;
const TAIL_LIMIT_MS: f64 = 50.0;
/// Every job must be terminal this long after the last one was due.
const DRAIN_GRACE: Duration = Duration::from_secs(60);
const POLL_GAP: Duration = Duration::from_millis(5);

/// One job configuration: a benchmark at scale 1 on a machine key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct JobCfg {
    bench: Bench,
    key: CfgKey,
}

impl JobCfg {
    fn body(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"scale\":1,\"cfg\":{{\"preset\":\"{}\",\"side_entries\":{},\"l1_ways\":{}}}}}",
            self.bench.name(),
            self.key.preset.name(),
            self.key.side_entries,
            self.key.l1_ways
        )
    }
}

/// What kind of answer a job should get.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// A repeat of a primed configuration: answered from the memo.
    Warm,
    /// First touch of a configuration already in the result store.
    Disk,
    /// A configuration nobody has simulated: queued, simulated, stored.
    Cold,
}

impl Class {
    fn source(self) -> &'static str {
        match self {
            Class::Warm => "mem",
            Class::Disk => "disk",
            Class::Cold => "cold",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Planned {
    due: Duration,
    cfg: usize,
    class: Class,
}

/// `n` Poisson arrivals at `rate`, conditioned on all falling within
/// `n / rate` seconds: sorted uniform offsets.  Every seed then offers
/// exactly the same rate, and only the arrival pattern varies.
fn arrivals(rng: &mut SplitMix64, rate: f64, n: usize) -> Vec<Duration> {
    let span = n as f64 / rate;
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit_f64() * span).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// A job as the load generator saw it.
#[derive(Clone, Debug)]
struct Outcome {
    due: Instant,
    sent: Instant,
    /// When a terminal answer arrived; `None` if none did.
    end: Option<Instant>,
    state: String,
    source: String,
    id: u64,
    polls: u32,
}

impl Outcome {
    fn latency_ms(&self) -> Option<f64> {
        self.end
            .filter(|_| self.state == "done")
            .map(|e| ms(e - self.due))
    }
}

/// Client-side timing of one HTTP exchange.
struct ExchangeTimes {
    connect_us: Option<f64>,
    first_byte_us: f64,
}

struct LoadRun {
    t0: Instant,
    jobs: Vec<Outcome>,
    exchanges: Vec<ExchangeTimes>,
}

impl LoadRun {
    /// Seconds from the schedule's start to the last terminal answer.
    fn wall_s(&self) -> f64 {
        let last = self.jobs.iter().filter_map(|o| o.end).max();
        let wall = last.map_or(Duration::ZERO, |e| e.saturating_duration_since(self.t0));
        wall.as_secs_f64().max(1e-9)
    }
}

fn job_fields(body: &str) -> Option<(u64, String, String)> {
    let v = json::parse(body).ok()?;
    Some((
        v.get("id")?.as_u64()?,
        v.get("state")?.as_str()?.to_string(),
        v.get("source")
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_string(),
    ))
}

fn terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

/// Record one exchange's phases as spans under a fresh exchange span.
fn exchange_spans(spans: &Spans, name: &str, parent: u64, req: u64, x: &Exchange) {
    let id = spans.open();
    if x.connected_new {
        spans.leaf("http.connect", id, req, x.start, x.connected);
    }
    spans.leaf("http.write", id, req, x.connected, x.written);
    spans.leaf("http.first_byte", id, req, x.written, x.first_byte);
    spans.leaf("http.body", id, req, x.first_byte, x.done);
    spans.close(id, name, parent, req, x.start, x.done);
}

/// One client plus the bookkeeping every exchange shares.
struct Load<'a> {
    spans: &'a Spans,
    exchanges: &'a Mutex<Vec<ExchangeTimes>>,
}

impl Load<'_> {
    fn send(
        &self,
        c: &mut Client,
        method: &str,
        path: &str,
        body: Option<&str>,
        parent: u64,
        req: u64,
    ) -> Result<Exchange, String> {
        let x = c
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        // One span name per endpoint: job ids become `<id>`.
        let endpoint: Vec<&str> = path
            .split('/')
            .map(|s| {
                if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
                    "<id>"
                } else {
                    s
                }
            })
            .collect();
        let name = format!("http.{method} {}", endpoint.join("/"));
        exchange_spans(self.spans, &name, parent, req, &x);
        self.exchanges
            .lock()
            .expect("exchange log poisoned")
            .push(ExchangeTimes {
                connect_us: x
                    .connected_new
                    .then(|| (x.connected - x.start).as_secs_f64() * 1e6),
                first_byte_us: (x.first_byte - x.written).as_secs_f64() * 1e6,
            });
        Ok(x)
    }
}

/// A submitted job still waiting for a terminal answer.
struct Pending {
    i: usize,
    o: Outcome,
    span: u64,
    next_poll: Instant,
}

/// Drive `plan` open-loop against `addr` with [`HOSTS`] load threads, each
/// holding at most one connection.  A free thread sends the next job once
/// it is due; otherwise it polls the unfinished job waiting longest, each
/// job at most every [`POLL_GAP`]; otherwise it sleeps until one of those
/// is due.  Sending goes first, so polling delays a due job only while
/// both threads are busy.
fn run_load(ctx: &Ctx, addr: &str, cfgs: &[JobCfg], plan: &[Planned]) -> LoadRun {
    let spans = &ctx.spans;
    let exchanges = Mutex::new(Vec::new());
    let load = Load {
        spans,
        exchanges: &exchanges,
    };
    // A short lead so the first job is not late by the thread start-up.
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + plan.last().map_or(Duration::ZERO, |p| p.due) + DRAIN_GRACE;
    let next = AtomicUsize::new(0);
    let open = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; plan.len()]);
    let pending: Mutex<Vec<Pending>> = Mutex::new(Vec::new());
    let finish = |i: usize, o: Outcome, span: u64| {
        spans.close(
            span,
            "client.job",
            0,
            i as u64,
            o.due,
            o.end.unwrap_or(o.sent),
        );
        outcomes.lock().expect("outcomes poisoned")[i] = Some(o);
    };
    let submit = |c: &mut Client, i: usize| {
        let due = t0 + plan[i].due;
        let span = spans.open();
        let sent = Instant::now();
        spans.leaf("client.wait", span, i as u64, due, sent);
        let mut o = Outcome {
            due,
            sent,
            end: None,
            state: "error".to_string(),
            source: String::new(),
            id: 0,
            polls: 0,
        };
        let body = cfgs[plan[i].cfg].body();
        if let Ok(x) = load.send(c, "POST", "/jobs", Some(&body), span, i as u64) {
            match (x.status, job_fields(&x.body)) {
                (200, Some((id, state, source))) => {
                    o.id = id;
                    if terminal(&state) {
                        (o.state, o.source, o.end) = (state, source, Some(x.done));
                    } else {
                        open.fetch_add(1, Ordering::SeqCst);
                        let next_poll = x.done + POLL_GAP;
                        let p = Pending {
                            i,
                            o,
                            span,
                            next_poll,
                        };
                        pending.lock().expect("pending poisoned").push(p);
                        return;
                    }
                }
                (status, _) => o.state = format!("http {status}"),
            }
        }
        finish(i, o, span);
    };
    let poll = |c: &mut Client, mut p: Pending| {
        if Instant::now() < deadline {
            p.o.polls += 1;
            let path = format!("/jobs/{}", p.o.id);
            let answer = load.send(c, "GET", &path, None, p.span, p.i as u64);
            p.next_poll = Instant::now() + POLL_GAP;
            if let Ok(x) = answer {
                if let Some((_, state, source)) = job_fields(&x.body) {
                    if terminal(&state) {
                        (p.o.state, p.o.source, p.o.end) = (state, source, Some(x.done));
                    }
                }
            }
            if p.o.end.is_none() {
                pending.lock().expect("pending poisoned").push(p);
                return;
            }
        }
        open.fetch_sub(1, Ordering::SeqCst);
        finish(p.i, p.o, p.span);
    };
    std::thread::scope(|s| {
        for _ in 0..HOSTS {
            s.spawn(|| {
                let mut c = Client::new(addr);
                loop {
                    let now = Instant::now();
                    let i = next.load(Ordering::SeqCst);
                    let next_due = plan.get(i).map(|p| t0 + p.due);
                    if next_due.is_some_and(|d| d <= now) {
                        if next
                            .compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            submit(&mut c, i);
                        }
                        continue;
                    }
                    let (ready, next_poll) = {
                        let mut q = pending.lock().expect("pending poisoned");
                        let oldest = (0..q.len()).min_by_key(|&k| q[k].next_poll);
                        match oldest {
                            Some(k) if q[k].next_poll <= now => (Some(q.swap_remove(k)), None),
                            Some(k) => (None, Some(q[k].next_poll)),
                            None => (None, None),
                        }
                    };
                    if let Some(p) = ready {
                        poll(&mut c, p);
                        continue;
                    }
                    if next_due.is_none() && open.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    let wake = [next_due, next_poll, Some(now + POLL_GAP)]
                        .into_iter()
                        .flatten()
                        .min()
                        .unwrap_or(now);
                    std::thread::sleep(wake.saturating_duration_since(now));
                }
            });
        }
    });
    let jobs = outcomes
        .into_inner()
        .expect("outcomes poisoned")
        .into_iter()
        .map(|o| o.expect("every planned job has an outcome"))
        .collect();
    LoadRun {
        t0,
        jobs,
        exchanges: exchanges.into_inner().expect("exchange log poisoned"),
    }
}

/// Latency and throughput readings of `jobs`, sent over `wall_s` seconds.
fn load_readings(r: &mut Report, jobs: &[Outcome], wall_s: f64, prefix: &str) {
    let lat: Vec<f64> = jobs.iter().filter_map(Outcome::latency_ms).collect();
    r.latencies(prefix, &lat);
    let rate = if prefix.is_empty() {
        "ops_per_s"
    } else {
        "achieved_rps"
    };
    r.put(format!("{prefix}{rate}"), lat.len() as f64 / wall_s, "1/s");
}

fn client_readings(r: &mut Report, jobs: &[Outcome], exchanges: &[ExchangeTimes]) {
    let connect: Vec<f64> = exchanges.iter().filter_map(|e| e.connect_us).collect();
    let first: Vec<f64> = exchanges.iter().map(|e| e.first_byte_us).collect();
    let late: Vec<f64> = jobs.iter().map(|o| ms(o.sent - o.due)).collect();
    r.put("client.requests", exchanges.len() as f64, "count");
    r.put("client.connections", connect.len() as f64, "count");
    for (name, v, unit) in [
        ("client.connect_us", &connect, "us"),
        ("client.first_byte_us", &first, "us"),
        ("client.lateness_ms", &late, "ms"),
    ] {
        if let (Some(p50), Some(t)) = (median(v), tail(v)) {
            r.put(format!("{name}_p50"), p50, unit);
            r.put(format!("{name}_tail"), t, unit);
        }
    }
    let polls: u32 = jobs.iter().map(|o| o.polls).sum();
    let per_job = polls as f64 / jobs.len().max(1) as f64;
    r.put("client.polls_per_job", per_job, "ratio");
}

/// Reference results for `cfgs`, simulated in-process through the
/// repository's own persistent result store under `dir`.  The store is
/// reused by later runs of the same simulator revision, so after the first
/// run this is a set of disk reads; its files also seed every daemon's
/// fresh store.
fn reference(cfgs: &[JobCfg], dir: &Path) -> Vec<String> {
    std::fs::create_dir_all(dir).expect("reference store directory");
    let suite = Suite::build(Scale::SMOKE);
    let runner = Runner::with_disk_dir(&suite, dir.to_path_buf());
    let points: Vec<(usize, CfgKey)> = cfgs
        .iter()
        .map(|c| (goldens::bench_index(c.bench), c.key))
        .collect();
    runner.warm_with_hosts(&points, HOSTS);
    points
        .iter()
        .map(|&(b, k)| runner.metrics(b, k).to_kv())
        .collect()
}

fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        std::fs::copy(e.path(), to.join(e.file_name()))?;
    }
    Ok(())
}

/// Submit every configuration once and wait for each to be done: after
/// this, the daemon answers them from its memo.
fn prime(ctx: &Ctx, addr: &str, cfgs: &[JobCfg]) -> Result<(), String> {
    let plan: Vec<Planned> = (0..cfgs.len())
        .map(|cfg| Planned {
            due: Duration::ZERO,
            cfg,
            class: Class::Warm,
        })
        .collect();
    let run = run_load(ctx, addr, cfgs, &plan);
    match run.jobs.iter().position(|o| o.state != "done") {
        None => Ok(()),
        Some(i) => Err(format!(
            "priming {} ended {}",
            cfgs[i].body(),
            run.jobs[i].state
        )),
    }
}

/// Counters from a `/stats` document (serve or router), by dotted path.
fn stat(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let x = Client::new(addr)
        .request("GET", path, None)
        .map_err(|e| format!("GET {path}: {e}"))?;
    json::parse(&x.body).map_err(|e| format!("GET {path}: {e}"))
}

/// `(sum, count)` of the `POST /jobs` handling-time histogram on a serve
/// daemon's `/metrics` page.
fn submit_us(addr: &str) -> (f64, f64) {
    let page = Client::new(addr)
        .request("GET", "/metrics", None)
        .map(|x| x.body)
        .unwrap_or_default();
    let find = |suffix: &str| {
        let name = format!("wec_serve_http_request_duration_us_{suffix}{{endpoint=\"submit\"}} ");
        page.lines()
            .find_map(|l| l.strip_prefix(name.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    (find("sum"), find("count"))
}

/// Gate: every served result, one job per distinct configuration, read
/// back through `GET /jobs/<id>/result.kv`, equals the golden digest, and
/// (where given) the in-process reference result byte for byte.
fn check_results(
    r: &mut Report,
    addr: &str,
    cfgs: &[JobCfg],
    plan: &[Planned],
    jobs: &[Outcome],
    reference: &HashMap<usize, String>,
    goldens: &Goldens,
) {
    let mut one: HashMap<usize, u64> = HashMap::new();
    for (p, o) in plan.iter().zip(jobs) {
        if o.state == "done" {
            one.entry(p.cfg).or_insert(o.id);
        }
    }
    let todo: Vec<(usize, u64)> = one.into_iter().collect();
    let checks = fan(todo.len(), HOSTS, |i| {
        let (cfg, id) = todo[i];
        let c = &cfgs[cfg];
        let x = Client::new(addr)
            .request("GET", &format!("/jobs/{id}/result.kv"), None)
            .map_err(|e| format!("result of job {id}: {e}"))?;
        if let Some(want) = reference.get(&cfg) {
            if *want != x.body {
                return Err(format!(
                    "{}: served result differs from the direct run",
                    c.body()
                ));
            }
        }
        goldens.check_sim(c.bench.name(), &c.key, &x.body)
    });
    for c in checks {
        r.gate(c);
    }
}

/// Gate: each job ended done, with the answer its class predicts.
fn check_classes(r: &mut Report, plan: &[Planned], jobs: &[Outcome]) {
    r.attempted += jobs.len() as u64;
    let failed = jobs.iter().filter(|o| o.state != "done").count();
    r.failed += failed as u64;
    if failed > 0 {
        r.gate(Err(format!(
            "{failed} of {} jobs did not complete",
            jobs.len()
        )));
    }
    let wrong = plan
        .iter()
        .zip(jobs)
        .filter(|(p, o)| o.state == "done" && o.source != p.class.source())
        .count();
    if wrong > 0 {
        r.gate(Err(format!(
            "{wrong} jobs were answered from another source than sent"
        )));
    }
}

/// `/stats` counters summed over the segments, with their reading names.
const STAT_DELTAS: [(&str, &str); 4] = [
    ("cache.cold", "serve.cache.cold"),
    ("cache.disk_hits", "serve.cache.disk_hits"),
    ("cache.mem_hits", "serve.cache.mem_hits"),
    ("jobs.deduped", "serve.deduped"),
];
const ROUTER_DELTAS: [&str; 3] = ["router.proxied", "router.retries", "router.resharded"];

/// What the segments of one run add up to.
#[derive(Default)]
struct Totals {
    plan: Vec<Planned>,
    jobs: Vec<Outcome>,
    exchanges: Vec<ExchangeTimes>,
    wall_s: f64,
    /// Summed `/stats` deltas, by reading name.
    deltas: BTreeMap<&'static str, f64>,
    /// Summed `(sum, count)` deltas of the daemons' `POST /jobs` handling
    /// time (µs), from `/metrics`.
    submit: (f64, f64),
    /// Queue wait and execution of cold jobs, from `jobs.jsonl` (ms).
    wait: Vec<f64>,
    exec: Vec<f64>,
    busy_ms: f64,
}

impl Totals {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.deltas.entry(name).or_insert(0.0) += v;
    }
}

/// Gates and deltas from the `/stats` snapshots around one segment.
/// `base` is the path prefix of the job/cache blocks (`""` for a serve
/// daemon, `"cluster."` for the router).
fn stats_deltas(
    r: &mut Report,
    t: &mut Totals,
    before: &Json,
    after: &Json,
    base: &str,
    plan: &[Planned],
) {
    let at = |doc: &Json, path: &str| stat(doc, &format!("{base}{path}"));
    let d: Vec<f64> = STAT_DELTAS
        .iter()
        .map(|(path, _)| at(after, path) - at(before, path))
        .collect();
    for ((_, name), v) in STAT_DELTAS.iter().zip(&d) {
        t.add(name, *v);
    }
    let count = |c: Class| plan.iter().filter(|p| p.class == c).count() as f64;
    let sent = [count(Class::Cold), count(Class::Disk), count(Class::Warm)];
    if d[..3] != sent {
        r.gate(Err(format!(
            "traffic mix: /stats counted cold {} disk {} mem {}, sent {} {} {}",
            d[0], d[1], d[2], sent[0], sent[1], sent[2]
        )));
    }
    let sources: f64 = [
        "cache.cold",
        "cache.disk_hits",
        "cache.mem_hits",
        "cache.spec_hits",
    ]
    .iter()
    .map(|p| at(after, p))
    .sum();
    if sources != at(after, "jobs.completed") {
        r.gate(Err(format!(
            "/stats: cold + disk + mem + spec = {sources} but completed = {}",
            at(after, "jobs.completed")
        )));
    }
    if !base.is_empty() {
        for name in ROUTER_DELTAS {
            t.add(name, stat(after, name) - stat(before, name));
        }
    }
}

/// Queue wait, execution and worker time of one segment's jobs, from the
/// daemons' `jobs.jsonl` records; `jobs` are (index into `logs`, the
/// daemon's own job id).
fn job_log_times(t: &mut Totals, logs: &[PathBuf], jobs: &[(usize, u64)]) {
    let mut records: HashMap<(usize, u64), Json> = HashMap::new();
    for (b, log) in logs.iter().enumerate() {
        let text = std::fs::read_to_string(log.join("jobs.jsonl")).unwrap_or_default();
        for line in text.lines() {
            if let Ok(v) = json::parse(line) {
                if let Some(id) = v.get("id").and_then(Json::as_u64) {
                    records.insert((b, id), v);
                }
            }
        }
    }
    for key in jobs {
        let Some(v) = records.get(key) else { continue };
        let at = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let run = at("finish_t_ms") - at("start_t_ms");
        t.busy_ms += run;
        if v.get("source").and_then(Json::as_str) == Some("cold") {
            t.wait.push(at("start_t_ms") - at("submit_t_ms"));
            t.exec.push(run);
        }
    }
}

/// Every reading of a finished set of segments; `workers` is the worker
/// count of one segment's daemons.
fn totals_readings(r: &mut Report, t: &Totals, workers: usize) {
    load_readings(r, &t.jobs, t.wall_s, "");
    client_readings(r, &t.jobs, &t.exchanges);
    class_p50(r, &t.plan, &t.jobs);
    for (name, v) in &t.deltas {
        r.put(*name, *v, "count");
    }
    if t.submit.1 > 0.0 {
        r.put("serve.post_jobs_us_mean", t.submit.0 / t.submit.1, "us");
    }
    for (name, v) in [
        ("serve.queue_wait_ms", &t.wait),
        ("serve.execute_ms", &t.exec),
    ] {
        if let (Some(p50), Some(p90)) = (median(v), quantile(v, 0.9)) {
            r.put(format!("{name}_p50"), p50, "ms");
            r.put(format!("{name}_p90"), p90, "ms");
        }
    }
    let busy = t.busy_ms / 1e3 / (workers as f64 * t.wall_s);
    r.put("serve.worker_busy_share", busy, "share");
}

fn class_p50(r: &mut Report, plan: &[Planned], jobs: &[Outcome]) {
    for (class, name) in [
        (Class::Warm, "serve.warm_p50_ms"),
        (Class::Disk, "serve.disk_p50_ms"),
        (Class::Cold, "serve.cold_p50_ms"),
    ] {
        let v: Vec<f64> = plan
            .iter()
            .zip(jobs)
            .filter(|(p, _)| p.class == class)
            .filter_map(|(_, o)| o.latency_ms())
            .collect();
        if let Some(m) = median(&v) {
            r.put(name, m, "ms");
        }
    }
}

/// The daemons one segment runs against: a serve daemon alone, or a
/// router in front of its backends.
struct Cluster {
    router: Option<Daemon>,
    backends: Vec<Daemon>,
    logs: Vec<PathBuf>,
}

impl Cluster {
    /// Where jobs are sent.
    fn addr(&self) -> &str {
        &self.router.as_ref().unwrap_or(&self.backends[0]).addr
    }

    /// The (log index, daemon-local id) of a job id this cluster issued:
    /// a router puts the 1-based backend index in the top 16 bits.
    fn local(&self, id: u64) -> (usize, u64) {
        match &self.router {
            Some(_) => (
                ((id >> 48) as usize).saturating_sub(1),
                id & ((1 << 48) - 1),
            ),
            None => (0, id),
        }
    }

    fn shutdown(self) -> Result<(), String> {
        for d in self.router.into_iter().chain(self.backends) {
            d.shutdown().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// One service workload: its configurations, its job plan, the in-process
/// reference results of the configurations that have them, and where
/// those are stored.
struct Service<'a> {
    cfgs: &'a [JobCfg],
    plan: &'a [Planned],
    refs: HashMap<usize, String>,
    ref_dir: PathBuf,
    workers: usize,
}

/// Set up, measure and drain [`SETUPS`] times.  Each set-up (a fresh store
/// seeded from the reference store, then `start`) is timed; its daemons
/// then serve one consecutive third of the plan.  Every daemon's 20 ms
/// accept poll runs at its own phase from start-up, and behind a router
/// the phase between the two polls sets the hop's latency for as long as
/// both live; pooling three start-ups keeps one draw of that phase from
/// deciding a run.  `last` runs on the final daemons before they drain.
fn run_segments(
    ctx: &Ctx,
    r: &mut Report,
    svc: &Service,
    mut start: impl FnMut(&Path, u64) -> Result<Cluster, String>,
    last: impl FnOnce(&mut Report, &Cluster),
) {
    let goldens = Goldens::load();
    r.gate(goldens.stale().map_or(Ok(()), Err));
    let mut t = Totals::default();
    let mut setup_s = Vec::new();
    let mut last = Some(last);
    for k in 0..SETUPS {
        let dir = ctx.dir.join(format!("setup{k}"));
        let t0 = Instant::now();
        let id = ctx.spans.open();
        let up = copy_store(&svc.ref_dir, &dir.join("store"))
            .map_err(|e| format!("seeding the store: {e}"))
            .and_then(|_| start(&dir, id));
        ctx.spans
            .close(id, "setup", 0, k as u64, t0, Instant::now());
        setup_s.push(t0.elapsed().as_secs_f64());
        let cluster = match up {
            Ok(c) => c,
            Err(e) => {
                r.gate(Err(e));
                break;
            }
        };
        let bound = |k: usize| Duration::from_secs_f64(ctx.seconds * k as f64 / SETUPS as f64);
        let seg: Vec<Planned> = svc
            .plan
            .iter()
            .filter(|p| p.due >= bound(k) && (k + 1 == SETUPS || p.due < bound(k + 1)))
            .map(|p| Planned {
                due: p.due - bound(k),
                ..*p
            })
            .collect();

        let addr = cluster.addr();
        let base = if cluster.router.is_some() {
            "cluster."
        } else {
            ""
        };
        let submit = |t: &mut Totals, sign: f64| {
            for b in &cluster.backends {
                let (sum, count) = submit_us(&b.addr);
                t.submit = (t.submit.0 + sign * sum, t.submit.1 + sign * count);
            }
        };
        let before = get_json(addr, "/stats");
        submit(&mut t, -1.0);
        let run = run_load(ctx, addr, svc.cfgs, &seg);
        let after = get_json(addr, "/stats");
        submit(&mut t, 1.0);
        check_classes(r, &seg, &run.jobs);
        match (&before, &after) {
            (Ok(b), Ok(a)) => stats_deltas(r, &mut t, b, a, base, &seg),
            (Err(e), _) | (_, Err(e)) => r.gate(Err(e.clone())),
        }
        check_results(r, addr, svc.cfgs, &seg, &run.jobs, &svc.refs, &goldens);
        if k + 1 == SETUPS {
            if let Some(f) = last.take() {
                f(r, &cluster);
            }
        }
        let ids: Vec<(usize, u64)> = run.jobs.iter().map(|o| cluster.local(o.id)).collect();
        let logs = cluster.logs.clone();
        r.gate(cluster.shutdown());
        job_log_times(&mut t, &logs, &ids);
        t.wall_s += run.wall_s();
        t.plan.extend(seg);
        t.jobs.extend(run.jobs);
        t.exchanges.extend(run.exchanges);
    }
    r.put("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    if !t.jobs.is_empty() {
        totals_readings(r, &t, svc.workers);
    }
}

fn spawn_serve(ctx: &Ctx, dir: &Path, workers: usize, log: &str) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir.join(log)).map_err(|e| e.to_string())?;
    let args = [
        "--workers".to_string(),
        workers.to_string(),
        "--store".to_string(),
        dir.join("store").display().to_string(),
        "--log-dir".to_string(),
        dir.join(log).display().to_string(),
    ];
    Daemon::spawn(
        &ctx.bin_dir.join("wec_serve"),
        &args,
        dir.join(format!("{log}.stderr")),
        "wec-serve listening on ",
    )
    .map_err(|e| e.to_string())
}

/// serve-warm's configurations: the 24 `181.mcf` side-structure and L1
/// geometries of the paper's `wth-wp-wec` machine.
fn warm_cfgs() -> Vec<JobCfg> {
    SIDES
        .iter()
        .flat_map(|&side| WAYS.iter().map(move |&ways| (side, ways)))
        .map(|(side, ways)| JobCfg {
            bench: Bench::Mcf,
            key: goldens::key(ProcPreset::WthWpWec, side, ways),
        })
        .collect()
}

/// `rate × seconds` repeats of `n_cfgs` warm configurations, uniformly.
fn warm_plan(rng: &mut SplitMix64, rate: f64, seconds: f64, n_cfgs: usize) -> Vec<Planned> {
    let n = (rate * seconds).round().max(1.0) as usize;
    arrivals(rng, rate, n)
        .into_iter()
        .map(|due| Planned {
            due,
            cfg: rng.below(n_cfgs as u64) as usize,
            class: Class::Warm,
        })
        .collect()
}

/// serve-warm: one `wec_serve --workers 2`, primed with 24 configurations
/// (set-up), then repeats of them at [`WARM_RATE`] for `--seconds`.
pub fn serve_warm(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let cfgs = warm_cfgs();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5e7e_0a3d);
    let plan = warm_plan(&mut rng, WARM_RATE, ctx.seconds, cfgs.len());
    let ref_dir = ctx.out.join("reference-store").join("serve-warm");
    let svc = Service {
        cfgs: &cfgs,
        plan: &plan,
        refs: reference(&cfgs, &ref_dir).into_iter().enumerate().collect(),
        ref_dir,
        workers: HOSTS,
    };
    run_segments(
        ctx,
        &mut r,
        &svc,
        |dir, parent| {
            let d = ctx.spans.time("daemon.spawn wec_serve", parent, 0, |_| {
                spawn_serve(ctx, dir, HOSTS, "logs")
            })?;
            prime(ctx, &d.addr, &cfgs)?;
            Ok(Cluster {
                router: None,
                backends: vec![d],
                logs: vec![dir.join("logs")],
            })
        },
        |r, c| {
            if ctx.traced {
                ladder(ctx, r, c.addr(), &cfgs, &mut rng);
            }
        },
    );
    r
}

/// The traced run's rate ladder: the [`LADDER`] steps in turn, stopping
/// at the first whose tail exceeds [`TAIL_LIMIT_MS`] or that loses a job.
/// `serve.max_rps` is the last step that held (0 if none did).
fn ladder(ctx: &Ctx, r: &mut Report, addr: &str, cfgs: &[JobCfg], rng: &mut SplitMix64) {
    let step_s = if ctx.smoke { 0.5 } else { STEP_S };
    let mut max_rps = 0.0;
    for rate in LADDER {
        let plan = warm_plan(rng, rate, step_s, cfgs.len());
        let run = run_load(ctx, addr, cfgs, &plan);
        let prefix = format!("step.{rate}.");
        load_readings(r, &run.jobs, run.wall_s(), &prefix);
        let lost = run.jobs.iter().any(|o| o.state != "done");
        let tail = r.get(&format!("{prefix}tail_ms"));
        if lost || !tail.is_some_and(|t| t <= TAIL_LIMIT_MS) {
            break;
        }
        max_rps = rate;
    }
    r.put("serve.max_rps", max_rps, "1/s");
}

/// serve-routed's configuration space, each benchmark's 192 configurations
/// in a fixed shuffled order: positions 0..4 are the warm set, 4..36 the
/// on-disk set (taken round-robin over benchmarks), the rest the pool
/// never-seen jobs are drawn from.
const ROUTED_WARM_PER_BENCH: usize = 4;
const ROUTED_DISK_END: usize = 36;

fn routed_space() -> Vec<Vec<JobCfg>> {
    let mut rng = SplitMix64::new(0x00c0_ffee);
    Bench::ALL
        .iter()
        .map(|&b| {
            let mut v: Vec<JobCfg> = goldens::space()
                .into_iter()
                .filter(|&(x, _)| x == b)
                .map(|(bench, key)| JobCfg { bench, key })
                .collect();
            rng.shuffle(&mut v);
            v
        })
        .collect()
}

/// The serve-routed job list and plan for one seed: `cfgs` holds the warm
/// set, then the on-disk set, then the never-seen configurations.
fn routed_plan(seed: u64, seconds: f64) -> (Vec<JobCfg>, usize, Vec<Planned>) {
    let space = routed_space();
    let benches = space.len();
    let n = (ROUTED_RATE * seconds).round().max(1.0) as usize;
    let n_cold = (n as f64 * 0.10).round() as usize;
    let n_disk = ((n as f64 * 0.05).round() as usize)
        .min(benches * (ROUTED_DISK_END - ROUTED_WARM_PER_BENCH));
    let n_warm = n - n_cold - n_disk;
    let mut cfgs: Vec<JobCfg> = space
        .iter()
        .flat_map(|v| v[..ROUTED_WARM_PER_BENCH].iter().copied())
        .collect();
    let warm = cfgs.len();
    cfgs.extend((0..n_disk).map(|d| space[d % benches][ROUTED_WARM_PER_BENCH + d / benches]));
    let reference = cfgs.len();

    let mut rng = SplitMix64::new(seed ^ 0x2047_ed00);
    // Never-seen jobs: round-robin over benchmarks so every run simulates
    // the same mix of workloads; the seed picks which configurations.
    let mut pools: Vec<Vec<JobCfg>> = space
        .iter()
        .map(|v| v[ROUTED_DISK_END..].to_vec())
        .collect();
    for c in 0..n_cold {
        let pool = &mut pools[c % benches];
        let k = rng.below(pool.len() as u64) as usize;
        cfgs.push(pool.swap_remove(k));
    }
    let mut classes: Vec<Class> = std::iter::repeat_n(Class::Warm, n_warm)
        .chain(std::iter::repeat_n(Class::Disk, n_disk))
        .chain(std::iter::repeat_n(Class::Cold, n_cold))
        .collect();
    rng.shuffle(&mut classes);
    let (mut next_disk, mut next_cold) = (warm, reference);
    let plan = arrivals(&mut rng, ROUTED_RATE, n)
        .into_iter()
        .zip(classes)
        .map(|(due, class)| {
            let cfg = match class {
                Class::Warm => rng.below(warm as u64) as usize,
                Class::Disk => {
                    next_disk += 1;
                    next_disk - 1
                }
                Class::Cold => {
                    next_cold += 1;
                    next_cold - 1
                }
            };
            Planned { due, cfg, class }
        })
        .collect();
    (cfgs, reference, plan)
}

/// serve-routed: `wec_router` over two `wec_serve --workers 1` on one
/// shared store.  Set-up seeds the store with the on-disk set and primes
/// the warm set; the measured phase sends 85% warm repeats, 5% first
/// touches of on-disk configurations and 10% never-seen ones at
/// [`ROUTED_RATE`].
pub fn serve_routed(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let (cfgs, n_ref, plan) = routed_plan(ctx.seed, ctx.seconds);
    let warm: Vec<JobCfg> = cfgs[..ROUTED_WARM_PER_BENCH * Bench::ALL.len()].to_vec();
    let ref_dir = ctx.out.join("reference-store").join("serve-routed");
    let svc = Service {
        cfgs: &cfgs,
        plan: &plan,
        refs: reference(&cfgs[..n_ref], &ref_dir)
            .into_iter()
            .enumerate()
            .collect(),
        ref_dir,
        workers: 2,
    };
    run_segments(
        ctx,
        &mut r,
        &svc,
        |dir, parent| {
            let backends = (0..2)
                .map(|b| {
                    ctx.spans.time("daemon.spawn wec_serve", parent, b, |_| {
                        spawn_serve(ctx, dir, 1, &format!("backend{b}"))
                    })
                })
                .collect::<Result<Vec<Daemon>, String>>()?;
            let mut args = Vec::new();
            for b in &backends {
                args.extend(["--backend".to_string(), b.addr.clone()]);
            }
            let router = ctx.spans.time("daemon.spawn wec_router", parent, 0, |_| {
                Daemon::spawn(
                    &ctx.bin_dir.join("wec_router"),
                    &args,
                    dir.join("router.stderr"),
                    "wec-router listening on ",
                )
                .map_err(|e| e.to_string())
            })?;
            let c = Cluster {
                router: Some(router),
                backends,
                logs: (0..2).map(|b| dir.join(format!("backend{b}"))).collect(),
            };
            prime(ctx, c.addr(), &warm)?;
            Ok(c)
        },
        |r, c| {
            if ctx.traced {
                router_hop(ctx, r, c, &warm);
            }
        },
    );
    r
}

/// The router's own cost (traced run): every warm configuration is sent
/// through the router and straight to the backend that owns it (named by
/// the routed answer's id), alternating, and the medians are subtracted.
/// Each request waits a random 0-25 ms first, so neither kind lands at a
/// fixed phase of the daemons' 20 ms accept polls.
fn router_hop(ctx: &Ctx, r: &mut Report, cluster: &Cluster, warm: &[JobCfg]) {
    let exchanges = Mutex::new(Vec::new());
    let load = Load {
        spans: &ctx.spans,
        exchanges: &exchanges,
    };
    let mut rng = SplitMix64::new(ctx.seed ^ 0x0409_0bad);
    let mut send = |addr: &str, body: &str, req: u64| {
        std::thread::sleep(Duration::from_micros(rng.below(25_000)));
        let x = load
            .send(&mut Client::new(addr), "POST", "/jobs", Some(body), 0, req)
            .ok()?;
        Some((
            (x.done - x.start).as_secs_f64() * 1e6,
            job_fields(&x.body)?.0,
        ))
    };
    let (mut routed, mut direct) = (Vec::new(), Vec::new());
    let rounds = if ctx.smoke { 1 } else { 4 };
    for round in 0..rounds {
        for (i, cfg) in warm.iter().enumerate() {
            let req = (round * warm.len() + i) as u64;
            let body = cfg.body();
            let Some((us, id)) = send(cluster.addr(), &body, req) else {
                continue;
            };
            routed.push(us);
            let owner = ((id >> 48) as usize).checked_sub(1);
            let Some(b) = owner.and_then(|b| cluster.backends.get(b)) else {
                continue;
            };
            if let Some((us, _)) = send(&b.addr, &body, req) {
                direct.push(us);
            }
        }
    }
    if let (Some(a), Some(b)) = (median(&routed), median(&direct)) {
        r.put("router.hop_us_p50", a - b, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_requests_are_a_function_of_the_seed() {
        let (a_cfgs, a_ref, a_plan) = routed_plan(7, 10.0);
        let (b_cfgs, b_ref, b_plan) = routed_plan(7, 10.0);
        let (c_cfgs, _, c_plan) = routed_plan(8, 10.0);
        assert_eq!(a_cfgs, b_cfgs);
        assert_eq!(a_ref, b_ref);
        let same = |x: &[Planned], y: &[Planned]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.due == q.due && p.cfg == q.cfg && p.class == q.class)
        };
        assert!(same(&a_plan, &b_plan));
        assert!(
            !same(&a_plan, &c_plan) && a_cfgs != c_cfgs,
            "another seed, other jobs"
        );

        // The mix is exact: 150 jobs = 15 never-seen + 8 on disk + 127 warm.
        let count = |c: Class| a_plan.iter().filter(|p| p.class == c).count();
        assert_eq!(a_plan.len(), 150);
        assert_eq!(
            (count(Class::Cold), count(Class::Disk), count(Class::Warm)),
            (15, 8, 127)
        );
        // Warm and on-disk configurations are the same for every seed, so
        // their reference results are computed once; every never-seen and
        // on-disk job is a distinct configuration.
        assert_eq!(a_cfgs[..a_ref], c_cfgs[..a_ref]);
        let mut seen = std::collections::HashSet::new();
        for p in a_plan.iter().filter(|p| p.class != Class::Warm) {
            assert!(seen.insert(p.cfg), "configuration {} sent twice", p.cfg);
            assert!(p.cfg >= 24);
        }
        let distinct: std::collections::HashSet<&JobCfg> = a_cfgs.iter().collect();
        assert_eq!(distinct.len(), a_cfgs.len());
        // Never-seen jobs spread evenly over the six benchmarks.
        let cold_benches: Vec<Bench> = a_cfgs[a_ref..].iter().map(|c| c.bench).collect();
        for b in Bench::ALL {
            let k = cold_benches.iter().filter(|&&x| x == b).count();
            assert!((2..=3).contains(&k), "{b:?}: {k}");
        }
        assert!(a_plan.windows(2).all(|w| w[0].due < w[1].due));
    }

    #[test]
    fn job_bodies_parse_back_to_their_keys() {
        let c = JobCfg {
            bench: Bench::Gzip,
            key: goldens::key(ProcPreset::WthWpVc, 24, 2),
        };
        let v = json::parse(&c.body()).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("164.gzip"));
        let cfg = v.get("cfg").unwrap();
        assert_eq!(cfg.get("preset").and_then(Json::as_str), Some("wth-wp-vc"));
        assert_eq!(cfg.get("side_entries").and_then(Json::as_u64), Some(24));
        assert_eq!(cfg.get("l1_ways").and_then(Json::as_u64), Some(2));
    }
}
