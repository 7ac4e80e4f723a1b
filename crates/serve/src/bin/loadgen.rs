//! Open-loop load generator for the serve daemon.
//!
//! ```text
//! loadgen --addr HOST:PORT [--target HOST:PORT]... [--count N]
//!         [--rate JOBS_PER_SEC] [--concurrency N] [--bench NAME]
//!         [--scale N] [--spread K] [--pattern uniform|sweep-walk]
//!         [--prewarm] [--out BENCH_serve.json] [--min-rate F]
//! ```
//!
//! `--target` is `--addr`'s repeatable spelling: submissions round-robin
//! over every target given (each job is submitted *and* polled on the
//! same target, since job ids are not portable across entry points).  A
//! target may be a `wec-serve` daemon or a `wec_router` front — point
//! several targets at the routers of one cluster, or one target at a
//! single router, and the report stays comparable to a single-node run.
//! The report always carries a per-target split (`targets`: completed /
//! failed / rejected / spec-hit counts and latency quantiles per entry
//! point), and when any target answers `/stats` with a
//! `wec-router-stats-v1` document, a `cluster` record summarizing the
//! conserved cluster roll-up (backend count, routing counters, cache
//! split, throughput) rides along in the output.
//! Every request goes through the workspace's one HTTP client
//! ([`wec_serve::http::Client`]): one per target, shared by all sender
//! threads, so submissions and polls reuse kept-alive connections.
//!
//! Sends `--count` `POST /jobs` submissions at a scheduled `--rate`,
//! cycling over `--spread` distinct configurations (side-structure
//! geometry variations of the paper machine), and polls each returned job
//! to a terminal state.  `--pattern sweep-walk` replaces the uniform
//! cycle with per-connection walks along the sorted side-entries axis
//! (each connection pins one `l1_ways`, ping-pongs ±1 along the axis, and
//! takes a deterministic long jump every 7th step) — the access shape the
//! daemon's `--speculate` neighbourhood rule is built for, so the report's
//! `spec_hit_rate` measures how many demand jobs were answered from
//! already-speculated results (`source:"spec"`).  The generator is *open-loop*: request `i` is due
//! at `t0 + i/rate` regardless of how the daemon is keeping up, and
//! latency is measured from that due time — so a daemon that falls behind
//! shows queueing delay instead of hiding it (closed-loop generators
//! coordinate with the victim and under-report).
//!
//! `--prewarm` first submits each distinct configuration once and waits
//! for it (cold sims), so the timed phase measures the dedup/memo path —
//! the serving-throughput number the acceptance gate cares about.
//! Results (throughput, latency percentiles, outcome counts) go to
//! `--out` as a `wec-bench-serve-v1` document and to stdout.  Latency is
//! collected in the same [`wec_telemetry::hist::Log2Histogram`] the
//! daemon's `/metrics` endpoint uses, and the full histogram rides along
//! in the report (`latency_hist`) — so client-observed and
//! server-observed distributions compare bucket for bucket.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wec_serve::http::Client;
use wec_telemetry::hist::Log2Histogram;
use wec_telemetry::json::{self, Json};

/// How long one exchange may take before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One exchange on `client`'s pooled connections: the status and the body.
fn http(
    client: &Client,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let resp = client.request(method, path, body.map(str::as_bytes), TIMEOUT)?;
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    Ok((resp.status, text))
}

/// Poll `GET /jobs/<id>` until terminal; returns the final state name and
/// the result source (`cold`/`disk`/`mem`/`spec`, `none` while absent).
fn poll_terminal(client: &Client, id: u64) -> io::Result<(String, String)> {
    loop {
        let (status, body) = http(client, "GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("GET /jobs/{id} -> {status}"),
            ));
        }
        let v = json::parse(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if state == "done" || state == "failed" || state == "cancelled" {
            let source = v
                .get("source")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string();
            return Ok((state, source));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn record_id_state(body: &str) -> Option<(u64, String, String)> {
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

/// Per-entry-point accounting, so a sharded run shows where the latency
/// lives (one slow backend hides inside cluster-wide quantiles).
struct TargetTally {
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    spec_hits: AtomicU64,
    latencies: Mutex<Log2Histogram>,
}

impl TargetTally {
    fn new() -> TargetTally {
        TargetTally {
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            spec_hits: AtomicU64::new(0),
            latencies: Mutex::new(Log2Histogram::new()),
        }
    }
}

/// If any target's `/stats` is a router document, compact its conserved
/// cluster roll-up into a `cluster` record for the report.
fn cluster_record(clients: &[Client]) -> Option<String> {
    for c in clients {
        let t = c.addr();
        let Ok((200, body)) = http(c, "GET", "/stats", None) else {
            continue;
        };
        if wec_telemetry::schema::validate_router_stats_json(&body).is_err() {
            continue;
        }
        let v = json::parse(&body).ok()?;
        let n = |path: &[&str]| -> u64 {
            let mut cur = &v;
            for p in path {
                match cur.get(p) {
                    Some(next) => cur = next,
                    None => return 0,
                }
            }
            cur.as_u64().unwrap_or(0)
        };
        let backends = v
            .get("backends")
            .and_then(Json::as_array)
            .map(|b| b.len())
            .unwrap_or(0);
        let scraped = v
            .get("backends")
            .and_then(Json::as_array)
            .map(|b| b.iter().filter(|e| e.get("stats").is_some()).count())
            .unwrap_or(0);
        let jobs_per_sec = v
            .get("cluster")
            .and_then(|c| c.get("throughput"))
            .and_then(|t| t.get("jobs_per_sec"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        return Some(format!(
            "{{\"scraped_from\": \"{t}\", \"backends\": {backends}, \"scraped\": {scraped}, \
             \"router\": {{\"proxied\": {}, \"retries\": {}, \"resharded\": {}, \
             \"rejected\": {}}}, \
             \"jobs\": {{\"submitted\": {}, \"deduped\": {}, \"completed\": {}, \"failed\": {}}}, \
             \"cache\": {{\"cold\": {}, \"disk_hits\": {}, \"mem_hits\": {}, \"spec_hits\": {}}}, \
             \"jobs_per_sec\": {jobs_per_sec:.3}}}",
            n(&["router", "proxied"]),
            n(&["router", "retries"]),
            n(&["router", "resharded"]),
            n(&["router", "rejected"]),
            n(&["cluster", "jobs", "submitted"]),
            n(&["cluster", "jobs", "deduped"]),
            n(&["cluster", "jobs", "completed"]),
            n(&["cluster", "jobs", "failed"]),
            n(&["cluster", "cache", "cold"]),
            n(&["cluster", "cache", "disk_hits"]),
            n(&["cluster", "cache", "mem_hits"]),
            n(&["cluster", "cache", "spec_hits"]),
        ));
    }
    None
}

fn main() {
    let mut targets: Vec<String> = Vec::new();
    let mut count: usize = 200;
    let mut rate: f64 = 100.0;
    let mut concurrency: usize = 8;
    let mut bench = "181.mcf".to_string();
    let mut scale: u32 = 1;
    let mut spread: usize = 4;
    let mut pattern = "uniform".to_string();
    let mut prewarm = false;
    let mut out = "BENCH_serve.json".to_string();
    let mut min_rate: f64 = 0.0;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
                .clone()
        };
        match a.as_str() {
            "--addr" => targets.push(value("--addr")),
            "--target" => targets.push(value("--target")),
            "--count" => count = value("--count").parse().expect("--count N"),
            "--rate" => rate = value("--rate").parse().expect("--rate F"),
            "--concurrency" => {
                concurrency = value("--concurrency").parse().expect("--concurrency N")
            }
            "--bench" => bench = value("--bench"),
            "--scale" => scale = value("--scale").parse().expect("--scale N"),
            "--spread" => spread = value("--spread").parse().expect("--spread K"),
            "--pattern" => pattern = value("--pattern"),
            "--prewarm" => prewarm = true,
            "--out" => out = value("--out"),
            "--min-rate" => min_rate = value("--min-rate").parse().expect("--min-rate F"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        !targets.is_empty(),
        "loadgen requires --addr or --target HOST:PORT"
    );
    for (i, t) in targets.iter().enumerate() {
        assert!(
            !targets[..i].contains(t),
            "duplicate target {t:?} would double its share of the load"
        );
    }
    assert!(rate > 0.0 && count > 0 && concurrency > 0, "bad load shape");
    assert!(
        (1..=24).contains(&spread),
        "--spread must be 1..=24 distinct configurations"
    );
    assert!(
        pattern == "uniform" || pattern == "sweep-walk",
        "--pattern must be uniform or sweep-walk"
    );
    let sweep_walk = pattern == "sweep-walk";

    // The distinct configuration mix: side-structure entry counts crossed
    // with L1 associativity, the same axes the replay sweeps use.
    const SIDES: [u8; 8] = [8, 16, 32, 64, 2, 4, 24, 128];
    const WAYS: [u8; 3] = [1, 2, 4];
    let bodies: Vec<String> = (0..spread)
        .map(|i| {
            format!(
                "{{\"bench\":\"{bench}\",\"scale\":{scale},\"cfg\":{{\"side_entries\":{},\"l1_ways\":{}}}}}",
                SIDES[i % SIDES.len()],
                WAYS[(i / SIDES.len()) % WAYS.len()]
            )
        })
        .collect();

    // One client per target, shared by every sender thread.
    let clients: Vec<Client> = targets.iter().map(|t| Client::new(t)).collect();
    if prewarm {
        eprintln!("prewarming {spread} configuration(s) on {bench} at scale {scale}…");
        let t = Instant::now();
        for (j, body) in bodies.iter().enumerate() {
            let client = &clients[j % clients.len()];
            let (status, resp) = http(client, "POST", "/jobs", Some(body)).expect("prewarm POST");
            assert_eq!(status, 200, "prewarm rejected: {resp}");
            let (id, state, _source) = record_id_state(&resp).expect("prewarm: bad record");
            if state != "done" {
                let (state, _source) = poll_terminal(client, id).expect("prewarm poll");
                assert_eq!(state, "done", "prewarm job {id} failed");
            }
        }
        eprintln!("prewarm done in {:.1}s", t.elapsed().as_secs_f64());
    }

    eprintln!(
        "open-loop: {count} jobs at {rate:.0}/s over {concurrency} connections \
         to {} target(s) ({spread} distinct cfgs, {pattern} pattern)…",
        targets.len()
    );
    let next = AtomicUsize::new(0);
    let tallies: Vec<TargetTally> = targets.iter().map(|_| TargetTally::new()).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..concurrency {
            let (clients, bench, bodies) = (&clients, &bench, &bodies);
            let (next, tallies) = (&next, &tallies);
            s.spawn(move || {
                // The sweep-walk state: this connection pins one L1
                // associativity and ping-pongs ±1 along the sorted
                // side-entries axis, with a deterministic long jump every
                // 7th step that no neighbourhood covers.
                const WALK_SIDES: [u8; 8] = [2, 4, 8, 16, 24, 32, 64, 128];
                let walk_ways = WAYS[tid % WAYS.len()];
                let mut idx = tid % WALK_SIDES.len();
                let mut dir: isize = 1;
                let mut step: usize = 0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        return;
                    }
                    // Round-robin over entry points; the job is polled on
                    // the target that accepted it (ids are per-entry-point).
                    let which = i % clients.len();
                    let client = &clients[which];
                    let tally = &tallies[which];
                    let due = Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let body = if sweep_walk {
                        let b = format!(
                            "{{\"bench\":\"{bench}\",\"scale\":{scale},\"cfg\":{{\"side_entries\":{},\"l1_ways\":{walk_ways}}}}}",
                            WALK_SIDES[idx]
                        );
                        step += 1;
                        if step.is_multiple_of(7) {
                            idx = (idx + 5) % WALK_SIDES.len();
                        } else {
                            if idx == 0 {
                                dir = 1;
                            } else if idx == WALK_SIDES.len() - 1 {
                                dir = -1;
                            }
                            idx = (idx as isize + dir) as usize;
                        }
                        b
                    } else {
                        bodies[i % bodies.len()].clone()
                    };
                    let outcome = http(client, "POST", "/jobs", Some(&body)).and_then(
                        |(status, resp)| match status {
                            200 => {
                                let (id, state, source) =
                                    record_id_state(&resp).ok_or_else(|| {
                                        io::Error::new(io::ErrorKind::InvalidData, "bad record")
                                    })?;
                                if state == "done" {
                                    Ok(("done".to_string(), source))
                                } else {
                                    poll_terminal(client, id)
                                }
                            }
                            503 => Ok(("rejected".to_string(), String::new())),
                            other => Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("POST /jobs -> {other}: {resp}"),
                            )),
                        },
                    );
                    match &outcome {
                        Ok((state, source)) if state == "done" => {
                            let lat = t0.elapsed().saturating_sub(due);
                            tally
                                .latencies
                                .lock()
                                .unwrap()
                                .observe(lat.as_micros() as u64);
                            tally.completed.fetch_add(1, Ordering::Relaxed);
                            if source == "spec" {
                                tally.spec_hits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok((state, _)) if state == "rejected" => {
                            tally.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            tally.failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("loadgen: job {i}: {e}");
                            tally.failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut rejected = 0u64;
    let mut spec_hits = 0u64;
    let mut hist = Log2Histogram::new();
    let mut targets_json = String::from("[");
    for (i, tally) in tallies.iter().enumerate() {
        let (c, f, r, sp) = (
            tally.completed.load(Ordering::Relaxed),
            tally.failed.load(Ordering::Relaxed),
            tally.rejected.load(Ordering::Relaxed),
            tally.spec_hits.load(Ordering::Relaxed),
        );
        let h = tally.latencies.lock().unwrap();
        completed += c;
        failed += f;
        rejected += r;
        spec_hits += sp;
        hist.merge(&h);
        if i > 0 {
            targets_json.push_str(", ");
        }
        targets_json.push_str(&format!(
            "{{\"addr\": \"{}\", \"completed\": {c}, \"failed\": {f}, \"rejected\": {r}, \
             \"spec_hits\": {sp}, \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"max\": {}}}}}",
            targets[i],
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            h.max(),
        ));
    }
    targets_json.push(']');
    let jobs_per_sec = completed as f64 / wall_s.max(1e-9);
    let spec_hit_rate = if completed > 0 {
        spec_hits as f64 / completed as f64
    } else {
        0.0
    };
    // Quantiles off the log2 histogram (good to a factor of two, same
    // resolution the daemon reports); min/max are exact.
    let (p50, p90, p99, max) = (
        hist.quantile(0.50),
        hist.quantile(0.90),
        hist.quantile(0.99),
        hist.max(),
    );

    // A router entry point contributes the cluster's conserved roll-up.
    let cluster = cluster_record(&clients);
    let mut doc = format!(
        "{{\n  \"schema\": \"wec-bench-serve-v1\",\n  \"bench\": \"{bench}\",\n  \
         \"scale\": {scale},\n  \"spread\": {spread},\n  \"pattern\": \"{pattern}\",\n  \
         \"count\": {count},\n  \
         \"rate\": {rate:.1},\n  \"concurrency\": {concurrency},\n  \"prewarm\": {prewarm},\n  \
         \"wall_s\": {wall_s:.3},\n  \"completed\": {completed},\n  \"failed\": {failed},\n  \
         \"rejected\": {rejected},\n  \"spec_hits\": {spec_hits},\n  \
         \"spec_hit_rate\": {spec_hit_rate:.4},\n  \"jobs_per_sec\": {jobs_per_sec:.1},\n  \
         \"latency_us\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"max\": {max}}},\n  \
         \"latency_hist\": {},\n  \"targets\": {targets_json}",
        hist.to_json()
    );
    if let Some(c) = &cluster {
        doc.push_str(&format!(",\n  \"cluster\": {c}"));
    }
    doc.push_str("\n}\n");
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "{completed}/{count} completed ({failed} failed, {rejected} rejected, \
         {spec_hits} spec hits) in {wall_s:.2}s \
         -> {jobs_per_sec:.1} jobs/s; latency p50 {p50}us p90 {p90}us p99 {p99}us max {max}us"
    );
    println!("wrote {out}");
    if min_rate > 0.0 && (jobs_per_sec < min_rate || failed > 0) {
        eprintln!(
            "FAIL: sustained {jobs_per_sec:.1} jobs/s with {failed} failures \
             (floor {min_rate:.1} jobs/s, 0 failures)"
        );
        std::process::exit(1);
    }
}
