//! End-to-end speculation tests: live daemons on ephemeral ports, one
//! with `--speculate` semantics (ServeConfig.spec set) and one without,
//! driven over real sockets with real scale-1 simulations.
//!
//! The battery pins the four acceptance properties of the speculative
//! prefetch subsystem:
//!
//! 1. **Off-mode identity** — with speculation off, every artifact
//!    (`/stats`, `/metrics`, `jobs.jsonl`, the dashboard feed) is the
//!    plain v1 surface with no speculation token anywhere.
//! 2. **Byte-identical hits** — a sweep-walk demand stream is answered
//!    mostly from speculated results (`source:"spec"`), and every such
//!    answer is byte-identical to the same point computed on demand by a
//!    speculation-free server.
//! 3. **Conservation on every scrape** — at every `/metrics` sample,
//!    `hit + waste + cancelled + pending == started`.
//! 4. **Race safety** — concurrent demands for an already-speculated
//!    point never recompute it: one claims the parked result, the other
//!    is an ordinary memo hit.

mod support;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use support::*;
use wec_serve::{ServeConfig, ServerState, SpecConfig};
use wec_telemetry::json;
use wec_telemetry::schema;

fn spec_cfg(store: PathBuf, log_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 16,
        store: Some(store),
        log_dir,
        spec: Some(SpecConfig {
            queue_cap: 16,
            inflight_max: 2,
            ttl: Duration::from_secs(600),
        }),
        ..ServeConfig::default()
    }
}

/// Wait until all work (demand and speculative) has settled so parked
/// results are actually parked before the next demand arrives.
fn settle(state: &Arc<ServerState>) {
    let deadline = Instant::now() + Duration::from_secs(300);
    while state.outstanding() > 0 {
        assert!(Instant::now() < deadline, "speculation never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Read one exact counter off a Prometheus-style page; 0 when absent.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|rest| rest.trim().parse().unwrap())
        .unwrap_or(0)
}

/// Assert the speculation ledger conserves on a live `/metrics` scrape.
fn assert_scrape_conserves(addr: SocketAddr) {
    let (s, page) = request(addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    let started = metric(&page, "wec_serve_spec_started_total");
    let hit = metric(&page, "wec_serve_spec_hit_total");
    let waste = metric(&page, "wec_serve_spec_waste_total");
    let cancelled = metric(&page, "wec_serve_spec_cancelled_total");
    let pending = metric(&page, "wec_serve_spec_pending");
    assert_eq!(
        hit + waste + cancelled + pending,
        started,
        "spec ledger leaked on scrape:\n{page}"
    );
}

fn walk_body(side: u8) -> String {
    format!("{{\"bench\": \"181.mcf\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}, \"l1_ways\": 1}}}}")
}

/// Submit and poll one demand point; returns (source, result.kv bytes).
fn demand(addr: SocketAddr, body: &str) -> (String, String) {
    let (s, resp) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!(s, 200, "{resp}");
    let v = json::parse(&resp).unwrap();
    let id = u64_at(&v, &["id"]);
    let rec = if v.get("state").unwrap().as_str() == Some("done") {
        v
    } else {
        poll_terminal(addr, id)
    };
    schema::validate_job_record(&rec, "demand record").unwrap();
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    let source = rec.get("source").unwrap().as_str().unwrap().to_string();
    let (ks, kv) = request(addr, "GET", &format!("/jobs/{id}/result.kv"), None);
    assert_eq!(ks, 200);
    (source, kv)
}

#[test]
fn speculation_off_emits_the_v1_surface_with_no_spec_tokens() {
    let logs = scratch("off-logs");
    let (_state, addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        store: Some(scratch("off-store")),
        log_dir: Some(logs.clone()),
        ..ServeConfig::default()
    });

    let (src, kv) = demand(addr, &walk_body(8));
    assert_eq!(src, "cold");
    assert!(kv.contains("cycles "), "{kv:?}");

    // /stats is the v1 document, with no speculation field anywhere.
    let (s, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(s, 200);
    schema::validate_serve_stats_json(&stats).unwrap();
    assert!(
        stats.contains("\"schema\":\"wec-serve-stats-v1\""),
        "{stats}"
    );
    assert!(!stats.contains("spec"), "{stats}");

    // /metrics carries no speculation series and no spec source split.
    let (s, page) = request(addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    assert!(!page.contains("wec_serve_spec_"), "{page}");
    assert!(!page.contains("source=\"spec\""), "{page}");

    // The dashboard feed validates and embeds the same v1 stats.
    let (s, dash) = request(addr, "GET", "/dashboard/data", None);
    assert_eq!(s, 200);
    schema::validate_dashboard_data_json(&dash).unwrap();
    assert!(!dash.contains("speculative"), "{dash}");

    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();

    // The terminal log has no speculative records.
    let jobs = std::fs::read_to_string(logs.join("jobs.jsonl")).unwrap();
    schema::validate_jobs_jsonl(&jobs).unwrap();
    assert!(!jobs.contains("speculative"), "{jobs}");
    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    assert!(!stats.contains("spec"), "{stats}");
}

#[test]
fn sweep_walk_is_served_speculatively_and_byte_identical_to_on_demand() {
    let logs = scratch("walk-logs");
    let (on_state, on_addr, on_handle) =
        start(spec_cfg(scratch("walk-store-on"), Some(logs.clone())));
    let (_off_state, off_addr, off_handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        store: Some(scratch("walk-store-off")),
        log_dir: None,
        ..ServeConfig::default()
    });

    // One client walking the sorted side-entries axis — the shape the
    // predictor is built for.  After each demand the server is allowed to
    // settle so its speculations finish and park.
    let walk: [u8; 8] = [2, 4, 8, 16, 24, 32, 64, 128];
    let mut spec_hits = 0usize;
    for side in walk {
        let body = walk_body(side);
        let (source, kv) = demand(on_addr, &body);
        // Same point computed on demand by the speculation-free server.
        let (off_source, off_kv) = demand(off_addr, &body);
        assert_eq!(off_source, "cold");
        assert_eq!(kv, off_kv, "side {side}: speculated result diverged");
        if source == "spec" {
            spec_hits += 1;
        }
        assert_scrape_conserves(on_addr);
        settle(&on_state);
    }
    assert!(
        spec_hits * 100 >= walk.len() * 30,
        "only {spec_hits}/{} demand points were speculative warm hits",
        walk.len()
    );

    // The stats document is v2 and internally conserved (the validator
    // enforces both ledgers), and the dashboard feed carries it.
    let (s, stats) = request(on_addr, "GET", "/stats", None);
    assert_eq!(s, 200);
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(
        v.get("schema").unwrap().as_str(),
        Some("wec-serve-stats-v2")
    );
    assert_eq!(u64_at(&v, &["cache", "spec_hits"]), spec_hits as u64);
    let (s, dash) = request(on_addr, "GET", "/dashboard/data", None);
    assert_eq!(s, 200);
    schema::validate_dashboard_data_json(&dash).unwrap();

    let (s, _) = request(on_addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    on_handle.join().unwrap().unwrap();
    let (s, _) = request(off_addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    off_handle.join().unwrap().unwrap();

    // Drained logs validate with the speculative vocabulary.
    let jobs = std::fs::read_to_string(logs.join("jobs.jsonl")).unwrap();
    let report = schema::validate_jobs_jsonl(&jobs).unwrap();
    assert!(report.done >= walk.len() as u64, "{report:?}");
    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    schema::validate_serve_stats_json(&stats).unwrap();
    assert!(
        stats.contains("\"schema\":\"wec-serve-stats-v2\""),
        "{stats}"
    );
}

#[test]
fn racing_demands_for_a_speculated_point_never_recompute_it() {
    let (state, addr, handle) = start(spec_cfg(scratch("race-store"), None));

    // Teach the predictor a step so side 4 gets speculated, then let the
    // speculation finish and park.
    let (src, _) = demand(addr, &walk_body(2));
    assert_eq!(src, "cold");
    settle(&state);

    let (s, page) = request(addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    let cold_before = metric(&page, "wec_serve_jobs_completed_total{source=\"cold\"}");

    // Two concurrent demands for the speculated point: one claims the
    // parked result (source "spec"), the other reads the memo ("mem"),
    // and neither causes a recomputation.
    let body = walk_body(4);
    let (r1, r2) = std::thread::scope(|sc| {
        let a = sc.spawn(|| demand(addr, &body));
        let b = sc.spawn(|| demand(addr, &body));
        (a.join().unwrap(), b.join().unwrap())
    });
    let mut sources = [r1.0.as_str(), r2.0.as_str()];
    sources.sort();
    assert_eq!(sources, ["mem", "spec"], "exactly one spec claim");
    assert_eq!(r1.1, r2.1, "racing readers saw different bytes");

    let (s, page) = request(addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    let cold_after = metric(&page, "wec_serve_jobs_completed_total{source=\"cold\"}");
    assert_eq!(cold_before, cold_after, "the race caused a recomputation");
    assert_scrape_conserves(addr);

    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
    assert_eq!(state.outstanding(), 0);
}

#[test]
fn saturated_demand_latency_with_speculation_stays_close_to_off() {
    let bodies: Vec<String> = [8u8, 16, 32, 64].iter().map(|&s| walk_body(s)).collect();

    let p99_of = |addr: SocketAddr, state: &Arc<ServerState>| -> Duration {
        // Prewarm each distinct point so the measured phase exercises the
        // steady-state serving path on both servers.
        for b in &bodies {
            demand(addr, b);
        }
        settle(state);
        let lat: std::sync::Mutex<Vec<Duration>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for t in 0..4usize {
                let (lat, bodies) = (&lat, &bodies);
                sc.spawn(move || {
                    for i in 0..6usize {
                        let t0 = Instant::now();
                        demand(addr, &bodies[(t + i) % bodies.len()]);
                        lat.lock().unwrap().push(t0.elapsed());
                    }
                });
            }
        });
        let mut lat = lat.into_inner().unwrap();
        lat.sort();
        lat[(lat.len() * 99).div_ceil(100) - 1]
    };

    let (off_state, off_addr, off_handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        store: Some(scratch("p99-store-off")),
        log_dir: None,
        ..ServeConfig::default()
    });
    let p99_off = p99_of(off_addr, &off_state);
    let (s, _) = request(off_addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    off_handle.join().unwrap().unwrap();

    let (on_state, on_addr, on_handle) = start(spec_cfg(scratch("p99-store-on"), None));
    let p99_on = p99_of(on_addr, &on_state);
    assert_scrape_conserves(on_addr);
    let (s, _) = request(on_addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    on_handle.join().unwrap().unwrap();

    // The 100ms floor absorbs scheduler noise on tiny absolute latencies;
    // the ratio is the real gate once latencies are measurable.
    let budget = std::cmp::max(
        Duration::from_secs_f64(p99_off.as_secs_f64() * 1.15),
        p99_off + Duration::from_millis(100),
    );
    assert!(
        p99_on <= budget,
        "demand p99 degraded under speculation: off {p99_off:?}, on {p99_on:?}"
    );
}
