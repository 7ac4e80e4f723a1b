//! End-to-end cluster tests: a live router fronting live `wec-serve`
//! backends (and, for the failure matrix, hand-rolled fake backends),
//! driven over real sockets.
//!
//! The battery pins the sharding contract down:
//!
//! - racing identical submissions through the router executes exactly
//!   once, cluster-wide (cross-node dedup by rendezvous construction);
//! - a routed result is byte-identical to a direct backend fetch,
//!   including the raw `/events` chunk stream;
//! - queue-full `503`s retry in place and then pass through, draining
//!   and dead owners re-shard down the candidate order, and killing a
//!   backend mid-life re-shards onto the shared store without a second
//!   execution;
//! - a backend speculates its demands' sweep-axis neighbours, and a
//!   neighbour the router routes back to it arrives warm;
//! - every `/stats` scrape and the drain-time `router.json` conserve
//!   (cluster totals == sum of embedded backend ledgers).

#[path = "../../serve/tests/support/mod.rs"]
mod support;

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use support::*;
use wec_router::state::LOCAL_ID_BITS;
use wec_router::{BackendState, Ring, Router, RouterConfig, RouterState};
use wec_serve::http::read_request;
use wec_serve::predict::{neighbourhood, SIDE_AXIS, WAYS_AXIS};
use wec_serve::{JobSpec, ServeConfig, Server, SpecConfig};
use wec_telemetry::json::{self, Json};
use wec_telemetry::schema;

type ServerHandle = (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>);

/// A real backend on an ephemeral port.  Workers are pinned low so a
/// test cluster stays cheap.
fn start_backend(cfg: ServeConfig) -> ServerHandle {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn backend_cfg(store: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 16,
        store,
        log_dir: None,
        ..ServeConfig::default()
    }
}

type RouterHandle = (
    Arc<RouterState>,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
);

fn start_router(cfg: RouterConfig) -> RouterHandle {
    start_router_on("127.0.0.1:0", cfg)
}

fn start_router_on(bind: &str, cfg: RouterConfig) -> RouterHandle {
    let router = Router::bind(bind, cfg).unwrap();
    let state = router.state();
    let addr = router.local_addr().unwrap();
    let handle = std::thread::spawn(move || router.run());
    (state, addr, handle)
}

fn poll_until(what: &str, f: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A scripted backend: answers `/healthz` healthy, `POST /jobs` from the
/// script (`n` = how many submits it has seen before this one), 404 for
/// the rest.  It reads each request by its framing and closes the
/// connection after one answer, though no answer says so.  The thread is
/// detached; it dies with the test process.
fn fake_backend(
    on_jobs: impl Fn(u64) -> String + Send + Sync + 'static,
) -> (String, Arc<AtomicU64>) {
    let (addr, posts, _) = scripted_backend(false, on_jobs);
    (addr, posts)
}

/// [`fake_backend`], optionally answering every request a connection
/// carries (`keep_alive`).  Also counts the connections that carried a
/// submit.
fn scripted_backend(
    keep_alive: bool,
    on_jobs: impl Fn(u64) -> String + Send + Sync + 'static,
) -> (String, Arc<AtomicU64>, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (posts, submit_conns) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (seen, carried) = (posts.clone(), submit_conns.clone());
    let on_jobs = Arc::new(on_jobs);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(s) = conn else { continue };
            let (seen, carried, on_jobs) = (seen.clone(), carried.clone(), on_jobs.clone());
            std::thread::spawn(move || {
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                let mut r = BufReader::new(&s);
                let mut submits = 0;
                while let Ok(req) = read_request(&mut r) {
                    let resp = if req.path == "/healthz" {
                        let body = "{\"ok\":true,\"draining\":false}";
                        format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                    } else if req.method == "POST" && req.path == "/jobs" {
                        if submits == 0 {
                            carried.fetch_add(1, Ordering::SeqCst);
                        }
                        submits += 1;
                        on_jobs(seen.fetch_add(1, Ordering::SeqCst))
                    } else {
                        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string()
                    };
                    if (&s).write_all(resp.as_bytes()).is_err() || !keep_alive {
                        break;
                    }
                }
            });
        }
    });
    (addr, posts, submit_conns)
}

/// A scripted submit answer: a job record with local id `n`.
fn record_answer(n: u64) -> String {
    let body = format!("{{\"schema\":\"wec-job-record-v1\",\"id\":{n}}}");
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// An address that refuses connections: bind an ephemeral port, then
/// free it.
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

/// A scale-1 spec body whose rendezvous primary is backend `want` of
/// `addrs` — found by walking the side-structure axis (each point is an
/// independent coin flip across the ring).
fn spec_owned_by(addrs: &[String], want: usize) -> String {
    let ring = Ring::new(addrs).unwrap();
    for side in [2u8, 4, 8, 16, 24, 32, 64, 128] {
        for bench in ["164.gzip", "181.mcf"] {
            let body = format!(
                "{{\"bench\": \"{bench}\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}}}}}"
            );
            let key = JobSpec::parse(&body).unwrap().dedup_key();
            if ring.candidates(&key)[0] == want {
                return body;
            }
        }
    }
    panic!("no scale-1 spec is owned by backend {want} of {addrs:?}");
}

fn router_cfg(backends: Vec<String>) -> RouterConfig {
    RouterConfig {
        backends,
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    }
}

fn drain_backend(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

fn drain_router(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn racing_identical_submissions_execute_once_and_results_are_byte_identical() {
    let store = scratch("race-store");
    let (a, ha) = start_backend(backend_cfg(Some(store.clone())));
    let (b, hb) = start_backend(backend_cfg(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let (state, raddr, hr) = start_router(router_cfg(addrs.clone()));

    let body = spec_owned_by(&addrs, 0);
    let owner = a;

    // Race four identical submissions through the router concurrently.
    let records: Vec<(u16, String)> = {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let body = body.clone();
            joins.push(std::thread::spawn(move || {
                request(raddr, "POST", "/jobs", Some(&body))
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    };
    let mut ids = Vec::new();
    for (s, r) in &records {
        assert_eq!(*s, 200, "{r}");
        let rec = json::parse(r).unwrap();
        schema::validate_job_record(&rec, "routed record").unwrap();
        ids.push(u64_at(&rec, &["id"]));
    }
    // Every composite id names the owner (top bits = backend 0 + 1) and
    // cannot collide with a raw local id.
    for id in &ids {
        assert_eq!(id >> LOCAL_ID_BITS, 1, "id {id:#x} not owned by backend 0");
        assert!(*id >= 1 << LOCAL_ID_BITS);
    }

    let rec = poll_terminal(raddr, ids[0]);
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    let local = ids[0] & ((1 << LOCAL_ID_BITS) - 1);

    // Exactly-once, cluster-wide: one cold execution, everything else
    // deduped in flight or answered warm; the non-owner saw nothing.
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    let report = schema::validate_router_stats_json(&stats).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 2);
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["cluster", "cache", "cold"]), 1, "{stats}");
    assert_eq!(u64_at(&v, &["cluster", "jobs", "submitted"]), 4);
    let (sb, bstats) = request(b, "GET", "/stats", None);
    assert_eq!(sb, 200);
    assert_eq!(
        u64_at(&json::parse(&bstats).unwrap(), &["jobs", "submitted"]),
        0,
        "the non-owner must never see the key"
    );

    // Byte-identity: the routed result and the direct fetch are the same
    // bytes, and the raw routed /events response (status line, headers,
    // chunk framing and all) is exactly what the backend produces.
    let (sr, routed_kv) = request(raddr, "GET", &format!("/jobs/{}/result.kv", ids[0]), None);
    let (sd, direct_kv) = request(owner, "GET", &format!("/jobs/{local}/result.kv"), None);
    assert_eq!((sr, sd), (200, 200));
    assert_eq!(routed_kv, direct_kv);
    assert!(routed_kv.contains("cycles "), "{routed_kv:?}");
    let routed_events = send_raw(
        raddr,
        raw_request("GET", &format!("/jobs/{}/events", ids[0]), None).as_bytes(),
    );
    let direct_events = send_raw(
        owner,
        raw_request("GET", &format!("/jobs/{local}/events"), None).as_bytes(),
    );
    assert_eq!(routed_events, direct_events, "events must relay verbatim");
    let report = schema::validate_progress_jsonl(&parse_response(&routed_events).1).unwrap();
    assert_eq!((report.starts, report.finishes), (1, 1));

    assert_eq!(state.proxied.load(Ordering::SeqCst), 4);
    assert_eq!(state.resharded.load(Ordering::SeqCst), 0);
    drain_router(raddr, hr);
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn draining_owner_reshards_to_the_next_candidate() {
    // The owner answers every submit "I am draining"; the job must land
    // on the next rendezvous candidate and be counted as re-sharded.
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 503 Service Unavailable\r\nX-Wec-Draining: true\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"
            .to_string()
    });
    let (real, hreal) = start_backend(backend_cfg(None));
    let addrs = vec![fake.clone(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    // Only the initial health pass runs: the fake's /healthz claims "not
    // draining" (its submits say otherwise), and a later probe would, by
    // design, read that as a restart and clear the submit-path mark.
    cfg.health_interval = Duration::from_secs(3600);
    let (state, raddr, hr) = start_router(cfg);

    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2, "must be answered by backend 1");
    assert_eq!(posts.load(Ordering::SeqCst), 1, "draining burns no retries");
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    assert_eq!(state.retries.load(Ordering::SeqCst), 0);

    // The ring remembers: the fake is marked draining in /stats.
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_router_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    let states: Vec<&str> = v
        .get("backends")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.get("state").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(states[0], "draining", "{stats}");

    poll_terminal(raddr, id);
    drain_router(raddr, hr);
    drain_backend(real, hreal);
}

#[test]
fn queue_full_is_retried_in_place_then_passed_through() {
    // A saturated owner is retried in place (moving the key would forfeit
    // dedup) and its backpressure passes through after the retry budget.
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n"
            .to_string()
    });
    let mut cfg = router_cfg(vec![fake]);
    cfg.retries = 2;
    let (state, raddr, hr) = start_router(cfg);

    let raw = send_raw(
        raddr,
        raw_request(
            "POST",
            "/jobs",
            Some("{\"bench\": \"181.mcf\", \"scale\": 1}"),
        )
        .as_bytes(),
    );
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(
        raw.contains("Retry-After: 0"),
        "the owner's hint passes through: {raw}"
    );
    assert_eq!(posts.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
    assert_eq!(state.retries.load(Ordering::SeqCst), 2);
    assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    assert_eq!(
        state.resharded.load(Ordering::SeqCst),
        0,
        "answered by the primary"
    );
    drain_router(raddr, hr);
}

#[test]
fn dead_backends_are_skipped_and_connect_failures_reshard() {
    // (a) Dead at startup: the synchronous first health pass marks the
    // corpse, so the first submit never even tries it.
    let (real, hreal) = start_backend(backend_cfg(None));
    let addrs = vec![dead_addr(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 1;
    let (state, raddr, hr) = start_router(cfg);

    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2, "answered by the live backend");
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    let report = schema::validate_router_stats_json(&stats).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 1, "the corpse has no ledger to embed");
    assert!(stats.contains("\"state\":\"dead\""), "{stats}");
    poll_terminal(raddr, id);
    drain_router(raddr, hr);

    // (b) Dies mid-submit: with a high dead_after the health pass has not
    // condemned it, so the submit itself hits the connect failure and
    // re-shards on the spot.
    let addrs = vec![dead_addr(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 99;
    cfg.health_interval = Duration::from_secs(3600);
    let (state, raddr, hr) = start_router(cfg);
    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2);
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    poll_terminal(raddr, id);
    drain_router(raddr, hr);
    drain_backend(real, hreal);
}

#[test]
fn killing_a_backend_reshards_onto_the_shared_store_without_reexecution() {
    let store = scratch("kill-store");
    let (a, ha) = start_backend(backend_cfg(Some(store.clone())));
    let (b, hb) = start_backend(backend_cfg(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 2;
    let (state, raddr, hr) = start_router(cfg);

    // Cold on the owner, then capture the result bytes.
    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 1);
    let rec = poll_terminal(raddr, id);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    let (sk, kv_before) = request(raddr, "GET", &format!("/jobs/{id}/result.kv"), None);
    assert_eq!(sk, 200);

    // Kill the owner and wait for the health thread to notice.
    drain_backend(a, ha);
    poll_until("backend 0 condemned", || !state.ring.backends[0].routable());

    // The same key re-shards to the survivor, which answers from the
    // shared store — no second execution anywhere.
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let rec = json::parse(&rec).unwrap();
    let id2 = u64_at(&rec, &["id"]);
    assert_eq!(id2 >> LOCAL_ID_BITS, 2, "answered by the survivor");
    let rec = poll_terminal(raddr, id2);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("disk"));
    assert!(state.resharded.load(Ordering::SeqCst) >= 1);
    let (sb, bstats) = request(b, "GET", "/stats", None);
    assert_eq!(sb, 200);
    let v = json::parse(&bstats).unwrap();
    assert_eq!(u64_at(&v, &["cache", "cold"]), 0, "{bstats}");
    assert_eq!(u64_at(&v, &["cache", "disk_hits"]), 1, "{bstats}");

    // The re-served result is the stored bytes, unchanged.
    let (sk, kv_after) = request(raddr, "GET", &format!("/jobs/{id2}/result.kv"), None);
    assert_eq!(sk, 200);
    assert_eq!(kv_before, kv_after);

    drain_router(raddr, hr);
    drain_backend(b, hb);
}

#[test]
fn a_neighbour_speculated_by_its_owner_is_served_from_its_spec_lane() {
    let mk = |store| ServeConfig {
        spec: Some(SpecConfig {
            queue_cap: 8,
            inflight_max: 2,
            ttl: Duration::from_secs(120),
        }),
        ..backend_cfg(store)
    };
    let store = scratch("neighbour-store");
    let (a, ha) = start_backend(mk(Some(store.clone())));
    let (b, hb) = start_backend(mk(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let ring = Ring::new(&addrs).unwrap();
    let (_state, raddr, hr) = start_router(router_cfg(addrs));

    // A demand whose first neighbour (one side step up the axis) has the
    // same rendezvous owner, so that owner's own speculation covers it.
    let body = |side: u8, ways: u8| {
        format!(
            "{{\"bench\": \"164.gzip\", \"scale\": 1, \
             \"cfg\": {{\"side_entries\": {side}, \"l1_ways\": {ways}}}}}"
        )
    };
    let owner = |body: &str| ring.candidates(&JobSpec::parse(body).unwrap().dedup_key())[0];
    let (demand, next) = WAYS_AXIS
        .iter()
        .flat_map(|&w| SIDE_AXIS.windows(2).map(move |s| (s[0], s[1], w)))
        .map(|(lo, hi, w)| (body(lo, w), body(hi, w)))
        .find(|(d, n)| owner(d) == owner(n))
        .expect("some adjacent pair shares an owner");
    let first = &neighbourhood(&JobSpec::parse(&demand).unwrap())[0];
    assert_eq!(
        first.dedup_key(),
        JobSpec::parse(&next).unwrap().dedup_key()
    );
    let p_owner = owner(&demand);
    let owner_addr = [a, b][p_owner];

    let (s, rec) = request(raddr, "POST", "/jobs", Some(&demand));
    assert_eq!(s, 200, "{rec}");
    // On a fresh backend the demand is local job 1 and its first
    // neighbour's speculation job 2.  Let it finish unclaimed, so the
    // demand below hits a parked ready result, not an in-flight job.
    poll_until("first neighbour speculated", || {
        let (s, rec) = request(owner_addr, "GET", "/jobs/2", None);
        assert_eq!(s, 200, "{rec}");
        let v = json::parse(&rec).unwrap();
        assert_eq!(
            v.get("cfg").and_then(Json::as_str),
            Some(first.key.label().as_str())
        );
        v.get("state").and_then(Json::as_str) == Some("done")
    });

    // The neighbour's demand is routed to the owner and served warm from
    // its speculative lane.
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&next));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, p_owner as u64 + 1);
    let rec = poll_terminal(raddr, id);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("spec"), "{rec:?}");

    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_router_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["cluster", "cache", "spec_hits"]), 1, "{stats}");

    drain_router(raddr, hr);
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn every_scrape_conserves_and_drain_writes_validated_router_json() {
    let logs = scratch("conserve-logs");
    let store = scratch("conserve-store");
    let mk = |store| ServeConfig {
        spec: Some(SpecConfig::default()),
        ..backend_cfg(store)
    };
    let (a, ha) = start_backend(mk(Some(store.clone())));
    let (b, hb) = start_backend(mk(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let mut cfg = router_cfg(addrs);
    cfg.log_dir = Some(logs.clone());
    let (_state, raddr, hr) = start_router(cfg);

    // Walk the sweep's side axis with self-speculating backends churning
    // underneath; every interleaved scrape must conserve (the validator
    // enforces cluster == sum of embedded ledgers, spec block included).
    let mut ids = Vec::new();
    for side in [2u8, 4, 8, 16] {
        let body = format!(
            "{{\"bench\": \"164.gzip\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}}}}}"
        );
        let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
        assert_eq!(s, 200, "{rec}");
        ids.push(u64_at(&json::parse(&rec).unwrap(), &["id"]));

        let (ss, stats) = request(raddr, "GET", "/stats", None);
        assert_eq!(ss, 200);
        let report = schema::validate_router_stats_json(&stats).unwrap();
        assert_eq!(report.scraped, 2, "{stats}");

        // The Prometheus page holds the same invariant in one snapshot.
        let (sm, page) = request(raddr, "GET", "/metrics", None);
        assert_eq!(sm, 200);
        let series_sum = |name: &str| -> u64 {
            page.lines()
                .filter(|l| l.starts_with(name) && !l.starts_with('#'))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(
            series_sum("wec_router_backend_completed_total"),
            series_sum("wec_router_jobs_completed_total"),
            "{page}"
        );
        let started = series_sum("wec_router_spec_started_total");
        let accounted = series_sum("wec_router_spec_hit_total")
            + series_sum("wec_router_spec_waste_total")
            + series_sum("wec_router_spec_cancelled_total")
            + series_sum("wec_router_spec_pending_total");
        assert_eq!(started, accounted, "{page}");
    }
    for id in ids {
        poll_terminal(raddr, id);
    }

    drain_router(raddr, hr);
    let text = std::fs::read_to_string(logs.join("router.json")).unwrap();
    let report = schema::validate_router_stats_json(&text).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 2, "backends outlive the router's drain");
    assert!(report.completed >= 4, "{text}");
    let v = json::parse(&text).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn malformed_and_unroutable_requests_never_reach_a_backend() {
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n".to_string()
    });
    let (_state, raddr, hr) = start_router(router_cfg(vec![fake]));

    // Spec validation happens at the router: garbage gets a 400 here and
    // the backend never sees a byte of it.
    for body in [
        "{not json",
        "{\"bench\": \"999.nope\"}",
        "{\"bench\": \"181.mcf\", \"oops\": 1}",
    ] {
        let (s, _) = request(raddr, "POST", "/jobs", Some(body));
        assert_eq!(s, 400, "{body}");
    }
    // Ids no backend of this ring could have issued: a raw local id
    // (backend index 0) and an index beyond the ring.
    let (s, _) = request(raddr, "GET", "/jobs/12345", None);
    assert_eq!(s, 404);
    let (s, _) = request(
        raddr,
        "GET",
        &format!("/jobs/{}", 9u64 << LOCAL_ID_BITS),
        None,
    );
    assert_eq!(s, 404);
    let (s, _) = request(raddr, "GET", "/jobs/notanid", None);
    assert_eq!(s, 404);
    let (s, _) = request(raddr, "DELETE", "/stats", None);
    assert_eq!(s, 405);
    assert_eq!(posts.load(Ordering::SeqCst), 0);

    let (s, body) = request(raddr, "GET", "/healthz", None);
    assert_eq!(
        (s, body.as_str()),
        (200, "{\"ok\":true,\"draining\":false}")
    );
    drain_router(raddr, hr);
}

#[test]
fn idle_round_trips_never_wait_for_an_accept_poll() {
    let (baddr, hb) = start_backend(backend_cfg(None));
    let (_state, raddr, hr) = start_router(router_cfg(vec![baddr.to_string()]));
    // The router's own answer, then one proxied to the backend (an
    // unknown local id on backend 0: a 404 from the backend, relayed).
    for (path, want) in [("/healthz", 200), ("/jobs/999999", 404)] {
        let t = Instant::now();
        for _ in 0..50 {
            let (s, body) = request(raddr, "GET", path, None);
            assert_eq!(s, want, "{body}");
        }
        let took = t.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "50 idle GET {path} round trips took {took:?}"
        );
    }
    drain_router(raddr, hr);
    drain_backend(baddr, hb);
}

#[test]
fn wildcard_bound_router_drains_on_shutdown() {
    let logs = scratch("wildcard-logs");
    let (_state, bound, hr) = start_router_on(
        "0.0.0.0:0",
        RouterConfig {
            log_dir: Some(logs.clone()),
            ..router_cfg(vec![dead_addr()])
        },
    );
    assert!(bound.ip().is_unspecified(), "{bound}");
    // The drain's self-wake must reach a wildcard listener over loopback.
    let raddr = SocketAddr::from(([127, 0, 0, 1], bound.port()));
    let (s, _) = request(raddr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(hr, 10);
    let text = std::fs::read_to_string(logs.join("router.json")).unwrap();
    schema::validate_router_stats_json(&text).unwrap();
}

#[test]
fn connections_open_at_drain_each_get_a_full_answer() {
    let logs = scratch("open-at-drain-logs");
    let (state, raddr, hr) = start_router(RouterConfig {
        log_dir: Some(logs.clone()),
        ..router_cfg(vec![dead_addr()])
    });
    // Connected, request not yet sent: the drain must wait for these.
    let waiting: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(raddr).unwrap()).collect();
    let (s, _) = request(raddr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !hr.is_finished(),
        "the router drained past open connections"
    );
    let submit = raw_request("POST", "/jobs", Some("{\"bench\": \"164.gzip\"}"));
    let probe = raw_request("GET", "/healthz", None);
    for (i, conn) in waiting.into_iter().enumerate() {
        if i % 2 == 0 {
            let (s, _, body) = full_answer(conn, &submit);
            assert_eq!(s, 503, "{body}");
        } else {
            let (s, _, body) = full_answer(conn, &probe);
            assert_eq!((s, body.as_str()), (200, "{\"ok\":true,\"draining\":true}"));
        }
    }
    join_within(hr, 10);
    assert_eq!(state.inflight.load(Ordering::SeqCst), 0);
    // router.json is written after the last of them, so it counts them.
    let text = std::fs::read_to_string(logs.join("router.json")).unwrap();
    schema::validate_router_stats_json(&text).unwrap();
    let v = json::parse(&text).unwrap();
    assert_eq!(u64_at(&v, &["router", "rejected"]), 3, "{text}");
}

#[test]
fn one_connection_carries_three_requests_through_the_router() {
    let (baddr, hb) = start_backend(backend_cfg(None));
    let (state, raddr, hr) = start_router(router_cfg(vec![baddr.to_string()]));
    let unknown = (1u64 << LOCAL_ID_BITS) | 999_999;
    let mut conn = TcpStream::connect(raddr).unwrap();
    for (path, want, close) in [
        ("/healthz".to_string(), 200, false),
        (format!("/jobs/{unknown}"), 404, false),
        ("/stats".to_string(), 200, true),
    ] {
        let extra = if close { "Connection: close\r\n" } else { "" };
        let raw = format!("GET {path} HTTP/1.1\r\nHost: e2e\r\n{extra}\r\n");
        conn.write_all(raw.as_bytes()).unwrap();
        let (resp, _) = read_answer(&mut conn);
        assert_eq!(resp.status, want, "{path}");
        assert_eq!(
            resp.header("Connection").is_some(),
            close,
            "{path}: {:?}",
            resp.headers
        );
    }
    assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "EOF after close");
    drain_router(raddr, hr);
    assert_eq!(
        state.requests.load(Ordering::SeqCst),
        4,
        "three on one connection, then the shutdown"
    );
    drain_backend(baddr, hb);
}

#[test]
fn closing_answers_say_so_and_end_the_connection_through_the_router() {
    let (baddr, hb) = start_backend(backend_cfg(None));
    let (_state, raddr, hr) = start_router(router_cfg(vec![baddr.to_string()]));
    let (s, rec) = request(
        raddr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"164.gzip\", \"scale\": 1}"),
    );
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    poll_terminal(raddr, id);
    for (what, raw, close) in [
        (
            "HTTP/1.1",
            "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
            false,
        ),
        (
            "Connection: close",
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
            true,
        ),
        (
            "HTTP/1.0",
            "GET /healthz HTTP/1.0\r\n\r\n".to_string(),
            true,
        ),
        ("a 400", "GARBAGE\r\n\r\n".to_string(), true),
        (
            "an events relay",
            format!("GET /jobs/{id}/events HTTP/1.1\r\n\r\n"),
            true,
        ),
    ] {
        let mut conn = TcpStream::connect(raddr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let (resp, _) = read_answer(&mut conn);
        let said = resp.header("Connection");
        assert_eq!(said, close.then_some("close"), "{what}: {:?}", resp.headers);
        if close {
            let n = conn.read(&mut [0u8; 1]).unwrap();
            assert_eq!(n, 0, "{what}: EOF after the answer");
        } else {
            // Still open: a second request is answered on it.
            conn.write_all(raw.as_bytes()).unwrap();
            assert_eq!(read_answer(&mut conn).0.status, 200, "{what}");
        }
    }
    drain_router(raddr, hr);
    drain_backend(baddr, hb);
}

#[test]
fn an_idle_kept_connection_does_not_hold_up_the_router_drain() {
    let (_state, raddr, hr) = start_router(router_cfg(vec![dead_addr()]));
    let mut kept = TcpStream::connect(raddr).unwrap();
    kept.write_all(b"GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n")
        .unwrap();
    let (resp, _) = read_answer(&mut kept);
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("Connection").is_none(),
        "kept: {:?}",
        resp.headers
    );
    let (s, _) = request(raddr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(hr, 2);
    let n = kept.read(&mut [0u8; 1]).unwrap();
    assert_eq!(n, 0, "the drained router closed the kept connection");
}

#[test]
fn routed_submits_reuse_their_backend_connections() {
    let (fake, posts, submit_conns) = scripted_backend(true, record_answer);
    let (state, raddr, hr) = start_router(router_cfg(vec![fake]));
    for _ in 0..20 {
        let (s, rec) = request(raddr, "POST", "/jobs", Some("{\"bench\": \"181.mcf\"}"));
        assert_eq!(s, 200, "{rec}");
    }
    assert_eq!(posts.load(Ordering::SeqCst), 20);
    let conns = submit_conns.load(Ordering::SeqCst);
    assert!(conns <= 2, "20 submits took {conns} backend connections");
    assert_eq!(state.proxied.load(Ordering::SeqCst), 20);
    drain_router(raddr, hr);
}

#[test]
fn a_backend_that_closes_after_every_answer_loses_no_request() {
    // Its answers look reusable, so the router pools each connection and
    // finds it dead on the next submit: that submit goes out again on a
    // fresh connection, and nothing counts against the backend.
    let (fake, posts) = fake_backend(record_answer);
    let (state, raddr, hr) = start_router(router_cfg(vec![fake]));
    for i in 0..10 {
        let (s, rec) = request(raddr, "POST", "/jobs", Some("{\"bench\": \"181.mcf\"}"));
        assert_eq!(s, 200, "submit {i}: {rec}");
    }
    assert_eq!(posts.load(Ordering::SeqCst), 10);
    let backend = &state.ring.backends[0];
    assert_eq!(backend.failures(), 0);
    assert_eq!(backend.state(), BackendState::Healthy);
    assert_eq!(state.resharded.load(Ordering::SeqCst), 0);
    drain_router(raddr, hr);
}
