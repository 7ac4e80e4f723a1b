//! End-to-end daemon tests: a live server on an ephemeral port, driven
//! over real sockets, running real scale-1 simulations.

mod support;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use support::*;
use wec_serve::ServeConfig;
use wec_telemetry::json::{self, Json};
use wec_telemetry::schema;

fn idle_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: None,
        log_dir: None,
        ..ServeConfig::default()
    }
}

#[test]
fn duplicate_submissions_share_one_execution_and_results_match() {
    let (state, addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        store: Some(scratch("dedup-store")),
        log_dir: None,
        ..ServeConfig::default()
    });

    // Two identical submissions back-to-back: the second must land on the
    // first's job (one execution), which means one shared id.
    let body = "{\"bench\": \"164.gzip\", \"scale\": 1}";
    let (s1, r1) = request(addr, "POST", "/jobs", Some(body));
    let (s2, r2) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!((s1, s2), (200, 200), "{r1} / {r2}");
    let id1 = u64_at(&json::parse(&r1).unwrap(), &["id"]);
    let id2 = u64_at(&json::parse(&r2).unwrap(), &["id"]);
    assert_eq!(id1, id2, "identical in-flight submissions must dedup");

    let rec = poll_terminal(addr, id1);
    schema::validate_job_record(&rec, "e2e record").unwrap();
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    assert!(u64_at(&rec, &["submissions"]) >= 2);

    // Both submitters read the same result, byte for byte.
    let (sa, kv_a) = request(addr, "GET", &format!("/jobs/{id1}/result.kv"), None);
    let (sb, kv_b) = request(addr, "GET", &format!("/jobs/{id2}/result.kv"), None);
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(kv_a, kv_b);
    assert!(kv_a.contains("cycles "), "{kv_a:?}");

    // The event stream is schema-clean progress.jsonl.
    let (se, events) = request(addr, "GET", &format!("/jobs/{id1}/events"), None);
    assert_eq!(se, 200);
    let report = schema::validate_progress_jsonl(&events).unwrap();
    assert_eq!(report.starts, 1, "{events}");
    assert_eq!(report.finishes, 1, "{events}");

    // A third identical submission after completion is a synchronous
    // warm answer from the memo — new id, already done, source mem.
    let (s3, r3) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!(s3, 200);
    let warm = json::parse(&r3).unwrap();
    schema::validate_job_record(&warm, "warm record").unwrap();
    assert_ne!(u64_at(&warm, &["id"]), id1);
    assert_eq!(warm.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(warm.get("source").unwrap().as_str(), Some("mem"));

    // Stats: 3 submissions, 1 dedup share, 1 cold execution, 1 mem hit.
    let (ss, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["jobs", "submitted"]), 3);
    assert_eq!(u64_at(&v, &["jobs", "deduped"]), 1);
    assert_eq!(u64_at(&v, &["jobs", "completed"]), 2);
    assert_eq!(u64_at(&v, &["cache", "cold"]), 1);
    assert_eq!(u64_at(&v, &["cache", "mem_hits"]), 1);

    let (sd, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(sd, 200);
    handle.join().unwrap().unwrap();
    assert_eq!(state.outstanding(), 0);
}

#[test]
fn malformed_requests_get_400_and_the_daemon_survives() {
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: None,
        log_dir: None,
        ..ServeConfig::default()
    });

    // Wire-level garbage, oversized and truncated requests: every one a
    // 400, none fatal.
    assert!(send_raw(addr, b"GARBAGE\r\n\r\n").starts_with("HTTP/1.1 400"));
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    assert!(send_raw(addr, long_line.as_bytes()).starts_with("HTTP/1.1 400"));
    assert!(
        send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"ben"
        )
        .starts_with("HTTP/1.1 400"),
        "truncated body"
    );
    assert!(
        send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        )
        .starts_with("HTTP/1.1 400"),
        "oversized body"
    );

    // Application-level garbage.
    let (s, _) = request(addr, "POST", "/jobs", Some("{not json"));
    assert_eq!(s, 400);
    let (s, _) = request(addr, "POST", "/jobs", Some("{\"bench\": \"999.nope\"}"));
    assert_eq!(s, 400);
    let (s, _) = request(
        addr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"181.mcf\", \"oops\": 1}"),
    );
    assert_eq!(s, 400);

    // Unknown routes / ids / methods.
    let (s, _) = request(addr, "GET", "/nope", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "GET", "/jobs/987654", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "GET", "/jobs/notanid", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "DELETE", "/stats", None);
    assert_eq!(s, 405);

    // After all of that the daemon still answers.
    let (s, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(
        (s, body.as_str()),
        (200, "{\"ok\":true,\"draining\":false}")
    );
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_inflight_work_and_writes_validated_logs() {
    let logs = scratch("drain-logs");
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: Some(scratch("drain-store")),
        log_dir: Some(logs.clone()),
        ..ServeConfig::default()
    });

    let (s, resp) = request(
        addr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"181.mcf\", \"scale\": 1}"),
    );
    assert_eq!(s, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);

    // Begin draining while the job is still in flight; new submissions
    // bounce with 503 + Retry-After, the in-flight job still finishes.
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    let refused = send_raw(
        addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 21\r\n\r\n{\"bench\": \"164.gzip\"}",
    );
    assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
    assert!(refused.contains("Retry-After:"), "{refused}");

    handle.join().unwrap().unwrap();

    // The drained daemon left schema-clean logs with the job completed.
    let jobs = std::fs::read_to_string(logs.join("jobs.jsonl")).unwrap();
    let report = schema::validate_jobs_jsonl(&jobs).unwrap();
    assert_eq!(report.done, 1, "{jobs}");
    assert_eq!(report.failed, 0, "{jobs}");
    let rec = json::parse(jobs.lines().next().unwrap()).unwrap();
    assert_eq!(u64_at(&rec, &["id"]), id);

    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
    assert_eq!(u64_at(&v, &["jobs", "completed"]), 1);
}

#[test]
fn idle_round_trips_never_wait_for_an_accept_poll() {
    let (_state, addr, handle) = start(idle_cfg());
    let t = Instant::now();
    for _ in 0..50 {
        let (s, _) = request(addr, "GET", "/healthz", None);
        assert_eq!(s, 200);
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 idle /healthz round trips took {took:?}"
    );
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(handle, 10);
}

#[test]
fn wildcard_bound_daemon_drains_on_shutdown() {
    let logs = scratch("wildcard-logs");
    let (_state, bound, handle) = start_on(
        "0.0.0.0:0",
        ServeConfig {
            log_dir: Some(logs.clone()),
            ..idle_cfg()
        },
    );
    assert!(bound.ip().is_unspecified(), "{bound}");
    // The drain's self-wake must reach a wildcard listener over loopback.
    let addr = SocketAddr::from(([127, 0, 0, 1], bound.port()));
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(handle, 10);
    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    schema::validate_serve_stats_json(&stats).unwrap();
}

#[test]
fn connections_open_when_drain_completes_each_get_a_full_answer() {
    let (_state, addr, handle) = start(idle_cfg());
    // Connected, request not yet sent: these are still waiting on the
    // daemon when its (idle) drain completes.
    let waiting: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !handle.is_finished(),
        "the daemon returned with accepted connections unanswered"
    );
    let submit = "POST /jobs HTTP/1.1\r\nContent-Length: 21\r\n\r\n{\"bench\": \"164.gzip\"}";
    let probe = "GET /healthz HTTP/1.1\r\n\r\n";
    for (i, conn) in waiting.into_iter().enumerate() {
        if i % 2 == 0 {
            let (s, head, _) = full_answer(conn, submit);
            assert_eq!(s, 503, "{head}");
            assert!(head.contains("X-Wec-Draining: true"), "{head}");
        } else {
            let (s, _, body) = full_answer(conn, probe);
            assert_eq!((s, body.as_str()), (200, "{\"ok\":true,\"draining\":true}"));
        }
    }
    join_within(handle, 10);
}

#[test]
fn one_connection_carries_three_requests_each_logged_on_its_own() {
    let logs = scratch("keep-alive-logs");
    let (state, addr, handle) = start(ServeConfig {
        log_dir: Some(logs.clone()),
        ..idle_cfg()
    });
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut sizes = Vec::new();
    for close in [false, false, true] {
        // Idle time on the connection is no request's time.
        std::thread::sleep(Duration::from_millis(200));
        let extra = if close { "Connection: close\r\n" } else { "" };
        let raw = format!("GET /healthz HTTP/1.1\r\nHost: e2e\r\n{extra}\r\n");
        conn.write_all(raw.as_bytes()).unwrap();
        let (resp, size) = read_answer(&mut conn);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("Connection").is_some(),
            close,
            "{:?}",
            resp.headers
        );
        sizes.push(size);
    }
    assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "EOF after close");
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(handle, 10);

    let page = state
        .metrics
        .render_prometheus(&state.snapshot(), state.backend_id());
    assert!(
        page.contains("wec_serve_http_requests_total{endpoint=\"healthz\",status=\"200\"} 3\n"),
        "{page}"
    );
    let access = std::fs::read_to_string(logs.join("access.jsonl")).unwrap();
    schema::validate_access_jsonl(&access).unwrap();
    let lines: Vec<Json> = access
        .lines()
        .map(|l| json::parse(l).unwrap())
        .filter(|v| v.get("path").and_then(Json::as_str) == Some("/healthz"))
        .collect();
    assert_eq!(lines.len(), 3, "{access}");
    for (line, size) in lines.iter().zip(&sizes) {
        assert_eq!(u64_at(line, &["bytes"]), *size, "{access}");
        assert!(
            u64_at(line, &["dur_us"]) < 200_000,
            "idle time counted: {access}"
        );
    }
}

#[test]
fn closing_answers_say_so_and_end_the_connection() {
    let (_state, addr, handle) = start(ServeConfig {
        store: Some(scratch("closing-store")),
        ..idle_cfg()
    });
    let (s, rec) = request(
        addr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"164.gzip\", \"scale\": 1}"),
    );
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    poll_terminal(addr, id);
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
            "an events stream",
            format!("GET /jobs/{id}/events HTTP/1.1\r\n\r\n"),
            true,
        ),
    ] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let (resp, _) = read_answer(&mut conn);
        let said = resp.header("Connection");
        assert_eq!(said, close.then_some("close"), "{what}: {:?}", resp.headers);
        if close {
            assert_eq!(
                conn.read(&mut [0u8; 1]).unwrap(),
                0,
                "{what}: EOF after the answer"
            );
        } else {
            // Still open: a second request is answered on it.
            conn.write_all(raw.as_bytes()).unwrap();
            assert_eq!(read_answer(&mut conn).0.status, 200, "{what}");
        }
    }
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(handle, 10);
}

#[test]
fn an_idle_kept_connection_does_not_hold_up_drain() {
    let (_state, addr, handle) = start(idle_cfg());
    let mut kept = TcpStream::connect(addr).unwrap();
    kept.write_all(b"GET /healthz HTTP/1.1\r\nHost: e2e\r\n\r\n")
        .unwrap();
    let (resp, _) = read_answer(&mut kept);
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("Connection").is_none(),
        "kept: {:?}",
        resp.headers
    );
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    join_within(handle, 2);
    assert_eq!(
        kept.read(&mut [0u8; 1]).unwrap(),
        0,
        "the drained daemon closed it"
    );
}
