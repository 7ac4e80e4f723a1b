//! Observability end-to-end tests: `/metrics` exposition hygiene and
//! reconciliation with `/stats` under concurrent submissions, `HEAD`
//! probes, the draining health flag, the dashboard page and its data
//! document, and the access log.

mod support;

use std::net::SocketAddr;
use std::time::Duration;

use support::*;
use wec_serve::ServeConfig;
use wec_telemetry::json::{self, Json};
use wec_telemetry::schema;

/// Parse a Prometheus text page line by line: every non-comment line is
/// `series value` with a finite numeric value and no series repeats.
fn parse_metrics(page: &str) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for line in page.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable line {line:?}"));
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
        assert!(v.is_finite(), "non-finite value in {line:?}");
        assert!(
            !out.iter().any(|(s, _)| s == series),
            "duplicate series {series:?}"
        );
        out.push((series.to_string(), v));
    }
    out
}

fn metric(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(s, _)| s == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("missing series {name}"))
}

/// Scrape `/metrics`, check exposition hygiene, and check the per-scrape
/// counter invariants (the cache-source split can never exceed what was
/// submitted — each scrape renders one consistent snapshot).
fn scrape_metrics(addr: SocketAddr) -> Vec<(String, f64)> {
    let (s, page) = request(addr, "GET", "/metrics", None);
    assert_eq!(s, 200);
    let series = parse_metrics(&page);
    let submitted = metric(&series, "wec_serve_jobs_submitted_total");
    let deduped = metric(&series, "wec_serve_jobs_deduped_total");
    let failed = metric(&series, "wec_serve_jobs_failed_total");
    let completed = metric(&series, "wec_serve_jobs_completed_total{source=\"cold\"}")
        + metric(&series, "wec_serve_jobs_completed_total{source=\"disk\"}")
        + metric(&series, "wec_serve_jobs_completed_total{source=\"mem\"}");
    assert!(deduped <= submitted, "{deduped} deduped of {submitted}");
    assert!(
        completed + failed <= submitted,
        "{completed} completed + {failed} failed of {submitted} submitted"
    );
    series
}

#[test]
fn metrics_reconcile_with_stats_under_concurrent_submissions() {
    let store = scratch("metrics-store");
    let (_state, addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        store: Some(store.clone()),
        log_dir: None,
        ..ServeConfig::default()
    });

    // Three submitters race the same spec while a scraper hammers
    // /metrics and /stats: every page must parse cleanly and every stats
    // document must balance (cold + disk + mem == completed — the schema
    // validator enforces it on each scrape).
    let body = "{\"bench\": \"164.gzip\", \"scale\": 1}";
    let ids: Vec<u64> = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            for _ in 0..20 {
                scrape_metrics(addr);
                let (st, stats) = request(addr, "GET", "/stats", None);
                assert_eq!(st, 200);
                schema::validate_serve_stats_json(&stats).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(move || {
                    let (st, resp) = request(addr, "POST", "/jobs", Some(body));
                    assert_eq!(st, 200, "{resp}");
                    u64_at(&json::parse(&resp).unwrap(), &["id"])
                })
            })
            .collect();
        let ids = submitters.into_iter().map(|t| t.join().unwrap()).collect();
        scraper.join().unwrap();
        ids
    });
    for id in &ids {
        poll_terminal(addr, *id);
    }
    // One more identical submission after completion: a synchronous warm
    // answer from the memo, so the mem counter moves too.
    let (st, resp) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!(st, 200);
    assert_eq!(
        json::parse(&resp).unwrap().get("source").unwrap().as_str(),
        Some("mem")
    );

    // Quiesced: /metrics and /stats must now agree counter for counter.
    let series = scrape_metrics(addr);
    let (st, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(st, 200);
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    for (name, path) in [
        ("wec_serve_jobs_submitted_total", &["jobs", "submitted"]),
        ("wec_serve_jobs_deduped_total", &["jobs", "deduped"]),
        ("wec_serve_jobs_failed_total", &["jobs", "failed"]),
        (
            "wec_serve_jobs_completed_total{source=\"cold\"}",
            &["cache", "cold"],
        ),
        (
            "wec_serve_jobs_completed_total{source=\"disk\"}",
            &["cache", "disk_hits"],
        ),
        (
            "wec_serve_jobs_completed_total{source=\"mem\"}",
            &["cache", "mem_hits"],
        ),
        ("wec_serve_jobs_rejected_total", &["queue", "rejected"]),
    ] {
        assert_eq!(
            metric(&series, name) as u64,
            u64_at(&v, path),
            "{name} disagrees with stats {path:?}"
        );
    }
    // 4 submissions of one spec: exactly 1 cold execution; the other 3
    // were satisfied without running anything — by an in-flight dedup
    // share or a warm memo answer, the split depends on the race — and
    // nothing came from disk on this server.
    assert_eq!(metric(&series, "wec_serve_jobs_submitted_total"), 4.0);
    assert_eq!(
        metric(&series, "wec_serve_jobs_completed_total{source=\"cold\"}"),
        1.0
    );
    assert_eq!(
        metric(&series, "wec_serve_jobs_deduped_total")
            + metric(&series, "wec_serve_jobs_completed_total{source=\"mem\"}"),
        3.0
    );
    assert!(metric(&series, "wec_serve_jobs_completed_total{source=\"mem\"}") >= 1.0);
    assert_eq!(
        metric(&series, "wec_serve_jobs_completed_total{source=\"disk\"}"),
        0.0
    );
    // The scrape traffic itself is on the page.
    assert!(
        metric(
            &series,
            "wec_serve_http_requests_total{endpoint=\"metrics\",status=\"200\"}"
        ) >= 20.0
    );
    let (sd, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(sd, 200);
    handle.join().unwrap().unwrap();

    // A fresh daemon on the same store answers the same spec from disk —
    // and says so in its own exposition.
    let (_state2, addr2, handle2) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: Some(store),
        log_dir: None,
        ..ServeConfig::default()
    });
    let (st, resp) = request(addr2, "POST", "/jobs", Some(body));
    assert_eq!(st, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);
    let rec = poll_terminal(addr2, id);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("disk"));
    let series = scrape_metrics(addr2);
    assert_eq!(
        metric(&series, "wec_serve_jobs_completed_total{source=\"disk\"}"),
        1.0
    );
    let (sd, _) = request(addr2, "POST", "/shutdown", None);
    assert_eq!(sd, 200);
    handle2.join().unwrap().unwrap();
}

/// A raw `HEAD` exchange: returns (status line ok, headers, body bytes).
fn head_raw(addr: SocketAddr, path: &str) -> (String, String) {
    let raw = format!("HEAD {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n");
    let text = send_raw(addr, raw.as_bytes());
    let (head, body) = text.split_once("\r\n\r\n").expect("no header terminator");
    (head.to_string(), body.to_string())
}

#[test]
fn head_probes_match_get_and_healthz_reports_draining() {
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        store: Some(scratch("head-store")),
        log_dir: None,
        ..ServeConfig::default()
    });

    // HEAD answers with the GET's exact framing and zero body bytes.  The
    // `/stats` body carries `uptime_ms`, whose digit count can grow between
    // two requests, so the HEAD is bracketed by two GETs and compared only
    // once both GETs agree on the length (the uptime, and with it the
    // length, never shrinks, so the HEAD's document has that length too).
    for path in ["/healthz", "/stats"] {
        let framed = (0..10).find_map(|_| {
            let (gs, before) = request(addr, "GET", path, None);
            assert_eq!(gs, 200);
            let (head, body) = head_raw(addr, path);
            let (_, after) = request(addr, "GET", path, None);
            (before.len() == after.len()).then_some((head, body, before.len()))
        });
        let (head, body, len) = framed.expect("the document length never held still");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            head.contains(&format!("Content-Length: {len}")),
            "HEAD {path} framing:\n{head}\nGET body was {len} bytes"
        );
        assert!(body.is_empty(), "HEAD {path} leaked a body: {body:?}");
    }
    assert_eq!(
        request(addr, "GET", "/healthz", None).1,
        "{\"ok\":true,\"draining\":false}"
    );

    // Queue distinct cold jobs on the single worker so the drain window
    // stays open, then begin draining: the liveness probe must say so.
    for side in [8u32, 16, 32] {
        let body = format!(
            "{{\"bench\": \"164.gzip\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}}}}}"
        );
        let (st, resp) = request(addr, "POST", "/jobs", Some(&body));
        assert_eq!(st, 200, "{resp}");
    }
    let (st, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(st, 200);
    let (st, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(st, 200);
    assert_eq!(body, "{\"ok\":true,\"draining\":true}");
    handle.join().unwrap().unwrap();
}

#[test]
fn attribution_ledger_flows_from_replay_jobs_to_metrics_and_dashboard() {
    use wec_bench::tracerun::capture_key;
    use wec_trace::{capture_run, CaptureMeta};
    use wec_workloads::{Bench, Scale};

    // Capture one smoke-scale trace for replay jobs to chew on.
    let traces = scratch("attr-traces");
    let w = Bench::Gzip.build(Scale::SMOKE);
    let key = capture_key();
    let meta = CaptureMeta {
        bench: w.name.to_string(),
        scale_units: Scale::SMOKE.units,
        cfg_label: key.label(),
    };
    let (_full, trace) = capture_run(&w, key.build(), &meta).unwrap();
    let trace_path = traces.join("164_gzip.wectrace");
    trace.write_to(&trace_path).unwrap();

    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: Some(scratch("attr-store")),
        log_dir: None,
        attribution: true,
        ..ServeConfig::default()
    });

    // A replay job under --attribution: the record embeds a conserving
    // summary and the full wec-attribution-v1 document is one GET away.
    let body = format!("{{\"kind\": \"replay\", \"trace\": {:?}}}", trace_path);
    let (st, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(st, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);
    let rec = poll_terminal(addr, id);
    schema::validate_job_record(&rec, "replay record").unwrap();
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    let summary = rec.get("attribution").unwrap();
    let fills = u64_at(&rec, &["attribution", "wec_fills"]);
    assert!(fills > 0, "no WEC fills attributed:\n{summary:?}");
    let (sa, doc) = request(addr, "GET", &format!("/jobs/{id}/attribution"), None);
    assert_eq!(sa, 200, "{doc}");
    let check = schema::validate_attribution_json(&doc).unwrap();
    assert_eq!(check.wec_fills, fills, "summary disagrees with document");
    assert_eq!(check.useful, u64_at(&rec, &["attribution", "useful"]));

    // A second identical submission is a warm memo answer that still
    // carries the ledger summary — and re-counts it, like sim_cycles.
    let (st, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(st, 200, "{resp}");
    let warm = json::parse(&resp).unwrap();
    assert_eq!(warm.get("source").unwrap().as_str(), Some("mem"));
    assert_eq!(u64_at(&warm, &["attribution", "wec_fills"]), fills);

    // /metrics aggregates both answers and the aggregate still conserves.
    let series = scrape_metrics(addr);
    let m_fills = metric(&series, "wec_serve_attr_fills_total");
    assert_eq!(m_fills as u64, 2 * fills);
    assert_eq!(
        metric(&series, "wec_serve_attr_useful_total")
            + metric(&series, "wec_serve_attr_wasted_total")
            + metric(&series, "wec_serve_attr_victim_rescued_total")
            + metric(&series, "wec_serve_attr_still_resident_total"),
        m_fills,
        "ledger aggregates do not conserve"
    );

    // The dashboard's slim job rows flag which jobs have a ledger.
    let (st, data) = request(addr, "GET", "/dashboard/data", None);
    assert_eq!(st, 200);
    schema::validate_dashboard_data_json(&data).unwrap();
    let v = json::parse(&data).unwrap();
    let jobs = v.get("jobs").and_then(Json::as_array).unwrap();
    let row = jobs
        .iter()
        .find(|j| u64_at(j, &["id"]) == id)
        .expect("replay job missing from dashboard");
    assert_eq!(row.get("has_attr").unwrap().as_bool(), Some(true));

    // Sim jobs never carry a ledger: empty summary, 404 on the document.
    let (st, resp) = request(addr, "POST", "/jobs", Some("{\"bench\": \"164.gzip\"}"));
    assert_eq!(st, 200, "{resp}");
    let sim_id = u64_at(&json::parse(&resp).unwrap(), &["id"]);
    let sim_rec = poll_terminal(addr, sim_id);
    schema::validate_job_record(&sim_rec, "sim record").unwrap();
    assert!(matches!(sim_rec.get("attribution"), Some(Json::Obj(f)) if f.is_empty()));
    let (st, _) = request(addr, "GET", &format!("/jobs/{sim_id}/attribution"), None);
    assert_eq!(st, 404);

    let (sd, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(sd, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn dashboard_serves_cold_and_its_data_and_access_log_validate() {
    let logs = scratch("dash-logs");
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: Some(scratch("dash-store")),
        log_dir: Some(logs.clone()),
        ..ServeConfig::default()
    });

    // The page serves cold, self-contained, with the refresh endpoint and
    // both color schemes inline.
    let raw = send_raw(
        addr,
        b"GET /dashboard HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n",
    );
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "{}",
        &raw[..60.min(raw.len())]
    );
    assert!(raw.contains("Content-Type: text/html"), "not html");
    let (st, page) = parse_response(&raw);
    assert_eq!(st, 200);
    assert!(page.contains("<!doctype html>"));
    assert!(page.contains("/dashboard/data"));
    assert!(page.contains("prefers-color-scheme"));
    assert!(page.to_ascii_lowercase().contains("svg"));

    // Run one real job; the data document then validates, counts its
    // simulated cycles and lists the job.
    let (st, resp) = request(addr, "POST", "/jobs", Some("{\"bench\": \"164.gzip\"}"));
    assert_eq!(st, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);
    let rec = poll_terminal(addr, id);
    let (st, data) = request(addr, "GET", "/dashboard/data", None);
    assert_eq!(st, 200);
    let rows = schema::validate_dashboard_data_json(&data).unwrap();
    assert_eq!(rows, 1, "recent jobs missing:\n{data}");
    let v = json::parse(&data).unwrap();
    assert_eq!(
        u64_at(&v, &["sim_cycles"]),
        u64_at(&rec, &["sim_cycles"]),
        "cumulative cycles are the one job's"
    );
    assert!(u64_at(&v, &["sim_cycles"]) > 0);
    let jobs = v.get("jobs").and_then(Json::as_array).unwrap();
    assert_eq!(u64_at(&jobs[0], &["id"]), id);
    let http = v.get("http").and_then(Json::as_array).unwrap();
    assert!(!http.is_empty(), "endpoint latency digests missing");

    let (st, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(st, 200);
    handle.join().unwrap().unwrap();

    // Every answered request above is in the access log, schema-clean.
    // (The final shutdown request's line can race the drain; everything
    // before it — page, submit, polls, data — is guaranteed present.)
    let access = std::fs::read_to_string(logs.join("access.jsonl")).unwrap();
    let n = schema::validate_access_jsonl(&access).unwrap();
    assert!(n >= 4, "only {n} access lines:\n{access}");
    assert!(access.contains("\"path\":\"/dashboard\""), "{access}");
    assert!(access.contains("\"path\":\"/dashboard/data\""), "{access}");
    assert!(access.contains("\"method\":\"POST\""), "{access}");
}
