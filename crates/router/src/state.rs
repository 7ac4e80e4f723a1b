//! Shared router state: configuration, counters, the composite job-id
//! scheme, live backend scrapes, and the two renderers (`GET /stats` →
//! `wec-router-stats-v1`, `GET /metrics` → Prometheus exposition).
//!
//! The stats document is built from ONE scrape snapshot: the cluster
//! roll-up is computed from exactly the backend documents embedded next
//! to it, so conservation — every cluster counter equals the sum over
//! the embedded ledgers — holds on every scrape by construction, no
//! matter how the backends move between scrapes.  The Prometheus page
//! uses the same discipline: per-backend `completed` series and the
//! cluster total come from one snapshot, so `sum(per-backend) == total`
//! is race-free for an `awk` gate.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wec_telemetry::json::{escape_into, Json};
use wec_telemetry::{json, schema};

use crate::ring::{BackendState, Ring};

/// Bits of a composite id that carry the backend-local job id.
pub const LOCAL_ID_BITS: u32 = 48;
const LOCAL_ID_MASK: u64 = (1 << LOCAL_ID_BITS) - 1;

/// Router-global job id: backend index (1-based, so no composite id
/// collides with a raw local id below 2^48) in the top 16 bits, the
/// backend's own id in the low 48.  Stateless — any router instance
/// decodes any id it or a predecessor handed out, given the same
/// configured backend list.
pub fn compose_id(backend_idx: usize, local: u64) -> Option<u64> {
    if local > LOCAL_ID_MASK || backend_idx >= u16::MAX as usize {
        return None;
    }
    Some(((backend_idx as u64 + 1) << LOCAL_ID_BITS) | local)
}

/// Invert [`compose_id`]: `(backend_idx, local)`, or `None` for ids no
/// backend of this ring could have issued.
pub fn decode_id(rid: u64, n_backends: usize) -> Option<(usize, u64)> {
    let idx = (rid >> LOCAL_ID_BITS) as usize;
    if idx == 0 || idx > n_backends {
        return None;
    }
    Some((idx - 1, rid & LOCAL_ID_MASK))
}

/// Rewrite the `"id":N` of a backend job-record document to the
/// composite id, leaving every other byte untouched.  `None` if the body
/// is not a record (no rewrite to do — result bytes, error objects and
/// attribution reports proxy verbatim) or the id overflows the scheme.
pub fn rewrite_record_id(body: &str, backend_idx: usize) -> Option<String> {
    if !body.starts_with("{\"schema\":\"wec-job-record-v1\"") {
        return None;
    }
    let pat = "\"id\":";
    let start = body.find(pat)? + pat.len();
    let len = body[start..].find(|c: char| !c.is_ascii_digit())?;
    let local: u64 = body[start..start + len].parse().ok()?;
    let rid = compose_id(backend_idx, local)?;
    Some(format!("{}{}{}", &body[..start], rid, &body[start + len..]))
}

/// Everything `wec_router` is configured with.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend addresses; fixed for the router's life (the ring is
    /// configuration, only health states change at runtime).
    pub backends: Vec<String>,
    /// How often the health thread probes every backend's `/healthz`.
    pub health_interval: Duration,
    /// Consecutive failures before a backend is declared dead.
    pub dead_after: u32,
    /// Extra submit attempts against the owner on a queue-full `503`
    /// before the `503` is passed through to the client.
    pub retries: u32,
    /// Upper bound on one retry wait.  The backend's `Retry-After` is
    /// honored up to this cap — a proxy holding a client connection
    /// cannot sleep the tens of seconds a deep queue may advertise.
    pub backoff_cap: Duration,
    /// Per-exchange timeout for proxied requests, probes and scrapes, and
    /// how long a kept client connection may sit idle between requests.
    pub io_timeout: Duration,
    /// Per-read timeout while relaying a `/jobs/<id>/events` stream
    /// (the gap between progress chunks, not the whole stream).
    pub events_timeout: Duration,
    /// Where to write `router.json` on drain (`None` = nowhere).
    pub log_dir: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            health_interval: Duration::from_millis(500),
            dead_after: 3,
            retries: 2,
            backoff_cap: Duration::from_secs(1),
            io_timeout: Duration::from_secs(10),
            events_timeout: Duration::from_secs(30),
            log_dir: None,
        }
    }
}

/// Shared by the accept loop, the connection threads and the health
/// thread.
pub struct RouterState {
    pub cfg: RouterConfig,
    pub ring: Ring,
    pub draining: AtomicBool,
    start: Instant,
    /// Requests answered (any endpoint, any status).
    pub requests: AtomicU64,
    /// Submits successfully forwarded to a backend.
    pub proxied: AtomicU64,
    /// Repeat attempts against the same owner after a queue-full `503`.
    pub retries: AtomicU64,
    /// Submits answered by a backend other than the key's primary
    /// rendezvous owner — the owner was dead, draining, or failed during
    /// the exchange and the job re-sharded down the candidate order.
    pub resharded: AtomicU64,
    /// Submits answered `503` by the router (no routable backend, or the
    /// owner's queue-full passed through after the retry budget).
    pub rejected: AtomicU64,
    /// Requests being handled; drain waits for this to reach zero.
    pub inflight: AtomicU64,
}

/// One backend's row in a scrape snapshot.
pub struct BackendScrape {
    pub id: String,
    pub addr: String,
    pub state: BackendState,
    pub consecutive_failures: u32,
    pub routed: u64,
    /// The backend's own stats document, raw + parsed — present only if
    /// the scrape succeeded AND the document validated (a backend whose
    /// ledger cannot be trusted is embedded as unreachable).
    pub stats: Option<(String, Json)>,
}

impl RouterState {
    pub fn new(cfg: RouterConfig) -> Result<RouterState, String> {
        let ring = Ring::new(&cfg.backends)?;
        Ok(RouterState {
            cfg,
            ring,
            draining: AtomicBool::new(false),
            start: Instant::now(),
            requests: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            resharded: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        })
    }

    pub fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Scrape every backend's `/stats` live.  Also adopts announced
    /// backend ids, so display identity converges on `--backend-id`
    /// without a separate discovery step.  Scrape failures do NOT touch
    /// health state — the health thread owns transitions; a stats reader
    /// must never flap the ring.
    pub fn scrape_backends(&self) -> Vec<BackendScrape> {
        self.ring
            .backends
            .iter()
            .map(|b| {
                let stats = b
                    .client
                    .request("GET", "/stats", None, self.cfg.io_timeout)
                    .ok()
                    .filter(|r| r.status == 200)
                    .and_then(|r| {
                        let text = r.body_utf8().ok()?.to_string();
                        let v = json::parse(&text).ok()?;
                        schema::validate_serve_stats(&v, "scrape").ok()?;
                        Some((text, v))
                    });
                if let Some((_, v)) = &stats {
                    if let Some(id) = v.get("backend_id").and_then(Json::as_str) {
                        b.adopt_id(id);
                    }
                }
                BackendScrape {
                    id: b.id(),
                    addr: b.addr().to_string(),
                    state: b.state(),
                    consecutive_failures: b.failures(),
                    routed: b.routed.load(Ordering::SeqCst),
                    stats,
                }
            })
            .collect()
    }

    /// Scrape and render the `wec-router-stats-v1` document.
    pub fn stats_json(&self) -> String {
        self.render_stats_json(&self.scrape_backends())
    }

    /// Render the document from one scrape snapshot (split from
    /// [`RouterState::stats_json`] so tests can inject snapshots).
    pub fn render_stats_json(&self, scrapes: &[BackendScrape]) -> String {
        let sums = ClusterSums::from(scrapes);
        let mut out = format!(
            "{{\"schema\":\"wec-router-stats-v1\",\"uptime_ms\":{},\"draining\":{}",
            self.uptime_ms(),
            self.draining.load(Ordering::SeqCst)
        );
        let _ = write!(
            out,
            ",\"router\":{{\"requests\":{},\"proxied\":{},\"retries\":{},\"resharded\":{},\
             \"rejected\":{}}}",
            self.requests.load(Ordering::SeqCst),
            self.proxied.load(Ordering::SeqCst),
            self.retries.load(Ordering::SeqCst),
            self.resharded.load(Ordering::SeqCst),
            self.rejected.load(Ordering::SeqCst),
        );
        out.push_str(",\"backends\":[");
        for (i, s) in scrapes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            escape_into(&mut out, &s.id);
            out.push_str(",\"addr\":");
            escape_into(&mut out, &s.addr);
            let _ = write!(
                out,
                ",\"state\":\"{}\",\"consecutive_failures\":{},\"routed\":{}",
                s.state.name(),
                s.consecutive_failures,
                s.routed
            );
            if let Some((raw, _)) = &s.stats {
                out.push_str(",\"stats\":");
                out.push_str(raw);
            }
            out.push('}');
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"cluster\":{{\"backends\":{{\"healthy\":{},\"draining\":{},\"dead\":{}}}",
            sums.healthy, sums.draining, sums.dead
        );
        let _ = write!(
            out,
            ",\"jobs\":{{\"submitted\":{},\"deduped\":{},\"completed\":{},\"failed\":{}}}",
            sums.submitted, sums.deduped, sums.completed, sums.failed
        );
        let _ = write!(
            out,
            ",\"cache\":{{\"cold\":{},\"disk_hits\":{},\"mem_hits\":{},\"spec_hits\":{}}}",
            sums.cold, sums.disk_hits, sums.mem_hits, sums.spec_hits
        );
        if let Some(sp) = &sums.spec {
            let _ = write!(
                out,
                ",\"spec\":{{\"started\":{},\"hit\":{},\"miss\":{},\"waste\":{},\
                 \"cancelled\":{},\"pending\":{}}}",
                sp[0], sp[1], sp[2], sp[3], sp[4], sp[5]
            );
        }
        let _ = write!(
            out,
            ",\"throughput\":{{\"jobs_per_sec\":{:.3}",
            sums.jobs_per_sec
        );
        out.push_str("}}}");
        out
    }

    /// Render the Prometheus exposition from one scrape snapshot.  The
    /// per-backend `completed` series and the cluster totals share the
    /// snapshot, so `sum(wec_router_backend_completed_total) ==
    /// wec_router_jobs_completed_total` holds on every page, and the
    /// speculation ledger conserves (`hit + waste + cancelled + pending
    /// == started`) for the CI gate to check with `awk`.
    pub fn render_prometheus(&self, scrapes: &[BackendScrape]) -> String {
        let sums = ClusterSums::from(scrapes);
        let mut out = String::new();
        fn counter(out: &mut String, name: &str, help: &str, v: u64) {
            let _ = write!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            );
        }
        counter(
            &mut out,
            "wec_router_requests_total",
            "Requests answered by the router (any endpoint).",
            self.requests.load(Ordering::SeqCst),
        );
        counter(
            &mut out,
            "wec_router_proxied_total",
            "Job submissions successfully forwarded to a backend.",
            self.proxied.load(Ordering::SeqCst),
        );
        counter(
            &mut out,
            "wec_router_retries_total",
            "Submit retries against the same owner after a queue-full 503.",
            self.retries.load(Ordering::SeqCst),
        );
        counter(
            &mut out,
            "wec_router_resharded_total",
            "Submits moved past a failed or draining owner to the next rendezvous candidate.",
            self.resharded.load(Ordering::SeqCst),
        );
        counter(
            &mut out,
            "wec_router_rejected_total",
            "Submits answered 503 by the router.",
            self.rejected.load(Ordering::SeqCst),
        );

        out.push_str(
            "# HELP wec_router_backend_up Backend health (1 healthy, 0 draining or dead).\n\
             # TYPE wec_router_backend_up gauge\n",
        );
        for s in scrapes {
            let _ = writeln!(
                out,
                "wec_router_backend_up{{backend=\"{}\",state=\"{}\"}} {}",
                label(&s.id),
                s.state.name(),
                (s.state == BackendState::Healthy) as u32
            );
        }
        out.push_str(
            "# HELP wec_router_backend_routed_total Jobs this router proxied to each backend.\n\
             # TYPE wec_router_backend_routed_total counter\n",
        );
        for s in scrapes {
            let _ = writeln!(
                out,
                "wec_router_backend_routed_total{{backend=\"{}\"}} {}",
                label(&s.id),
                s.routed
            );
        }
        out.push_str(
            "# HELP wec_router_backend_completed_total Completed jobs per scraped backend \
             (same snapshot as the cluster totals below).\n\
             # TYPE wec_router_backend_completed_total counter\n",
        );
        for s in scrapes {
            if let Some((_, v)) = &s.stats {
                let _ = writeln!(
                    out,
                    "wec_router_backend_completed_total{{backend=\"{}\"}} {}",
                    label(&s.id),
                    u64_at(v, &["jobs", "completed"])
                );
            }
        }
        counter(
            &mut out,
            "wec_router_jobs_submitted_total",
            "Cluster-wide submitted jobs (sum over the scraped backend ledgers).",
            sums.submitted,
        );
        counter(
            &mut out,
            "wec_router_jobs_completed_total",
            "Cluster-wide completed jobs (sum over the scraped backend ledgers).",
            sums.completed,
        );
        out.push_str(
            "# HELP wec_router_cache_total Cluster-wide completions by result source.\n\
             # TYPE wec_router_cache_total counter\n",
        );
        for (source, v) in [
            ("cold", sums.cold),
            ("disk", sums.disk_hits),
            ("mem", sums.mem_hits),
            ("spec", sums.spec_hits),
        ] {
            let _ = writeln!(out, "wec_router_cache_total{{source=\"{source}\"}} {v}");
        }
        let sp = sums.spec.unwrap_or([0; 6]);
        for (name, help, v) in [
            (
                "wec_router_spec_started_total",
                "Cluster-wide speculations started.",
                sp[0],
            ),
            (
                "wec_router_spec_hit_total",
                "Cluster-wide speculations claimed by demand.",
                sp[1],
            ),
            (
                "wec_router_spec_miss_total",
                "Cluster-wide demand misses the predictor did not cover.",
                sp[2],
            ),
            (
                "wec_router_spec_waste_total",
                "Cluster-wide speculations reclaimed unclaimed.",
                sp[3],
            ),
            (
                "wec_router_spec_cancelled_total",
                "Cluster-wide speculations cancelled before running.",
                sp[4],
            ),
            (
                "wec_router_spec_pending_total",
                "Cluster-wide speculations still in flight.",
                sp[5],
            ),
        ] {
            counter(&mut out, name, help, v);
        }
        out
    }

    /// Write the drain-time `router.json` if a log dir is configured.
    pub fn write_exit_logs(&self) {
        let Some(dir) = &self.cfg.log_dir else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("router.json"), self.stats_json()))
        {
            eprintln!("wec-router: cannot write router.json: {e}");
        }
    }
}

/// Prometheus label escaping (`\` and `"`).
fn label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// The cluster roll-up of one scrape snapshot.
struct ClusterSums {
    healthy: u64,
    draining: u64,
    dead: u64,
    submitted: u64,
    deduped: u64,
    completed: u64,
    failed: u64,
    cold: u64,
    disk_hits: u64,
    mem_hits: u64,
    spec_hits: u64,
    /// `[started, hit, miss, waste, cancelled, pending]`, `Some` iff any
    /// scraped backend carries a `spec` block.
    spec: Option<[u64; 6]>,
    jobs_per_sec: f64,
}

impl ClusterSums {
    fn from(scrapes: &[BackendScrape]) -> ClusterSums {
        let mut s = ClusterSums {
            healthy: 0,
            draining: 0,
            dead: 0,
            submitted: 0,
            deduped: 0,
            completed: 0,
            failed: 0,
            cold: 0,
            disk_hits: 0,
            mem_hits: 0,
            spec_hits: 0,
            spec: None,
            jobs_per_sec: 0.0,
        };
        for b in scrapes {
            match b.state {
                BackendState::Healthy => s.healthy += 1,
                BackendState::Draining => s.draining += 1,
                BackendState::Dead => s.dead += 1,
            }
            let Some((_, v)) = &b.stats else {
                continue;
            };
            s.submitted += u64_at(v, &["jobs", "submitted"]);
            s.deduped += u64_at(v, &["jobs", "deduped"]);
            s.completed += u64_at(v, &["jobs", "completed"]);
            s.failed += u64_at(v, &["jobs", "failed"]);
            s.cold += u64_at(v, &["cache", "cold"]);
            s.disk_hits += u64_at(v, &["cache", "disk_hits"]);
            s.mem_hits += u64_at(v, &["cache", "mem_hits"]);
            s.spec_hits += u64_at(v, &["cache", "spec_hits"]);
            if v.get("spec").is_some() {
                let sp = s.spec.get_or_insert([0; 6]);
                for (i, key) in ["started", "hit", "miss", "waste", "cancelled", "pending"]
                    .iter()
                    .enumerate()
                {
                    sp[i] += u64_at(v, &["spec", key]);
                }
            }
            s.jobs_per_sec += v
                .get("throughput")
                .and_then(|t| t.get("jobs_per_sec"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_serve::{JobSpec, ServeConfig, ServerState, SpecConfig};

    fn cfg2() -> RouterConfig {
        RouterConfig {
            backends: vec!["127.0.0.1:8601".to_string(), "127.0.0.1:8602".to_string()],
            ..RouterConfig::default()
        }
    }

    /// A real serve-stats document, produced by the serve crate itself so
    /// the embedded shape can never drift from what backends emit.
    fn serve_doc(speculate: bool, backend_id: Option<&str>) -> (String, Json) {
        let state = ServerState::new(ServeConfig {
            store: None,
            backend_id: backend_id.map(str::to_string),
            spec: speculate.then(SpecConfig::default),
            ..ServeConfig::default()
        })
        .unwrap();
        if speculate {
            // A demand whose four-point neighbourhood stays pending, so
            // the ledger is non-trivial.
            state
                .submit(JobSpec::parse("{\"bench\": \"181.mcf\"}").unwrap())
                .unwrap();
        }
        let text = state.stats_json();
        let v = json::parse(&text).unwrap();
        schema::validate_serve_stats(&v, "test").unwrap();
        (text, v)
    }

    fn scrape(
        id: &str,
        addr: &str,
        state: BackendState,
        stats: Option<(String, Json)>,
    ) -> BackendScrape {
        BackendScrape {
            id: id.to_string(),
            addr: addr.to_string(),
            state,
            consecutive_failures: 0,
            routed: 0,
            stats,
        }
    }

    #[test]
    fn composite_ids_round_trip_and_reject_out_of_range() {
        let rid = compose_id(2, 7).unwrap();
        assert_eq!(decode_id(rid, 3), Some((2, 7)));
        assert_eq!(decode_id(rid, 2), None, "index beyond the ring");
        assert_eq!(decode_id(7, 3), None, "raw local ids never decode");
        assert_eq!(compose_id(0, LOCAL_ID_MASK + 1), None);
        let max = compose_id(0, LOCAL_ID_MASK).unwrap();
        assert_eq!(decode_id(max, 1), Some((0, LOCAL_ID_MASK)));
    }

    #[test]
    fn record_id_rewrite_touches_only_the_id() {
        let body = "{\"schema\":\"wec-job-record-v1\",\"id\":5,\"kind\":\"sim\",\"scale\":1}";
        let out = rewrite_record_id(body, 1).unwrap();
        let rid = compose_id(1, 5).unwrap();
        assert_eq!(
            out,
            format!(
                "{{\"schema\":\"wec-job-record-v1\",\"id\":{rid},\"kind\":\"sim\",\"scale\":1}}"
            )
        );
        assert!(rewrite_record_id("{\"error\":\"nope\"}", 1).is_none());
    }

    #[test]
    fn stats_doc_validates_and_conserves_with_mixed_backends() {
        let state = RouterState::new(cfg2()).unwrap();
        // One speculating backend scraped live, one dead and unscraped.
        let scrapes = vec![
            scrape(
                "node-a",
                "127.0.0.1:8601",
                BackendState::Healthy,
                Some(serve_doc(true, Some("node-a"))),
            ),
            scrape("127.0.0.1:8602", "127.0.0.1:8602", BackendState::Dead, None),
        ];
        let doc = state.render_stats_json(&scrapes);
        let report = schema::validate_router_stats_json(&doc).unwrap();
        assert_eq!(report.backends, 2);
        assert_eq!(report.scraped, 1);
        let v = json::parse(&doc).unwrap();
        assert_eq!(u64_at(&v, &["cluster", "backends", "healthy"]), 1);
        assert_eq!(u64_at(&v, &["cluster", "backends", "dead"]), 1);
        assert_eq!(u64_at(&v, &["cluster", "spec", "pending"]), 4);
        assert_eq!(u64_at(&v, &["cluster", "spec", "started"]), 4);
    }

    #[test]
    fn stats_doc_omits_the_spec_block_without_speculating_backends() {
        let state = RouterState::new(cfg2()).unwrap();
        let scrapes = vec![
            scrape(
                "a",
                "127.0.0.1:8601",
                BackendState::Healthy,
                Some(serve_doc(false, None)),
            ),
            scrape(
                "b",
                "127.0.0.1:8602",
                BackendState::Draining,
                Some(serve_doc(false, None)),
            ),
        ];
        let doc = state.render_stats_json(&scrapes);
        schema::validate_router_stats_json(&doc).unwrap();
        assert!(!doc.contains("\"spec\":{"), "{doc}");
        assert_eq!(
            u64_at(
                &json::parse(&doc).unwrap(),
                &["cluster", "backends", "draining"]
            ),
            1
        );
    }

    #[test]
    fn prometheus_page_is_internally_consistent() {
        let state = RouterState::new(cfg2()).unwrap();
        state.proxied.store(4, Ordering::SeqCst);
        let scrapes = vec![
            scrape(
                "node-a",
                "127.0.0.1:8601",
                BackendState::Healthy,
                Some(serve_doc(true, Some("node-a"))),
            ),
            scrape(
                "node-b",
                "127.0.0.1:8602",
                BackendState::Healthy,
                Some(serve_doc(false, Some("node-b"))),
            ),
        ];
        let page = state.render_prometheus(&scrapes);
        assert!(page.contains("wec_router_proxied_total 4"), "{page}");
        assert!(page.contains("wec_router_backend_up{backend=\"node-a\",state=\"healthy\"} 1"));
        // Per-backend completed sums to the cluster total (zero here, but
        // both series must exist for the CI gate).
        assert!(page.contains("wec_router_backend_completed_total{backend=\"node-a\"} 0"));
        assert!(page.contains("wec_router_jobs_completed_total 0"));
        // The spec ledger appears (and conserves) on the same page.
        assert!(page.contains("wec_router_spec_started_total 4"));
        assert!(page.contains("wec_router_spec_pending_total 4"));
        assert!(page.contains("wec_router_spec_hit_total 0"));
    }
}
