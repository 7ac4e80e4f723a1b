//! Serve-layer metrics: per-endpoint HTTP counters and latency histograms,
//! plus the `GET /metrics` Prometheus-style text exposition.
//!
//! Two sources feed one page.  Job/queue/worker counters come from
//! [`StatsSnapshot`] — the same single-mutex snapshot behind `GET /stats`,
//! so `/metrics` and `stats.json` reconcile *exactly* (cold + disk + mem ==
//! completed in every scrape; CI asserts it).  HTTP request counts and
//! latency live here, in [`ServeMetrics`]: one short-held mutex around a
//! small vector of `(endpoint, status) → count` cells and one
//! [`Log2Histogram`] per endpoint — the same telemetry histograms the
//! simulator uses for load-to-fill latencies, so client (loadgen) and
//! server distributions are directly comparable bucket for bucket.
//!
//! The exposition follows the Prometheus text format: `# HELP`/`# TYPE`
//! headers, `_total` counters, gauges, and log2 histograms rendered as
//! cumulative `_bucket{le="..."}` series where `le` is the largest value a
//! log2 bucket can hold (`2^i − 1`), finished by `+Inf`, `_sum` and
//! `_count`.

use std::fmt::Write as _;
use std::sync::Mutex;

use wec_telemetry::hist::Log2Histogram;

use crate::lock;
use crate::state::StatsSnapshot;

/// Endpoint label values, fixed and finite so the exposition can never
/// grow unbounded label cardinality from hostile paths.
pub const ENDPOINTS: &[&str] = &[
    "submit",
    "job",
    "job_result",
    "job_events",
    "job_attribution",
    "stats",
    "healthz",
    "metrics",
    "dashboard",
    "dashboard_data",
    "shutdown",
    "other",
];

/// Map a request path to its endpoint label index in [`ENDPOINTS`].
/// Unknown paths all fold into `other` (bounded cardinality).
pub fn endpoint_index(path: &str) -> usize {
    let label = match path {
        "/jobs" => "submit",
        "/stats" => "stats",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/dashboard" => "dashboard",
        "/dashboard/data" => "dashboard_data",
        "/shutdown" => "shutdown",
        p => match p.strip_prefix("/jobs/") {
            Some(rest) => match rest.split_once('/').map(|(_, sub)| sub) {
                None => "job",
                Some("result.kv") => "job_result",
                Some("events") => "job_events",
                Some("attribution") => "job_attribution",
                Some(_) => "other",
            },
            None => "other",
        },
    };
    ENDPOINTS.iter().position(|e| *e == label).unwrap_or(0)
}

/// Job-duration source labels (`wec_bench::CacheSource` names plus the
/// speculation subsystem's `spec` — speculative executions and
/// speculative warm answers).
const JOB_SOURCES: &[&str] = &["cold", "disk", "mem", "spec"];

fn source_index(source: &str) -> usize {
    JOB_SOURCES.iter().position(|s| *s == source).unwrap_or(0)
}

struct MetricsInner {
    /// `(endpoint index, status, count)` cells, created on first use.  A
    /// linear scan over at most |ENDPOINTS| × |distinct statuses| entries —
    /// a handful — beats a map here.
    requests: Vec<(usize, u16, u64)>,
    /// Response latency per endpoint, microseconds.
    latency_us: Vec<Log2Histogram>,
    /// Submit-to-claim wait per cold job, milliseconds.
    queue_wait_ms: Log2Histogram,
    /// Execution duration per completed job, by cache source, milliseconds.
    job_dur_ms: Vec<Log2Histogram>,
}

/// The HTTP/latency side of the serve metrics (job counters live in
/// `ServerState::counts`; see the module docs for why).
pub struct ServeMetrics {
    inner: Mutex<MetricsInner>,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics {
            inner: Mutex::new(MetricsInner {
                requests: Vec::new(),
                latency_us: vec![Log2Histogram::new(); ENDPOINTS.len()],
                queue_wait_ms: Log2Histogram::new(),
                job_dur_ms: vec![Log2Histogram::new(); JOB_SOURCES.len()],
            }),
        }
    }
}

/// One endpoint's latency digest for `GET /dashboard/data`.
pub struct EndpointLatency {
    pub endpoint: &'static str,
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// `(bucket floor, count)` pairs, non-empty buckets only.
    pub buckets: Vec<(u64, u64)>,
}

impl ServeMetrics {
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Count one answered request and its wall latency.
    pub fn observe_request(&self, endpoint: usize, status: u16, dur_us: u64) {
        let endpoint = endpoint.min(ENDPOINTS.len() - 1);
        let mut g = lock(&self.inner);
        match g
            .requests
            .iter_mut()
            .find(|(e, s, _)| *e == endpoint && *s == status)
        {
            Some(cell) => cell.2 += 1,
            None => g.requests.push((endpoint, status, 1)),
        }
        g.latency_us[endpoint].observe(dur_us);
    }

    /// Record how long a cold job sat queued before a worker claimed it.
    pub fn observe_queue_wait(&self, wait_ms: u64) {
        lock(&self.inner).queue_wait_ms.observe(wait_ms);
    }

    /// Record one completed job's execution duration by cache source.
    pub fn observe_job(&self, source: &str, dur_ms: u64) {
        let mut g = lock(&self.inner);
        g.job_dur_ms[source_index(source)].observe(dur_ms);
    }

    /// Mean execution milliseconds across every observed job, all sources
    /// (the `Retry-After` estimate).
    pub fn mean_job_duration_ms(&self) -> f64 {
        let g = lock(&self.inner);
        let (mut sum, mut count) = (0u64, 0u64);
        for h in &g.job_dur_ms {
            sum += h.sum();
            count += h.count();
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Total requests answered (all endpoints, all statuses).
    pub fn requests_total(&self) -> u64 {
        lock(&self.inner).requests.iter().map(|(_, _, n)| n).sum()
    }

    /// Per-endpoint latency digests for the dashboard, ordered as
    /// [`ENDPOINTS`], endpoints that saw no traffic skipped.
    pub fn endpoint_latencies(&self) -> Vec<EndpointLatency> {
        let g = lock(&self.inner);
        ENDPOINTS
            .iter()
            .enumerate()
            .filter(|(i, _)| !g.latency_us[*i].is_empty())
            .map(|(i, name)| {
                let h = &g.latency_us[i];
                EndpointLatency {
                    endpoint: name,
                    count: h.count(),
                    mean_us: h.mean(),
                    p50_us: h.quantile(0.5),
                    p99_us: h.quantile(0.99),
                    max_us: h.max(),
                    buckets: h
                        .buckets()
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(b, &n)| (Log2Histogram::bucket_floor(b), n))
                        .collect(),
                }
            })
            .collect()
    }

    /// The full `GET /metrics` page for one stats snapshot.  A configured
    /// `backend_id` leads the page as an info-style gauge so a router
    /// aggregating N backends can attribute every scrape; `None` keeps the
    /// page byte-identical to a single-node build.
    pub fn render_prometheus(&self, snap: &StatsSnapshot, backend_id: Option<&str>) -> String {
        let mut out = String::with_capacity(4096);

        if let Some(b) = backend_id {
            gauge_help(
                &mut out,
                "wec_serve_backend_info",
                "Static backend identity for aggregated scrapes (value always 1).",
            );
            let _ = writeln!(out, "wec_serve_backend_info{{backend=\"{b}\"}} 1");
        }
        gauge_help(
            &mut out,
            "wec_serve_uptime_seconds",
            "Seconds since the daemon started.",
        );
        let _ = writeln!(
            out,
            "wec_serve_uptime_seconds {}",
            fmt_f64(snap.uptime_ms as f64 / 1000.0)
        );
        gauge_help(
            &mut out,
            "wec_serve_workers",
            "Configured simulation worker threads.",
        );
        let _ = writeln!(out, "wec_serve_workers {}", snap.workers);
        gauge_help(
            &mut out,
            "wec_serve_busy_workers",
            "Workers currently executing a job.",
        );
        let _ = writeln!(out, "wec_serve_busy_workers {}", snap.busy);
        gauge_help(
            &mut out,
            "wec_serve_draining",
            "1 once graceful drain has begun, else 0.",
        );
        let _ = writeln!(
            out,
            "wec_serve_draining {}",
            if snap.draining { 1 } else { 0 }
        );
        gauge_help(&mut out, "wec_serve_queue_depth", "Jobs waiting in queue.");
        let _ = writeln!(out, "wec_serve_queue_depth {}", snap.queue_depth);
        gauge_help(
            &mut out,
            "wec_serve_queue_cap",
            "Queue capacity (full queue answers 503).",
        );
        let _ = writeln!(out, "wec_serve_queue_cap {}", snap.queue_cap);
        gauge_help(
            &mut out,
            "wec_serve_outstanding_jobs",
            "Jobs accepted and not yet terminal.",
        );
        let _ = writeln!(out, "wec_serve_outstanding_jobs {}", snap.outstanding);

        counter_help(
            &mut out,
            "wec_serve_jobs_submitted_total",
            "Job submissions accepted (including deduplicated ones).",
        );
        let _ = writeln!(out, "wec_serve_jobs_submitted_total {}", snap.submitted);
        counter_help(
            &mut out,
            "wec_serve_jobs_deduped_total",
            "Submissions answered by an already in-flight identical job.",
        );
        let _ = writeln!(out, "wec_serve_jobs_deduped_total {}", snap.deduped);
        counter_help(
            &mut out,
            "wec_serve_jobs_completed_total",
            "Jobs completed, by cache source (sums to jobs completed).",
        );
        let _ = writeln!(
            out,
            "wec_serve_jobs_completed_total{{source=\"cold\"}} {}",
            snap.cold
        );
        let _ = writeln!(
            out,
            "wec_serve_jobs_completed_total{{source=\"disk\"}} {}",
            snap.disk_hits
        );
        let _ = writeln!(
            out,
            "wec_serve_jobs_completed_total{{source=\"mem\"}} {}",
            snap.mem_hits
        );
        if let Some(sp) = &snap.spec {
            // Demand answered synchronously from a speculatively parked
            // result; keeps the by-source split summing to `completed`.
            let _ = writeln!(
                out,
                "wec_serve_jobs_completed_total{{source=\"spec\"}} {}",
                sp.warm_hits
            );
        }
        counter_help(
            &mut out,
            "wec_serve_jobs_failed_total",
            "Jobs that ended in a failure record.",
        );
        let _ = writeln!(out, "wec_serve_jobs_failed_total {}", snap.failed);
        counter_help(
            &mut out,
            "wec_serve_jobs_rejected_total",
            "Submissions refused with 503 (queue full or draining).",
        );
        let _ = writeln!(out, "wec_serve_jobs_rejected_total {}", snap.rejected);
        counter_help(
            &mut out,
            "wec_serve_worker_busy_ms_total",
            "Total worker-occupied milliseconds (utilization numerator).",
        );
        let _ = writeln!(out, "wec_serve_worker_busy_ms_total {}", snap.busy_ms);
        counter_help(
            &mut out,
            "wec_serve_sim_cycles_total",
            "Simulated cycles across all completed jobs.",
        );
        let _ = writeln!(out, "wec_serve_sim_cycles_total {}", snap.sim_cycles);

        // Speculation-ledger aggregates.  Always rendered (zero with
        // attribution off) so scrapers see a stable series set; the four
        // outcome counters plus still_resident sum to the fill counter in
        // every scrape — the ledger's conservation law, aggregated.
        counter_help(
            &mut out,
            "wec_serve_attr_fills_total",
            "Side-structure fills observed by attribution-enabled jobs.",
        );
        let _ = writeln!(out, "wec_serve_attr_fills_total {}", snap.attr_fills);
        counter_help(
            &mut out,
            "wec_serve_attr_useful_total",
            "Speculative fills later hit by a correct-path access.",
        );
        let _ = writeln!(out, "wec_serve_attr_useful_total {}", snap.attr_useful);
        counter_help(
            &mut out,
            "wec_serve_attr_wasted_total",
            "Speculative fills evicted or squashed before any correct-path hit.",
        );
        let _ = writeln!(out, "wec_serve_attr_wasted_total {}", snap.attr_wasted);
        counter_help(
            &mut out,
            "wec_serve_attr_victim_rescued_total",
            "Victim transfers re-referenced from the side structure.",
        );
        let _ = writeln!(
            out,
            "wec_serve_attr_victim_rescued_total {}",
            snap.attr_victim_rescued
        );
        counter_help(
            &mut out,
            "wec_serve_attr_still_resident_total",
            "Side-structure lines still live at the end of their job.",
        );
        let _ = writeln!(
            out,
            "wec_serve_attr_still_resident_total {}",
            snap.attr_still_resident
        );

        // Speculative-prefetch accounting, only with --speculate (a
        // speculation-free daemon's page stays byte-identical).  The four
        // counters plus the pending gauge conserve in every scrape:
        // hit + waste + cancelled + pending == started.
        if let Some(sp) = &snap.spec {
            counter_help(
                &mut out,
                "wec_serve_spec_started_total",
                "Speculative jobs the predictor enqueued.",
            );
            let _ = writeln!(out, "wec_serve_spec_started_total {}", sp.started);
            counter_help(
                &mut out,
                "wec_serve_spec_hit_total",
                "Speculations claimed by a matching demand submission.",
            );
            let _ = writeln!(out, "wec_serve_spec_hit_total {}", sp.hit);
            counter_help(
                &mut out,
                "wec_serve_spec_miss_total",
                "Cold demand submissions the predictor failed to anticipate.",
            );
            let _ = writeln!(out, "wec_serve_spec_miss_total {}", sp.miss);
            counter_help(
                &mut out,
                "wec_serve_spec_waste_total",
                "Speculative results that expired unclaimed.",
            );
            let _ = writeln!(out, "wec_serve_spec_waste_total {}", sp.waste);
            counter_help(
                &mut out,
                "wec_serve_spec_cancelled_total",
                "Speculations reclaimed before producing a served result.",
            );
            let _ = writeln!(out, "wec_serve_spec_cancelled_total {}", sp.cancelled);
            gauge_help(
                &mut out,
                "wec_serve_spec_pending",
                "Started speculations not yet hit, wasted, or cancelled.",
            );
            let _ = writeln!(out, "wec_serve_spec_pending {}", sp.pending);
            gauge_help(
                &mut out,
                "wec_serve_spec_queue_depth",
                "Jobs waiting in the low-priority speculative lane.",
            );
            let _ = writeln!(out, "wec_serve_spec_queue_depth {}", sp.queue_depth);
            gauge_help(
                &mut out,
                "wec_serve_spec_queue_cap",
                "Speculative lane capacity.",
            );
            let _ = writeln!(out, "wec_serve_spec_queue_cap {}", sp.queue_cap);
        }

        let g = lock(&self.inner);
        counter_help(
            &mut out,
            "wec_serve_http_requests_total",
            "HTTP requests answered, by endpoint and status.",
        );
        // Cells accrue in first-seen order; sort for a stable page.
        let mut cells = g.requests.clone();
        cells.sort_unstable();
        for (e, status, n) in &cells {
            let _ = writeln!(
                out,
                "wec_serve_http_requests_total{{endpoint=\"{}\",status=\"{status}\"}} {n}",
                ENDPOINTS[*e]
            );
        }

        histogram_help(
            &mut out,
            "wec_serve_http_request_duration_us",
            "Request wall time in microseconds, by endpoint.",
        );
        for (i, name) in ENDPOINTS.iter().enumerate() {
            let h = &g.latency_us[i];
            if h.is_empty() {
                continue;
            }
            write_hist_series(
                &mut out,
                "wec_serve_http_request_duration_us",
                &format!("endpoint=\"{name}\""),
                h,
            );
        }

        histogram_help(
            &mut out,
            "wec_serve_queue_wait_ms",
            "Milliseconds a cold job sat queued before a worker claimed it.",
        );
        if !g.queue_wait_ms.is_empty() {
            write_hist_series(&mut out, "wec_serve_queue_wait_ms", "", &g.queue_wait_ms);
        }

        histogram_help(
            &mut out,
            "wec_serve_job_duration_ms",
            "Completed-job execution milliseconds, by cache source.",
        );
        for (i, name) in JOB_SOURCES.iter().enumerate() {
            let h = &g.job_dur_ms[i];
            if h.is_empty() {
                continue;
            }
            write_hist_series(
                &mut out,
                "wec_serve_job_duration_ms",
                &format!("source=\"{name}\""),
                h,
            );
        }
        out
    }
}

/// Format a float for the exposition: plain decimal, never NaN/inf.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

fn counter_help(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
}

fn gauge_help(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
}

fn histogram_help(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
}

/// One labelled histogram as cumulative Prometheus `_bucket` series.  Each
/// occupied log2 bucket contributes a `le` at the largest value it can
/// hold (`2^i − 1`); `+Inf`, `_sum` and `_count` close the family.
fn write_hist_series(out: &mut String, name: &str, labels: &str, h: &Log2Histogram) {
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        // Largest value bucket i can hold: 2^i − 1 (bucket 0 holds only 0).
        let le = if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i).wrapping_sub(1)
        };
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
        );
    }
    let sep = if labels.is_empty() { "" } else { "," };
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
    );
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{brace} {}", h.sum());
    let _ = writeln!(out, "{name}_count{brace} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> StatsSnapshot {
        StatsSnapshot {
            uptime_ms: 2500,
            workers: 4,
            busy: 2,
            busy_ms: 1200,
            draining: false,
            queue_depth: 1,
            queue_cap: 64,
            outstanding: 3,
            submitted: 10,
            deduped: 2,
            completed: 7,
            failed: 1,
            rejected: 0,
            cold: 4,
            disk_hits: 1,
            mem_hits: 2,
            sim_cycles: 123456,
            attr_fills: 10,
            attr_useful: 4,
            attr_wasted: 5,
            attr_victim_rescued: 1,
            attr_still_resident: 0,
            spec: None,
        }
    }

    #[test]
    fn endpoints_classify_without_unbounded_labels() {
        assert_eq!(ENDPOINTS[endpoint_index("/jobs")], "submit");
        assert_eq!(ENDPOINTS[endpoint_index("/jobs/17")], "job");
        assert_eq!(
            ENDPOINTS[endpoint_index("/jobs/17/result.kv")],
            "job_result"
        );
        assert_eq!(ENDPOINTS[endpoint_index("/jobs/17/events")], "job_events");
        assert_eq!(
            ENDPOINTS[endpoint_index("/jobs/17/attribution")],
            "job_attribution"
        );
        assert_eq!(ENDPOINTS[endpoint_index("/jobs/17/bogus")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("/stats")], "stats");
        assert_eq!(ENDPOINTS[endpoint_index("/healthz")], "healthz");
        assert_eq!(ENDPOINTS[endpoint_index("/metrics")], "metrics");
        assert_eq!(ENDPOINTS[endpoint_index("/dashboard")], "dashboard");
        assert_eq!(
            ENDPOINTS[endpoint_index("/dashboard/data")],
            "dashboard_data"
        );
        assert_eq!(ENDPOINTS[endpoint_index("/shutdown")], "shutdown");
        assert_eq!(ENDPOINTS[endpoint_index("/etc/passwd")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("/")], "other");
    }

    #[test]
    fn exposition_counters_match_the_snapshot_exactly() {
        let m = ServeMetrics::new();
        m.observe_request(endpoint_index("/stats"), 200, 120);
        m.observe_request(endpoint_index("/stats"), 200, 80);
        m.observe_request(endpoint_index("/jobs"), 503, 40);
        let page = m.render_prometheus(&snap(), None);
        for needle in [
            "wec_serve_jobs_submitted_total 10\n",
            "wec_serve_jobs_deduped_total 2\n",
            "wec_serve_jobs_completed_total{source=\"cold\"} 4\n",
            "wec_serve_jobs_completed_total{source=\"disk\"} 1\n",
            "wec_serve_jobs_completed_total{source=\"mem\"} 2\n",
            "wec_serve_jobs_failed_total 1\n",
            "wec_serve_busy_workers 2\n",
            "wec_serve_queue_depth 1\n",
            "wec_serve_sim_cycles_total 123456\n",
            "wec_serve_attr_fills_total 10\n",
            "wec_serve_attr_useful_total 4\n",
            "wec_serve_attr_wasted_total 5\n",
            "wec_serve_attr_victim_rescued_total 1\n",
            "wec_serve_attr_still_resident_total 0\n",
            "wec_serve_http_requests_total{endpoint=\"submit\",status=\"503\"} 1\n",
            "wec_serve_http_requests_total{endpoint=\"stats\",status=\"200\"} 2\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // cold + disk + mem == completed, straight off the snapshot.
        assert_eq!(4 + 1 + 2, snap().completed);
        // No speculation series without --speculate.
        assert!(!page.contains("wec_serve_spec_"), "spec series leaked");
    }

    #[test]
    fn spec_series_render_and_conserve_when_speculation_is_on() {
        use crate::spec::SpecStats;
        let m = ServeMetrics::new();
        m.observe_job("spec", 12);
        let mut s = snap();
        s.completed = 8;
        s.spec = Some(SpecStats {
            started: 10,
            hit: 4,
            miss: 3,
            waste: 2,
            cancelled: 1,
            pending: 3,
            warm_hits: 1,
            queue_depth: 5,
            queue_cap: 64,
        });
        let page = m.render_prometheus(&s, None);
        for needle in [
            "wec_serve_spec_started_total 10\n",
            "wec_serve_spec_hit_total 4\n",
            "wec_serve_spec_miss_total 3\n",
            "wec_serve_spec_waste_total 2\n",
            "wec_serve_spec_cancelled_total 1\n",
            "wec_serve_spec_pending 3\n",
            "wec_serve_spec_queue_depth 5\n",
            "wec_serve_spec_queue_cap 64\n",
            "wec_serve_jobs_completed_total{source=\"spec\"} 1\n",
            "wec_serve_job_duration_ms_count{source=\"spec\"} 1\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // The conservation invariant and the by-source completion split.
        let sp = s.spec.unwrap();
        assert_eq!(sp.hit + sp.waste + sp.cancelled + sp.pending, sp.started);
        assert_eq!(
            s.cold + s.disk_hits + s.mem_hits + sp.warm_hits,
            s.completed
        );
    }

    #[test]
    fn histogram_series_are_cumulative_and_closed_by_inf() {
        let m = ServeMetrics::new();
        // Bucket 3 (4..=7) twice, bucket 7 (64..=127) once.
        m.observe_request(endpoint_index("/stats"), 200, 5);
        m.observe_request(endpoint_index("/stats"), 200, 6);
        m.observe_request(endpoint_index("/stats"), 200, 100);
        let page = m.render_prometheus(&snap(), None);
        let pfx = "wec_serve_http_request_duration_us";
        assert!(page.contains(&format!("{pfx}_bucket{{endpoint=\"stats\",le=\"7\"}} 2\n")));
        assert!(page.contains(&format!(
            "{pfx}_bucket{{endpoint=\"stats\",le=\"127\"}} 3\n"
        )));
        assert!(page.contains(&format!(
            "{pfx}_bucket{{endpoint=\"stats\",le=\"+Inf\"}} 3\n"
        )));
        assert!(page.contains(&format!("{pfx}_sum{{endpoint=\"stats\"}} 111\n")));
        assert!(page.contains(&format!("{pfx}_count{{endpoint=\"stats\"}} 3\n")));
    }

    #[test]
    fn page_has_no_duplicate_series_and_no_nan() {
        let m = ServeMetrics::new();
        m.observe_request(endpoint_index("/jobs"), 200, 10);
        m.observe_queue_wait(3);
        m.observe_job("cold", 250);
        m.observe_job("mem", 0);
        let page = m.render_prometheus(&snap(), None);
        let mut seen = std::collections::HashSet::new();
        for line in page.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            let v: f64 = value.parse().expect("numeric value");
            assert!(v.is_finite(), "non-finite value in {line:?}");
            assert!(
                seen.insert(series.to_string()),
                "duplicate series {series:?}"
            );
        }
    }
}
