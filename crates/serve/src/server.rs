//! Request routing and graceful drain.
//!
//! The daemon is deliberately boring concurrency: a blocking listener
//! served by the shared accept loop ([`crate::daemon`]), one thread per
//! connection answering requests until the connection ends (HTTP/1.1
//! keep-alive), and the long-lived worker pool behind the queue.  Drain —
//! `POST /shutdown` or SIGTERM/SIGINT — flips one flag: submissions start
//! answering `503`, the loop's watcher waits for the outstanding-job count
//! to reach zero and wakes the loop, which answers every connection still
//! queued and returns; then the queue closes, the workers are joined,
//! `stats.json` is written, and [`Server::run`] returns.
//!
//! Every answered request is observed twice on the way out: counted into
//! the per-endpoint request/latency metrics behind `GET /metrics`, and
//! appended to `access.jsonl` (`wec-access-log-v1`) when a log directory
//! is configured.  Handlers return the status they wrote so the
//! connection loop does both without each handler threading it back.
//!
//! Endpoints:
//!
//! | method    | path                   | answer                                   |
//! |-----------|------------------------|------------------------------------------|
//! | POST      | `/jobs`                | job record (shared on dedup); `503` full |
//! | GET       | `/jobs/<id>`           | `wec-job-record-v1` document             |
//! | GET       | `/jobs/<id>/result.kv` | result counters; `202` until terminal    |
//! | GET       | `/jobs/<id>/events`    | chunked `progress.jsonl` stream          |
//! | GET       | `/jobs/<id>/attribution` | `wec-attribution-v1` ledger; `404` off |
//! | GET, HEAD | `/stats`               | `wec-serve-stats-v1` document (v2 with `--speculate`) |
//! | GET, HEAD | `/healthz`             | liveness probe (`{"ok":…,"draining":…}`) |
//! | GET       | `/metrics`             | Prometheus-style text exposition         |
//! | GET       | `/dashboard`           | self-contained live dashboard page       |
//! | GET       | `/dashboard/data`      | `wec-dashboard-data-v2` document         |
//! | POST      | `/shutdown`            | begin graceful drain                     |

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::daemon::{self, Service};
use crate::dashboard;
use crate::http::{error_json, Reply, Request};
use crate::job::JobState;
use crate::lock;
use crate::metrics::endpoint_index;
use crate::state::{JobSlot, ServeConfig, ServerState, SubmitError};
use crate::worker;

/// The daemon: a bound listener plus its worker pool.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and spawn
    /// the worker pool.  The listener is live once this returns.  A
    /// `backend_id` of `"auto"` resolves to the bound address (ephemeral
    /// port included), so `--backend-id auto` yields a stable, unique
    /// identity per listening daemon.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut cfg = cfg;
        if cfg.backend_id.as_deref() == Some("auto") {
            cfg.backend_id = Some(listener.local_addr()?.to_string());
        }
        let state = ServerState::new(cfg)?;
        let workers = worker::spawn(&state);
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Serve until drained: accept until shutdown is requested and every
    /// accepted job is terminal, then close the queue, join the workers,
    /// and write the exit logs.
    pub fn run(self) -> io::Result<()> {
        let state = &self.state;
        daemon::run(
            &self.listener,
            "wec-serve",
            &state.draining,
            state.cfg.io_timeout,
            || {
                // Queued speculation would hold `outstanding` up forever
                // once demand stops; reclaim it so drain only waits on
                // real work.
                state.purge_speculation();
                state.outstanding() == 0
            },
            &**state,
        )?;
        self.state.queue.close();
        for h in self.workers {
            let _ = h.join();
        }
        self.state.write_exit_logs();
        Ok(())
    }
}

impl Service for ServerState {
    fn route<W: Write>(&self, req: &Request, reply: &mut Reply<'_, W>) -> io::Result<u16> {
        route(self, req, reply)
    }

    fn answered(&self, req: Option<&Request>, status: u16, dur_us: u64, bytes: u64) {
        match req {
            Some(req) => {
                self.metrics
                    .observe_request(endpoint_index(&req.path), status, dur_us);
                self.log_access(&req.method, &req.path, status, dur_us, bytes);
            }
            None => self.log_access("-", "-", status, dur_us, bytes),
        }
    }
}

/// Dispatch one request; returns the response status actually written (for
/// the request metrics and the access log).
fn route<W: Write>(state: &ServerState, req: &Request, w: &mut Reply<'_, W>) -> io::Result<u16> {
    let method = req.method.as_str();
    match req.path.as_str() {
        "/jobs" => match method {
            "POST" => submit(state, req, w),
            _ => w.method_not_allowed("POST"),
        },
        "/stats" => match method {
            "GET" => w.json(200, "OK", &state.stats_json()),
            "HEAD" => w.json_head(&state.stats_json()),
            _ => w.method_not_allowed("GET, HEAD"),
        },
        "/healthz" => {
            let body = format!(
                "{{\"ok\":true,\"draining\":{}}}",
                state.draining.load(Ordering::SeqCst)
            );
            match method {
                "GET" => w.json(200, "OK", &body),
                "HEAD" => w.json_head(&body),
                _ => w.method_not_allowed("GET, HEAD"),
            }
        }
        "/metrics" => match method {
            "GET" => {
                let page = state
                    .metrics
                    .render_prometheus(&state.snapshot(), state.backend_id());
                w.send(200, "OK", "text/plain; version=0.0.4", page.as_bytes(), &[])
            }
            _ => w.method_not_allowed("GET"),
        },
        "/dashboard" => match method {
            "GET" => w.send(
                200,
                "OK",
                "text/html; charset=utf-8",
                dashboard::DASHBOARD_HTML.as_bytes(),
                &[],
            ),
            _ => w.method_not_allowed("GET"),
        },
        "/dashboard/data" => match method {
            "GET" => w.json(200, "OK", &dashboard::dashboard_data_json(state)),
            _ => w.method_not_allowed("GET"),
        },
        "/shutdown" => match method {
            "POST" => {
                state.draining.store(true, Ordering::SeqCst);
                w.json(200, "OK", "{\"draining\":true}")
            }
            _ => w.method_not_allowed("POST"),
        },
        path => match path.strip_prefix("/jobs/") {
            Some(rest) => job_route(state, method, rest, w),
            None => w.error(404, "Not Found", "no such endpoint"),
        },
    }
}

fn submit<W: Write>(state: &ServerState, req: &Request, w: &mut Reply<'_, W>) -> io::Result<u16> {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return w.error(400, "Bad Request", &e),
    };
    let spec = match crate::job::JobSpec::parse(body) {
        Ok(s) => s,
        Err(e) => return w.error(400, "Bad Request", &e),
    };
    match state.submit(spec) {
        Ok(slot) => w.json(200, "OK", &slot.record().to_json()),
        Err(e) => {
            let msg = match e {
                SubmitError::QueueFull => "queue full, retry later",
                SubmitError::Draining => "draining, not accepting jobs",
            };
            // A draining 503 carries `X-Wec-Draining: true` so a fronting
            // router can re-shard immediately instead of burning its
            // retry budget against a node that will never accept.
            let secs = retry_after_secs(
                state.queue.depth(),
                state.metrics.mean_job_duration_ms(),
                state.cfg.workers,
            );
            let mut headers = vec![("Retry-After", secs.to_string())];
            if e == SubmitError::Draining {
                headers.push(("X-Wec-Draining", "true".to_string()));
            }
            w.send(
                503,
                "Service Unavailable",
                "application/json",
                error_json(msg).as_bytes(),
                &headers,
            )
        }
    }
}

/// How long a refused submitter should wait before retrying: the time the
/// backlog takes to clear at the lifetime mean service time spread over
/// the pool, `ceil(depth × mean job ms / workers / 1000)`, clamped to
/// 1..=30 seconds.  A lightly loaded server still answers 1; a deep queue
/// of slow jobs answers up to 30.
fn retry_after_secs(depth: usize, mean_job_ms: f64, workers: usize) -> u64 {
    let secs = depth as f64 * mean_job_ms / workers.max(1) as f64 / 1000.0;
    (secs.ceil() as u64).clamp(1, 30)
}

fn job_route<W: Write>(
    state: &ServerState,
    method: &str,
    rest: &str,
    w: &mut Reply<'_, W>,
) -> io::Result<u16> {
    let mut parts = rest.splitn(2, '/');
    let id = parts.next().unwrap_or("");
    let sub = parts.next();
    let slot = match id.parse::<u64>().ok().and_then(|id| state.job(id)) {
        Some(s) => s,
        None => return w.error(404, "Not Found", "no such job"),
    };
    match (method, sub) {
        ("GET", None) => w.json(200, "OK", &slot.record().to_json()),
        ("GET", Some("result.kv")) => {
            let rec = slot.record();
            match rec.state {
                JobState::Done => w.send(200, "OK", "text/plain", rec.metrics_kv().as_bytes(), &[]),
                JobState::Failed => w.error(500, "Internal Server Error", &rec.error),
                _ => w.json(202, "Accepted", &rec.to_json()),
            }
        }
        ("GET", Some("events")) => stream_events(state, &slot, w),
        ("GET", Some("attribution")) => {
            let rec = slot.record();
            match (&rec.attr, rec.state) {
                (Some(attr), _) => w.json(200, "OK", &attr.report_json),
                (None, s) if !s.terminal() => w.json(202, "Accepted", &rec.to_json()),
                (None, _) => w.error(
                    404,
                    "Not Found",
                    "no attribution ledger for this job (start the daemon with --attribution and submit a replay job)",
                ),
            }
        }
        ("GET", Some(_)) => w.error(404, "Not Found", "no such endpoint"),
        _ => w.method_not_allowed("GET"),
    }
}

/// Stream the job's progress lines as they appear (chunked transfer, one
/// `progress.jsonl` line per chunk), ending once the job is terminal and
/// everything buffered has been sent, or at the stream deadline.
fn stream_events<W: Write>(
    state: &ServerState,
    slot: &JobSlot,
    w: &mut Reply<'_, W>,
) -> io::Result<u16> {
    let mut cw = w.chunked(200, "OK", "application/jsonl")?;
    let deadline = Instant::now() + state.cfg.events_timeout;
    let mut sent = 0usize;
    loop {
        let (new_lines, terminal) = {
            let mut g = lock(&slot.inner);
            loop {
                if g.events.len() > sent || g.record.state.terminal() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let wait = (deadline - now).min(Duration::from_millis(200));
                let (guard, _) = slot
                    .cv
                    .wait_timeout(g, wait)
                    .unwrap_or_else(|e| e.into_inner());
                g = guard;
            }
            (g.events[sent..].to_vec(), g.record.state.terminal())
        };
        for line in &new_lines {
            cw.chunk(format!("{line}\n").as_bytes())?;
        }
        sent += new_lines.len();
        // Terminal was read under the same lock as the copy, so there is
        // nothing left to arrive once it is set.
        if terminal || Instant::now() >= deadline {
            break;
        }
    }
    cw.finish()?;
    Ok(200)
}

#[cfg(test)]
mod tests {
    use super::retry_after_secs;

    #[test]
    fn retry_after_is_the_backlog_over_the_pool_clamped_to_thirty_seconds() {
        // ceil(depth × mean ms / workers / 1000).
        assert_eq!(retry_after_secs(10, 3000.0, 2), 15);
        assert_eq!(retry_after_secs(5, 700.0, 2), 2);
        assert_eq!(retry_after_secs(3, 1000.0, 1), 3);
        // An idle or fast server still asks for one second.
        assert_eq!(retry_after_secs(0, 5000.0, 4), 1);
        assert_eq!(retry_after_secs(3, 500.0, 2), 1);
        assert_eq!(retry_after_secs(8, 0.0, 2), 1);
        // A deep queue of slow jobs asks for at most thirty.
        assert_eq!(retry_after_secs(100, 2000.0, 1), 30);
        // A zero-worker count is read as one worker.
        assert_eq!(retry_after_secs(4, 1000.0, 0), 4);
    }
}
