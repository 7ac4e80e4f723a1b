//! Request routing and graceful drain.
//!
//! The daemon is deliberately boring concurrency: a blocking listener
//! served by the shared accept loop ([`crate::daemon`]), one short-lived
//! thread per connection (one request per connection, `Connection:
//! close`), and the long-lived worker pool behind the queue.  Drain —
//! `POST /shutdown` or SIGTERM/SIGINT — flips one flag: submissions start
//! answering `503`, the loop's watcher waits for the outstanding-job count
//! to reach zero and wakes the loop, which answers every connection still
//! queued and returns; then the queue closes, the workers and the sampler
//! are joined, `stats.json` is written, and [`Server::run`] returns.
//!
//! Every answered request is observed twice on the way out: counted into
//! the per-endpoint request/latency metrics behind `GET /metrics`, and
//! appended to `access.jsonl` (`wec-access-log-v1`) when a log directory
//! is configured.  Handlers return the status they wrote so the
//! connection wrapper does both without each handler threading it back.
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
//! | GET       | `/dashboard/data`      | `wec-dashboard-data-v1` document         |
//! | POST      | `/shutdown`            | begin graceful drain                     |

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wec_telemetry::json::escape_into;

use crate::daemon;
use crate::dashboard;
use crate::http::{self, ChunkedWriter, CountingWriter, Request};
use crate::job::JobState;
use crate::lock;
use crate::metrics::endpoint_index;
use crate::ringbuf::{sample_from, SampleCursor};
use crate::state::{ServeConfig, ServerState, SubmitError};
use crate::worker;

fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

/// The daemon: a bound listener plus its worker pool and sampler.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and spawn
    /// the worker pool and the ring-buffer sampler.  The listener is live
    /// once this returns.  A `backend_id` of `"auto"` resolves to the
    /// bound address (ephemeral port included), so `--backend-id auto`
    /// yields a stable, unique identity per listening daemon.
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut cfg = cfg;
        if cfg.backend_id.as_deref() == Some("auto") {
            cfg.backend_id = Some(listener.local_addr()?.to_string());
        }
        let state = ServerState::new(cfg)?;
        let workers = worker::spawn(&state);
        let sampler = spawn_sampler(&state);
        Ok(Server {
            listener,
            state,
            workers,
            sampler,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Serve until drained: accept until shutdown is requested and every
    /// accepted job is terminal, then close the queue, join the workers
    /// and the sampler, and write the exit logs.
    pub fn run(self) -> io::Result<()> {
        let state = &self.state;
        daemon::run(
            &self.listener,
            "wec-serve",
            &state.draining,
            || {
                // Queued speculation would hold `outstanding` up forever
                // once demand stops; reclaim it so drain only waits on
                // real work.
                state.purge_speculation();
                state.outstanding() == 0
            },
            |stream| handle_conn(state, stream),
        )?;
        self.state.queue.close();
        for h in self.workers {
            let _ = h.join();
        }
        self.state.sampler_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.sampler {
            let _ = h.join();
        }
        self.state.write_exit_logs();
        Ok(())
    }
}

/// The ring-buffer sampler: every `sample_interval`, turn one consistent
/// stats snapshot into a [`crate::ringbuf::ServiceSample`] and push it.
/// Disabled by a zero interval (zero cost when off — no thread exists).
fn spawn_sampler(state: &Arc<ServerState>) -> Option<JoinHandle<()>> {
    let interval = state.cfg.sample_interval;
    if interval.is_zero() {
        return None;
    }
    let st = state.clone();
    std::thread::Builder::new()
        .name("wec-serve-sampler".to_string())
        .spawn(move || {
            let mut cursor = SampleCursor::default();
            // Prime so the first real sample rates over a full interval.
            sample_from(&st.snapshot(), &mut cursor);
            loop {
                // Sleep in short slices so drain never waits a full
                // interval for this thread.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if st.sampler_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let nap = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(nap);
                    slept += nap;
                }
                if let Some(s) = sample_from(&st.snapshot(), &mut cursor) {
                    st.samples.push(s);
                }
            }
        })
        .ok()
}

fn handle_conn(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut w = CountingWriter::new(BufWriter::new(stream));
    let t = Instant::now();
    match http::read_request(&mut reader) {
        Ok(req) => {
            if let Ok(status) = route(state, &req, &mut w) {
                let _ = w.flush();
                let dur_us = t.elapsed().as_micros() as u64;
                state
                    .metrics
                    .observe_request(endpoint_index(&req.path), status, dur_us);
                state.log_access(&req.method, &req.path, status, dur_us, w.bytes_written());
            }
        }
        Err(e) => {
            // Malformed input gets a 400; transport errors and clean
            // closes get nothing (there is no one left to answer).
            if let Some(msg) = e.client_message() {
                let ok = http::write_json(&mut w, 400, "Bad Request", &error_json(msg)).is_ok();
                let _ = w.flush();
                if ok {
                    let dur_us = t.elapsed().as_micros() as u64;
                    state.log_access("-", "-", 400, dur_us, w.bytes_written());
                }
            }
        }
    }
    let _ = w.flush();
}

/// Dispatch one request; returns the response status actually written (for
/// the request metrics and the access log).
fn route<W: Write>(state: &Arc<ServerState>, req: &Request, w: &mut W) -> io::Result<u16> {
    let method = req.method.as_str();
    match req.path.as_str() {
        "/jobs" => match method {
            "POST" => submit(state, req, w),
            _ => method_not_allowed(w, "POST"),
        },
        "/stats" => match method {
            "GET" => reply_json(w, 200, "OK", &state.stats_json()),
            "HEAD" => reply_head(w, &state.stats_json()),
            _ => method_not_allowed(w, "GET, HEAD"),
        },
        "/healthz" => {
            let body = format!(
                "{{\"ok\":true,\"draining\":{}}}",
                state.draining.load(Ordering::SeqCst)
            );
            match method {
                "GET" => reply_json(w, 200, "OK", &body),
                "HEAD" => reply_head(w, &body),
                _ => method_not_allowed(w, "GET, HEAD"),
            }
        }
        "/metrics" => match method {
            "GET" => {
                let page = state
                    .metrics
                    .render_prometheus(&state.snapshot(), state.backend_id());
                http::write_response(
                    w,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    page.as_bytes(),
                    &[],
                )?;
                Ok(200)
            }
            _ => method_not_allowed(w, "GET"),
        },
        "/dashboard" => match method {
            "GET" => {
                http::write_response(
                    w,
                    200,
                    "OK",
                    "text/html; charset=utf-8",
                    dashboard::DASHBOARD_HTML.as_bytes(),
                    &[],
                )?;
                Ok(200)
            }
            _ => method_not_allowed(w, "GET"),
        },
        "/dashboard/data" => match method {
            "GET" => reply_json(w, 200, "OK", &dashboard::dashboard_data_json(state)),
            _ => method_not_allowed(w, "GET"),
        },
        "/shutdown" => match method {
            "POST" => {
                state.draining.store(true, Ordering::SeqCst);
                reply_json(w, 200, "OK", "{\"draining\":true}")
            }
            _ => method_not_allowed(w, "POST"),
        },
        path => match path.strip_prefix("/jobs/") {
            Some(rest) => job_route(state, method, rest, w),
            None => reply_json(w, 404, "Not Found", &error_json("no such endpoint")),
        },
    }
}

fn reply_json<W: Write>(w: &mut W, status: u16, reason: &str, body: &str) -> io::Result<u16> {
    http::write_json(w, status, reason, body)?;
    Ok(status)
}

/// The `HEAD` twin of a JSON `GET`: same status and `Content-Length`, no
/// body bytes.
fn reply_head<W: Write>(w: &mut W, body: &str) -> io::Result<u16> {
    http::write_head_only(w, 200, "OK", "application/json", body.len())?;
    Ok(200)
}

fn method_not_allowed<W: Write>(w: &mut W, allow: &str) -> io::Result<u16> {
    http::write_response(
        w,
        405,
        "Method Not Allowed",
        "application/json",
        error_json("method not allowed").as_bytes(),
        &[("Allow", allow.to_string())],
    )?;
    Ok(405)
}

fn submit<W: Write>(state: &Arc<ServerState>, req: &Request, w: &mut W) -> io::Result<u16> {
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return reply_json(w, 400, "Bad Request", &error_json(&e)),
    };
    let spec = match crate::job::JobSpec::parse(body) {
        Ok(s) => s,
        Err(e) => return reply_json(w, 400, "Bad Request", &error_json(&e)),
    };
    match state.submit(spec) {
        Ok(slot) => reply_json(w, 200, "OK", &slot.record().to_json()),
        Err(e) => {
            let msg = match e {
                SubmitError::QueueFull => "queue full, retry later",
                SubmitError::Draining => "draining, not accepting jobs",
            };
            // A draining 503 carries `X-Wec-Draining: true` so a fronting
            // router can re-shard immediately instead of burning its
            // retry budget against a node that will never accept.
            let mut headers = vec![("Retry-After", retry_after_secs(state).to_string())];
            if e == SubmitError::Draining {
                headers.push(("X-Wec-Draining", "true".to_string()));
            }
            http::write_response(
                w,
                503,
                "Service Unavailable",
                "application/json",
                error_json(msg).as_bytes(),
                &headers,
            )?;
            Ok(503)
        }
    }
}

/// How long a refused submitter should wait before retrying: the time the
/// backlog will take to clear at the recently observed completion rate
/// (ring sampler), falling back to the lifetime mean service time spread
/// over the pool, clamped to 1..=30 seconds.  A lightly loaded server
/// still answers 1; a deep queue of slow jobs answers up to 30.
fn retry_after_secs(state: &ServerState) -> u64 {
    let depth = state.queue.depth() as f64;
    let secs = match state
        .samples
        .last()
        .map(|s| s.jobs_per_sec)
        .filter(|&r| r > 0.0)
    {
        Some(rate) => depth / rate,
        None => {
            let mean_ms = state.metrics.mean_job_duration_ms();
            let workers = state.cfg.workers.max(1) as f64;
            depth * mean_ms / 1000.0 / workers
        }
    };
    (secs.ceil() as u64).clamp(1, 30)
}

fn job_route<W: Write>(
    state: &Arc<ServerState>,
    method: &str,
    rest: &str,
    w: &mut W,
) -> io::Result<u16> {
    let mut parts = rest.splitn(2, '/');
    let id = parts.next().unwrap_or("");
    let sub = parts.next();
    let slot = match id.parse::<u64>().ok().and_then(|id| state.job(id)) {
        Some(s) => s,
        None => return reply_json(w, 404, "Not Found", &error_json("no such job")),
    };
    match (method, sub) {
        ("GET", None) => reply_json(w, 200, "OK", &slot.record().to_json()),
        ("GET", Some("result.kv")) => {
            let rec = slot.record();
            match rec.state {
                JobState::Done => {
                    http::write_response(
                        w,
                        200,
                        "OK",
                        "text/plain",
                        rec.metrics_kv().as_bytes(),
                        &[],
                    )?;
                    Ok(200)
                }
                JobState::Failed => {
                    reply_json(w, 500, "Internal Server Error", &error_json(&rec.error))
                }
                _ => reply_json(w, 202, "Accepted", &rec.to_json()),
            }
        }
        ("GET", Some("events")) => stream_events(state, &slot, w),
        ("GET", Some("attribution")) => {
            let rec = slot.record();
            match (&rec.attr, rec.state) {
                (Some(attr), _) => reply_json(w, 200, "OK", &attr.report_json),
                (None, s) if !s.terminal() => reply_json(w, 202, "Accepted", &rec.to_json()),
                (None, _) => reply_json(
                    w,
                    404,
                    "Not Found",
                    &error_json(
                        "no attribution ledger for this job (start the daemon with --attribution and submit a replay job)",
                    ),
                ),
            }
        }
        ("GET", Some(_)) => reply_json(w, 404, "Not Found", &error_json("no such endpoint")),
        _ => method_not_allowed(w, "GET"),
    }
}

/// Stream the job's progress lines as they appear (chunked transfer, one
/// `progress.jsonl` line per chunk), ending once the job is terminal and
/// everything buffered has been sent, or at the stream deadline.
fn stream_events<W: Write>(
    state: &Arc<ServerState>,
    slot: &Arc<crate::state::JobSlot>,
    w: &mut W,
) -> io::Result<u16> {
    let mut cw = ChunkedWriter::begin(w, 200, "OK", "application/jsonl")?;
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
