//! The router's request routing and graceful drain.
//!
//! Same concurrency shape as the serve daemon it fronts, on the same
//! blocking accept-and-drain loop and connection loop
//! ([`wec_serve::daemon`]): one thread per connection, answering requests
//! until the connection ends (HTTP/1.1 keep-alive).  Each backend's
//! [`wec_serve::http::Client`] keeps a few idle connections to it, so a
//! proxied request or a stats scrape usually skips the connect.  A
//! background health thread probes every backend's `/healthz` on a fixed
//! interval, on a fresh connection each time; connection threads only
//! *read* ring state (plus failure bookkeeping on exchanges they
//! themselves attempted), so routing never blocks on probes.
//!
//! Submit routing walks the rendezvous order for the job's dedup key:
//!
//! 1. the first routable candidate is the owner — identical submissions
//!    from any client converge on it, which is what makes cross-node
//!    dedup hold without backend coordination;
//! 2. a queue-full `503` is retried against the same owner (bounded by
//!    `retries`, waiting out `Retry-After` up to `backoff_cap`) — the
//!    job's warm state lives there, moving it would forfeit dedup;
//! 3. a connect failure, timeout, or `X-Wec-Draining` answer re-shards
//!    to the next candidate in rendezvous order — exactly where every
//!    other router (and this one, after the health thread catches up)
//!    would send the same key.
//!
//! Endpoints:
//!
//! | method    | path                 | answer                                      |
//! |-----------|----------------------|---------------------------------------------|
//! | POST      | `/jobs`              | proxied job record (composite id); `503`    |
//! | GET       | `/jobs/<id>`         | proxied record (composite id)               |
//! | GET       | `/jobs/<id>/...`     | proxied verbatim (`events` streamed)        |
//! | GET, HEAD | `/stats`             | `wec-router-stats-v1` (live cluster scrape) |
//! | GET, HEAD | `/healthz`           | `{"ok":…,"draining":…}`                     |
//! | GET       | `/metrics`           | Prometheus exposition (live cluster scrape) |
//! | POST      | `/shutdown`          | begin graceful drain (writes `router.json`) |

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wec_serve::daemon::{self, Service};
use wec_serve::http::{error_json, Reply, Request, Response};
use wec_serve::JobSpec;

use crate::ring::Backend;
use crate::state::{decode_id, rewrite_record_id, RouterConfig, RouterState};

/// The router: a bound listener plus its health thread.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
    health: Option<JoinHandle<()>>,
    health_stop: Arc<AtomicBool>,
}

impl Router {
    /// Bind `addr` and spawn the health thread.  The first health pass
    /// runs before this returns, so the ring reflects reality (a backend
    /// that is down at startup is already failing toward dead) by the
    /// time the first request lands.
    pub fn bind(addr: &str, cfg: RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(
            RouterState::new(cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        );
        state
            .ring
            .health_pass(state.cfg.io_timeout, state.cfg.dead_after);
        let health_stop = Arc::new(AtomicBool::new(false));
        let health = spawn_health(&state, &health_stop);
        Ok(Router {
            listener,
            state,
            health,
            health_stop,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> Arc<RouterState> {
        self.state.clone()
    }

    /// Serve until drained: accept until shutdown is requested and no
    /// request is being handled, answer every connection still queued,
    /// then stop the health thread and write `router.json`.
    pub fn run(self) -> io::Result<()> {
        let state = &self.state;
        // `daemon::run` joins every connection thread before it returns,
        // so `inflight` is zero again when `router.json` is written.
        daemon::run(
            &self.listener,
            "wec-router",
            &state.draining,
            state.cfg.io_timeout,
            || state.inflight.load(Ordering::SeqCst) == 0,
            &**state,
        )?;
        self.health_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health {
            let _ = h.join();
        }
        self.state.write_exit_logs();
        Ok(())
    }
}

/// The health thread: one pass per interval, sleeping in short slices so
/// drain never waits a full interval.
fn spawn_health(state: &Arc<RouterState>, stop: &Arc<AtomicBool>) -> Option<JoinHandle<()>> {
    let st = state.clone();
    let stop = stop.clone();
    std::thread::Builder::new()
        .name("wec-router-health".to_string())
        .spawn(move || loop {
            let mut slept = Duration::ZERO;
            while slept < st.cfg.health_interval {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let nap = (st.cfg.health_interval - slept).min(Duration::from_millis(50));
                std::thread::sleep(nap);
                slept += nap;
            }
            st.ring.health_pass(st.cfg.io_timeout, st.cfg.dead_after);
        })
        .ok()
}

impl Service for RouterState {
    fn route<W: Write>(&self, req: &Request, reply: &mut Reply<'_, W>) -> io::Result<u16> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let status = route(self, req, reply);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        status
    }

    fn answered(&self, _req: Option<&Request>, _status: u16, _dur_us: u64, _bytes: u64) {
        self.requests.fetch_add(1, Ordering::SeqCst);
    }
}

fn route<W: Write>(state: &RouterState, req: &Request, w: &mut Reply<'_, W>) -> io::Result<u16> {
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
                let page = state.render_prometheus(&state.scrape_backends());
                w.send(200, "OK", "text/plain; version=0.0.4", page.as_bytes(), &[])
            }
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

fn reply_503<W: Write>(
    state: &RouterState,
    w: &mut Reply<'_, W>,
    msg: &str,
    retry_after: &str,
) -> io::Result<u16> {
    state.rejected.fetch_add(1, Ordering::SeqCst);
    w.send(
        503,
        "Service Unavailable",
        "application/json",
        error_json(msg).as_bytes(),
        &[("Retry-After", retry_after.to_string())],
    )
}

/// The outcome of trying one backend for a submit.
enum Attempt {
    /// Any response that is not a `503` — forwarded to the client.
    Answered(Response),
    /// Queue-full `503` that survived the retry budget — passed through.
    QueueFull(Response),
    /// The backend said it is draining; re-shard without burning retries.
    Draining,
    /// Transport failure; re-shard and count toward dead.
    Failed,
}

/// Try one backend, retrying queue-full `503`s in place.
fn try_backend(state: &RouterState, backend: &Backend, body: &[u8]) -> Attempt {
    let mut attempt = 0u32;
    loop {
        let resp = match backend
            .client
            .request("POST", "/jobs", Some(body), state.cfg.io_timeout)
        {
            Ok(r) => r,
            Err(_) => return Attempt::Failed,
        };
        if resp.status != 503 {
            return Attempt::Answered(resp);
        }
        if resp.header("X-Wec-Draining") == Some("true") {
            return Attempt::Draining;
        }
        if attempt >= state.cfg.retries {
            return Attempt::QueueFull(resp);
        }
        attempt += 1;
        state.retries.fetch_add(1, Ordering::SeqCst);
        // Honor the backend's Retry-After up to the configured cap — a
        // proxy holding a live client connection cannot wait out a deep
        // queue's full estimate.
        let hinted = resp
            .header("Retry-After")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_millis(100 * attempt as u64));
        std::thread::sleep(hinted.min(state.cfg.backoff_cap));
    }
}

fn submit<W: Write>(state: &RouterState, req: &Request, w: &mut Reply<'_, W>) -> io::Result<u16> {
    if state.draining.load(Ordering::SeqCst) {
        return reply_503(state, w, "draining, not accepting jobs", "1");
    }
    let body = match req.body_utf8() {
        Ok(b) => b,
        Err(e) => return w.error(400, "Bad Request", &e),
    };
    // The router validates before routing: a malformed spec has no dedup
    // key to hash, and bouncing it here keeps garbage off the backends.
    let key = match JobSpec::parse(body) {
        Ok(s) => s.dedup_key(),
        Err(e) => return w.error(400, "Bad Request", &e),
    };

    let order = state.ring.candidates(&key);
    let primary = order[0];
    for idx in order {
        let backend = &state.ring.backends[idx];
        if !backend.routable() {
            continue;
        }
        match try_backend(state, backend, req.body.as_slice()) {
            Attempt::Answered(resp) => {
                backend.record_success();
                // Answered by someone other than the key's primary
                // rendezvous owner: the submit was re-sharded (whether
                // the owner failed just now or was already marked down).
                if idx != primary {
                    state.resharded.fetch_add(1, Ordering::SeqCst);
                }
                if resp.status == 200 {
                    backend.routed.fetch_add(1, Ordering::SeqCst);
                    state.proxied.fetch_add(1, Ordering::SeqCst);
                    let body = resp
                        .body_utf8()
                        .ok()
                        .and_then(|b| rewrite_record_id(b, idx));
                    return match body {
                        Some(b) => w.json(200, "OK", &b),
                        None => w.error(
                            502,
                            "Bad Gateway",
                            "backend answered an unrewritable record",
                        ),
                    };
                }
                // Backend-blamed answers (400 etc.) pass through as-is.
                let reason = if resp.status == 400 {
                    "Bad Request"
                } else {
                    "Bad Gateway"
                };
                return w.send(
                    resp.status,
                    reason,
                    resp.header("Content-Type").unwrap_or("application/json"),
                    &resp.body,
                    &[],
                );
            }
            Attempt::QueueFull(resp) => {
                // The owner is alive but saturated; moving the key would
                // forfeit dedup, so the backpressure passes through with
                // the backend's own Retry-After.
                backend.record_success();
                if idx != primary {
                    state.resharded.fetch_add(1, Ordering::SeqCst);
                }
                let retry_after = resp.header("Retry-After").unwrap_or("1").to_string();
                return reply_503(state, w, "owner queue full, retry later", &retry_after);
            }
            Attempt::Draining => backend.mark_draining(),
            Attempt::Failed => backend.record_failure(state.cfg.dead_after),
        }
    }
    reply_503(state, w, "no routable backend", "1")
}

/// `/jobs/<composite-id>` and sub-paths: decode, forward to the owning
/// backend under its local id, and rewrite the id on record-shaped
/// answers.  `events` streams are relayed verbatim.
fn job_route<W: Write>(
    state: &RouterState,
    method: &str,
    rest: &str,
    w: &mut Reply<'_, W>,
) -> io::Result<u16> {
    let mut parts = rest.splitn(2, '/');
    let id_text = parts.next().unwrap_or("");
    let sub = parts.next();
    let decoded = id_text
        .parse::<u64>()
        .ok()
        .and_then(|rid| decode_id(rid, state.ring.backends.len()));
    let Some((idx, local)) = decoded else {
        return w.error(404, "Not Found", "no such job");
    };
    if method != "GET" {
        return w.method_not_allowed("GET");
    }
    let backend = &state.ring.backends[idx];
    let path = match sub {
        None => format!("/jobs/{local}"),
        Some(s) => format!("/jobs/{local}/{s}"),
    };

    if sub == Some("events") {
        // Verbatim byte relay: the backend's chunked response IS the
        // response.  Nothing has been written yet, so a connect failure
        // can still be answered properly.
        let relayed = backend.client.relay(
            &path,
            w.raw(),
            state.cfg.io_timeout,
            state.cfg.events_timeout,
        );
        return match relayed {
            Ok(_) => Ok(200),
            Err(_) => w.error(502, "Bad Gateway", "backend unreachable"),
        };
    }

    let resp = match backend
        .client
        .request("GET", &path, None, state.cfg.io_timeout)
    {
        Ok(r) => r,
        Err(_) => return w.error(502, "Bad Gateway", "backend unreachable"),
    };
    // Record-shaped bodies (the record GET, and 202 answers on result.kv
    // and attribution) get their id rewritten; everything else — result
    // bytes, error objects, attribution reports — passes through
    // untouched, byte-identical to a direct fetch.
    let body = match resp
        .body_utf8()
        .ok()
        .and_then(|b| rewrite_record_id(b, idx))
    {
        Some(b) => b.into_bytes(),
        None => resp.body.clone(),
    };
    let reason = match resp.status {
        200 => "OK",
        202 => "Accepted",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "",
    };
    w.send(
        resp.status,
        reason,
        resp.header("Content-Type").unwrap_or("application/json"),
        &body,
        &[],
    )
}
