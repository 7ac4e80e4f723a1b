//! The serve daemon binary.
//!
//! ```text
//! wec_serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!           [--store DIR | --no-store] [--log-dir DIR]
//!           [--io-timeout-ms N] [--events-timeout-ms N] [--attribution]
//!           [--speculate] [--backend-id ID]
//! ```
//!
//! Defaults: `127.0.0.1:8407`, [`wec_bench::runner::default_hosts`]
//! workers (so `WEC_JOBS` caps the daemon too), queue capacity 64, and
//! the shared persistent result store at
//! [`wec_bench::runner::default_disk_dir`] (`WEC_RESULT_CACHE`
//! overridable).  With `--log-dir` the daemon appends every terminal job
//! to `jobs.jsonl`, every answered request to `access.jsonl`, and writes
//! `stats.json` on drain — all validated by `telemetry_check`.  The
//! daemon keeps no time series: `GET /dashboard` computes its rates in
//! the browser, between successive polls of `GET /dashboard/data`.
//! `--attribution` attaches the speculation attribution ledger to replay
//! jobs: their records embed a conservation summary,
//! `GET /jobs/<id>/attribution` serves the full
//! `wec-attribution-v1` document, and `/metrics` aggregates the ledger
//! (`wec_serve_attr_*_total`).  `--speculate` turns on the speculative
//! prefetch subsystem: every demand submission enqueues up to four points
//! of its sweep-axis neighbourhood (side entries ±1, L1 ways ±1, the
//! sibling preset, doubled scale), they run on idle workers only, and
//! their results park in the warm memo so a later demand for one of them
//! is answered as an instant, byte-identical `source:"spec"` hit.  The
//! lane keeps [`wec_serve::SpecConfig`]'s default limits.  `--backend-id`
//! names this daemon in a sharded cluster (the literal `auto` derives it
//! from the bound address): the id is stamped into `stats.json`, every
//! `jobs.jsonl` record, and `/metrics` (`wec_serve_backend_info`), so a
//! fronting `wec_router` can attribute aggregated scrapes; without the
//! flag all artifacts stay byte-identical to earlier builds.
//! SIGTERM/SIGINT/`POST /shutdown`
//! drain gracefully: in-flight jobs finish, then the process exits 0.

use std::path::PathBuf;
use std::time::Duration;

use wec_serve::daemon::install_signal_handlers;
use wec_serve::{ServeConfig, Server, SpecConfig};

fn main() {
    let mut addr = "127.0.0.1:8407".to_string();
    let mut cfg = ServeConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
                .clone()
        };
        match a.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                cfg.workers = value("--workers").parse().expect("--workers N");
                assert!(cfg.workers > 0, "--workers must be positive");
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap").parse().expect("--queue-cap N");
                assert!(cfg.queue_cap > 0, "--queue-cap must be positive");
            }
            "--store" => cfg.store = Some(PathBuf::from(value("--store"))),
            "--no-store" => cfg.store = None,
            "--log-dir" => cfg.log_dir = Some(PathBuf::from(value("--log-dir"))),
            "--io-timeout-ms" => {
                cfg.io_timeout = Duration::from_millis(
                    value("--io-timeout-ms").parse().expect("--io-timeout-ms N"),
                );
            }
            "--events-timeout-ms" => {
                cfg.events_timeout = Duration::from_millis(
                    value("--events-timeout-ms")
                        .parse()
                        .expect("--events-timeout-ms N"),
                );
            }
            "--attribution" => cfg.attribution = true,
            "--backend-id" => {
                let id = value("--backend-id");
                assert!(!id.is_empty(), "--backend-id must be non-empty");
                cfg.backend_id = Some(id);
            }
            "--speculate" => cfg.spec = Some(SpecConfig::default()),
            other => panic!("unknown argument {other:?}"),
        }
    }

    install_signal_handlers();
    let server =
        Server::bind(&addr, cfg.clone()).unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    let state = server.state();
    eprintln!(
        "wec-serve listening on {} ({} workers, queue {}, store {}, logs {}, speculation {}, backend {})",
        server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or(addr.clone()),
        cfg.workers,
        cfg.queue_cap,
        cfg.store
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
        cfg.log_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
        cfg.spec
            .as_ref()
            .map(|s| {
                format!(
                    "queue {} inflight {} ttl {}ms",
                    s.queue_cap,
                    s.inflight_max,
                    s.ttl.as_millis()
                )
            })
            .unwrap_or_else(|| "off".to_string()),
        state.backend_id().unwrap_or("-"),
    );
    server
        .run()
        .unwrap_or_else(|e| panic!("serve loop failed: {e}"));
    eprintln!("wec-serve drained: {}", state.stats_json());
}
