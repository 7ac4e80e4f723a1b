//! Validate a telemetry artifact directory against the crate schemas.
//!
//! ```text
//! telemetry_check DIR [--require kind]... [--require-attribution]
//!                 [--require-spec]
//! ```
//!
//! `DIR` is what a telemetry-mode `experiments` run wrote for one workload
//! (e.g. `target/wec-telemetry/181_mcf`) — or an `--run-out` directory from
//! a table-mode sweep.  Every artifact present is validated —
//! `events.jsonl` and `commits.jsonl` against the event schema with
//! non-decreasing cycle stamps, `timeseries.csv` against the sampler column
//! set, `histograms.json` for bucket/count consistency,
//! `trace.perfetto.json` as Chrome trace-event JSON, `profile.json` against
//! the cycle-loop profiler schema, `progress.jsonl`/`run.json` against
//! the sweep observability schemas, `jobs.jsonl`/`stats.json` against the
//! serve daemon's `wec-job-record-v1` / `wec-serve-stats-v1` schemas (a
//! `--speculate` daemon writes the `wec-serve-stats-v2` superset),
//! `router.json` against the sharding tier's `wec-router-stats-v1`
//! schema (which enforces that every cluster total equals the sum over
//! the embedded backend ledgers),
//! `access.jsonl` against `wec-access-log-v1`, `dashboard.json` (a saved
//! `GET /dashboard/data` payload) against `wec-dashboard-data-v2`, and
//! every `*.wectrace` capture (from `experiments --capture-trace`) by fully
//! decoding it and verifying its file, block, and content checksums.
//! Attribution ledgers — `attribution.json` from a telemetry-mode
//! `--attribution` run, and the `*.attr.json` documents a replay sweep's
//! golden check writes — are validated against `wec-attribution-v1`,
//! which enforces the conservation invariant (`useful + wasted +
//! victim_rescued + still_resident == wec_fills`) per TU and globally.
//! When `DIR` holds both `events.jsonl` and `attribution.json` (one run
//! with `--trace-events --attribution`), their side-structure counts must
//! agree: `wec_fill`, `victim_transfer` and `next_line_prefetch` events
//! equal the ledger's wrong, victim and prefetch fills, and `wec_hit`
//! events equal `useful + victim_rescued`.
//! Each `--require kind` additionally asserts that the event trace
//! contains at least one event of that kind (e.g. `--require wec_fill
//! --require wec_hit`); `--require-attribution` asserts that at least
//! one valid ledger document was found; `--require-spec` asserts that
//! `stats.json` is the `wec-serve-stats-v2` document of a `--speculate`
//! server and that its conserved speculation ledger started at least one
//! prefetch.
//!
//! Exit codes: `0` all artifacts present validated, `1` any validation
//! failed or no artifact was found (a `--require` with no valid
//! `events.jsonl` also fails).

use std::path::Path;
use std::process::ExitCode;

use wec_telemetry::schema;

fn read(dir: &Path, name: &str) -> Option<String> {
    let path = dir.join(name);
    if !path.exists() {
        return None;
    }
    match std::fs::read_to_string(&path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("FAIL {}: unreadable: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut require_attribution = false;
    let mut require_spec = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require" => required.push(it.next().expect("--require kind").clone()),
            "--require-attribution" => require_attribution = true,
            "--require-spec" => require_spec = true,
            other if dir.is_none() => dir = Some(other.to_string()),
            other => panic!("unexpected argument {other:?}"),
        }
    }
    let dir_s = dir.expect("usage: telemetry_check DIR [--require kind]...");
    let dir = Path::new(&dir_s);
    let mut failures = 0u32;
    let mut validated = 0u32;

    // One (file name, validator) per single-file artifact; each validator
    // returns the detail its `ok` line prints.  The events report and the
    // stats text are kept for the checks after the loop.
    let mut report = None;
    let mut stats_text = None;
    type Check<'a> = &'a mut dyn FnMut(&str) -> Result<String, String>;
    let checks: [(&str, Check); 13] = [
        ("events.jsonl", &mut |t| {
            let r = schema::validate_events_jsonl(t)?;
            let detail = format!("{} events, {} kinds", r.total, r.counts.len());
            report = Some(r);
            Ok(detail)
        }),
        ("commits.jsonl", &mut |t| {
            let r = schema::validate_events_jsonl(t)?;
            Ok(format!("{} commit records", r.total))
        }),
        ("timeseries.csv", &mut |t| {
            Ok(format!("{} samples", schema::validate_timeseries_csv(t)?))
        }),
        ("histograms.json", &mut |t| {
            Ok(schema::validate_histograms_json(t)?.join(", "))
        }),
        ("trace.perfetto.json", &mut |t| {
            Ok(format!("{} trace events", schema::validate_perfetto(t)?))
        }),
        ("profile.json", &mut |t| {
            Ok(schema::validate_profile_json(t)?.join(", "))
        }),
        ("progress.jsonl", &mut |t| {
            let r = schema::validate_progress_jsonl(t)?;
            Ok(format!("{} starts, {} finishes", r.starts, r.finishes))
        }),
        ("run.json", &mut |t| {
            Ok(format!("{} metric points", schema::validate_run_json(t)?))
        }),
        ("jobs.jsonl", &mut |t| {
            let r = schema::validate_jobs_jsonl(t)?;
            Ok(format!(
                "{} job records ({} done, {} failed, {} cancelled)",
                r.total, r.done, r.failed, r.cancelled
            ))
        }),
        ("stats.json", &mut |t| {
            schema::validate_serve_stats_json(t)?;
            stats_text = Some(t.to_string());
            Ok("serve stats consistent".to_string())
        }),
        ("router.json", &mut |t| {
            let r = schema::validate_router_stats_json(t)?;
            Ok(format!(
                "{} backends ({} scraped), {} jobs completed cluster-wide, totals conserve",
                r.backends, r.scraped, r.completed
            ))
        }),
        ("access.jsonl", &mut |t| {
            Ok(format!("{} requests", schema::validate_access_jsonl(t)?))
        }),
        ("dashboard.json", &mut |t| {
            let rows = schema::validate_dashboard_data_json(t)?;
            Ok(format!("{rows} recent jobs"))
        }),
    ];
    for (name, check) in checks {
        let Some(text) = read(dir, name) else {
            continue;
        };
        match check(&text) {
            Ok(detail) => {
                println!("ok  {name}: {detail}");
                validated += 1;
            }
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }
    // Attribution ledgers: the telemetry-mode `attribution.json` plus the
    // per-point `*.attr.json` documents a replay sweep's golden check
    // writes.  The validator enforces conservation and the origin split
    // per TU and globally, so an `ok` line here is the ledger invariant.
    let mut attr_docs = 0u32;
    let mut run_ledger = None;
    let mut ledgers: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name == "attribution.json" || name.ends_with(".attr.json")
        })
        .collect();
    ledgers.sort();
    for path in ledgers {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("attr");
        let Some(text) = read(dir, name) else {
            continue;
        };
        match schema::validate_attribution_json(&text) {
            Ok(c) => {
                println!(
                    "ok  {name}: {} WEC fills over {} TUs conserved ({} useful, {} wasted, {} top PCs)",
                    c.wec_fills, c.n_tus, c.useful, c.wasted, c.top_pcs
                );
                validated += 1;
                attr_docs += 1;
                if name == "attribution.json" {
                    run_ledger = Some(c);
                }
            }
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }
    // A telemetry-mode run that wrote both the event trace and the ledger:
    // the data path reports each side fill and side hit once, to both.
    if let (Some(r), Some(c)) = (&report, run_ledger) {
        for (kind, want) in [
            ("wec_fill", c.fills_wrong),
            ("victim_transfer", c.fills_victim),
            ("next_line_prefetch", c.fills_prefetch),
            ("wec_hit", c.useful + c.victim_rescued),
        ] {
            let got = r.count_of(kind);
            if got == want {
                println!("ok  {kind}: {got} events, as attribution.json counts");
            } else {
                eprintln!("FAIL {kind}: {got} events, attribution.json counts {want}");
                failures += 1;
            }
        }
    }
    let mut traces: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wectrace"))
        .collect();
    traces.sort();
    for path in traces {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace");
        match wec_trace::Trace::read_from(&path).and_then(|t| t.verify().map(|n| (t, n))) {
            Ok((t, n)) => {
                println!(
                    "ok  {name}: {} ({} TUs, scale {}), {n} records, checksums match",
                    t.header.bench, t.header.n_tus, t.header.scale_units
                );
                validated += 1;
            }
            Err(e) => {
                eprintln!("FAIL {name}: {e}");
                failures += 1;
            }
        }
    }

    if validated == 0 && failures == 0 {
        eprintln!("FAIL {}: no telemetry artifacts found", dir.display());
        failures += 1;
    }
    if require_attribution {
        if attr_docs > 0 {
            println!("ok  require attribution: {attr_docs} ledger document(s)");
        } else {
            eprintln!("FAIL require attribution: no valid attribution ledger found");
            failures += 1;
        }
    }
    if require_spec {
        // The schema validator already enforced the v2 conservation
        // invariants; this gate additionally demands that speculation
        // actually ran (the stats document is v2 and started >= 1).
        let started = stats_text.as_deref().and_then(|text| {
            let v = wec_telemetry::json::parse(text).ok()?;
            if v.get("schema")?.as_str()? != "wec-serve-stats-v2" {
                return None;
            }
            v.get("spec")?.get("started")?.as_u64()
        });
        match started {
            Some(n) if n > 0 => {
                println!("ok  require spec: v2 stats with {n} speculation(s) started");
            }
            Some(_) => {
                eprintln!("FAIL require spec: speculation enabled but never started a job");
                failures += 1;
            }
            None => {
                eprintln!("FAIL require spec: no wec-serve-stats-v2 stats.json found");
                failures += 1;
            }
        }
    }
    for kind in &required {
        match &report {
            Some(r) if r.count_of(kind) > 0 => {
                println!("ok  require {kind}: {} events", r.count_of(kind));
            }
            Some(_) => {
                eprintln!("FAIL require {kind}: no such events in events.jsonl");
                failures += 1;
            }
            None => {
                eprintln!("FAIL require {kind}: no valid events.jsonl to check");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} telemetry check(s) failed in {}", dir.display());
        ExitCode::FAILURE
    } else {
        println!("all telemetry checks passed in {}", dir.display());
        ExitCode::SUCCESS
    }
}
