//! Validators for the telemetry artifacts (used by tests and the CI smoke
//! job): the events JSONL schema, the time-series CSV, the histograms JSON,
//! and the Perfetto trace.
//!
//! The event schema is strict: every line must carry `cycle` and a known
//! `type`, exactly the fields that type declares, each with the right JSON
//! type.  That way a drifting emitter fails CI instead of producing files
//! tools half-understand.

use crate::json::{self, Json};

/// JSON type of a schema field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    U64,
    Bool,
    Str,
}

/// Field list per event type — the JSONL schema, in one place.
pub const EVENT_SCHEMA: &[(&str, &[(&str, FieldKind)])] = &[
    (
        "wrong_load_issue",
        &[
            ("tu", FieldKind::U64),
            ("addr", FieldKind::U64),
            ("wrong_thread", FieldKind::Bool),
        ],
    ),
    (
        "wec_fill",
        &[("tu", FieldKind::U64), ("addr", FieldKind::U64)],
    ),
    (
        "wec_hit",
        &[
            ("tu", FieldKind::U64),
            ("addr", FieldKind::U64),
            ("wrong_fetched", FieldKind::Bool),
            ("prefetched", FieldKind::Bool),
        ],
    ),
    (
        "victim_transfer",
        &[("tu", FieldKind::U64), ("addr", FieldKind::U64)],
    ),
    (
        "next_line_prefetch",
        &[("tu", FieldKind::U64), ("addr", FieldKind::U64)],
    ),
    (
        "l1_miss",
        &[
            ("tu", FieldKind::U64),
            ("addr", FieldKind::U64),
            ("wrong", FieldKind::Bool),
        ],
    ),
    (
        "l2_miss",
        &[("addr", FieldKind::U64), ("wrong", FieldKind::Bool)],
    ),
    (
        "pipeline_flush",
        &[
            ("tu", FieldKind::U64),
            ("pc", FieldKind::U64),
            ("new_pc", FieldKind::U64),
            ("squashed", FieldKind::U64),
        ],
    ),
    (
        "commit",
        &[
            ("tu", FieldKind::U64),
            ("seq", FieldKind::U64),
            ("pc", FieldKind::U64),
            ("op", FieldKind::Str),
        ],
    ),
    (
        "begin",
        &[("region", FieldKind::U64), ("head", FieldKind::U64)],
    ),
    (
        "fork",
        &[
            ("parent", FieldKind::U64),
            ("child", FieldKind::U64),
            ("tu", FieldKind::U64),
            ("deferred", FieldKind::Bool),
        ],
    ),
    (
        "thread_start",
        &[("id", FieldKind::U64), ("tu", FieldKind::U64)],
    ),
    ("abort", &[("id", FieldKind::U64)]),
    ("marked_wrong", &[("id", FieldKind::U64)]),
    ("killed", &[("id", FieldKind::U64), ("tu", FieldKind::U64)]),
    ("wrong_died", &[("id", FieldKind::U64)]),
    (
        "wb_start",
        &[("id", FieldKind::U64), ("words", FieldKind::U64)],
    ),
    ("retired", &[("id", FieldKind::U64), ("tu", FieldKind::U64)]),
    ("sequential", &[("tu", FieldKind::U64)]),
];

/// What a validated event stream contained.
#[derive(Clone, Debug, Default)]
pub struct EventReport {
    pub total: u64,
    /// Per-type counts, sorted by type name.
    pub counts: Vec<(String, u64)>,
}

impl EventReport {
    pub fn count_of(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }
}

fn field_matches(v: &Json, kind: FieldKind) -> bool {
    match kind {
        FieldKind::U64 => v.as_u64().is_some(),
        FieldKind::Bool => v.as_bool().is_some(),
        FieldKind::Str => v.as_str().is_some(),
    }
}

/// Validate a JSONL event stream against [`EVENT_SCHEMA`].  Cycles must be
/// non-decreasing (the machine drains buffers in cycle order).
pub fn validate_events_jsonl(text: &str) -> Result<EventReport, String> {
    let mut report = EventReport::default();
    let mut last_cycle = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let ctx = |msg: String| format!("events.jsonl line {}: {msg}", lineno + 1);
        if line.trim().is_empty() {
            return Err(ctx("blank line".into()));
        }
        let v = json::parse(line).map_err(&ctx)?;
        let Json::Obj(fields) = &v else {
            return Err(ctx("not a JSON object".into()));
        };
        let cycle = v
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("missing/invalid \"cycle\"".into()))?;
        if cycle < last_cycle {
            return Err(ctx(format!(
                "cycle {cycle} went backwards from {last_cycle}"
            )));
        }
        last_cycle = cycle;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing/invalid \"type\"".into()))?;
        let Some((_, schema)) = EVENT_SCHEMA.iter().find(|(name, _)| *name == ty) else {
            return Err(ctx(format!("unknown event type {ty:?}")));
        };
        for (name, kind) in schema.iter() {
            let fv = v
                .get(name)
                .ok_or_else(|| ctx(format!("{ty}: missing field {name:?}")))?;
            if !field_matches(fv, *kind) {
                return Err(ctx(format!("{ty}: field {name:?} has wrong type")));
            }
        }
        for (name, _) in fields {
            if name != "cycle" && name != "type" && !schema.iter().any(|(n, _)| n == name) {
                return Err(ctx(format!("{ty}: unexpected field {name:?}")));
            }
        }
        report.total += 1;
        match report.counts.iter_mut().find(|(k, _)| k == ty) {
            Some((_, n)) => *n += 1,
            None => report.counts.push((ty.to_string(), 1)),
        }
    }
    report.counts.sort();
    Ok(report)
}

/// Validate the time-series CSV: a `cycle`-first header and integer rows of
/// matching arity with strictly increasing cycles.  Returns the row count.
pub fn validate_timeseries_csv(text: &str) -> Result<usize, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("timeseries.csv: empty file")?;
    let columns: Vec<&str> = header.split(',').collect();
    if columns.first() != Some(&"cycle") {
        return Err(format!(
            "timeseries.csv: first column must be \"cycle\", got {:?}",
            columns.first()
        ));
    }
    let mut rows = 0;
    let mut last_cycle = None::<u64>;
    for (lineno, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != columns.len() {
            return Err(format!(
                "timeseries.csv row {}: {} cells, header has {}",
                lineno + 1,
                cells.len(),
                columns.len()
            ));
        }
        let mut parsed = Vec::with_capacity(cells.len());
        for c in &cells {
            parsed.push(c.parse::<u64>().map_err(|_| {
                format!("timeseries.csv row {}: non-integer cell {c:?}", lineno + 1)
            })?);
        }
        if let Some(prev) = last_cycle {
            if parsed[0] <= prev {
                return Err(format!(
                    "timeseries.csv row {}: cycle {} not increasing",
                    lineno + 1,
                    parsed[0]
                ));
            }
        }
        last_cycle = Some(parsed[0]);
        rows += 1;
    }
    Ok(rows)
}

/// Validate the histograms JSON: an object of named histograms whose bucket
/// counts sum to their `count`.  Returns the histogram names.
pub fn validate_histograms_json(text: &str) -> Result<Vec<String>, String> {
    let v = json::parse(text).map_err(|e| format!("histograms.json: {e}"))?;
    let Json::Obj(fields) = &v else {
        return Err("histograms.json: not a JSON object".into());
    };
    let mut names = Vec::new();
    for (name, h) in fields {
        let count = h
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histograms.json {name}: missing count"))?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("histograms.json {name}: missing buckets"))?;
        let mut total = 0;
        for b in buckets {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histograms.json {name}: bucket not a pair"))?;
            total += pair[1]
                .as_u64()
                .ok_or_else(|| format!("histograms.json {name}: non-integer bucket count"))?;
        }
        if total != count {
            return Err(format!(
                "histograms.json {name}: buckets sum to {total}, count says {count}"
            ));
        }
        for key in ["sum", "min", "max"] {
            if h.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("histograms.json {name}: missing {key}"));
            }
        }
        names.push(name.clone());
    }
    Ok(names)
}

/// Validate a Chrome trace-event document: `traceEvents` array whose
/// entries carry a known phase, balanced `B`/`E` per track, timestamps
/// present on all non-metadata events.  Returns the event count.
pub fn validate_perfetto(text: &str) -> Result<u64, String> {
    let v = json::parse(text).map_err(|e| format!("perfetto: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("perfetto: missing traceEvents array")?;
    let mut depth: Vec<(u64, i64)> = Vec::new(); // (tid, open span depth)
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("perfetto event {i}: {msg}");
        if !ev.is_object() {
            return Err(ctx("not an object".into()));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing ph".into()))?;
        match ph {
            "M" => {}
            "B" | "E" | "i" | "C" | "X" => {
                if ev.get("ts").and_then(Json::as_u64).is_none() {
                    return Err(ctx(format!("phase {ph} missing ts")));
                }
                let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
                let slot = match depth.iter_mut().find(|(t, _)| *t == tid) {
                    Some(s) => s,
                    None => {
                        depth.push((tid, 0));
                        depth.last_mut().unwrap()
                    }
                };
                match ph {
                    "B" => slot.1 += 1,
                    "E" => {
                        slot.1 -= 1;
                        if slot.1 < 0 {
                            return Err(ctx(format!("unbalanced E on tid {tid}")));
                        }
                    }
                    _ => {}
                }
            }
            other => return Err(ctx(format!("unknown phase {other:?}"))),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("perfetto: {d} unclosed span(s) on tid {tid}"));
        }
    }
    Ok(events.len() as u64)
}

fn require_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing/invalid {key:?}"))
}

fn require_f64(v: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing/invalid {key:?}"))
}

fn require_str<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing/invalid {key:?}"))
}

fn no_extra_fields(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{ctx}: not a JSON object"));
    };
    for (name, _) in fields {
        if !allowed.contains(&name.as_str()) {
            return Err(format!("{ctx}: unexpected field {name:?}"));
        }
    }
    Ok(())
}

/// What a validated `progress.jsonl` stream contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressReport {
    pub starts: u64,
    pub finishes: u64,
}

/// Validate a `progress.jsonl` stream: every line is a `start` or `finish`
/// event with exactly the declared fields, `t_ms` non-decreasing, `cache`
/// one of `cold`/`disk`/`mem`/`spec` (the last when a demand request is
/// satisfied by a parked speculative result), and no more finishes than
/// starts + cached satisfactions can explain (finishes ≥ starts, since
/// cache hits emit finish-only lines).
pub fn validate_progress_jsonl(text: &str) -> Result<ProgressReport, String> {
    let mut report = ProgressReport::default();
    let mut last_t = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let ctx = format!("progress.jsonl line {}", lineno + 1);
        if line.trim().is_empty() {
            return Err(format!("{ctx}: blank line"));
        }
        let v = json::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        let event = require_str(&v, "event", &ctx)?;
        let t = require_u64(&v, "t_ms", &ctx)?;
        if t < last_t {
            return Err(format!("{ctx}: t_ms {t} went backwards from {last_t}"));
        }
        last_t = t;
        require_str(&v, "bench", &ctx)?;
        require_str(&v, "cfg", &ctx)?;
        require_u64(&v, "worker", &ctx)?;
        match event {
            "start" => {
                no_extra_fields(&v, &["event", "t_ms", "bench", "cfg", "worker"], &ctx)?;
                report.starts += 1;
            }
            "finish" => {
                let cache = require_str(&v, "cache", &ctx)?;
                if !["cold", "disk", "mem", "spec"].contains(&cache) {
                    return Err(format!("{ctx}: unknown cache source {cache:?}"));
                }
                require_u64(&v, "dur_ms", &ctx)?;
                require_u64(&v, "sim_cycles", &ctx)?;
                require_f64(&v, "kcps", &ctx)?;
                no_extra_fields(
                    &v,
                    &[
                        "event",
                        "t_ms",
                        "bench",
                        "cfg",
                        "worker",
                        "cache",
                        "dur_ms",
                        "sim_cycles",
                        "kcps",
                    ],
                    &ctx,
                )?;
                report.finishes += 1;
            }
            other => return Err(format!("{ctx}: unknown event {other:?}")),
        }
    }
    if report.finishes < report.starts {
        return Err(format!(
            "progress.jsonl: {} starts but only {} finishes",
            report.starts, report.finishes
        ));
    }
    Ok(report)
}

/// Validate a `run.json` manifest (`wec-run-manifest-v1`).  Returns the
/// number of metric points the manifest carries.
pub fn validate_run_json(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| format!("run.json: {e}"))?;
    let ctx = "run.json";
    let schema = require_str(&v, "schema", ctx)?;
    if schema != "wec-run-manifest-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    require_u64(&v, "scale", ctx)?;
    require_str(&v, "host", ctx)?;
    require_u64(&v, "sim_revision", ctx)?;
    require_f64(&v, "wall_s", ctx)?;
    no_extra_fields(
        &v,
        &[
            "schema",
            "scale",
            "host",
            "sim_revision",
            "wall_s",
            "simulations",
            "eta",
            "slowest",
            "tables",
            "metrics",
        ],
        ctx,
    )?;

    let sims = v
        .get("simulations")
        .ok_or_else(|| format!("{ctx}: missing \"simulations\""))?;
    let sctx = "run.json simulations";
    let lookups = require_u64(sims, "lookups", sctx)?;
    let cold = require_u64(sims, "cold", sctx)?;
    let disk = require_u64(sims, "disk_hits", sctx)?;
    let mem = require_u64(sims, "mem_hits", sctx)?;
    if cold + disk + mem != lookups {
        return Err(format!(
            "{sctx}: cold {cold} + disk {disk} + mem {mem} != lookups {lookups}"
        ));
    }
    let rate = require_f64(sims, "cache_hit_rate", sctx)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{sctx}: cache_hit_rate {rate} out of [0,1]"));
    }
    no_extra_fields(
        sims,
        &["lookups", "cold", "disk_hits", "mem_hits", "cache_hit_rate"],
        sctx,
    )?;

    let eta = v
        .get("eta")
        .ok_or_else(|| format!("{ctx}: missing \"eta\""))?;
    require_f64(eta, "mean_cold_ms", "run.json eta")?;
    require_f64(eta, "sim_cycles_per_sec", "run.json eta")?;
    no_extra_fields(eta, &["mean_cold_ms", "sim_cycles_per_sec"], "run.json eta")?;

    let slowest = v
        .get("slowest")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"slowest\" array"))?;
    for (i, p) in slowest.iter().enumerate() {
        let pctx = format!("run.json slowest[{i}]");
        require_str(p, "bench", &pctx)?;
        require_str(p, "cfg", &pctx)?;
        let cache = require_str(p, "cache", &pctx)?;
        if !["cold", "disk", "mem"].contains(&cache) {
            return Err(format!("{pctx}: unknown cache source {cache:?}"));
        }
        require_u64(p, "dur_ms", &pctx)?;
        no_extra_fields(p, &["bench", "cfg", "cache", "dur_ms"], &pctx)?;
    }

    let tables = v
        .get("tables")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"tables\" array"))?;
    for t in tables {
        if t.as_str().is_none() {
            return Err(format!("{ctx}: non-string table name"));
        }
    }

    let metrics = v
        .get("metrics")
        .ok_or_else(|| format!("{ctx}: missing \"metrics\""))?;
    let Json::Obj(points) = metrics else {
        return Err(format!("{ctx}: \"metrics\" is not an object"));
    };
    for (label, point) in points {
        let Json::Obj(kv) = point else {
            return Err(format!("{ctx}: metrics point {label:?} is not an object"));
        };
        for (metric, value) in kv {
            if value.as_u64().is_none() {
                return Err(format!(
                    "{ctx}: metrics point {label:?} field {metric:?} is not a u64"
                ));
            }
        }
    }
    Ok(points.len())
}

/// Validate a `profile.json` document (`wec-profile-v1`) against the
/// [`crate::profile::Phase`] set.  Returns the phase names.
pub fn validate_profile_json(text: &str) -> Result<Vec<String>, String> {
    let v = json::parse(text).map_err(|e| format!("profile.json: {e}"))?;
    let ctx = "profile.json";
    let schema = require_str(&v, "schema", ctx)?;
    if schema != "wec-profile-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    let stride = require_u64(&v, "stride", ctx)?;
    if stride == 0 {
        return Err(format!("{ctx}: stride must be >= 1"));
    }
    let sampled = require_u64(&v, "sampled_cycles", ctx)?;
    let total = require_u64(&v, "total_cycles", ctx)?;
    if sampled > total {
        return Err(format!(
            "{ctx}: sampled_cycles {sampled} exceeds total_cycles {total}"
        ));
    }
    let wall = require_u64(&v, "wall_ns_sampled", ctx)?;
    no_extra_fields(
        &v,
        &[
            "schema",
            "stride",
            "sampled_cycles",
            "total_cycles",
            "wall_ns_sampled",
            "phases",
        ],
        ctx,
    )?;
    let phases = v
        .get("phases")
        .ok_or_else(|| format!("{ctx}: missing \"phases\""))?;
    let Json::Obj(fields) = phases else {
        return Err(format!("{ctx}: \"phases\" is not an object"));
    };
    let known: Vec<&str> = crate::profile::Phase::ALL
        .iter()
        .map(|p| p.name())
        .collect();
    let mut names = Vec::new();
    let mut ns_total = 0u64;
    for (name, ph) in fields {
        if !known.contains(&name.as_str()) {
            return Err(format!("{ctx}: unknown phase {name:?}"));
        }
        let pctx = format!("profile.json phase {name}");
        ns_total += require_u64(ph, "ns", &pctx)?;
        let share = require_f64(ph, "share", &pctx)?;
        if !(0.0..=1.0).contains(&share) {
            return Err(format!("{pctx}: share {share} out of [0,1]"));
        }
        no_extra_fields(ph, &["ns", "share"], &pctx)?;
        names.push(name.clone());
    }
    if names.len() != known.len() {
        return Err(format!(
            "{ctx}: {} phases present, schema declares {}",
            names.len(),
            known.len()
        ));
    }
    if ns_total != wall {
        return Err(format!(
            "{ctx}: phase ns sum to {ns_total}, wall_ns_sampled says {wall}"
        ));
    }
    Ok(names)
}

/// What a validated `wec-attribution-v1` document contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttributionCheck {
    pub n_tus: u64,
    pub wec_fills: u64,
    pub fills_wrong: u64,
    pub fills_victim: u64,
    pub fills_prefetch: u64,
    pub useful: u64,
    pub wasted: u64,
    pub victim_rescued: u64,
    pub top_pcs: u64,
}

/// The eight lifecycle counters of one attribution totals object, checked
/// strictly: exactly the declared fields, the conservation invariant
/// `useful + wasted + victim_rescued + still_resident == wec_fills`, the
/// origin split summing to the same total, and `pollution_bytes` equal to
/// `wasted * block_bytes`.
fn attr_totals(v: &Json, block_bytes: u64, ctx: &str) -> Result<[u64; 8], String> {
    const KEYS: [&str; 8] = [
        "wec_fills",
        "fills_wrong",
        "fills_victim",
        "fills_prefetch",
        "useful",
        "wasted",
        "victim_rescued",
        "still_resident",
    ];
    let mut out = [0u64; 8];
    for (slot, key) in out.iter_mut().zip(KEYS) {
        *slot = require_u64(v, key, ctx)?;
    }
    let [fills, wrong, victim, prefetch, useful, wasted, rescued, resident] = out;
    if useful + wasted + rescued + resident != fills {
        return Err(format!(
            "{ctx}: conservation violated: {useful}+{wasted}+{rescued}+{resident} != {fills}"
        ));
    }
    if wrong + victim + prefetch != fills {
        return Err(format!(
            "{ctx}: origin split {wrong}+{victim}+{prefetch} != wec_fills {fills}"
        ));
    }
    let pollution = require_u64(v, "pollution_bytes", ctx)?;
    if pollution != wasted * block_bytes {
        return Err(format!(
            "{ctx}: pollution_bytes {pollution} != wasted {wasted} * block_bytes {block_bytes}"
        ));
    }
    no_extra_fields(
        v,
        &[
            "wec_fills",
            "fills_wrong",
            "fills_victim",
            "fills_prefetch",
            "useful",
            "wasted",
            "victim_rescued",
            "still_resident",
            "pollution_bytes",
        ],
        ctx,
    )?;
    Ok(out)
}

fn attr_set_array(v: &Json, key: &str, len: u64, ctx: &str) -> Result<u64, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing/invalid array {key:?}"))?;
    if arr.len() as u64 != len {
        return Err(format!(
            "{ctx}: {key:?} has {} entries, l1_sets says {len}",
            arr.len()
        ));
    }
    let mut sum = 0u64;
    for (i, e) in arr.iter().enumerate() {
        sum += e
            .as_u64()
            .ok_or_else(|| format!("{ctx}: {key:?}[{i}] is not a u64"))?;
    }
    Ok(sum)
}

/// Validate a `wec-attribution-v1` document (the speculation attribution
/// ledger's `attribution.json`).  Schema-strict like every validator
/// here, and enforces the ledger invariants per TU **and** globally:
/// conservation, origin split, per-TU totals summing to the global
/// totals, the timeliness histogram counting exactly the useful lines,
/// and set heatmaps consistent with the fill counters.
pub fn validate_attribution_json(text: &str) -> Result<AttributionCheck, String> {
    let ctx = "attribution.json";
    let v = json::parse(text).map_err(|e| format!("{ctx}: {e}"))?;
    let schema = require_str(&v, "schema", ctx)?;
    if schema != "wec-attribution-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    let block_bytes = require_u64(&v, "block_bytes", ctx)?;
    let l1_sets = require_u64(&v, "l1_sets", ctx)?;
    let n_tus = require_u64(&v, "n_tus", ctx)?;
    if block_bytes == 0 || l1_sets == 0 || n_tus == 0 {
        return Err(format!(
            "{ctx}: degenerate geometry ({block_bytes} B blocks, {l1_sets} sets, {n_tus} TUs)"
        ));
    }
    let totals = v
        .get("totals")
        .ok_or_else(|| format!("{ctx}: missing \"totals\""))?;
    let global = attr_totals(totals, block_bytes, &format!("{ctx} totals"))?;
    let tus = v
        .get("tus")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"tus\" array"))?;
    if tus.len() as u64 != n_tus {
        return Err(format!("{ctx}: {} TU rows, n_tus says {n_tus}", tus.len()));
    }
    let mut summed = [0u64; 8];
    for (i, tu) in tus.iter().enumerate() {
        let row = attr_totals(tu, block_bytes, &format!("{ctx} tus[{i}]"))?;
        for (s, r) in summed.iter_mut().zip(row) {
            *s += r;
        }
    }
    if summed != global {
        return Err(format!(
            "{ctx}: per-TU totals {summed:?} do not sum to the global totals {global:?}"
        ));
    }
    let timeliness = v
        .get("timeliness")
        .ok_or_else(|| format!("{ctx}: missing \"timeliness\""))?;
    let t_count = require_u64(timeliness, "count", &format!("{ctx} timeliness"))?;
    let buckets = timeliness
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx} timeliness: missing buckets"))?;
    let mut b_total = 0u64;
    for b in buckets {
        let pair = b
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{ctx} timeliness: bucket not a pair"))?;
        b_total += pair[1]
            .as_u64()
            .ok_or_else(|| format!("{ctx} timeliness: non-integer bucket count"))?;
    }
    if b_total != t_count {
        return Err(format!(
            "{ctx} timeliness: buckets sum to {b_total}, count says {t_count}"
        ));
    }
    let useful = global[4];
    if t_count != useful {
        return Err(format!(
            "{ctx}: timeliness count {t_count} != useful lines {useful}"
        ));
    }
    let top = v
        .get("top_pcs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"top_pcs\" array"))?;
    let mut prev: Option<(u64, u64, u64)> = None;
    let mut top_useful = 0u64;
    for (i, row) in top.iter().enumerate() {
        let rctx = format!("{ctx} top_pcs[{i}]");
        let pc = require_u64(row, "pc", &rctx)?;
        let u = require_u64(row, "useful", &rctx)?;
        let w = require_u64(row, "wasted", &rctx)?;
        require_u64(row, "median_timeliness", &rctx)?;
        let p = require_u64(row, "pollution_bytes", &rctx)?;
        if p != w * block_bytes {
            return Err(format!("{rctx}: pollution_bytes {p} != wasted {w} * block"));
        }
        no_extra_fields(
            row,
            &[
                "pc",
                "useful",
                "wasted",
                "median_timeliness",
                "pollution_bytes",
            ],
            &rctx,
        )?;
        // Sorted: useful desc, then wasted desc, then pc asc.
        if let Some((pu, pw, ppc)) = prev {
            if (u, w, std::cmp::Reverse(pc)) > (pu, pw, std::cmp::Reverse(ppc)) {
                return Err(format!("{rctx}: table not sorted by credit"));
            }
        }
        prev = Some((u, w, pc));
        top_useful += u;
    }
    if top_useful > useful {
        return Err(format!(
            "{ctx}: top_pcs claim {top_useful} useful lines, totals say {useful}"
        ));
    }
    let sets = v
        .get("sets")
        .ok_or_else(|| format!("{ctx}: missing \"sets\""))?;
    let sctx = format!("{ctx} sets");
    let acc = attr_set_array(sets, "l1_accesses", l1_sets, &sctx)?;
    let mis = attr_set_array(sets, "l1_misses", l1_sets, &sctx)?;
    if mis > acc {
        return Err(format!("{sctx}: {mis} misses exceed {acc} accesses"));
    }
    let side_fills = attr_set_array(sets, "side_fills", l1_sets, &sctx)?;
    attr_set_array(sets, "side_hits", l1_sets, &sctx)?;
    let victims = attr_set_array(sets, "victim_transfers", l1_sets, &sctx)?;
    if side_fills != global[1] + global[3] {
        return Err(format!(
            "{sctx}: side_fills sum {side_fills} != wrong {} + prefetch {}",
            global[1], global[3]
        ));
    }
    if victims != global[2] {
        return Err(format!(
            "{sctx}: victim_transfers sum {victims} != fills_victim {}",
            global[2]
        ));
    }
    no_extra_fields(
        sets,
        &[
            "l1_accesses",
            "l1_misses",
            "side_fills",
            "side_hits",
            "victim_transfers",
        ],
        &sctx,
    )?;
    no_extra_fields(
        &v,
        &[
            "schema",
            "block_bytes",
            "l1_sets",
            "n_tus",
            "totals",
            "tus",
            "timeliness",
            "top_pcs",
            "sets",
        ],
        ctx,
    )?;
    Ok(AttributionCheck {
        n_tus,
        wec_fills: global[0],
        fills_wrong: global[1],
        fills_victim: global[2],
        fills_prefetch: global[3],
        useful,
        wasted: global[5],
        victim_rescued: global[6],
        top_pcs: top.len() as u64,
    })
}

/// Validate the attribution summary object embedded in a job record:
/// either empty (`{}` — attribution off or not applicable) or exactly the
/// five lifecycle counters with conservation holding.
pub fn validate_attr_summary(v: &Json, ctx: &str) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{ctx}: not a JSON object"));
    };
    if fields.is_empty() {
        return Ok(());
    }
    let fills = require_u64(v, "wec_fills", ctx)?;
    let useful = require_u64(v, "useful", ctx)?;
    let wasted = require_u64(v, "wasted", ctx)?;
    let rescued = require_u64(v, "victim_rescued", ctx)?;
    let resident = require_u64(v, "still_resident", ctx)?;
    if useful + wasted + rescued + resident != fills {
        return Err(format!(
            "{ctx}: conservation violated: {useful}+{wasted}+{rescued}+{resident} != {fills}"
        ));
    }
    no_extra_fields(
        v,
        &[
            "wec_fills",
            "useful",
            "wasted",
            "victim_rescued",
            "still_resident",
        ],
        ctx,
    )
}

/// Validate one `wec-job-record-v1` document (a serve-mode job record, as
/// returned by `GET /jobs/<id>` and logged to `jobs.jsonl`).  Strict like
/// every other validator here: exactly the declared fields, each with the
/// right type, with the cross-field invariants a consistent record obeys.
pub fn validate_job_record(v: &Json, ctx: &str) -> Result<(), String> {
    let schema = require_str(v, "schema", ctx)?;
    if schema != "wec-job-record-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    require_u64(v, "id", ctx)?;
    let kind = require_str(v, "kind", ctx)?;
    if !["sim", "replay"].contains(&kind) {
        return Err(format!("{ctx}: unknown kind {kind:?}"));
    }
    require_str(v, "bench", ctx)?;
    require_u64(v, "scale", ctx)?;
    require_str(v, "cfg", ctx)?;
    let state = require_str(v, "state", ctx)?;
    if !["queued", "running", "done", "failed", "cancelled"].contains(&state) {
        return Err(format!("{ctx}: unknown state {state:?}"));
    }
    let source = require_str(v, "source", ctx)?;
    if !["none", "cold", "disk", "mem", "spec"].contains(&source) {
        return Err(format!("{ctx}: unknown source {source:?}"));
    }
    if state == "done" && source == "none" {
        return Err(format!("{ctx}: done job has no cache source"));
    }
    // `speculative` is emitted only by `--speculate` servers and only as
    // `true`; its absence means a plain demand job.
    let speculative = match v.get("speculative") {
        None => false,
        Some(Json::Bool(true)) => true,
        Some(_) => return Err(format!("{ctx}: \"speculative\" must be true when present")),
    };
    if state == "cancelled" {
        if !speculative {
            return Err(format!("{ctx}: cancelled job is not speculative"));
        }
        if source != "none" {
            return Err(format!("{ctx}: cancelled job carries source {source:?}"));
        }
    }
    let submissions = require_u64(v, "submissions", ctx)?;
    // A speculative job that was never claimed by a demand request has
    // zero submissions; every demand job has at least one.
    if submissions == 0 && !speculative {
        return Err(format!("{ctx}: submissions must be >= 1"));
    }
    require_u64(v, "worker", ctx)?;
    let submit = require_u64(v, "submit_t_ms", ctx)?;
    let start = require_u64(v, "start_t_ms", ctx)?;
    let finish = require_u64(v, "finish_t_ms", ctx)?;
    if start > 0 && start < submit {
        return Err(format!("{ctx}: start_t_ms {start} before submit {submit}"));
    }
    if finish > 0 && finish < start {
        return Err(format!("{ctx}: finish_t_ms {finish} before start {start}"));
    }
    require_u64(v, "dur_ms", ctx)?;
    require_u64(v, "sim_cycles", ctx)?;
    let error = require_str(v, "error", ctx)?;
    if state == "failed" && error.is_empty() {
        return Err(format!("{ctx}: failed job carries no error message"));
    }
    if state != "failed" && !error.is_empty() {
        return Err(format!("{ctx}: non-failed job carries error {error:?}"));
    }
    let metrics = v
        .get("metrics")
        .ok_or_else(|| format!("{ctx}: missing \"metrics\""))?;
    let Json::Obj(kv) = metrics else {
        return Err(format!("{ctx}: \"metrics\" is not an object"));
    };
    for (k, val) in kv {
        if val.as_u64().is_none() {
            return Err(format!("{ctx}: metric {k:?} is not a u64"));
        }
    }
    if state == "done" && kv.is_empty() {
        return Err(format!("{ctx}: done job has no metrics"));
    }
    let attribution = v
        .get("attribution")
        .ok_or_else(|| format!("{ctx}: missing \"attribution\""))?;
    validate_attr_summary(attribution, &format!("{ctx} attribution"))?;
    // `backend_id` is emitted only by daemons started with `--backend-id`
    // (sharded clusters); its absence is a single-node record.
    if v.get("backend_id").is_some() {
        let b = require_str(v, "backend_id", ctx)?;
        if b.is_empty() {
            return Err(format!("{ctx}: \"backend_id\" must be non-empty"));
        }
    }
    no_extra_fields(
        v,
        &[
            "schema",
            "id",
            "kind",
            "bench",
            "scale",
            "cfg",
            "state",
            "source",
            "submissions",
            "worker",
            "submit_t_ms",
            "start_t_ms",
            "finish_t_ms",
            "dur_ms",
            "sim_cycles",
            "speculative",
            "backend_id",
            "error",
            "metrics",
            "attribution",
        ],
        ctx,
    )
}

/// What a validated `jobs.jsonl` stream contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobsReport {
    pub total: u64,
    pub done: u64,
    pub failed: u64,
    pub cancelled: u64,
}

/// Validate a `jobs.jsonl` stream: one terminal `wec-job-record-v1` per
/// line (the server appends each job as it reaches `done`, `failed`, or —
/// for reclaimed speculations — `cancelled`).
pub fn validate_jobs_jsonl(text: &str) -> Result<JobsReport, String> {
    let mut report = JobsReport::default();
    for (lineno, line) in text.lines().enumerate() {
        let ctx = format!("jobs.jsonl line {}", lineno + 1);
        if line.trim().is_empty() {
            return Err(format!("{ctx}: blank line"));
        }
        let v = json::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        validate_job_record(&v, &ctx)?;
        match v.get("state").and_then(Json::as_str) {
            Some("done") => report.done += 1,
            Some("failed") => report.failed += 1,
            Some("cancelled") => report.cancelled += 1,
            other => {
                return Err(format!(
                    "{ctx}: non-terminal state {other:?} in the terminal log"
                ))
            }
        }
        report.total += 1;
    }
    Ok(report)
}

/// Validate a serve-stats document (the `GET /stats` payload and the
/// server's exit-time `stats.json`): `wec-serve-stats-v1`, or the
/// `wec-serve-stats-v2` superset a `--speculate` server emits.
pub fn validate_serve_stats_json(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("stats.json: {e}"))?;
    validate_serve_stats(&v, "stats.json")
}

/// Validate an already-parsed serve-stats value (v1 or v2) — the same
/// document also rides embedded inside `wec-dashboard-data-v1`.  The v2
/// speculation block must conserve: every started speculation is exactly
/// one of hit, waste, cancelled, or still pending, and completions split
/// exactly across `cold`/`disk_hits`/`mem_hits`/`spec_hits`.
pub fn validate_serve_stats(v: &Json, ctx: &str) -> Result<(), String> {
    let schema = require_str(v, "schema", ctx)?;
    let v2 = match schema {
        "wec-serve-stats-v1" => false,
        "wec-serve-stats-v2" => true,
        _ => return Err(format!("{ctx}: unknown schema {schema:?}")),
    };
    require_u64(v, "uptime_ms", ctx)?;
    let workers = require_u64(v, "workers", ctx)?;
    if workers == 0 {
        return Err(format!("{ctx}: workers must be >= 1"));
    }
    let busy = require_u64(v, "busy_workers", ctx)?;
    if busy > workers {
        return Err(format!(
            "{ctx}: busy_workers {busy} exceeds workers {workers}"
        ));
    }
    v.get("draining")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{ctx}: missing/invalid \"draining\""))?;
    // Optional in both versions: only `--backend-id` daemons stamp it.
    if v.get("backend_id").is_some() {
        let b = require_str(v, "backend_id", ctx)?;
        if b.is_empty() {
            return Err(format!("{ctx}: \"backend_id\" must be non-empty"));
        }
    }
    let top: &[&str] = if v2 {
        &[
            "schema",
            "backend_id",
            "uptime_ms",
            "workers",
            "busy_workers",
            "draining",
            "queue",
            "jobs",
            "cache",
            "spec",
            "throughput",
        ]
    } else {
        &[
            "schema",
            "backend_id",
            "uptime_ms",
            "workers",
            "busy_workers",
            "draining",
            "queue",
            "jobs",
            "cache",
            "throughput",
        ]
    };
    no_extra_fields(v, top, ctx)?;

    let queue = v
        .get("queue")
        .ok_or_else(|| format!("{ctx}: missing \"queue\""))?;
    let qctx = format!("{ctx} queue");
    let depth = require_u64(queue, "depth", &qctx)?;
    let cap = require_u64(queue, "cap", &qctx)?;
    if depth > cap {
        return Err(format!("{qctx}: depth {depth} exceeds cap {cap}"));
    }
    require_u64(queue, "rejected", &qctx)?;
    if v2 {
        let sdepth = require_u64(queue, "spec_depth", &qctx)?;
        let scap = require_u64(queue, "spec_cap", &qctx)?;
        if sdepth > scap {
            return Err(format!(
                "{qctx}: spec_depth {sdepth} exceeds spec_cap {scap}"
            ));
        }
        no_extra_fields(
            queue,
            &["depth", "cap", "rejected", "spec_depth", "spec_cap"],
            &qctx,
        )?;
    } else {
        no_extra_fields(queue, &["depth", "cap", "rejected"], &qctx)?;
    }

    let jobs = v
        .get("jobs")
        .ok_or_else(|| format!("{ctx}: missing \"jobs\""))?;
    let jctx = format!("{ctx} jobs");
    let submitted = require_u64(jobs, "submitted", &jctx)?;
    let deduped = require_u64(jobs, "deduped", &jctx)?;
    let completed = require_u64(jobs, "completed", &jctx)?;
    let failed = require_u64(jobs, "failed", &jctx)?;
    if deduped > submitted {
        return Err(format!(
            "{jctx}: deduped {deduped} exceeds submitted {submitted}"
        ));
    }
    if completed + failed > submitted {
        return Err(format!(
            "{jctx}: completed {completed} + failed {failed} exceeds submitted {submitted}"
        ));
    }
    no_extra_fields(
        jobs,
        &["submitted", "deduped", "completed", "failed"],
        &jctx,
    )?;

    let cache = v
        .get("cache")
        .ok_or_else(|| format!("{ctx}: missing \"cache\""))?;
    let cctx = format!("{ctx} cache");
    let cold = require_u64(cache, "cold", &cctx)?;
    let disk = require_u64(cache, "disk_hits", &cctx)?;
    let mem = require_u64(cache, "mem_hits", &cctx)?;
    let spec_hits = if v2 {
        let sh = require_u64(cache, "spec_hits", &cctx)?;
        no_extra_fields(
            cache,
            &["cold", "disk_hits", "mem_hits", "spec_hits"],
            &cctx,
        )?;
        sh
    } else {
        no_extra_fields(cache, &["cold", "disk_hits", "mem_hits"], &cctx)?;
        0
    };
    if cold + disk + mem + spec_hits != completed {
        return Err(format!(
            "{cctx}: cold {cold} + disk {disk} + mem {mem} + spec {spec_hits} \
             != completed {completed}"
        ));
    }

    if v2 {
        let sp = v
            .get("spec")
            .ok_or_else(|| format!("{ctx}: missing \"spec\""))?;
        let sctx = format!("{ctx} spec");
        let started = require_u64(sp, "started", &sctx)?;
        let hit = require_u64(sp, "hit", &sctx)?;
        require_u64(sp, "miss", &sctx)?;
        let waste = require_u64(sp, "waste", &sctx)?;
        let cancelled = require_u64(sp, "cancelled", &sctx)?;
        let pending = require_u64(sp, "pending", &sctx)?;
        if hit + waste + cancelled + pending != started {
            return Err(format!(
                "{sctx}: hit {hit} + waste {waste} + cancelled {cancelled} \
                 + pending {pending} != started {started}"
            ));
        }
        if spec_hits > hit {
            return Err(format!(
                "{sctx}: cache.spec_hits {spec_hits} exceeds spec.hit {hit}"
            ));
        }
        no_extra_fields(
            sp,
            &["started", "hit", "miss", "waste", "cancelled", "pending"],
            &sctx,
        )?;
    }

    let tp = v
        .get("throughput")
        .ok_or_else(|| format!("{ctx}: missing \"throughput\""))?;
    let tctx = format!("{ctx} throughput");
    require_f64(tp, "jobs_per_sec", &tctx)?;
    let util = require_f64(tp, "utilization", &tctx)?;
    if !(0.0..=1.0).contains(&util) {
        return Err(format!("{tctx}: utilization {util} out of [0,1]"));
    }
    no_extra_fields(tp, &["jobs_per_sec", "utilization"], &tctx)?;
    Ok(())
}

/// What a validated `wec-router-stats-v1` document contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStatsReport {
    /// Backends in the ring (healthy or not).
    pub backends: u64,
    /// Backends whose embedded stats document was scraped live.
    pub scraped: u64,
    /// Cluster-wide completed jobs (the conserved ledger total).
    pub completed: u64,
}

/// Validate a `wec-router-stats-v1` document (the `wec_router` `GET
/// /stats` payload and its drain-time `router.json`).
pub fn validate_router_stats_json(text: &str) -> Result<RouterStatsReport, String> {
    let v = json::parse(text).map_err(|e| format!("router.json: {e}"))?;
    validate_router_stats(&v, "router.json")
}

/// Validate an already-parsed `wec-router-stats-v1` value.  The document
/// embeds one serve-stats document per live-scraped backend plus a
/// `cluster` roll-up, and the roll-up must *conserve*: every cluster
/// counter equals the sum of the corresponding counters across the
/// embedded backend ledgers (each of which is itself validated, so
/// `cold + disk + mem (+ spec_hits) == completed` holds per backend and —
/// re-checked here — cluster-wide), and the cluster `spec` block, present
/// iff any backend speculates, obeys `hit + waste + cancelled + pending
/// == started` in aggregate.
pub fn validate_router_stats(v: &Json, ctx: &str) -> Result<RouterStatsReport, String> {
    let schema = require_str(v, "schema", ctx)?;
    if schema != "wec-router-stats-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    require_u64(v, "uptime_ms", ctx)?;
    v.get("draining")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{ctx}: missing/invalid \"draining\""))?;
    no_extra_fields(
        v,
        &[
            "schema",
            "uptime_ms",
            "draining",
            "router",
            "backends",
            "cluster",
        ],
        ctx,
    )?;

    let router = v
        .get("router")
        .ok_or_else(|| format!("{ctx}: missing \"router\""))?;
    let rctx = format!("{ctx} router");
    require_u64(router, "requests", &rctx)?;
    require_u64(router, "proxied", &rctx)?;
    require_u64(router, "retries", &rctx)?;
    require_u64(router, "resharded", &rctx)?;
    require_u64(router, "rejected", &rctx)?;
    no_extra_fields(
        router,
        &["requests", "proxied", "retries", "resharded", "rejected"],
        &rctx,
    )?;

    let Some(Json::Arr(backends)) = v.get("backends") else {
        return Err(format!("{ctx}: missing/invalid \"backends\" array"));
    };
    if backends.is_empty() {
        return Err(format!("{ctx}: \"backends\" is empty"));
    }
    // Sum the embedded backend ledgers; the cluster block must match.
    let (mut healthy, mut draining_n, mut dead) = (0u64, 0u64, 0u64);
    let mut scraped = 0u64;
    let mut any_spec = false;
    let mut sums = std::collections::HashMap::<&str, u64>::new();
    for (i, b) in backends.iter().enumerate() {
        let bctx = format!("{ctx} backends[{i}]");
        let id = require_str(b, "id", &bctx)?;
        if id.is_empty() {
            return Err(format!("{bctx}: \"id\" must be non-empty"));
        }
        require_str(b, "addr", &bctx)?;
        match require_str(b, "state", &bctx)? {
            "healthy" => healthy += 1,
            "draining" => draining_n += 1,
            "dead" => dead += 1,
            other => return Err(format!("{bctx}: unknown state {other:?}")),
        }
        require_u64(b, "consecutive_failures", &bctx)?;
        require_u64(b, "routed", &bctx)?;
        no_extra_fields(
            b,
            &[
                "id",
                "addr",
                "state",
                "consecutive_failures",
                "routed",
                "stats",
            ],
            &bctx,
        )?;
        let Some(stats) = b.get("stats") else {
            continue; // unreachable at scrape time; not in the roll-up
        };
        validate_serve_stats(stats, &format!("{bctx} stats"))?;
        scraped += 1;
        let jobs = stats.get("jobs").expect("validated above");
        let cache = stats.get("cache").expect("validated above");
        for (block, key) in [
            (jobs, "submitted"),
            (jobs, "deduped"),
            (jobs, "completed"),
            (jobs, "failed"),
            (cache, "cold"),
            (cache, "disk_hits"),
            (cache, "mem_hits"),
        ] {
            *sums.entry(key).or_default() += block.get(key).and_then(Json::as_u64).unwrap_or(0);
        }
        // v1 backends contribute zero speculative hits.
        *sums.entry("spec_hits").or_default() +=
            cache.get("spec_hits").and_then(Json::as_u64).unwrap_or(0);
        if let Some(sp) = stats.get("spec") {
            any_spec = true;
            for key in ["started", "hit", "miss", "waste", "cancelled", "pending"] {
                *sums.entry(key).or_default() += sp.get(key).and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }

    let cluster = v
        .get("cluster")
        .ok_or_else(|| format!("{ctx}: missing \"cluster\""))?;
    let cl = format!("{ctx} cluster");
    let allowed: &[&str] = if any_spec {
        &["backends", "jobs", "cache", "spec", "throughput"]
    } else {
        &["backends", "jobs", "cache", "throughput"]
    };
    no_extra_fields(cluster, allowed, &cl)?;
    let cb = cluster
        .get("backends")
        .ok_or_else(|| format!("{cl}: missing \"backends\""))?;
    let cbctx = format!("{cl} backends");
    for (key, want) in [
        ("healthy", healthy),
        ("draining", draining_n),
        ("dead", dead),
    ] {
        let got = require_u64(cb, key, &cbctx)?;
        if got != want {
            return Err(format!(
                "{cbctx}: {key} {got} but the backends array counts {want}"
            ));
        }
    }
    no_extra_fields(cb, &["healthy", "draining", "dead"], &cbctx)?;

    let jobs = cluster
        .get("jobs")
        .ok_or_else(|| format!("{cl}: missing \"jobs\""))?;
    let jctx = format!("{cl} jobs");
    for key in ["submitted", "deduped", "completed", "failed"] {
        let got = require_u64(jobs, key, &jctx)?;
        let want = sums.get(key).copied().unwrap_or(0);
        if got != want {
            return Err(format!(
                "{jctx}: {key} {got} != sum of backend ledgers {want}"
            ));
        }
    }
    no_extra_fields(
        jobs,
        &["submitted", "deduped", "completed", "failed"],
        &jctx,
    )?;

    let cache = cluster
        .get("cache")
        .ok_or_else(|| format!("{cl}: missing \"cache\""))?;
    let cctx = format!("{cl} cache");
    for key in ["cold", "disk_hits", "mem_hits", "spec_hits"] {
        let got = require_u64(cache, key, &cctx)?;
        let want = sums.get(key).copied().unwrap_or(0);
        if got != want {
            return Err(format!(
                "{cctx}: {key} {got} != sum of backend ledgers {want}"
            ));
        }
    }
    no_extra_fields(
        cache,
        &["cold", "disk_hits", "mem_hits", "spec_hits"],
        &cctx,
    )?;
    // The cluster-level form of the serve ledger invariant: the summed
    // source split covers every completed job exactly once.
    let completed = require_u64(jobs, "completed", &jctx)?;
    let split = ["cold", "disk_hits", "mem_hits", "spec_hits"]
        .iter()
        .map(|k| sums.get(*k).copied().unwrap_or(0))
        .sum::<u64>();
    if split != completed {
        return Err(format!(
            "{cl}: cache sources sum to {split} but completed is {completed}"
        ));
    }

    if any_spec {
        let sp = cluster
            .get("spec")
            .ok_or_else(|| format!("{cl}: speculating backends but no \"spec\" block"))?;
        let sctx = format!("{cl} spec");
        for key in ["started", "hit", "miss", "waste", "cancelled", "pending"] {
            let got = require_u64(sp, key, &sctx)?;
            let want = sums.get(key).copied().unwrap_or(0);
            if got != want {
                return Err(format!(
                    "{sctx}: {key} {got} != sum of backend ledgers {want}"
                ));
            }
        }
        let (started, hit, waste, cancelled, pending) = (
            require_u64(sp, "started", &sctx)?,
            require_u64(sp, "hit", &sctx)?,
            require_u64(sp, "waste", &sctx)?,
            require_u64(sp, "cancelled", &sctx)?,
            require_u64(sp, "pending", &sctx)?,
        );
        if hit + waste + cancelled + pending != started {
            return Err(format!(
                "{sctx}: hit {hit} + waste {waste} + cancelled {cancelled} \
                 + pending {pending} != started {started}"
            ));
        }
        no_extra_fields(
            sp,
            &["started", "hit", "miss", "waste", "cancelled", "pending"],
            &sctx,
        )?;
    } else if cluster.get("spec").is_some() {
        return Err(format!(
            "{cl}: \"spec\" block without any speculating backend"
        ));
    }

    let tp = cluster
        .get("throughput")
        .ok_or_else(|| format!("{cl}: missing \"throughput\""))?;
    let tctx = format!("{cl} throughput");
    require_f64(tp, "jobs_per_sec", &tctx)?;
    no_extra_fields(tp, &["jobs_per_sec"], &tctx)?;

    Ok(RouterStatsReport {
        backends: backends.len() as u64,
        scraped,
        completed,
    })
}

/// Validate an `access.jsonl` stream (`wec-access-log-v1`): one line per
/// answered HTTP request.  Timestamps are *not* required monotonic —
/// concurrent connections finish out of order.  Parse-failure lines are
/// logged with method `"-"`, path `"-"`, status 400, so those pass too.
/// Returns the request count.
pub fn validate_access_jsonl(text: &str) -> Result<u64, String> {
    let mut total = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let ctx = format!("access.jsonl line {}", lineno + 1);
        if line.trim().is_empty() {
            return Err(format!("{ctx}: blank line"));
        }
        let v = json::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        require_u64(&v, "t_ms", &ctx)?;
        let method = require_str(&v, "method", &ctx)?;
        if method.is_empty() {
            return Err(format!("{ctx}: empty method"));
        }
        let path = require_str(&v, "path", &ctx)?;
        if path.is_empty() {
            return Err(format!("{ctx}: empty path"));
        }
        let status = require_u64(&v, "status", &ctx)?;
        if !(100..=599).contains(&status) {
            return Err(format!("{ctx}: status {status} out of 100..=599"));
        }
        require_u64(&v, "dur_us", &ctx)?;
        require_u64(&v, "bytes", &ctx)?;
        no_extra_fields(
            &v,
            &["t_ms", "method", "path", "status", "dur_us", "bytes"],
            &ctx,
        )?;
        total += 1;
    }
    Ok(total)
}

/// Validate a `wec-dashboard-data-v1` document (the `GET /dashboard/data`
/// payload): the embedded stats snapshot, the sampler ring (t_ms
/// non-decreasing, rates finite, dedup rate a fraction), the per-endpoint
/// latency digests (bucket counts sum to the digest count), and the slim
/// recent-job rows.  Returns the number of ring samples.
pub fn validate_dashboard_data_json(text: &str) -> Result<usize, String> {
    let v = json::parse(text).map_err(|e| format!("dashboard.json: {e}"))?;
    let ctx = "dashboard.json";
    let schema = require_str(&v, "schema", ctx)?;
    if schema != "wec-dashboard-data-v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    require_u64(&v, "now_ms", ctx)?;
    no_extra_fields(
        &v,
        &["schema", "now_ms", "stats", "samples", "http", "jobs"],
        ctx,
    )?;

    let stats = v
        .get("stats")
        .ok_or_else(|| format!("{ctx}: missing \"stats\""))?;
    validate_serve_stats(stats, "dashboard.json stats")?;

    let samples = v
        .get("samples")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"samples\" array"))?;
    let mut last_t = 0u64;
    for (i, s) in samples.iter().enumerate() {
        let sctx = format!("dashboard.json samples[{i}]");
        let t = require_u64(s, "t_ms", &sctx)?;
        if t < last_t {
            return Err(format!("{sctx}: t_ms {t} went backwards from {last_t}"));
        }
        last_t = t;
        require_u64(s, "queue_depth", &sctx)?;
        require_u64(s, "busy_workers", &sctx)?;
        require_u64(s, "outstanding", &sctx)?;
        for key in ["jobs_per_sec", "kcycles_per_sec"] {
            let r = require_f64(s, key, &sctx)?;
            if !r.is_finite() || r < 0.0 {
                return Err(format!("{sctx}: {key} {r} is not a finite rate"));
            }
        }
        let dedup = require_f64(s, "dedup_hit_rate", &sctx)?;
        if !(0.0..=1.0).contains(&dedup) {
            return Err(format!("{sctx}: dedup_hit_rate {dedup} out of [0,1]"));
        }
        // Present only when the sampled server runs with --speculate.
        if let Some(shr) = s.get("spec_hit_rate") {
            let shr = shr
                .as_f64()
                .ok_or_else(|| format!("{sctx}: spec_hit_rate is not a number"))?;
            if !(0.0..=1.0).contains(&shr) {
                return Err(format!("{sctx}: spec_hit_rate {shr} out of [0,1]"));
            }
        }
        no_extra_fields(
            s,
            &[
                "t_ms",
                "queue_depth",
                "busy_workers",
                "outstanding",
                "jobs_per_sec",
                "dedup_hit_rate",
                "kcycles_per_sec",
                "spec_hit_rate",
            ],
            &sctx,
        )?;
    }

    let http = v
        .get("http")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"http\" array"))?;
    for (i, h) in http.iter().enumerate() {
        let hctx = format!("dashboard.json http[{i}]");
        let endpoint = require_str(h, "endpoint", &hctx)?;
        if endpoint.is_empty() {
            return Err(format!("{hctx}: empty endpoint"));
        }
        let count = require_u64(h, "count", &hctx)?;
        require_f64(h, "mean_us", &hctx)?;
        let p50 = require_u64(h, "p50_us", &hctx)?;
        let p99 = require_u64(h, "p99_us", &hctx)?;
        let max = require_u64(h, "max_us", &hctx)?;
        if p50 > p99 || p99 > max {
            return Err(format!(
                "{hctx}: quantiles out of order (p50 {p50}, p99 {p99}, max {max})"
            ));
        }
        let buckets = h
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{hctx}: missing \"buckets\" array"))?;
        let mut total = 0u64;
        for b in buckets {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{hctx}: bucket not a pair"))?;
            total += pair[1]
                .as_u64()
                .ok_or_else(|| format!("{hctx}: non-integer bucket count"))?;
        }
        if total != count {
            return Err(format!(
                "{hctx}: buckets sum to {total}, count says {count}"
            ));
        }
        no_extra_fields(
            h,
            &[
                "endpoint", "count", "mean_us", "p50_us", "p99_us", "max_us", "buckets",
            ],
            &hctx,
        )?;
    }

    let jobs = v
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"jobs\" array"))?;
    for (i, j) in jobs.iter().enumerate() {
        let jctx = format!("dashboard.json jobs[{i}]");
        require_u64(j, "id", &jctx)?;
        let kind = require_str(j, "kind", &jctx)?;
        if !["sim", "replay"].contains(&kind) {
            return Err(format!("{jctx}: unknown kind {kind:?}"));
        }
        require_str(j, "bench", &jctx)?;
        require_str(j, "cfg", &jctx)?;
        let state = require_str(j, "state", &jctx)?;
        if !["queued", "running", "done", "failed", "cancelled"].contains(&state) {
            return Err(format!("{jctx}: unknown state {state:?}"));
        }
        let source = require_str(j, "source", &jctx)?;
        if !["none", "cold", "disk", "mem", "spec"].contains(&source) {
            return Err(format!("{jctx}: unknown source {source:?}"));
        }
        let speculative = match j.get("speculative") {
            None => false,
            Some(Json::Bool(true)) => true,
            Some(_) => return Err(format!("{jctx}: \"speculative\" must be true when present")),
        };
        let submissions = require_u64(j, "submissions", &jctx)?;
        if submissions == 0 && !speculative {
            return Err(format!("{jctx}: submissions must be >= 1"));
        }
        require_u64(j, "worker", &jctx)?;
        require_u64(j, "dur_ms", &jctx)?;
        require_u64(j, "sim_cycles", &jctx)?;
        j.get("has_attr")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{jctx}: missing boolean \"has_attr\""))?;
        no_extra_fields(
            j,
            &[
                "id",
                "kind",
                "bench",
                "cfg",
                "state",
                "source",
                "submissions",
                "worker",
                "dur_ms",
                "sim_cycles",
                "has_attr",
                "speculative",
            ],
            &jctx,
        )?;
    }
    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrProbe, AttributionReport, FillOrigin};
    use crate::event::TraceEvent;

    #[test]
    fn emitted_attribution_satisfies_its_own_schema() {
        let mut p = AttrProbe::new(8, 64);
        p.note_pc(0x40);
        p.on_l1_demand(0x1000, false);
        p.on_side_fill(0x1000, 10, FillOrigin::Wrong);
        p.on_side_hit(0x1000, 90);
        p.on_side_fill(0x1040, 90, FillOrigin::Prefetch);
        p.on_side_fill(0x2000, 95, FillOrigin::Victim);
        p.on_side_evict(0x1040);
        let report = AttributionReport::from_probes([&p]);
        let check = validate_attribution_json(&report.to_json()).unwrap();
        assert_eq!(check.n_tus, 1);
        assert_eq!(check.wec_fills, 3);
        assert_eq!(check.useful, 1);
        assert_eq!(check.wasted, 1);
        assert_eq!(check.top_pcs, 1);
    }

    #[test]
    fn attribution_validator_rejects_broken_conservation() {
        let report = AttributionReport::from_probes([&AttrProbe::new(4, 64)]);
        let good = report.to_json();
        let bad = good.replacen("\"useful\":0", "\"useful\":1", 1);
        let err = validate_attribution_json(&bad).unwrap_err();
        assert!(err.contains("conservation"), "{err}");
        let bad = good.replacen(
            "\"schema\":\"wec-attribution-v1\"",
            "\"schema\":\"nope\"",
            1,
        );
        assert!(validate_attribution_json(&bad).is_err());
    }

    #[test]
    fn attr_summary_accepts_empty_and_enforces_conservation() {
        let v = json::parse("{}").unwrap();
        validate_attr_summary(&v, "t").unwrap();
        let v = json::parse(
            "{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}",
        )
        .unwrap();
        validate_attr_summary(&v, "t").unwrap();
        let v = json::parse(
            "{\"wec_fills\":3,\"useful\":2,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}",
        )
        .unwrap();
        assert!(validate_attr_summary(&v, "t").is_err());
    }

    #[test]
    fn emitted_events_satisfy_their_own_schema() {
        // One of every variant, round-tripped through the validator.
        let all = vec![
            TraceEvent::WrongLoadIssue {
                tu: 1,
                addr: 64,
                wrong_thread: true,
            },
            TraceEvent::WecFill { tu: 1, addr: 64 },
            TraceEvent::WecHit {
                tu: 0,
                addr: 64,
                wrong_fetched: true,
                prefetched: false,
            },
            TraceEvent::VictimTransfer { tu: 2, addr: 128 },
            TraceEvent::NextLinePrefetch { tu: 2, addr: 192 },
            TraceEvent::L1Miss {
                tu: 0,
                addr: 256,
                wrong: false,
            },
            TraceEvent::L2Miss {
                addr: 256,
                wrong: true,
            },
            TraceEvent::PipelineFlush {
                tu: 3,
                pc: 10,
                new_pc: 20,
                squashed: 4,
            },
            TraceEvent::Commit {
                tu: 0,
                seq: 1,
                pc: 2,
                op: "nop".into(),
            },
            TraceEvent::Begin { region: 1, head: 5 },
            TraceEvent::Fork {
                parent: 5,
                child: 6,
                tu: 1,
                deferred: false,
            },
            TraceEvent::ThreadStart { id: 6, tu: 1 },
            TraceEvent::Abort { id: 5 },
            TraceEvent::MarkedWrong { id: 6 },
            TraceEvent::Killed { id: 7, tu: 2 },
            TraceEvent::WrongDied { id: 6 },
            TraceEvent::WbStart { id: 5, words: 8 },
            TraceEvent::Retired { id: 5, tu: 0 },
            TraceEvent::Sequential { tu: 0 },
        ];
        let mut text = String::new();
        for (i, ev) in all.iter().enumerate() {
            ev.write_jsonl(i as u64, &mut text);
        }
        let report = validate_events_jsonl(&text).unwrap();
        assert_eq!(report.total, all.len() as u64);
        assert_eq!(report.count_of("wec_fill"), 1);
        // Every variant name exists in the schema table.
        for ev in &all {
            assert!(
                EVENT_SCHEMA.iter().any(|(n, _)| *n == ev.name()),
                "{} missing from schema",
                ev.name()
            );
        }
        assert_eq!(EVENT_SCHEMA.len(), all.len(), "schema has untested entries");
    }

    #[test]
    fn rejects_malformed_streams() {
        assert!(validate_events_jsonl("not json\n").is_err());
        assert!(validate_events_jsonl("{\"cycle\":1}\n").is_err());
        assert!(validate_events_jsonl("{\"cycle\":1,\"type\":\"nope\"}\n").is_err());
        // Missing field.
        assert!(validate_events_jsonl("{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0}\n").is_err());
        // Extra field.
        assert!(validate_events_jsonl(
            "{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0,\"addr\":64,\"x\":1}\n"
        )
        .is_err());
        // Wrong type.
        assert!(validate_events_jsonl(
            "{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0,\"addr\":\"64\"}\n"
        )
        .is_err());
        // Cycle regression.
        assert!(validate_events_jsonl(
            "{\"cycle\":5,\"type\":\"abort\",\"id\":1}\n{\"cycle\":4,\"type\":\"abort\",\"id\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn timeseries_validation() {
        assert_eq!(
            validate_timeseries_csv("cycle,a,b\n10,1,2\n20,3,4\n").unwrap(),
            2
        );
        assert!(validate_timeseries_csv("a,b\n1,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,1\n10,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,1,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,x\n").is_err());
    }

    #[test]
    fn histograms_validation() {
        let good = "{\"load_to_fill\":{\"count\":3,\"sum\":111,\"min\":5,\"max\":100,\"buckets\":[[4,2],[64,1]]}}";
        assert_eq!(
            validate_histograms_json(good).unwrap(),
            vec!["load_to_fill"]
        );
        let bad =
            "{\"h\":{\"count\":4,\"sum\":111,\"min\":5,\"max\":100,\"buckets\":[[4,2],[64,1]]}}";
        assert!(validate_histograms_json(bad).is_err());
    }

    #[test]
    fn progress_validation() {
        let mut w = crate::report::ProgressWriter::create(
            &std::env::temp_dir().join(format!("wec-progress-schema-{}.jsonl", std::process::id())),
        )
        .unwrap();
        w.start(1, "181.mcf", "orig/t8", 0).unwrap();
        w.finish(9, "181.mcf", "orig/t8", 0, "cold", 8, 1000)
            .unwrap();
        w.finish(9, "164.gzip", "orig/t8", 1, "disk", 0, 500)
            .unwrap();
        let text = std::fs::read_to_string(w.path()).unwrap();
        let r = validate_progress_jsonl(&text).unwrap();
        assert_eq!(
            r,
            ProgressReport {
                starts: 1,
                finishes: 2
            }
        );
        std::fs::remove_file(w.path()).unwrap();

        // Unknown event, bad cache source, extra field, time regression,
        // more starts than finishes.
        assert!(validate_progress_jsonl(
            "{\"event\":\"pause\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"finish\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0,\"cache\":\"warm\",\"dur_ms\":1,\"sim_cycles\":2,\"kcps\":2.0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0,\"x\":1}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":5,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n{\"event\":\"start\",\"t_ms\":4,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
    }

    #[test]
    fn run_manifest_validation() {
        let m = crate::report::RunManifest {
            scale: 1,
            host: "h".into(),
            sim_revision: 1,
            wall_s: 1.0,
            cold: 2,
            disk_hits: 1,
            mem_hits: 4,
            cold_sim_cycles: 100,
            cold_wall_ms: 10,
            slowest: vec![crate::report::SlowPoint {
                bench: "181.mcf".into(),
                cfg: "orig/t8".into(),
                cache: "cold",
                dur_ms: 7,
            }],
            tables: vec!["fig17".into()],
            metrics: vec![("181.mcf|orig/t8".into(), vec![("cycles".into(), 5)])],
        };
        assert_eq!(validate_run_json(&m.to_json()).unwrap(), 1);

        assert!(validate_run_json("{\"schema\":\"nope\"}").is_err());
        // Inconsistent lookup accounting.
        let broken = m.to_json().replace("\"lookups\":7", "\"lookups\":8");
        assert!(validate_run_json(&broken).is_err());
        // Non-integer metric value.
        let broken = m.to_json().replace("\"cycles\":5", "\"cycles\":5.5");
        assert!(validate_run_json(&broken).is_err());
    }

    #[test]
    fn profile_validation() {
        let mut p = crate::profile::CycleProfiler::new(64);
        let laps = crate::profile::PhaseNs {
            ns: [10, 20, 30, 40, 50, 60],
        };
        p.record(0, &laps);
        let text = p.report(64).to_json();
        let names = validate_profile_json(&text).unwrap();
        assert_eq!(names.len(), crate::profile::PHASE_COUNT);

        assert!(validate_profile_json("{\"schema\":\"nope\"}").is_err());
        // Wall total no longer matches the phase sum.
        let broken = text.replace("\"wall_ns_sampled\":210", "\"wall_ns_sampled\":211");
        assert!(validate_profile_json(&broken).is_err());
        // A phase goes missing.
        let broken = text.replace("\"exec\":{\"ns\":20,\"share\":0.095238},", "");
        assert!(validate_profile_json(&broken).is_err());
        // Sampled cannot exceed total.
        let broken = text.replace("\"total_cycles\":64", "\"total_cycles\":0");
        assert!(validate_profile_json(&broken).is_err());
    }

    fn job_record(state: &str, source: &str, error: &str, metrics: &str) -> String {
        format!(
            "{{\"schema\":\"wec-job-record-v1\",\"id\":3,\"kind\":\"sim\",\"bench\":\"181.mcf\",\
             \"scale\":1,\"cfg\":\"wth-wp-wec/t8\",\"state\":\"{state}\",\"source\":\"{source}\",\
             \"submissions\":2,\"worker\":1,\"submit_t_ms\":10,\"start_t_ms\":11,\
             \"finish_t_ms\":40,\"dur_ms\":29,\"sim_cycles\":48000,\"error\":\"{error}\",\
             \"metrics\":{metrics},\"attribution\":{{}}}}"
        )
    }

    #[test]
    fn job_record_validation() {
        let good = job_record("done", "cold", "", "{\"cycles\":48000}");
        validate_job_record(&json::parse(&good).unwrap(), "t").unwrap();
        let jsonl = format!("{good}\n{}\n", job_record("failed", "none", "boom", "{}"));
        assert_eq!(
            validate_jobs_jsonl(&jsonl).unwrap(),
            JobsReport {
                total: 2,
                done: 1,
                failed: 1,
                cancelled: 0
            }
        );

        // A queued record is valid over HTTP but not in the terminal log.
        let queued = job_record("queued", "none", "", "{}");
        validate_job_record(&json::parse(&queued).unwrap(), "t").unwrap();
        assert!(validate_jobs_jsonl(&format!("{queued}\n")).is_err());

        // Speculative records: an unclaimed completion keeps zero
        // submissions and source "spec"; a reclaimed one is "cancelled".
        let spec_done = job_record("done", "spec", "", "{\"cycles\":48000}")
            .replace("\"submissions\":2", "\"submissions\":0")
            .replace(
                "\"sim_cycles\":48000",
                "\"sim_cycles\":48000,\"speculative\":true",
            );
        validate_job_record(&json::parse(&spec_done).unwrap(), "t").unwrap();
        let spec_cancelled = job_record("cancelled", "none", "", "{}")
            .replace("\"submissions\":2", "\"submissions\":0")
            .replace(
                "\"sim_cycles\":48000",
                "\"sim_cycles\":48000,\"speculative\":true",
            );
        validate_job_record(&json::parse(&spec_cancelled).unwrap(), "t").unwrap();
        let report = validate_jobs_jsonl(&format!("{spec_done}\n{spec_cancelled}\n")).unwrap();
        assert_eq!(
            report,
            JobsReport {
                total: 2,
                done: 1,
                failed: 0,
                cancelled: 1
            }
        );
        // Zero submissions on a demand record, a cancelled demand record,
        // and speculative:false are all malformed.
        let bad = good.replace("\"submissions\":2", "\"submissions\":0");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("cancelled", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = spec_done.replace("\"speculative\":true", "\"speculative\":false");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());

        // Done without a source, failed without an error, fractional
        // metric, unknown state, extra field.
        let bad = job_record("done", "none", "", "{\"cycles\":1}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("failed", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("done", "mem", "", "{\"ipc\":0.5}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("paused", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = good.replace("\"id\":3", "\"id\":3,\"x\":1");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // Timestamps must be ordered.
        let bad = good.replace("\"finish_t_ms\":40", "\"finish_t_ms\":5");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // The attribution summary must itself conserve.
        let bad = good.replace(
            "\"attribution\":{}",
            "\"attribution\":{\"wec_fills\":2,\"useful\":2,\"wasted\":1,\
             \"victim_rescued\":0,\"still_resident\":0}",
        );
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // And a record without it is incomplete.
        let bad = good.replace(",\"attribution\":{}", "");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
    }

    #[test]
    fn serve_stats_validation() {
        let good = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
                    \"busy_workers\":1,\"draining\":false,\
                    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
                    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                    \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
                    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        validate_serve_stats_json(good).unwrap();

        assert!(validate_serve_stats_json("{\"schema\":\"nope\"}").is_err());
        // Busy workers cannot exceed the pool.
        let bad = good.replace("\"busy_workers\":1", "\"busy_workers\":9");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Queue deeper than its own capacity.
        let bad = good.replace("\"depth\":2", "\"depth\":65");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Cache split must account for every completed job.
        let bad = good.replace("\"cold\":3", "\"cold\":4");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Utilization is a fraction.
        let bad = good.replace("\"utilization\":0.25", "\"utilization\":1.5");
        assert!(validate_serve_stats_json(&bad).is_err());
        // More terminal jobs than submissions.
        let bad = good.replace("\"submitted\":10", "\"submitted\":5");
        assert!(validate_serve_stats_json(&bad).is_err());
    }

    #[test]
    fn serve_stats_v2_validation() {
        let good = "{\"schema\":\"wec-serve-stats-v2\",\"uptime_ms\":1000,\"workers\":4,\
                    \"busy_workers\":1,\"draining\":false,\
                    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1,\"spec_depth\":3,\"spec_cap\":16},\
                    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                    \"cache\":{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1},\
                    \"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},\
                    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        validate_serve_stats_json(good).unwrap();

        // v1 documents must not carry any of the v2 fields.
        let v1_leak = good.replace("wec-serve-stats-v2", "wec-serve-stats-v1");
        assert!(validate_serve_stats_json(&v1_leak).is_err());
        // The speculation ledger must conserve: started splits exactly
        // into hit + waste + cancelled + pending.
        let bad = good.replace("\"started\":7", "\"started\":8");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Completions split across all four sources.
        let bad = good.replace("\"spec_hits\":1", "\"spec_hits\":2");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Warm spec serves cannot exceed total spec hits.
        let bad = good
            .replace("\"spec_hits\":1", "\"spec_hits\":3")
            .replace("\"cold\":2", "\"cold\":0");
        assert!(validate_serve_stats_json(&bad).is_err());
        // The spec queue respects its own bound, and the block is required.
        let bad = good.replace("\"spec_depth\":3", "\"spec_depth\":17");
        assert!(validate_serve_stats_json(&bad).is_err());
        let bad = good.replace(
            "\"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},",
            "",
        );
        assert!(validate_serve_stats_json(&bad).is_err());
    }

    #[test]
    fn access_log_validation() {
        let good = "{\"t_ms\":120,\"method\":\"GET\",\"path\":\"/stats\",\"status\":200,\"dur_us\":85,\"bytes\":412}\n\
                    {\"t_ms\":100,\"method\":\"POST\",\"path\":\"/jobs\",\"status\":503,\"dur_us\":12,\"bytes\":40}\n\
                    {\"t_ms\":130,\"method\":\"-\",\"path\":\"-\",\"status\":400,\"dur_us\":3,\"bytes\":28}\n";
        // Out-of-order t_ms is fine: concurrent connections finish racily.
        assert_eq!(validate_access_jsonl(good).unwrap(), 3);

        assert!(validate_access_jsonl("not json\n").is_err());
        let line =
            "{\"t_ms\":1,\"method\":\"GET\",\"path\":\"/x\",\"status\":200,\"dur_us\":1,\"bytes\":2}";
        // Status outside the HTTP range, extra field, missing field.
        assert!(validate_access_jsonl(&line.replace(":200", ":99")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"t_ms\":1", "\"t_ms\":1,\"x\":1")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"bytes\":2", "\"b\":2")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"GET\"", "\"\"")).is_err());
    }

    #[test]
    fn dashboard_data_validation() {
        let stats = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
                     \"busy_workers\":1,\"draining\":false,\
                     \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
                     \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                     \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
                     \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        let good = format!(
            "{{\"schema\":\"wec-dashboard-data-v1\",\"now_ms\":1000,\"stats\":{stats},\
             \"samples\":[{{\"t_ms\":500,\"queue_depth\":1,\"busy_workers\":1,\"outstanding\":2,\
             \"jobs_per_sec\":2.5,\"dedup_hit_rate\":0.5,\"kcycles_per_sec\":100.0}},\
             {{\"t_ms\":1000,\"queue_depth\":0,\"busy_workers\":0,\"outstanding\":0,\
             \"jobs_per_sec\":0.0,\"dedup_hit_rate\":0.0,\"kcycles_per_sec\":0.0}}],\
             \"http\":[{{\"endpoint\":\"submit\",\"count\":3,\"mean_us\":80.5,\"p50_us\":63,\
             \"p99_us\":127,\"max_us\":130,\"buckets\":[[64,2],[128,1]]}}],\
             \"jobs\":[{{\"id\":1,\"kind\":\"sim\",\"bench\":\"181.mcf\",\"cfg\":\"orig/t8\",\
             \"state\":\"done\",\"source\":\"cold\",\"submissions\":2,\"worker\":0,\
             \"dur_ms\":30,\"sim_cycles\":48000,\"has_attr\":false}}]}}"
        );
        assert_eq!(validate_dashboard_data_json(&good).unwrap(), 2);

        assert!(validate_dashboard_data_json("{\"schema\":\"nope\"}").is_err());
        // Sampler time going backwards, dedup rate out of range, bucket
        // counts not summing, quantile inversion, bad embedded stats, and
        // an unknown slim-row state.
        assert!(
            validate_dashboard_data_json(&good.replace("\"t_ms\":1000", "\"t_ms\":400")).is_err()
        );
        assert!(validate_dashboard_data_json(
            &good.replace("\"dedup_hit_rate\":0.5", "\"dedup_hit_rate\":1.5")
        )
        .is_err());
        assert!(
            validate_dashboard_data_json(&good.replace("[[64,2],[128,1]]", "[[64,2]]")).is_err()
        );
        assert!(
            validate_dashboard_data_json(&good.replace("\"p99_us\":127", "\"p99_us\":999999"))
                .is_err()
        );
        assert!(validate_dashboard_data_json(&good.replace("\"cold\":3", "\"cold\":4")).is_err());
        assert!(validate_dashboard_data_json(
            &good.replace("\"state\":\"done\"", "\"state\":\"paused\"")
        )
        .is_err());

        // Speculation extensions: samples may carry spec_hit_rate (a
        // fraction), job rows may be flagged speculative with source
        // "spec" and zero submissions.
        let spec_good = good
            .replace(
                "\"dedup_hit_rate\":0.5,",
                "\"dedup_hit_rate\":0.5,\"spec_hit_rate\":0.25,",
            )
            .replace(
                "\"source\":\"cold\",\"submissions\":2",
                "\"source\":\"spec\",\"submissions\":0,\"speculative\":true",
            );
        assert_eq!(validate_dashboard_data_json(&spec_good).unwrap(), 2);
        assert!(validate_dashboard_data_json(
            &spec_good.replace("\"spec_hit_rate\":0.25", "\"spec_hit_rate\":1.25")
        )
        .is_err());
        assert!(validate_dashboard_data_json(
            &spec_good.replace("\"speculative\":true", "\"speculative\":false")
        )
        .is_err());
    }

    #[test]
    fn perfetto_validation_balances_spans() {
        let good = "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"ts\":1},{\"ph\":\"E\",\"tid\":1,\"ts\":2}]}";
        assert_eq!(validate_perfetto(good).unwrap(), 2);
        let unbalanced = "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"ts\":1}]}";
        assert!(validate_perfetto(unbalanced).is_err());
        let stray_end = "{\"traceEvents\":[{\"ph\":\"E\",\"tid\":1,\"ts\":1}]}";
        assert!(validate_perfetto(stray_end).is_err());
    }
}
