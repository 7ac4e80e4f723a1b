//! Validators for the telemetry artifacts (used by tests, `telemetry_check`
//! and the CI smoke jobs).
//!
//! Every JSON document has one field table here ([`Table`]), and one
//! walker, [`check`], enforces all of them: each required field present
//! with its kind, each optional field of its kind when present, and no
//! undeclared field at any depth.  That way a drifting emitter fails CI
//! instead of producing files tools half-understand.  What a table cannot
//! say — conservation, bucket sums, orderings — each document states once,
//! as one named check run after the walk.  The time-series CSV is the one
//! artifact that is not JSON.

use crate::json::{self, Json};

/// The kind of one schema field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    U64,
    F64,
    Bool,
    Str,
    /// A non-empty string.
    Name,
    /// `true`: a flag whose absence means false.
    True,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// Absent, or present with the inner kind.
    Opt(&'static FieldKind),
    /// An object with exactly the table's fields.
    Obj(Table),
    /// An array whose items have the inner kind.
    Arr(&'static FieldKind),
    /// An object with free keys whose values have the inner kind.
    Map(&'static FieldKind),
}

/// The fields of one JSON object.
pub type Table = &'static [(&'static str, FieldKind)];

use FieldKind::*;

/// Return `Err(format!(...))` unless the condition holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Check object `v` against the union of `tables`: every required field is
/// present with its kind, every optional field has its kind when present,
/// and no field appears that the tables do not declare.  Nested objects,
/// arrays and maps are walked the same way; errors name the field's path
/// after `ctx`.
pub fn check(v: &Json, tables: &[Table], ctx: &str) -> Result<(), String> {
    walk_obj(v, tables).map_err(|e| format!("{ctx}{e}"))
}

fn walk_obj(v: &Json, tables: &[Table]) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(": not a JSON object".into());
    };
    let declared = || tables.iter().flat_map(|t| t.iter());
    for (name, kind) in declared() {
        match v.get(name) {
            Some(fv) => walk(fv, kind).map_err(|e| format!(" {name}{e}"))?,
            None if matches!(kind, Opt(_)) => {}
            None => return Err(format!(": missing field {name:?}")),
        }
    }
    match fields
        .iter()
        .find(|(f, _)| !declared().any(|(n, _)| n == f))
    {
        Some((name, _)) => Err(format!(": unexpected field {name:?}")),
        None => Ok(()),
    }
}

fn walk(v: &Json, kind: &FieldKind) -> Result<(), String> {
    let ok = match *kind {
        U64 => v.as_u64().is_some(),
        F64 => v.as_f64().is_some(),
        Bool => v.as_bool().is_some(),
        Str => v.as_str().is_some(),
        Name => v.as_str().is_some_and(|s| !s.is_empty()),
        True => *v == Json::Bool(true),
        OneOf(names) => v.as_str().is_some_and(|s| names.contains(&s)),
        Opt(inner) => return walk(v, inner),
        Obj(table) => return walk_obj(v, &[table]),
        Arr(inner) => {
            let items = v.as_array().ok_or(": not an array")?;
            for (i, item) in items.iter().enumerate() {
                walk(item, inner).map_err(|e| format!("[{i}]{e}"))?;
            }
            return Ok(());
        }
        Map(inner) => {
            let Json::Obj(entries) = v else {
                return Err(": not a JSON object".into());
            };
            for (key, item) in entries {
                walk(item, inner).map_err(|e| format!(" {key}{e}"))?;
            }
            return Ok(());
        }
    };
    match v {
        _ if ok => Ok(()),
        Json::Arr(_) | Json::Obj(_) => Err(format!(": expected {kind:?}")),
        _ => Err(format!(": expected {kind:?}, found {v:?}")),
    }
}

const NULL: &Json = &Json::Null;

/// The value at a dot-separated `path` of a checked document (`null` where
/// an optional field is absent).
fn at<'a>(v: &'a Json, path: &str) -> &'a Json {
    path.split('.')
        .try_fold(v, |v, key| v.get(key))
        .unwrap_or(NULL)
}

/// A checked u64 field; 0 where an optional field is absent.  The other
/// `*_at` readers likewise default an absent field.
fn u64_at(v: &Json, path: &str) -> u64 {
    at(v, path).as_u64().unwrap_or(0)
}

fn f64_at(v: &Json, path: &str) -> f64 {
    at(v, path).as_f64().unwrap_or(0.0)
}

fn str_at<'a>(v: &'a Json, path: &str) -> &'a str {
    at(v, path).as_str().unwrap_or("")
}

fn arr_at<'a>(v: &'a Json, path: &str) -> &'a [Json] {
    at(v, path).as_array().unwrap_or(&[])
}

fn obj_at<'a>(v: &'a Json, path: &str) -> &'a [(String, Json)] {
    match at(v, path) {
        Json::Obj(e) => e,
        _ => &[],
    }
}

/// A sum of counters, wide enough that no document can wrap it.
fn sum<const N: usize>(xs: [u64; N]) -> u128 {
    xs.into_iter().map(u128::from).sum()
}

fn parse_doc(text: &str, ctx: &str) -> Result<Json, String> {
    json::parse(text).map_err(|e| format!("{ctx}: {e}"))
}

/// Parse every line of a JSONL stream and hand it to `line` with its
/// context (`"<name> line <n>"`).  Blank lines are errors.
fn each_line(
    text: &str,
    name: &str,
    mut line: impl FnMut(&Json, &str) -> Result<(), String>,
) -> Result<(), String> {
    for (i, text) in text.lines().enumerate() {
        let ctx = format!("{name} line {}", i + 1);
        ensure!(!text.trim().is_empty(), "{ctx}: blank line");
        line(&parse_doc(text, &ctx)?, &ctx)?;
    }
    Ok(())
}

/// The fields every event line carries ahead of its type's fields.
const EVENT_HEADER: Table = &[("cycle", U64), ("type", Str)];

/// Field list per event type — the JSONL schema, in one place.
pub const EVENT_SCHEMA: &[(&str, Table)] = &[
    (
        "wrong_load_issue",
        &[("tu", U64), ("addr", U64), ("wrong_thread", Bool)],
    ),
    ("wec_fill", &[("tu", U64), ("addr", U64)]),
    (
        "wec_hit",
        &[
            ("tu", U64),
            ("addr", U64),
            ("wrong_fetched", Bool),
            ("prefetched", Bool),
        ],
    ),
    ("victim_transfer", &[("tu", U64), ("addr", U64)]),
    ("next_line_prefetch", &[("tu", U64), ("addr", U64)]),
    ("l1_miss", &[("tu", U64), ("addr", U64), ("wrong", Bool)]),
    ("l2_miss", &[("addr", U64), ("wrong", Bool)]),
    (
        "pipeline_flush",
        &[("tu", U64), ("pc", U64), ("new_pc", U64), ("squashed", U64)],
    ),
    (
        "commit",
        &[("tu", U64), ("seq", U64), ("pc", U64), ("op", Str)],
    ),
    ("begin", &[("region", U64), ("head", U64)]),
    (
        "fork",
        &[
            ("parent", U64),
            ("child", U64),
            ("tu", U64),
            ("deferred", Bool),
        ],
    ),
    ("thread_start", &[("id", U64), ("tu", U64)]),
    ("abort", &[("id", U64)]),
    ("marked_wrong", &[("id", U64)]),
    ("killed", &[("id", U64), ("tu", U64)]),
    ("wrong_died", &[("id", U64)]),
    ("wb_start", &[("id", U64), ("words", U64)]),
    ("retired", &[("id", U64), ("tu", U64)]),
    ("sequential", &[("tu", U64)]),
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

/// Validate a JSONL event stream against [`EVENT_SCHEMA`].  Cycles must be
/// non-decreasing (the machine drains buffers in cycle order).
pub fn validate_events_jsonl(text: &str) -> Result<EventReport, String> {
    let mut report = EventReport::default();
    let mut last_cycle = 0u64;
    each_line(text, "events.jsonl", |v, ctx| {
        let ty = str_at(v, "type");
        let Some(&(_, fields)) = EVENT_SCHEMA.iter().find(|(name, _)| *name == ty) else {
            return Err(format!("{ctx}: unknown event type {ty:?}"));
        };
        check(v, &[EVENT_HEADER, fields], ctx)?;
        let cycle = u64_at(v, "cycle");
        ensure!(
            cycle >= last_cycle,
            "{ctx}: cycle {cycle} went backwards from {last_cycle}"
        );
        last_cycle = cycle;
        report.total += 1;
        match report.counts.iter_mut().find(|(k, _)| k == ty) {
            Some((_, n)) => *n += 1,
            None => report.counts.push((ty.to_string(), 1)),
        }
        Ok(())
    })?;
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

/// A [`crate::hist::Log2Histogram`] as `to_json` renders it: `buckets` are
/// `[floor, count]` pairs.
const HISTOGRAM: Table = &[
    ("count", U64),
    ("sum", U64),
    ("min", U64),
    ("max", U64),
    ("buckets", Arr(&Arr(&U64))),
];

/// A histogram's bucket counts sum to its `count`.
fn buckets_sum_to_count(h: &Json, ctx: &str) -> Result<(), String> {
    let mut total = 0u128;
    for b in arr_at(h, "buckets") {
        let pair = b.as_array().unwrap_or(&[]);
        ensure!(pair.len() == 2, "{ctx}: bucket not a pair");
        total += u128::from(pair[1].as_u64().unwrap_or(0));
    }
    let count = u64_at(h, "count");
    ensure!(
        total == u128::from(count),
        "{ctx}: buckets sum to {total}, count says {count}"
    );
    Ok(())
}

/// Validate the histograms JSON: an object of named histograms whose bucket
/// counts sum to their `count`.  Returns the histogram names.
pub fn validate_histograms_json(text: &str) -> Result<Vec<String>, String> {
    let v = parse_doc(text, "histograms.json")?;
    let Json::Obj(hists) = &v else {
        return Err("histograms.json: not a JSON object".into());
    };
    let mut names = Vec::new();
    for (name, h) in hists {
        let ctx = format!("histograms.json {name}");
        check(h, &[HISTOGRAM], &ctx)?;
        buckets_sum_to_count(h, &ctx)?;
        names.push(name.clone());
    }
    Ok(names)
}

/// One Chrome trace event as [`crate::perfetto::PerfettoTrace`] writes it:
/// `M` names a track, `B`/`E` open and close a span, `i` is an instant and
/// `C` a counter sample.
const PERFETTO_EVENT: Table = &[
    ("name", Opt(&Str)),
    ("ph", OneOf(&["M", "B", "E", "i", "C"])),
    ("s", Opt(&Str)),
    ("pid", Opt(&U64)),
    ("tid", Opt(&U64)),
    ("ts", Opt(&U64)),
    (
        "args",
        Opt(&Obj(&[("name", Opt(&Str)), ("value", Opt(&U64))])),
    ),
];

const PERFETTO: Table = &[("traceEvents", Arr(&Obj(PERFETTO_EVENT)))];

/// Validate a Chrome trace-event document: `traceEvents` array whose
/// entries carry a known phase, balanced `B`/`E` per track, timestamps
/// present on all non-metadata events.  Returns the event count.
pub fn validate_perfetto(text: &str) -> Result<u64, String> {
    let v = parse_doc(text, "perfetto")?;
    check(&v, &[PERFETTO], "perfetto")?;
    let events = arr_at(&v, "traceEvents");
    let mut depth: Vec<(u64, i64)> = Vec::new(); // (tid, open span depth)
    for (i, ev) in events.iter().enumerate() {
        let ph = str_at(ev, "ph");
        if ph == "M" {
            continue;
        }
        ensure!(
            ev.get("ts").is_some(),
            "perfetto event {i}: phase {ph} missing ts"
        );
        let tid = u64_at(ev, "tid");
        let p = match depth.iter().position(|(t, _)| *t == tid) {
            Some(p) => p,
            None => {
                depth.push((tid, 0));
                depth.len() - 1
            }
        };
        let slot = &mut depth[p].1;
        match ph {
            "B" => *slot += 1,
            "E" => *slot -= 1,
            _ => {}
        }
        ensure!(*slot >= 0, "perfetto event {i}: unbalanced E on tid {tid}");
    }
    for (tid, d) in depth {
        ensure!(d == 0, "perfetto: {d} unclosed span(s) on tid {tid}");
    }
    Ok(events.len() as u64)
}

/// What a validated `progress.jsonl` stream contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressReport {
    pub starts: u64,
    pub finishes: u64,
}

/// A `progress.jsonl` line; a `finish` line adds [`PROGRESS_FINISH`].
const PROGRESS: Table = &[
    ("event", OneOf(&["start", "finish"])),
    ("t_ms", U64),
    ("bench", Str),
    ("cfg", Str),
    ("worker", U64),
];

/// `spec` marks a demand answered by a parked speculative result.
const PROGRESS_FINISH: Table = &[
    ("cache", OneOf(&["cold", "disk", "mem", "spec"])),
    ("dur_ms", U64),
    ("sim_cycles", U64),
    ("kcps", F64),
];

/// Validate a `progress.jsonl` stream: every line is a `start` or `finish`
/// event with exactly its fields, `t_ms` non-decreasing, and no more starts
/// than finishes (cache hits emit finish-only lines).
pub fn validate_progress_jsonl(text: &str) -> Result<ProgressReport, String> {
    let mut report = ProgressReport::default();
    let mut last_t = 0u64;
    each_line(text, "progress.jsonl", |v, ctx| {
        let finish = str_at(v, "event") == "finish";
        let tables: &[Table] = if finish {
            &[PROGRESS, PROGRESS_FINISH]
        } else {
            &[PROGRESS]
        };
        check(v, tables, ctx)?;
        let t = u64_at(v, "t_ms");
        ensure!(t >= last_t, "{ctx}: t_ms {t} went backwards from {last_t}");
        last_t = t;
        if finish {
            report.finishes += 1;
        } else {
            report.starts += 1;
        }
        Ok(())
    })?;
    ensure!(
        report.finishes >= report.starts,
        "progress.jsonl: {} starts but only {} finishes",
        report.starts,
        report.finishes
    );
    Ok(report)
}

const RUN_MANIFEST: Table = &[
    ("schema", OneOf(&["wec-run-manifest-v1"])),
    ("scale", U64),
    ("host", Str),
    ("sim_revision", U64),
    ("wall_s", F64),
    (
        "simulations",
        Obj(&[
            ("lookups", U64),
            ("cold", U64),
            ("disk_hits", U64),
            ("mem_hits", U64),
            ("cache_hit_rate", F64),
        ]),
    ),
    (
        "eta",
        Obj(&[("mean_cold_ms", F64), ("sim_cycles_per_sec", F64)]),
    ),
    (
        "slowest",
        Arr(&Obj(&[
            ("bench", Str),
            ("cfg", Str),
            ("cache", OneOf(&["cold", "disk", "mem"])),
            ("dur_ms", U64),
        ])),
    ),
    ("tables", Arr(&Str)),
    ("metrics", Map(&Map(&U64))),
];

/// Validate a `run.json` manifest (`wec-run-manifest-v1`): the lookups split
/// exactly into cold, disk and memory answers.  Returns the number of
/// metric points the manifest carries.
pub fn validate_run_json(text: &str) -> Result<usize, String> {
    let ctx = "run.json simulations";
    let v = parse_doc(text, "run.json")?;
    check(&v, &[RUN_MANIFEST], "run.json")?;
    let [lookups, cold, disk, mem] = ["lookups", "cold", "disk_hits", "mem_hits"]
        .map(|k| u64_at(&v, &format!("simulations.{k}")));
    ensure!(
        sum([cold, disk, mem]) == u128::from(lookups),
        "{ctx}: cold {cold} + disk {disk} + mem {mem} != lookups {lookups}"
    );
    let rate = f64_at(&v, "simulations.cache_hit_rate");
    ensure!(
        (0.0..=1.0).contains(&rate),
        "{ctx}: cache_hit_rate {rate} out of [0,1]"
    );
    Ok(obj_at(&v, "metrics").len())
}

const PROFILE: Table = &[
    ("schema", OneOf(&["wec-profile-v1"])),
    ("stride", U64),
    ("sampled_cycles", U64),
    ("total_cycles", U64),
    ("wall_ns_sampled", U64),
    ("phases", Map(&Obj(&[("ns", U64), ("share", F64)]))),
];

/// Validate a `profile.json` document (`wec-profile-v1`): exactly the
/// [`crate::profile::Phase`] set, each share a fraction, and phase
/// nanoseconds summing to the sampled wall time.  Returns the phase names.
pub fn validate_profile_json(text: &str) -> Result<Vec<String>, String> {
    let ctx = "profile.json";
    let v = parse_doc(text, ctx)?;
    check(&v, &[PROFILE], ctx)?;
    ensure!(u64_at(&v, "stride") >= 1, "{ctx}: stride must be >= 1");
    let (sampled, total) = (u64_at(&v, "sampled_cycles"), u64_at(&v, "total_cycles"));
    ensure!(
        sampled <= total,
        "{ctx}: sampled_cycles {sampled} exceeds total_cycles {total}"
    );
    let known = crate::profile::Phase::ALL.map(|p| p.name());
    let phases = obj_at(&v, "phases");
    let mut ns_total = 0u128;
    for (name, ph) in phases {
        ensure!(
            known.contains(&name.as_str()),
            "{ctx}: unknown phase {name:?}"
        );
        let share = f64_at(ph, "share");
        ensure!(
            (0.0..=1.0).contains(&share),
            "{ctx} phase {name}: share {share} out of [0,1]"
        );
        ns_total += u128::from(u64_at(ph, "ns"));
    }
    ensure!(
        phases.len() == known.len(),
        "{ctx}: {} phases present, schema declares {}",
        phases.len(),
        known.len()
    );
    let wall = u64_at(&v, "wall_ns_sampled");
    ensure!(
        ns_total == u128::from(wall),
        "{ctx}: phase ns sum to {ns_total}, wall_ns_sampled says {wall}"
    );
    Ok(phases.iter().map(|(n, _)| n.clone()).collect())
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

/// One ledger totals object.  [`attr_totals`] reads the first eight fields
/// by position.
const ATTR_TOTALS: Table = &[
    ("wec_fills", U64),
    ("fills_wrong", U64),
    ("fills_victim", U64),
    ("fills_prefetch", U64),
    ("useful", U64),
    ("wasted", U64),
    ("victim_rescued", U64),
    ("still_resident", U64),
    ("pollution_bytes", U64),
];

const ATTRIBUTION: Table = &[
    ("schema", OneOf(&["wec-attribution-v1"])),
    ("block_bytes", U64),
    ("l1_sets", U64),
    ("n_tus", U64),
    ("totals", Obj(ATTR_TOTALS)),
    ("tus", Arr(&Obj(ATTR_TOTALS))),
    ("timeliness", Obj(HISTOGRAM)),
    (
        "top_pcs",
        Arr(&Obj(&[
            ("pc", U64),
            ("useful", U64),
            ("wasted", U64),
            ("median_timeliness", U64),
            ("pollution_bytes", U64),
        ])),
    ),
    (
        "sets",
        Obj(&[
            ("l1_accesses", Arr(&U64)),
            ("l1_misses", Arr(&U64)),
            ("side_fills", Arr(&U64)),
            ("side_hits", Arr(&U64)),
            ("victim_transfers", Arr(&U64)),
        ]),
    ),
];

/// The lifecycle conservation invariant: every WEC fill ends exactly one
/// way, `useful + wasted + victim_rescued + still_resident == wec_fills`.
fn conserves(t: &Json, ctx: &str) -> Result<(), String> {
    let [fills, useful, wasted, rescued, resident] = [
        "wec_fills",
        "useful",
        "wasted",
        "victim_rescued",
        "still_resident",
    ]
    .map(|k| u64_at(t, k));
    ensure!(
        sum([useful, wasted, rescued, resident]) == u128::from(fills),
        "{ctx}: conservation violated: {useful}+{wasted}+{rescued}+{resident} != {fills}"
    );
    Ok(())
}

/// One totals object's invariants — conservation, the origin split summing
/// to the same total, and `pollution_bytes == wasted * block_bytes` — and
/// its first eight counters in [`ATTR_TOTALS`] order.
fn attr_totals(t: &Json, block_bytes: u64, ctx: &str) -> Result<[u64; 8], String> {
    conserves(t, ctx)?;
    let out: [u64; 8] = std::array::from_fn(|i| u64_at(t, ATTR_TOTALS[i].0));
    let [fills, wrong, victim, prefetch, _, wasted, _, _] = out;
    ensure!(
        sum([wrong, victim, prefetch]) == u128::from(fills),
        "{ctx}: origin split {wrong}+{victim}+{prefetch} != wec_fills {fills}"
    );
    let pollution = u64_at(t, "pollution_bytes");
    ensure!(
        u128::from(pollution) == u128::from(wasted) * u128::from(block_bytes),
        "{ctx}: pollution_bytes {pollution} != wasted {wasted} * block_bytes {block_bytes}"
    );
    Ok(out)
}

/// Validate a `wec-attribution-v1` document (the speculation attribution
/// ledger's `attribution.json`), enforcing the ledger invariants per TU
/// **and** globally: conservation, origin split, per-TU totals summing to
/// the global totals, the timeliness histogram counting exactly the useful
/// lines, the top-PC table in credit order, and set heatmaps consistent
/// with the fill counters.
pub fn validate_attribution_json(text: &str) -> Result<AttributionCheck, String> {
    let ctx = "attribution.json";
    let v = parse_doc(text, ctx)?;
    check(&v, &[ATTRIBUTION], ctx)?;
    let [block_bytes, l1_sets, n_tus] = ["block_bytes", "l1_sets", "n_tus"].map(|k| u64_at(&v, k));
    ensure!(
        block_bytes > 0 && l1_sets > 0 && n_tus > 0,
        "{ctx}: degenerate geometry ({block_bytes} B blocks, {l1_sets} sets, {n_tus} TUs)"
    );
    let global = attr_totals(at(&v, "totals"), block_bytes, &format!("{ctx} totals"))?;
    let tus = arr_at(&v, "tus");
    ensure!(
        tus.len() as u64 == n_tus,
        "{ctx}: {} TU rows, n_tus says {n_tus}",
        tus.len()
    );
    let mut summed = [0u128; 8];
    for (i, tu) in tus.iter().enumerate() {
        let row = attr_totals(tu, block_bytes, &format!("{ctx} tus[{i}]"))?;
        for (s, r) in summed.iter_mut().zip(row) {
            *s += u128::from(r);
        }
    }
    ensure!(
        summed == global.map(u128::from),
        "{ctx}: per-TU totals {summed:?} do not sum to the global totals {global:?}"
    );
    let [fills, wrong, victim, prefetch, useful, wasted, rescued, _] = global;
    let timeliness = at(&v, "timeliness");
    buckets_sum_to_count(timeliness, &format!("{ctx} timeliness"))?;
    let t_count = u64_at(timeliness, "count");
    ensure!(
        t_count == useful,
        "{ctx}: timeliness count {t_count} != useful lines {useful}"
    );
    let top = arr_at(&v, "top_pcs");
    let mut prev: Option<(u64, u64, u64)> = None;
    let mut top_useful = 0u128;
    for (i, row) in top.iter().enumerate() {
        let rctx = format!("{ctx} top_pcs[{i}]");
        let [pc, pu, pw, pb] =
            ["pc", "useful", "wasted", "pollution_bytes"].map(|k| u64_at(row, k));
        ensure!(
            u128::from(pb) == u128::from(pw) * u128::from(block_bytes),
            "{rctx}: pollution_bytes {pb} != wasted {pw} * block"
        );
        // Sorted: useful desc, then wasted desc, then pc asc.
        if let Some((u0, w0, pc0)) = prev {
            let key = |u, w, pc| (u, w, std::cmp::Reverse(pc));
            ensure!(
                key(pu, pw, pc) <= key(u0, w0, pc0),
                "{rctx}: table not sorted by credit"
            );
        }
        prev = Some((pu, pw, pc));
        top_useful += u128::from(pu);
    }
    ensure!(
        top_useful <= u128::from(useful),
        "{ctx}: top_pcs claim {top_useful} useful lines, totals say {useful}"
    );
    let sctx = format!("{ctx} sets");
    for (key, a) in obj_at(&v, "sets") {
        let n = a.as_array().map_or(0, <[Json]>::len) as u64;
        ensure!(
            n == l1_sets,
            "{sctx}: {key:?} has {n} entries, l1_sets says {l1_sets}"
        );
    }
    let set_sum = |key: &str| -> u128 {
        let a = arr_at(&v, &format!("sets.{key}"));
        a.iter().filter_map(Json::as_u64).map(u128::from).sum()
    };
    let (acc, mis, side_fills, victims) = (
        set_sum("l1_accesses"),
        set_sum("l1_misses"),
        set_sum("side_fills"),
        set_sum("victim_transfers"),
    );
    ensure!(mis <= acc, "{sctx}: {mis} misses exceed {acc} accesses");
    ensure!(
        side_fills == sum([wrong, prefetch]),
        "{sctx}: side_fills sum {side_fills} != wrong {wrong} + prefetch {prefetch}"
    );
    ensure!(
        victims == u128::from(victim),
        "{sctx}: victim_transfers sum {victims} != fills_victim {victim}"
    );
    Ok(AttributionCheck {
        n_tus,
        wec_fills: fills,
        fills_wrong: wrong,
        fills_victim: victim,
        fills_prefetch: prefetch,
        useful,
        wasted,
        victim_rescued: rescued,
        top_pcs: top.len() as u64,
    })
}

/// A job's attribution summary: `{}` (attribution off or not applicable)
/// or exactly these five counters.
const ATTR_SUMMARY: Table = &[
    ("wec_fills", U64),
    ("useful", U64),
    ("wasted", U64),
    ("victim_rescued", U64),
    ("still_resident", U64),
];

/// Validate the attribution summary object embedded in a job record:
/// either empty or the five lifecycle counters with conservation holding.
pub fn validate_attr_summary(v: &Json, ctx: &str) -> Result<(), String> {
    if *v == Json::Obj(Vec::new()) {
        return Ok(());
    }
    check(v, &[ATTR_SUMMARY], ctx)?;
    conserves(v, ctx)
}

const JOB_KINDS: &[&str] = &["sim", "replay"];
const JOB_STATES: &[&str] = &["queued", "running", "done", "failed", "cancelled"];
const JOB_SOURCES: &[&str] = &["none", "cold", "disk", "mem", "spec"];

/// `speculative` is emitted only by `--speculate` servers; `backend_id`
/// only by daemons started with `--backend-id`.
const JOB_RECORD: Table = &[
    ("schema", OneOf(&["wec-job-record-v1"])),
    ("id", U64),
    ("kind", OneOf(JOB_KINDS)),
    ("bench", Str),
    ("scale", U64),
    ("cfg", Str),
    ("state", OneOf(JOB_STATES)),
    ("source", OneOf(JOB_SOURCES)),
    ("submissions", U64),
    ("worker", U64),
    ("submit_t_ms", U64),
    ("start_t_ms", U64),
    ("finish_t_ms", U64),
    ("dur_ms", U64),
    ("sim_cycles", U64),
    ("speculative", Opt(&True)),
    ("backend_id", Opt(&Name)),
    ("error", Str),
    ("metrics", Map(&U64)),
    ("attribution", Map(&U64)),
];

/// The state and source rules a job record and a dashboard job row share:
/// a done job names its source; only a speculative job is cancelled, and
/// then without a source; and only a speculative job that no demand
/// claimed has zero submissions.
fn job_rules(v: &Json, ctx: &str) -> Result<(), String> {
    let (state, source) = (str_at(v, "state"), str_at(v, "source"));
    let speculative = v.get("speculative").is_some();
    ensure!(
        state != "done" || source != "none",
        "{ctx}: done job has no cache source"
    );
    if state == "cancelled" {
        ensure!(speculative, "{ctx}: cancelled job is not speculative");
        ensure!(
            source == "none",
            "{ctx}: cancelled job carries source {source:?}"
        );
    }
    ensure!(
        speculative || u64_at(v, "submissions") > 0,
        "{ctx}: submissions must be >= 1"
    );
    Ok(())
}

/// Validate one `wec-job-record-v1` document (a serve-mode job record, as
/// returned by `GET /jobs/<id>` and logged to `jobs.jsonl`): the shared
/// state rules, ordered timestamps, an error exactly on failed jobs,
/// metrics on done jobs, and a conserving attribution summary.
pub fn validate_job_record(v: &Json, ctx: &str) -> Result<(), String> {
    check(v, &[JOB_RECORD], ctx)?;
    job_rules(v, ctx)?;
    let [submit, start, finish] =
        ["submit_t_ms", "start_t_ms", "finish_t_ms"].map(|k| u64_at(v, k));
    ensure!(
        start == 0 || start >= submit,
        "{ctx}: start_t_ms {start} before submit {submit}"
    );
    ensure!(
        finish == 0 || finish >= start,
        "{ctx}: finish_t_ms {finish} before start {start}"
    );
    let (state, error) = (str_at(v, "state"), str_at(v, "error"));
    ensure!(
        state != "failed" || !error.is_empty(),
        "{ctx}: failed job carries no error message"
    );
    ensure!(
        state == "failed" || error.is_empty(),
        "{ctx}: non-failed job carries error {error:?}"
    );
    ensure!(
        state != "done" || !obj_at(v, "metrics").is_empty(),
        "{ctx}: done job has no metrics"
    );
    validate_attr_summary(at(v, "attribution"), &format!("{ctx} attribution"))
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
    each_line(text, "jobs.jsonl", |v, ctx| {
        validate_job_record(v, ctx)?;
        match str_at(v, "state") {
            "done" => report.done += 1,
            "failed" => report.failed += 1,
            "cancelled" => report.cancelled += 1,
            other => {
                return Err(format!(
                    "{ctx}: non-terminal state {other:?} in the terminal log"
                ))
            }
        }
        report.total += 1;
        Ok(())
    })?;
    Ok(report)
}

const JOB_COUNTS: Table = &[
    ("submitted", U64),
    ("deduped", U64),
    ("completed", U64),
    ("failed", U64),
];

/// Every started speculation ends as exactly one of these, or is pending.
const SPEC_LEDGER: Table = &[
    ("started", U64),
    ("hit", U64),
    ("miss", U64),
    ("waste", U64),
    ("cancelled", U64),
    ("pending", U64),
];

/// The serve-stats document, v1 and v2 in one table: the optional
/// speculation fields are present exactly in `wec-serve-stats-v2`, the
/// document of a `--speculate` server.  Only `--backend-id` daemons stamp
/// `backend_id`.
const SERVE_STATS: Table = &[
    (
        "schema",
        OneOf(&["wec-serve-stats-v1", "wec-serve-stats-v2"]),
    ),
    ("backend_id", Opt(&Name)),
    ("uptime_ms", U64),
    ("workers", U64),
    ("busy_workers", U64),
    ("draining", Bool),
    (
        "queue",
        Obj(&[
            ("depth", U64),
            ("cap", U64),
            ("rejected", U64),
            ("spec_depth", Opt(&U64)),
            ("spec_cap", Opt(&U64)),
        ]),
    ),
    ("jobs", Obj(JOB_COUNTS)),
    (
        "cache",
        Obj(&[
            ("cold", U64),
            ("disk_hits", U64),
            ("mem_hits", U64),
            ("spec_hits", Opt(&U64)),
        ]),
    ),
    ("spec", Opt(&Obj(SPEC_LEDGER))),
    (
        "throughput",
        Obj(&[("jobs_per_sec", F64), ("utilization", F64)]),
    ),
];

/// The speculation ledger conserves: `hit + waste + cancelled + pending ==
/// started`.
fn spec_conserves(sp: &Json, ctx: &str) -> Result<(), String> {
    let [started, hit, waste, cancelled, pending] =
        ["started", "hit", "waste", "cancelled", "pending"].map(|k| u64_at(sp, k));
    ensure!(
        sum([hit, waste, cancelled, pending]) == u128::from(started),
        "{ctx}: hit {hit} + waste {waste} + cancelled {cancelled} \
         + pending {pending} != started {started}"
    );
    Ok(())
}

/// Validate a serve-stats document (the `GET /stats` payload and the
/// server's exit-time `stats.json`): `wec-serve-stats-v1`, or the
/// `wec-serve-stats-v2` superset a `--speculate` server emits.
pub fn validate_serve_stats_json(text: &str) -> Result<(), String> {
    let v = parse_doc(text, "stats.json")?;
    validate_serve_stats(&v, "stats.json")
}

/// Validate an already-parsed serve-stats value (v1 or v2) — the same
/// document rides embedded in `wec-dashboard-data-v2` and in the router's
/// stats.  Completions split exactly across `cold`/`disk_hits`/`mem_hits`
/// (/`spec_hits`), and the v2 speculation ledger conserves.
pub fn validate_serve_stats(v: &Json, ctx: &str) -> Result<(), String> {
    check(v, &[SERVE_STATS], ctx)?;
    let v2 = str_at(v, "schema") == "wec-serve-stats-v2";
    // The speculation fields belong to v2, and only to v2.
    for path in [
        "queue.spec_depth",
        "queue.spec_cap",
        "cache.spec_hits",
        "spec",
    ] {
        ensure!(
            (at(v, path) != NULL) == v2,
            "{ctx}: {path} must be present exactly in wec-serve-stats-v2"
        );
    }
    let (workers, busy) = (u64_at(v, "workers"), u64_at(v, "busy_workers"));
    ensure!(workers >= 1, "{ctx}: workers must be >= 1");
    ensure!(
        busy <= workers,
        "{ctx}: busy_workers {busy} exceeds workers {workers}"
    );
    let [depth, cap, sdepth, scap] =
        ["depth", "cap", "spec_depth", "spec_cap"].map(|k| u64_at(v, &format!("queue.{k}")));
    ensure!(depth <= cap, "{ctx} queue: depth {depth} exceeds cap {cap}");
    ensure!(
        sdepth <= scap,
        "{ctx} queue: spec_depth {sdepth} exceeds spec_cap {scap}"
    );
    let [submitted, deduped, completed, failed] =
        ["submitted", "deduped", "completed", "failed"].map(|k| u64_at(v, &format!("jobs.{k}")));
    ensure!(
        deduped <= submitted,
        "{ctx} jobs: deduped {deduped} exceeds submitted {submitted}"
    );
    ensure!(
        sum([completed, failed]) <= u128::from(submitted),
        "{ctx} jobs: completed {completed} + failed {failed} exceeds submitted {submitted}"
    );
    let [cold, disk, mem, spec_hits] =
        ["cold", "disk_hits", "mem_hits", "spec_hits"].map(|k| u64_at(v, &format!("cache.{k}")));
    ensure!(
        sum([cold, disk, mem, spec_hits]) == u128::from(completed),
        "{ctx} cache: cold {cold} + disk {disk} + mem {mem} + spec {spec_hits} \
         != completed {completed}"
    );
    if v2 {
        spec_conserves(at(v, "spec"), &format!("{ctx} spec"))?;
        let hit = u64_at(v, "spec.hit");
        ensure!(
            spec_hits <= hit,
            "{ctx} spec: cache.spec_hits {spec_hits} exceeds spec.hit {hit}"
        );
    }
    let util = f64_at(v, "throughput.utilization");
    ensure!(
        (0.0..=1.0).contains(&util),
        "{ctx} throughput: utilization {util} out of [0,1]"
    );
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

const BACKEND_STATES: &[&str] = &["healthy", "draining", "dead"];

/// The cluster's cache split; unlike a backend's, it always carries
/// `spec_hits` (zero when no backend speculates).
const CLUSTER_CACHE: Table = &[
    ("cold", U64),
    ("disk_hits", U64),
    ("mem_hits", U64),
    ("spec_hits", U64),
];

/// A backend's `stats` is absent when it was unreachable at scrape time.
const ROUTER_STATS: Table = &[
    ("schema", OneOf(&["wec-router-stats-v1"])),
    ("uptime_ms", U64),
    ("draining", Bool),
    (
        "router",
        Obj(&[
            ("requests", U64),
            ("proxied", U64),
            ("retries", U64),
            ("resharded", U64),
            ("rejected", U64),
        ]),
    ),
    (
        "backends",
        Arr(&Obj(&[
            ("id", Name),
            ("addr", Str),
            ("state", OneOf(BACKEND_STATES)),
            ("consecutive_failures", U64),
            ("routed", U64),
            ("stats", Opt(&Obj(SERVE_STATS))),
        ])),
    ),
    (
        "cluster",
        Obj(&[
            (
                "backends",
                Obj(&[("healthy", U64), ("draining", U64), ("dead", U64)]),
            ),
            ("jobs", Obj(JOB_COUNTS)),
            ("cache", Obj(CLUSTER_CACHE)),
            ("spec", Opt(&Obj(SPEC_LEDGER))),
            ("throughput", Obj(&[("jobs_per_sec", F64)])),
        ]),
    ),
];

/// Validate a `wec-router-stats-v1` document (the `wec_router` `GET
/// /stats` payload and its drain-time `router.json`).
pub fn validate_router_stats_json(text: &str) -> Result<RouterStatsReport, String> {
    let v = parse_doc(text, "router.json")?;
    validate_router_stats(&v, "router.json")
}

/// Validate an already-parsed `wec-router-stats-v1` value.  Each embedded
/// backend document is a valid serve-stats document, and the `cluster`
/// roll-up *conserves*: its backend counts match the `backends` array,
/// every counter equals the sum over the scraped backend ledgers, the
/// summed source split covers every completed job exactly once, and the
/// `spec` block, present iff some backend speculates, conserves too.
pub fn validate_router_stats(v: &Json, ctx: &str) -> Result<RouterStatsReport, String> {
    check(v, &[ROUTER_STATS], ctx)?;
    let cl = format!("{ctx} cluster");
    let backends = arr_at(v, "backends");
    ensure!(!backends.is_empty(), "{ctx}: \"backends\" is empty");
    let mut scraped = Vec::new();
    for (i, b) in backends.iter().enumerate() {
        if let Some(stats) = b.get("stats") {
            validate_serve_stats(stats, &format!("{ctx} backends[{i}] stats"))?;
            scraped.push(stats);
        }
    }
    for &state in BACKEND_STATES {
        let want = backends
            .iter()
            .filter(|b| str_at(b, "state") == state)
            .count() as u64;
        let got = u64_at(v, &format!("cluster.backends.{state}"));
        ensure!(
            got == want,
            "{cl} backends: {state} {got} but the backends array counts {want}"
        );
    }
    let any_spec = scraped.iter().any(|st| st.get("spec").is_some());
    ensure!(
        at(v, "cluster.spec").is_object() == any_spec,
        "{cl}: a \"spec\" block exactly when some backend speculates"
    );
    for (block, table) in [
        ("jobs", JOB_COUNTS),
        ("cache", CLUSTER_CACHE),
        ("spec", SPEC_LEDGER),
    ] {
        for (key, _) in table {
            let path = format!("{block}.{key}");
            let want: u128 = scraped.iter().map(|st| u128::from(u64_at(st, &path))).sum();
            let got = u64_at(v, &format!("cluster.{path}"));
            ensure!(
                u128::from(got) == want,
                "{cl} {block}: {key} {got} != sum of backend ledgers {want}"
            );
        }
    }
    let completed = u64_at(v, "cluster.jobs.completed");
    let split: u128 = CLUSTER_CACHE
        .iter()
        .map(|(k, _)| u128::from(u64_at(v, &format!("cluster.cache.{k}"))))
        .sum();
    ensure!(
        split == u128::from(completed),
        "{cl}: cache sources sum to {split} but completed is {completed}"
    );
    if any_spec {
        spec_conserves(at(v, "cluster.spec"), &format!("{cl} spec"))?;
    }
    Ok(RouterStatsReport {
        backends: backends.len() as u64,
        scraped: scraped.len() as u64,
        completed,
    })
}

/// `method` and `path` are `"-"` on lines for requests that did not parse.
const ACCESS_LINE: Table = &[
    ("t_ms", U64),
    ("method", Name),
    ("path", Name),
    ("status", U64),
    ("dur_us", U64),
    ("bytes", U64),
];

/// Validate an `access.jsonl` stream (`wec-access-log-v1`): one line per
/// answered HTTP request, each status an HTTP status.  Timestamps are
/// *not* required monotonic — concurrent connections finish out of order.
/// Returns the request count.
pub fn validate_access_jsonl(text: &str) -> Result<u64, String> {
    let mut total = 0u64;
    each_line(text, "access.jsonl", |v, ctx| {
        check(v, &[ACCESS_LINE], ctx)?;
        let status = u64_at(v, "status");
        ensure!(
            (100..=599).contains(&status),
            "{ctx}: status {status} out of 100..=599"
        );
        total += 1;
        Ok(())
    })?;
    Ok(total)
}

/// `sim_cycles` is cumulative: `/stats` does not carry it, and the page's
/// kcycles/s series is its difference between two polls.
const DASHBOARD: Table = &[
    ("schema", OneOf(&["wec-dashboard-data-v2"])),
    ("now_ms", U64),
    ("sim_cycles", U64),
    ("stats", Obj(SERVE_STATS)),
    (
        "http",
        Arr(&Obj(&[
            ("endpoint", Name),
            ("count", U64),
            ("mean_us", F64),
            ("p50_us", U64),
            ("p99_us", U64),
            ("max_us", U64),
            ("buckets", Arr(&Arr(&U64))),
        ])),
    ),
    (
        "jobs",
        Arr(&Obj(&[
            ("id", U64),
            ("kind", OneOf(JOB_KINDS)),
            ("bench", Str),
            ("cfg", Str),
            ("state", OneOf(JOB_STATES)),
            ("source", OneOf(JOB_SOURCES)),
            ("submissions", U64),
            ("worker", U64),
            ("dur_ms", U64),
            ("sim_cycles", U64),
            ("has_attr", Bool),
            ("speculative", Opt(&True)),
        ])),
    ),
];

/// Validate a `wec-dashboard-data-v2` document (the `GET /dashboard/data`
/// payload): the embedded stats snapshot, the per-endpoint latency digests
/// (bucket counts sum to the digest count, p50 ≤ p99 ≤ max), and the slim
/// recent-job rows (the job record's state and source rules).  Returns the
/// number of job rows.
pub fn validate_dashboard_data_json(text: &str) -> Result<usize, String> {
    let ctx = "dashboard.json";
    let v = parse_doc(text, ctx)?;
    check(&v, &[DASHBOARD], ctx)?;
    validate_serve_stats(at(&v, "stats"), &format!("{ctx} stats"))?;
    for (i, h) in arr_at(&v, "http").iter().enumerate() {
        let hctx = format!("{ctx} http[{i}]");
        let [p50, p99, max] = ["p50_us", "p99_us", "max_us"].map(|k| u64_at(h, k));
        ensure!(
            p50 <= p99 && p99 <= max,
            "{hctx}: quantiles out of order (p50 {p50}, p99 {p99}, max {max})"
        );
        buckets_sum_to_count(h, &hctx)?;
    }
    let jobs = arr_at(&v, "jobs");
    for (i, j) in jobs.iter().enumerate() {
        job_rules(j, &format!("{ctx} jobs[{i}]"))?;
    }
    Ok(jobs.len())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrProbe, AttributionReport, FillOrigin};
    use crate::event::TraceEvent;

    fn attribution_report() -> AttributionReport {
        let mut p = AttrProbe::new(8, 64);
        p.note_pc(0x40);
        p.on_l1_demand(0x1000, false);
        p.on_side_fill(0x1000, 10, FillOrigin::Wrong);
        p.on_side_hit(0x1000, 90);
        p.on_side_fill(0x1040, 90, FillOrigin::Prefetch);
        p.on_side_fill(0x2000, 95, FillOrigin::Victim);
        p.on_side_evict(0x1040);
        AttributionReport::from_probes([&p])
    }

    #[test]
    fn emitted_attribution_satisfies_its_own_schema() {
        let check = validate_attribution_json(&attribution_report().to_json()).unwrap();
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
        let mut h = crate::hist::Log2Histogram::new();
        for v in [5, 6, 100] {
            h.observe(v);
        }
        let good = format!("{{\"load_to_fill\":{}}}", h.to_json());
        assert_eq!(
            validate_histograms_json(&good).unwrap(),
            vec!["load_to_fill"]
        );
        // Exactly the rendered fields.
        assert!(validate_histograms_json(&good.replace("\"min\":5,", "")).is_err());
        assert!(validate_histograms_json(&good.replace("\"min\"", "\"mean\"")).is_err());
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

    fn run_manifest() -> crate::report::RunManifest {
        crate::report::RunManifest {
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
        }
    }

    #[test]
    fn run_manifest_validation() {
        let m = run_manifest();
        assert_eq!(validate_run_json(&m.to_json()).unwrap(), 1);

        assert!(validate_run_json("{\"schema\":\"nope\"}").is_err());
        // Inconsistent lookup accounting.
        let broken = m.to_json().replace("\"lookups\":7", "\"lookups\":8");
        assert!(validate_run_json(&broken).is_err());
        // Non-integer metric value.
        let broken = m.to_json().replace("\"cycles\":5", "\"cycles\":5.5");
        assert!(validate_run_json(&broken).is_err());
    }

    fn profile_report() -> String {
        let mut p = crate::profile::CycleProfiler::new(64);
        let laps = crate::profile::PhaseNs {
            ns: [10, 20, 30, 40, 50, 60],
        };
        p.record(0, &laps);
        p.report(64).to_json()
    }

    #[test]
    fn profile_validation() {
        let text = profile_report();
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
        let good = STATS_V1;
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
        // Sums are exact: 2^63 + 2^63 cold and disk answers are not zero
        // completions, even though they wrap a u64 to zero.
        let wrap = good
            .replace("\"completed\":5", "\"completed\":0")
            .replace("\"cold\":3", "\"cold\":9223372036854775808")
            .replace("\"disk_hits\":1", "\"disk_hits\":9223372036854775808")
            .replace("\"mem_hits\":1", "\"mem_hits\":0");
        assert!(validate_serve_stats_json(&wrap).is_err());
    }

    const STATS_V2: &str = "{\"schema\":\"wec-serve-stats-v2\",\"uptime_ms\":1000,\"workers\":4,\
                    \"busy_workers\":1,\"draining\":false,\
                    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1,\"spec_depth\":3,\"spec_cap\":16},\
                    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                    \"cache\":{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1},\
                    \"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},\
                    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";

    #[test]
    fn serve_stats_v2_validation() {
        let good = STATS_V2;
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

    /// One speculating backend behind a router, and the roll-up of it.
    fn router_doc() -> String {
        format!(
            "{{\"schema\":\"wec-router-stats-v1\",\"uptime_ms\":1000,\"draining\":false,\
             \"router\":{{\"requests\":12,\"proxied\":10,\"retries\":0,\"resharded\":0,\"rejected\":0}},\
             \"backends\":[{{\"id\":\"b0\",\"addr\":\"127.0.0.1:1\",\"state\":\"healthy\",\
             \"consecutive_failures\":0,\"routed\":10,\"stats\":{STATS_V2}}},\
             {{\"id\":\"b1\",\"addr\":\"127.0.0.1:2\",\"state\":\"dead\",\
             \"consecutive_failures\":3,\"routed\":0}}],\
             \"cluster\":{{\"backends\":{{\"healthy\":1,\"draining\":0,\"dead\":1}},\
             \"jobs\":{{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1}},\
             \"cache\":{{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1}},\
             \"spec\":{{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3}},\
             \"throughput\":{{\"jobs_per_sec\":5.0}}}}}}"
        )
    }

    #[test]
    fn router_stats_validation() {
        let good = router_doc();
        let r = validate_router_stats_json(&good).unwrap();
        assert_eq!(
            r,
            RouterStatsReport {
                backends: 2,
                scraped: 1,
                completed: 5
            }
        );
        // Cluster totals are the sums over the scraped backends, even
        // where the cluster's own split still covers its completions.
        let last = |doc: &str, from: &str, to: &str| {
            let i = doc.rfind(from).unwrap();
            format!("{}{to}{}", &doc[..i], &doc[i + from.len()..])
        };
        let bad = last(&good, "\"cold\":2", "\"cold\":3");
        let bad = last(&bad, "\"completed\":5", "\"completed\":6");
        let err = validate_router_stats_json(&bad).unwrap_err();
        assert!(err.contains("sum of backend ledgers"), "{err}");
        // The backend counts match the array.
        let bad = good.replace("\"dead\":1", "\"dead\":0");
        assert!(validate_router_stats_json(&bad).is_err());
        // A spec block exactly when some backend speculates.
        let (head, tail) = good.rsplit_once(",\"spec\":").unwrap();
        let no_spec = format!("{head},{}", tail.split_once("},").unwrap().1);
        assert!(validate_router_stats_json(&no_spec).is_err());
        // Each backend's own ledger must hold.
        let bad = good.replacen("\"cold\":2", "\"cold\":3", 1);
        assert!(validate_router_stats_json(&bad).is_err());
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

    const STATS_V1: &str = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
                            \"busy_workers\":1,\"draining\":false,\
                            \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
                            \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                            \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
                            \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";

    fn dashboard_doc() -> String {
        format!(
            "{{\"schema\":\"wec-dashboard-data-v2\",\"now_ms\":1000,\"sim_cycles\":96000,\
             \"stats\":{STATS_V1},\
             \"http\":[{{\"endpoint\":\"submit\",\"count\":3,\"mean_us\":80.5,\"p50_us\":63,\
             \"p99_us\":127,\"max_us\":130,\"buckets\":[[64,2],[128,1]]}}],\
             \"jobs\":[{{\"id\":1,\"kind\":\"sim\",\"bench\":\"181.mcf\",\"cfg\":\"orig/t8\",\
             \"state\":\"done\",\"source\":\"cold\",\"submissions\":2,\"worker\":0,\
             \"dur_ms\":30,\"sim_cycles\":48000,\"has_attr\":false}}]}}"
        )
    }

    #[test]
    fn dashboard_data_validation() {
        let good = dashboard_doc();
        assert_eq!(validate_dashboard_data_json(&good).unwrap(), 1);

        assert!(validate_dashboard_data_json("{\"schema\":\"nope\"}").is_err());
        // Only v2: the cumulative cycle count is required, a samples
        // array is undeclared.
        let v1 = good.replace("wec-dashboard-data-v2", "wec-dashboard-data-v1");
        assert!(validate_dashboard_data_json(&v1).is_err());
        let no_cycles = good.replacen("\"sim_cycles\":96000,", "", 1);
        assert!(validate_dashboard_data_json(&no_cycles).is_err());
        let samples = good.replacen("\"http\"", "\"samples\":[],\"http\"", 1);
        assert!(validate_dashboard_data_json(&samples).is_err());
        // Bucket counts not summing, quantile inversion, bad embedded
        // stats, and an unknown slim-row state.
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
        // Job rows follow the job record's rules: a done row names its
        // source, and a cancelled row is speculative.
        assert!(validate_dashboard_data_json(
            &good.replace("\"source\":\"cold\"", "\"source\":\"none\"")
        )
        .is_err());
        assert!(validate_dashboard_data_json(&good.replace(
            "\"state\":\"done\",\"source\":\"cold\"",
            "\"state\":\"cancelled\",\"source\":\"none\""
        ))
        .is_err());

        // Speculation extensions: job rows may be flagged speculative with
        // source "spec" and zero submissions.
        let spec_good = good.replace(
            "\"source\":\"cold\",\"submissions\":2",
            "\"source\":\"spec\",\"submissions\":0,\"speculative\":true",
        );
        assert_eq!(validate_dashboard_data_json(&spec_good).unwrap(), 1);
        assert!(validate_dashboard_data_json(
            &spec_good.replace("\"speculative\":true", "\"speculative\":false")
        )
        .is_err());
    }

    /// `v` as JSON text.
    fn text(v: &Json) -> String {
        let quoted = |s: &str| {
            let mut out = String::new();
            json::escape_into(&mut out, s);
            out
        };
        match v {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => quoted(s),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(text).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", quoted(k), text(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// Every copy of object `v`, which `tables` describe, with one required
    /// field deleted or one undeclared field added, at every depth the
    /// tables reach.
    fn mutants(v: &Json, tables: &[Table]) -> Vec<Json> {
        let Json::Obj(fields) = v else {
            return Vec::new();
        };
        let mut extra = fields.clone();
        extra.push(("undeclared".into(), Json::Num(1.0)));
        let mut out = vec![Json::Obj(extra)];
        for (name, kind) in tables.iter().flat_map(|t| t.iter()) {
            let Some(pos) = fields.iter().position(|(k, _)| k == name) else {
                continue;
            };
            if !matches!(kind, Opt(_)) {
                let mut fewer = fields.clone();
                fewer.remove(pos);
                out.push(Json::Obj(fewer));
            }
            for sub in nested_mutants(&fields[pos].1, kind) {
                let mut m = fields.clone();
                m[pos].1 = sub;
                out.push(Json::Obj(m));
            }
        }
        out
    }

    fn nested_mutants(v: &Json, kind: &FieldKind) -> Vec<Json> {
        match (kind, v) {
            (Opt(k), _) => nested_mutants(v, k),
            (Obj(t), _) => mutants(v, &[t]),
            (Arr(k), Json::Arr(items)) => (0..items.len())
                .flat_map(|i| {
                    nested_mutants(&items[i], k).into_iter().map(move |m| {
                        let mut a = items.clone();
                        a[i] = m;
                        Json::Arr(a)
                    })
                })
                .collect(),
            (Map(k), Json::Obj(entries)) => (0..entries.len())
                .flat_map(|i| {
                    nested_mutants(&entries[i].1, k).into_iter().map(move |m| {
                        let mut e = entries.clone();
                        e[i].1 = m;
                        Json::Obj(e)
                    })
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_table_rejects_a_missing_or_an_undeclared_field() {
        type Validate = fn(&str) -> Result<(), String>;
        let mut cases: Vec<(Validate, String, Vec<Table>)> = Vec::new();
        for &(name, fields) in EVENT_SCHEMA {
            let mut doc = format!("{{\"cycle\":1,\"type\":\"{name}\"");
            for (f, kind) in fields {
                let value = match kind {
                    Str => "\"x\"",
                    Bool => "true",
                    _ => "1",
                };
                doc.push_str(&format!(",\"{f}\":{value}"));
            }
            doc.push('}');
            cases.push((
                |t| validate_events_jsonl(t).map(drop),
                doc,
                vec![EVENT_HEADER, fields],
            ));
        }
        fn finish() -> String {
            crate::report::progress_finish_line(9, "181.mcf", "orig/t8", 0, "cold", 8, 1000)
        }
        cases.push((
            |t| validate_progress_jsonl(&format!("{t}\n{}", finish())).map(drop),
            crate::report::progress_start_line(1, "181.mcf", "orig/t8", 0),
            vec![PROGRESS],
        ));
        cases.push((
            |t| validate_progress_jsonl(t).map(drop),
            finish(),
            vec![PROGRESS, PROGRESS_FINISH],
        ));
        let mut h = crate::hist::Log2Histogram::new();
        h.observe(5);
        cases.push((
            |t| validate_histograms_json(&format!("{{\"h\":{t}}}")).map(drop),
            h.to_json(),
            vec![HISTOGRAM],
        ));
        let mut trace = crate::perfetto::PerfettoTrace::new();
        trace.thread_name(0, "TU0");
        trace.begin_span(0, 1, "region");
        trace.instant(0, 2, "fork");
        trace.counter(2, "ipc", 3);
        trace.end_span(0, 3);
        cases.push((
            |t| validate_perfetto(t).map(drop),
            trace.finish(),
            vec![PERFETTO],
        ));
        cases.push((
            |t| validate_run_json(t).map(drop),
            run_manifest().to_json(),
            vec![RUN_MANIFEST],
        ));
        cases.push((
            |t| validate_profile_json(t).map(drop),
            profile_report(),
            vec![PROFILE],
        ));
        cases.push((
            |t| validate_attribution_json(t).map(drop),
            attribution_report().to_json(),
            vec![ATTRIBUTION],
        ));
        cases.push((
            |t| validate_attr_summary(&json::parse(t)?, "t"),
            "{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}"
                .into(),
            vec![ATTR_SUMMARY],
        ));
        cases.push((
            |t| validate_job_record(&json::parse(t)?, "t"),
            job_record("done", "cold", "", "{\"cycles\":48000}"),
            vec![JOB_RECORD],
        ));
        cases.push((
            validate_serve_stats_json,
            STATS_V1.into(),
            vec![SERVE_STATS],
        ));
        cases.push((
            validate_serve_stats_json,
            STATS_V2.into(),
            vec![SERVE_STATS],
        ));
        cases.push((
            |t| validate_router_stats_json(t).map(drop),
            router_doc(),
            vec![ROUTER_STATS],
        ));
        cases.push((
            |t| validate_access_jsonl(t).map(drop),
            "{\"t_ms\":1,\"method\":\"GET\",\"path\":\"/x\",\"status\":200,\"dur_us\":1,\"bytes\":2}"
                .into(),
            vec![ACCESS_LINE],
        ));
        cases.push((
            |t| validate_dashboard_data_json(t).map(drop),
            dashboard_doc(),
            vec![DASHBOARD],
        ));

        let mut rejected = 0;
        for (validate, doc, tables) in &cases {
            let v = json::parse(doc).unwrap();
            validate(&text(&v)).unwrap_or_else(|e| panic!("{doc}: {e}"));
            let ms = mutants(&v, tables);
            assert!(ms.len() > 1, "no required field in {doc}");
            for m in ms {
                let t = text(&m);
                assert!(validate(&t).is_err(), "accepted a mutant: {t}");
                rejected += 1;
            }
        }
        assert!(rejected > 300, "only {rejected} mutants");
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
