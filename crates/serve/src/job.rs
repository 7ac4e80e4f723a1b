//! Job specifications and records.
//!
//! A `POST /jobs` body is a small JSON object parsed into a [`JobSpec`]:
//! which benchmark (or captured trace) to run, at which scale, under which
//! machine configuration.  Parsing is strict in the house style — unknown
//! fields are rejected, every value is range-checked — so a typo'd
//! submission fails loudly instead of silently running the default
//! machine.  Every accepted job carries a [`JobRecord`] through its life;
//! its JSON form is the `wec-job-record-v1` schema validated by
//! [`wec_telemetry::schema::validate_job_record`] and is what
//! `GET /jobs/<id>` returns and `jobs.jsonl` logs.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use wec_bench::CfgKey;
use wec_core::config::ProcPreset;
use wec_cpu::bpred::BpredKind;
use wec_telemetry::json::{self, escape_into, Json};
use wec_workloads::{Bench, Scale};

/// What a job executes.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Full-timing simulation of one benchmark analog.
    Sim { bench: Bench },
    /// Cache-hierarchy replay of a captured `.wectrace` file on the
    /// daemon's filesystem.
    Replay { trace: PathBuf },
}

/// A parsed, validated `POST /jobs` body.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub kind: JobKind,
    pub scale: Scale,
    pub key: CfgKey,
}

fn field_u64(v: &Json, key: &str, max: u64) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => {
            let n = f
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" is not a non-negative integer"))?;
            if n == 0 || n > max {
                return Err(format!("\"{key}\" = {n} out of range 1..={max}"));
            }
            Ok(Some(n))
        }
    }
}

/// Apply the `"cfg"` object onto the paper-default key.  Every field any
/// figure sweeps is settable; anything else is rejected.
fn parse_cfg(v: &Json, key: &mut CfgKey) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err("\"cfg\" is not an object".to_string());
    };
    for (name, _) in fields {
        match name.as_str() {
            "preset" | "n_tus" | "width" | "l1_kb" | "l1_ways" | "side_entries" | "l2_kb"
            | "l1_block" | "mem_latency" | "bpred" => {}
            other => return Err(format!("unknown cfg field {other:?}")),
        }
    }
    if let Some(name) = v.get("preset") {
        let name = name.as_str().ok_or("\"preset\" is not a string")?;
        key.preset = ProcPreset::ALL
            .iter()
            .copied()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = ProcPreset::ALL.iter().map(|p| p.name()).collect();
                format!("unknown preset {name:?} (one of {})", names.join(", "))
            })?;
    }
    if let Some(n) = field_u64(v, "n_tus", 16)? {
        key.n_tus = n as u8;
    }
    if let Some(n) = field_u64(v, "width", 64)? {
        key.width = n as u8;
    }
    if let Some(n) = field_u64(v, "l1_kb", 4096)? {
        key.l1_kb = n as u16;
    }
    if let Some(n) = field_u64(v, "l1_ways", 64)? {
        key.l1_ways = n as u8;
    }
    if let Some(n) = field_u64(v, "side_entries", 255)? {
        key.side_entries = n as u8;
    }
    if let Some(n) = field_u64(v, "l2_kb", 65535)? {
        key.l2_kb = n as u16;
    }
    if let Some(n) = field_u64(v, "l1_block", 4096)? {
        key.l1_block = n as u16;
    }
    if let Some(n) = field_u64(v, "mem_latency", 65535)? {
        key.mem_latency = n as u16;
    }
    if let Some(name) = v.get("bpred") {
        let name = name.as_str().ok_or("\"bpred\" is not a string")?;
        key.bpred = match name {
            "StaticTaken" => BpredKind::StaticTaken,
            "Bimodal" => BpredKind::Bimodal,
            "Gshare" => BpredKind::Gshare,
            other => {
                return Err(format!(
                    "unknown bpred {other:?} (one of StaticTaken, Bimodal, Gshare)"
                ))
            }
        };
    }
    Ok(())
}

impl JobSpec {
    /// Parse and validate one `POST /jobs` body.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let v = json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let Json::Obj(fields) = &v else {
            return Err("job spec is not a JSON object".to_string());
        };
        for (name, _) in fields {
            match name.as_str() {
                "kind" | "bench" | "scale" | "trace" | "cfg" => {}
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        let kind_name = match v.get("kind") {
            None => "sim",
            Some(k) => k.as_str().ok_or("\"kind\" is not a string")?,
        };
        let mut key = CfgKey::paper(ProcPreset::WthWpWec, 8);
        if let Some(cfg) = v.get("cfg") {
            parse_cfg(cfg, &mut key)?;
        }
        let kind = match kind_name {
            "sim" => {
                if v.get("trace").is_some() {
                    return Err("\"trace\" is only valid with kind \"replay\"".to_string());
                }
                let name = v
                    .get("bench")
                    .ok_or("sim jobs require \"bench\"")?
                    .as_str()
                    .ok_or("\"bench\" is not a string")?;
                let bench = Bench::ALL
                    .iter()
                    .copied()
                    .find(|b| b.name() == name)
                    .ok_or_else(|| {
                        let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
                        format!("unknown bench {name:?} (one of {})", names.join(", "))
                    })?;
                JobKind::Sim { bench }
            }
            "replay" => {
                if v.get("bench").is_some() || v.get("scale").is_some() {
                    return Err(
                        "replay jobs take their bench and scale from the trace header".to_string(),
                    );
                }
                let path = v
                    .get("trace")
                    .ok_or("replay jobs require \"trace\"")?
                    .as_str()
                    .ok_or("\"trace\" is not a string")?;
                JobKind::Replay {
                    trace: PathBuf::from(path),
                }
            }
            other => return Err(format!("unknown kind {other:?} (sim or replay)")),
        };
        let scale = match field_u64(&v, "scale", 1 << 20)? {
            Some(n) => Scale { units: n as u32 },
            None => Scale { units: 1 },
        };
        Ok(JobSpec { kind, scale, key })
    }

    /// Stable in-flight dedup / warm-memo key: two specs with equal keys
    /// produce byte-identical results, so they share one execution.
    pub fn dedup_key(&self) -> String {
        match &self.kind {
            JobKind::Sim { bench } => format!(
                "sim|{}|{}|{}",
                bench.name(),
                self.scale.units,
                self.key.label()
            ),
            JobKind::Replay { trace } => {
                format!("replay|{}|{}", trace.display(), self.key.label())
            }
        }
    }

    /// The record's `bench` field: the benchmark name for sims, the trace
    /// path for replays (the real bench name is only known once the trace
    /// header is read, and the record identifies the *submission*).
    pub fn bench_field(&self) -> String {
        match &self.kind {
            JobKind::Sim { bench } => bench.name().to_string(),
            JobKind::Replay { trace } => trace.display().to_string(),
        }
    }

    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            JobKind::Sim { .. } => "sim",
            JobKind::Replay { .. } => "replay",
        }
    }
}

/// The speculation attribution ledger of one attribution-enabled job: the
/// conservation summary embedded in the record's `"attribution"` object,
/// plus the full `wec-attribution-v1` document served by
/// `GET /jobs/<id>/attribution`.  Shared with the warm memo via `Arc`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobAttr {
    pub wec_fills: u64,
    pub useful: u64,
    pub wasted: u64,
    pub victim_rescued: u64,
    pub still_resident: u64,
    pub report_json: String,
}

/// Lifecycle state of a job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    /// A speculative job reclaimed before it executed (drain purge or TTL
    /// expiry).  Never reachable for demand-submitted jobs.
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Everything known about one job — the `wec-job-record-v1` document.
/// Times are milliseconds on the server's monotonic clock (0 = not yet).
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: u64,
    pub kind: &'static str,
    pub bench: String,
    pub scale: u32,
    pub cfg: String,
    pub state: JobState,
    /// How the result was satisfied: `none` until terminal, then
    /// `cold`/`disk`/`mem` ([`wec_bench::CacheSource`] names) or `spec`
    /// (result produced ahead of demand by the speculation subsystem).
    pub source: &'static str,
    /// How many `POST /jobs` calls landed on this record (dedup shares).
    /// Zero only for speculative jobs no demand has claimed yet.
    pub submissions: u64,
    /// True for jobs originated by the speculation predictor rather than a
    /// `POST /jobs` call.  Stays true after a demand claim so the record
    /// shows where the work came from.
    pub speculative: bool,
    pub worker: u64,
    pub submit_t_ms: u64,
    pub start_t_ms: u64,
    pub finish_t_ms: u64,
    pub dur_ms: u64,
    pub sim_cycles: u64,
    /// The serving daemon's stable identity (`--backend-id`); `None` keeps
    /// records byte-identical to a single-node build.  Lets aggregated
    /// `jobs.jsonl` streams from a sharded cluster stay attributable.
    pub backend_id: Option<Arc<str>>,
    pub error: String,
    /// Result counters; shared with the warm memo, hence the `Arc`.
    pub metrics: Arc<Vec<(String, u64)>>,
    /// Speculation attribution ledger (`None` renders the record's
    /// `"attribution"` field as the empty object).
    pub attr: Option<Arc<JobAttr>>,
}

impl JobRecord {
    /// A fresh `queued` record for `spec`, submitted at `submit_t_ms`.
    pub fn new(id: u64, spec: &JobSpec, submit_t_ms: u64) -> JobRecord {
        JobRecord {
            id,
            kind: spec.kind_name(),
            bench: spec.bench_field(),
            scale: spec.scale.units,
            cfg: spec.key.label(),
            state: JobState::Queued,
            source: "none",
            submissions: 1,
            speculative: false,
            worker: 0,
            submit_t_ms,
            start_t_ms: 0,
            finish_t_ms: 0,
            dur_ms: 0,
            sim_cycles: 0,
            backend_id: None,
            error: String::new(),
            metrics: Arc::new(Vec::new()),
            attr: None,
        }
    }

    /// Serialize as one `wec-job-record-v1` JSON document (no newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"wec-job-record-v1\"");
        let _ = write!(out, ",\"id\":{},\"kind\":\"{}\"", self.id, self.kind);
        out.push_str(",\"bench\":");
        escape_into(&mut out, &self.bench);
        let _ = write!(out, ",\"scale\":{},\"cfg\":", self.scale);
        escape_into(&mut out, &self.cfg);
        let _ = write!(
            out,
            ",\"state\":\"{}\",\"source\":\"{}\",\"submissions\":{},\"worker\":{}",
            self.state.name(),
            self.source,
            self.submissions,
            self.worker
        );
        let _ = write!(
            out,
            ",\"submit_t_ms\":{},\"start_t_ms\":{},\"finish_t_ms\":{},\"dur_ms\":{},\"sim_cycles\":{}",
            self.submit_t_ms, self.start_t_ms, self.finish_t_ms, self.dur_ms, self.sim_cycles
        );
        // Only speculative records carry the flag, so demand-only servers
        // keep emitting byte-identical v1 documents.
        if self.speculative {
            out.push_str(",\"speculative\":true");
        }
        // Same contract as `speculative`: only configured backends emit the
        // field, so a single-node daemon's records stay byte-identical.
        if let Some(b) = &self.backend_id {
            out.push_str(",\"backend_id\":");
            escape_into(&mut out, b);
        }
        out.push_str(",\"error\":");
        escape_into(&mut out, &self.error);
        out.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"attribution\":{");
        if let Some(a) = &self.attr {
            let _ = write!(
                out,
                "\"wec_fills\":{},\"useful\":{},\"wasted\":{},\"victim_rescued\":{},\"still_resident\":{}",
                a.wec_fills, a.useful, a.wasted, a.victim_rescued, a.still_resident
            );
        }
        out.push_str("}}");
        out
    }

    /// The result as `key value` lines (the `.kv` store format).
    pub fn metrics_kv(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.metrics.iter() {
            let _ = writeln!(out, "{k} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_telemetry::schema;

    #[test]
    fn parses_a_minimal_sim_spec_with_paper_defaults() {
        let spec = JobSpec::parse("{\"bench\": \"181.mcf\"}").unwrap();
        assert!(matches!(spec.kind, JobKind::Sim { bench } if bench.name() == "181.mcf"));
        assert_eq!(spec.scale.units, 1);
        assert_eq!(spec.key, CfgKey::paper(ProcPreset::WthWpWec, 8));
    }

    #[test]
    fn cfg_overrides_apply_and_are_range_checked() {
        let spec = JobSpec::parse(
            "{\"bench\": \"164.gzip\", \"scale\": 2, \"cfg\": {\"preset\": \"wth-wp-vc\", \
             \"side_entries\": 32, \"l1_ways\": 2, \"bpred\": \"Gshare\"}}",
        )
        .unwrap();
        assert_eq!(spec.scale.units, 2);
        assert_eq!(spec.key.preset, ProcPreset::WthWpVc);
        assert_eq!(spec.key.side_entries, 32);
        assert_eq!(spec.key.l1_ways, 2);
        assert_eq!(spec.key.bpred, BpredKind::Gshare);

        assert!(JobSpec::parse("{\"bench\": \"164.gzip\", \"cfg\": {\"n_tus\": 0}}").is_err());
        assert!(JobSpec::parse("{\"bench\": \"164.gzip\", \"cfg\": {\"n_tus\": 99}}").is_err());
        assert!(JobSpec::parse("{\"bench\": \"164.gzip\", \"cfg\": {\"wec_size\": 8}}").is_err());
        assert!(
            JobSpec::parse("{\"bench\": \"164.gzip\", \"cfg\": {\"bpred\": \"Oracle\"}}").is_err()
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(JobSpec::parse("not json").is_err());
        assert!(JobSpec::parse("[1, 2]").is_err());
        assert!(JobSpec::parse("{}").is_err(), "sim without bench");
        assert!(JobSpec::parse("{\"bench\": \"999.nope\"}").is_err());
        assert!(JobSpec::parse("{\"bench\": \"181.mcf\", \"typo\": 1}").is_err());
        assert!(
            JobSpec::parse("{\"kind\": \"replay\"}").is_err(),
            "no trace"
        );
        assert!(
            JobSpec::parse("{\"kind\": \"replay\", \"trace\": \"t.wectrace\", \"scale\": 2}")
                .is_err(),
            "replay scale comes from the trace"
        );
        assert!(
            JobSpec::parse("{\"kind\": \"sim\", \"bench\": \"181.mcf\", \"trace\": \"x\"}")
                .is_err()
        );
    }

    #[test]
    fn dedup_keys_separate_every_dimension() {
        let a = JobSpec::parse("{\"bench\": \"181.mcf\"}").unwrap();
        let b = JobSpec::parse("{\"bench\": \"181.mcf\", \"scale\": 2}").unwrap();
        let c =
            JobSpec::parse("{\"bench\": \"181.mcf\", \"cfg\": {\"side_entries\": 16}}").unwrap();
        let d = JobSpec::parse("{\"bench\": \"164.gzip\"}").unwrap();
        let keys = [a.dedup_key(), b.dedup_key(), c.dedup_key(), d.dedup_key()];
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
        assert_eq!(
            a.dedup_key(),
            JobSpec::parse("{\"bench\": \"181.mcf\"}")
                .unwrap()
                .dedup_key()
        );
    }

    #[test]
    fn records_satisfy_the_published_schema_at_every_stage() {
        let spec = JobSpec::parse("{\"bench\": \"181.mcf\"}").unwrap();
        let mut rec = JobRecord::new(7, &spec, 100);
        let check = |rec: &JobRecord| {
            let v = json::parse(&rec.to_json()).unwrap();
            schema::validate_job_record(&v, "test").unwrap();
        };
        check(&rec);
        rec.state = JobState::Running;
        rec.start_t_ms = 120;
        rec.worker = 3;
        check(&rec);
        rec.state = JobState::Done;
        rec.source = "cold";
        rec.finish_t_ms = 400;
        rec.dur_ms = 280;
        rec.sim_cycles = 123456;
        rec.metrics = Arc::new(vec![
            ("cycles".to_string(), 123456),
            ("forks".to_string(), 9),
        ]);
        check(&rec);
        assert_eq!(rec.metrics_kv(), "cycles 123456\nforks 9\n");

        // An attribution-enabled job embeds its conservation summary.
        rec.attr = Some(Arc::new(JobAttr {
            wec_fills: 10,
            useful: 4,
            wasted: 5,
            victim_rescued: 1,
            still_resident: 0,
            report_json: "{\"schema\":\"wec-attribution-v1\"}".to_string(),
        }));
        check(&rec);
        assert!(rec.to_json().contains("\"attribution\":{\"wec_fills\":10"));
        rec.attr = None;

        rec.state = JobState::Failed;
        rec.error = "self-check \"failed\"".to_string();
        rec.metrics = Arc::new(Vec::new());
        rec.source = "none";
        check(&rec);
        assert!(rec.to_json().contains("\"attribution\":{}"));
    }

    #[test]
    fn backend_id_is_emitted_only_when_configured_and_validates() {
        let spec = JobSpec::parse("{\"bench\": \"181.mcf\"}").unwrap();
        let mut rec = JobRecord::new(3, &spec, 10);
        assert!(
            !rec.to_json().contains("backend_id"),
            "unconfigured records must stay byte-identical"
        );
        rec.backend_id = Some(Arc::from("node-a"));
        let js = rec.to_json();
        assert!(js.contains("\"backend_id\":\"node-a\""), "{js}");
        let v = json::parse(&js).unwrap();
        schema::validate_job_record(&v, "test").unwrap();
    }
}
