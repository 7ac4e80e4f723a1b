//! Shared daemon state: the job table, dedup index, warm memo and stats.
//!
//! One [`ServerState`] is shared by the acceptor, every worker and every
//! stat reader.  Three layers keep repeated work from re-simulating:
//!
//! 1. the **in-flight dedup index** — a second `POST /jobs` with the same
//!    (kind, bench, scale, configuration) while the first is still queued
//!    or running lands on the *same* job (one execution, both submitters
//!    poll one id);
//! 2. the **warm memo** — once a job completes, identical submissions are
//!    answered synchronously from memory (`source: "mem"`), which is what
//!    makes the warm-path throughput target cheap;
//! 3. the **persistent result store** — the same on-disk `.kv` store the
//!    `experiments` sweeps use ([`wec_bench::runner::default_disk_dir`]),
//!    so daemon and CLI warm each other across restarts, and a served
//!    result is byte-identical to a direct run's cache entry.
//!
//! With `--speculate` a fourth layer sits in front of all three: each
//! accepted demand submission enqueues its sweep-axis neighbourhood
//! ([`crate::predict::neighbourhood`]) on the low-priority lane, idle
//! workers pre-execute it through the same `complete()` path, and
//! [`crate::spec::SpecReady`] marks which parked memo entries were
//! produced ahead of demand so the first claimant is counted (and
//! labeled `source:"spec"`) as a speculative warm hit.
//!
//! Lock ordering: `inflight` may be held while taking a job slot's lock
//! (submission); a slot's lock is never held while taking `inflight`
//! (completion releases the slot first).  Exception: a *speculative*
//! job's completion takes `inflight` first — demand claims always hold
//! `inflight`, so claimed-ness is frozen while the completion decides
//! whether it is answering a waiting claimant (normal accounting) or
//! parking an unclaimed result (speculation accounting), which is what
//! makes every started speculation reach exactly one terminal account.
//! Counters that must stay mutually consistent for `GET /stats` live
//! under one mutex, so a snapshot never observes `completed` without its
//! cache-source increment.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wec_bench::runner::{default_disk_dir, default_hosts};
use wec_bench::Suite;
use wec_telemetry::report::progress_finish_line;
use wec_trace::{Trace, TraceSlab};
use wec_workloads::{Bench, Scale};

use crate::job::{JobAttr, JobRecord, JobSpec, JobState};
use crate::lock;
use crate::metrics::ServeMetrics;
use crate::predict::neighbourhood;
use crate::queue::{JobQueue, Promote, PushError};
use crate::spec::{SpecConfig, SpecReady, SpecStats};

/// Daemon configuration (flags of the `wec_serve` binary).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Queue capacity; a full queue answers `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Persistent result store directory (`None` = in-memory only).
    pub store: Option<PathBuf>,
    /// Where to write `jobs.jsonl` + `access.jsonl` (live) and
    /// `stats.json` (at drain).
    pub log_dir: Option<PathBuf>,
    /// Socket read/write timeout per request, and how long a kept
    /// connection may sit idle between requests.
    pub io_timeout: Duration,
    /// Upper bound on one `/jobs/<id>/events` stream's lifetime.
    pub events_timeout: Duration,
    /// Attach the speculation attribution ledger to replay jobs.  Such
    /// jobs always replay cold (ledgers are not memoized on disk), embed
    /// their conservation summary in the job record, and serve the full
    /// `wec-attribution-v1` document at `GET /jobs/<id>/attribution`.
    pub attribution: bool,
    /// Speculative job prefetch (`--speculate`); `None` keeps every
    /// artifact byte-identical to a speculation-free build.
    pub spec: Option<SpecConfig>,
    /// Stable identity of this daemon in a sharded cluster
    /// (`--backend-id`).  When set it is stamped into every job record,
    /// the stats document, and `/metrics`, so a router aggregating N
    /// backends can attribute every line; `None` keeps all artifacts
    /// byte-identical to a single-node build.
    pub backend_id: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: default_hosts(),
            queue_cap: 64,
            store: Some(default_disk_dir()),
            log_dir: None,
            io_timeout: Duration::from_secs(10),
            events_timeout: Duration::from_secs(600),
            attribution: false,
            spec: None,
            backend_id: None,
        }
    }
}

/// One job's shared slot: its record, its progress-event lines, and (until
/// a worker claims it) its spec.  The condvar is notified on every change.
#[derive(Debug)]
pub struct JobSlot {
    pub inner: Mutex<JobInner>,
    pub cv: Condvar,
}

#[derive(Debug)]
pub struct JobInner {
    pub record: JobRecord,
    /// `progress.jsonl`-schema lines, streamed by `/jobs/<id>/events`.
    pub events: Vec<String>,
    /// Taken by the executing worker.
    pub spec: Option<JobSpec>,
}

impl JobSlot {
    fn new(record: JobRecord, events: Vec<String>, spec: Option<JobSpec>) -> Arc<JobSlot> {
        Arc::new(JobSlot {
            inner: Mutex::new(JobInner {
                record,
                events,
                spec,
            }),
            cv: Condvar::new(),
        })
    }

    /// Append one progress line and wake streamers.
    pub fn push_event(&self, line: String) {
        lock(&self.inner).events.push(line);
        self.cv.notify_all();
    }

    /// A point-in-time copy of the record.
    pub fn record(&self) -> JobRecord {
        lock(&self.inner).record.clone()
    }

    /// Block until the job reaches a terminal state (true) or `timeout`
    /// elapses (false).
    pub fn wait_terminal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = lock(&self.inner);
        loop {
            if g.record.state.terminal() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }
}

/// A completed result, kept for warm (`mem`) answers.
struct MemoEntry {
    metrics: Arc<Vec<(String, u64)>>,
    sim_cycles: u64,
    attr: Option<Arc<JobAttr>>,
}

/// How a worker resolved a job.
pub struct Outcome {
    /// `"cold"` / `"disk"` / `"mem"` — [`wec_bench::CacheSource`] names.
    pub source: &'static str,
    pub metrics: Arc<Vec<(String, u64)>>,
    pub sim_cycles: u64,
    pub dur_ms: u64,
    /// Speculation attribution ledger (attribution-enabled replay jobs).
    pub attr: Option<Arc<JobAttr>>,
}

/// Why a submission was refused (both answer `503`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    QueueFull,
    Draining,
}

/// Counters that must stay mutually consistent under one lock (the
/// `wec-serve-stats-v1` invariants, e.g. cache sources summing to
/// `completed`, are checked by CI against live snapshots).
#[derive(Default)]
struct Counts {
    submitted: u64,
    deduped: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    cold: u64,
    disk_hits: u64,
    mem_hits: u64,
    /// Simulated cycles across completed jobs (the dashboard's kcycles/s).
    sim_cycles: u64,
    /// Speculation-ledger aggregates across attribution-enabled jobs
    /// (warm answers re-count, exactly like `sim_cycles`).
    attr_fills: u64,
    attr_useful: u64,
    attr_wasted: u64,
    attr_victim_rescued: u64,
    attr_still_resident: u64,
    /// Speculation accounting (all zero when speculation is off).  Every
    /// started speculation lands in exactly one of hit / waste /
    /// cancelled; `pending` is derived at snapshot time so the
    /// conservation invariant holds on every scrape.
    spec_started: u64,
    spec_hit: u64,
    spec_miss: u64,
    spec_waste: u64,
    spec_cancelled: u64,
    /// The subset of `spec_hit` answered synchronously from a parked
    /// ready result (the v2 `cache.spec_hits` bucket).
    spec_warm_hits: u64,
}

impl Counts {
    fn add_attr(&mut self, a: &JobAttr) {
        self.attr_fills += a.wec_fills;
        self.attr_useful += a.useful;
        self.attr_wasted += a.wasted;
        self.attr_victim_rescued += a.victim_rescued;
        self.attr_still_resident += a.still_resident;
    }
}

/// A point-in-time copy of everything `GET /stats`, `GET /metrics` and
/// `GET /dashboard/data` report.  All job counters are read under the single `counts`
/// mutex, so the source split always sums to `completed` — the exposition
/// and the stats document reconcile exactly because they render the *same*
/// snapshot type.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    /// Milliseconds since daemon start, clamped to ≥ 1 (rate denominators).
    pub uptime_ms: u64,
    pub workers: u64,
    pub busy: u64,
    pub busy_ms: u64,
    pub draining: bool,
    pub queue_depth: u64,
    pub queue_cap: u64,
    pub outstanding: u64,
    pub submitted: u64,
    pub deduped: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub cold: u64,
    pub disk_hits: u64,
    pub mem_hits: u64,
    pub sim_cycles: u64,
    pub attr_fills: u64,
    pub attr_useful: u64,
    pub attr_wasted: u64,
    pub attr_victim_rescued: u64,
    pub attr_still_resident: u64,
    /// Speculation counters; `None` when speculation is off, and the
    /// renderers emit v1 documents with no speculation series at all.
    pub spec: Option<SpecStats>,
}

/// Everything the acceptor, workers and stat readers share.
pub struct ServerState {
    pub cfg: ServeConfig,
    pub queue: JobQueue,
    /// Set by `POST /shutdown` or SIGTERM; refuses new jobs, drains.
    pub draining: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<JobSlot>>>,
    /// Dedup key → live job id.
    inflight: Mutex<HashMap<String, u64>>,
    memo: Mutex<HashMap<String, Arc<MemoEntry>>>,
    /// Built workload suites, one per (bench, scale) ever requested.
    suites: Mutex<HashMap<(&'static str, u32), Arc<Suite>>>,
    /// Decoded capture traces, one slab per path ever requested — replay
    /// jobs for the same trace share one decode and merge.
    traces: Mutex<HashMap<PathBuf, Arc<TraceSlab>>>,
    counts: Mutex<Counts>,
    /// Jobs accepted into the queue and not yet terminal (drain barrier).
    outstanding: AtomicU64,
    /// Workers currently executing a job (stats gauge).
    pub busy: AtomicU64,
    /// Total worker-occupied milliseconds (utilization numerator).
    pub busy_ms: AtomicU64,
    jobs_log: Mutex<Option<std::fs::File>>,
    access_log: Mutex<Option<std::fs::File>>,
    /// HTTP request/latency counters and job-duration histograms.
    pub metrics: ServeMetrics,
    /// Speculative results produced ahead of demand and not yet claimed.
    spec_ready: SpecReady,
    /// `cfg.backend_id` as a shared slice, stamped into every record.
    backend_id: Option<Arc<str>>,
}

impl ServerState {
    pub fn new(cfg: ServeConfig) -> std::io::Result<Arc<ServerState>> {
        let (jobs_log, access_log) = match &cfg.log_dir {
            None => (None, None),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let open = |name: &str| {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(dir.join(name))
                };
                (Some(open("jobs.jsonl")?), Some(open("access.jsonl")?))
            }
        };
        let queue = match &cfg.spec {
            None => JobQueue::new(cfg.queue_cap),
            Some(sc) => JobQueue::with_spec(cfg.queue_cap, sc.queue_cap, sc.inflight_max),
        };
        let backend_id = cfg.backend_id.as_deref().map(Arc::from);
        Ok(Arc::new(ServerState {
            cfg,
            queue,
            draining: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            memo: Mutex::new(HashMap::new()),
            suites: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            counts: Mutex::new(Counts::default()),
            outstanding: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            busy_ms: AtomicU64::new(0),
            jobs_log: Mutex::new(jobs_log),
            access_log: Mutex::new(access_log),
            metrics: ServeMetrics::new(),
            spec_ready: SpecReady::new(),
            backend_id,
        }))
    }

    /// Milliseconds since daemon start — the time base of every record
    /// field and progress line (one monotonic clock, so every stream is
    /// time-ordered).
    pub fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// A fresh record stamped with this daemon's backend identity.
    fn new_record(&self, id: u64, spec: &JobSpec, submit_t_ms: u64) -> JobRecord {
        let mut record = JobRecord::new(id, spec, submit_t_ms);
        record.backend_id = self.backend_id.clone();
        record
    }

    pub fn job(&self, id: u64) -> Option<Arc<JobSlot>> {
        lock(&self.jobs).get(&id).cloned()
    }

    /// Jobs accepted and not yet terminal (the drain barrier: the queue
    /// depth alone misses jobs popped but not yet finished).
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Submit one demand job.  Returns the (possibly shared) slot; the
    /// caller renders its record.  When speculation is on, an accepted
    /// submission also reaps stale speculations and enqueues the spec's
    /// sweep-axis neighbourhood.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobSlot>, SubmitError> {
        if self.cfg.spec.is_none() {
            return self.submit_demand(spec);
        }
        let next = neighbourhood(&spec);
        let out = self.submit_demand(spec);
        if out.is_ok() {
            self.reap_stale();
            for cand in next {
                self.spec_submit(cand);
            }
        }
        out
    }

    fn submit_demand(&self, spec: JobSpec) -> Result<Arc<JobSlot>, SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let key = spec.dedup_key();
        let now = self.now_ms();
        // The index lock is held across the whole decision so two racing
        // identical submissions cannot both miss it and double-execute —
        // and so a speculative job's claimed-ness is decided exactly once
        // (its completion also holds this lock).
        let mut inflight = lock(&self.inflight);
        if let Some(slot) = inflight.get(&key).and_then(|id| self.job(*id)) {
            let (id, first_claim) = {
                let mut g = lock(&slot.inner);
                let first_claim = g.record.speculative && g.record.submissions == 0;
                g.record.submissions += 1;
                (g.record.id, first_claim)
            };
            // For the first demand claim of a speculation still in
            // flight: if it is still parked in the low-priority lane,
            // promote it to the demand lane — the speculation saved
            // nothing, so it converts to an ordinary demand job
            // (cancelled).  If it already reached a worker (or the demand
            // lane is full), the prefetch is genuinely ahead of demand: a
            // hit.
            let promoted = first_claim && self.queue.promote(id) == Promote::Promoted;
            let mut c = lock(&self.counts);
            c.submitted += 1;
            if first_claim {
                if promoted {
                    c.spec_cancelled += 1;
                } else {
                    c.spec_hit += 1;
                }
            } else {
                c.deduped += 1;
            }
            return Ok(slot.clone());
        }
        if let Some(entry) = lock(&self.memo).get(&key).cloned() {
            // Warm hit: answer synchronously with a terminal record.  A
            // result parked by speculation and claimed here for the first
            // time is credited to the prefetcher (`source:"spec"`); the
            // bytes served are the same memo entry either way.
            let spec_claim = self.spec_ready.claim(&key).is_some();
            let source: &'static str = if spec_claim { "spec" } else { "mem" };
            let id = self.next_id.fetch_add(1, Ordering::SeqCst);
            let mut record = self.new_record(id, &spec, now);
            record.state = JobState::Done;
            record.source = source;
            record.start_t_ms = now;
            record.finish_t_ms = now;
            record.sim_cycles = entry.sim_cycles;
            record.metrics = entry.metrics.clone();
            record.attr = entry.attr.clone();
            let line = progress_finish_line(
                now,
                &record.bench,
                &record.cfg,
                0,
                source,
                0,
                entry.sim_cycles,
            );
            let slot = JobSlot::new(record.clone(), vec![line], None);
            lock(&self.jobs).insert(id, slot.clone());
            {
                let mut c = lock(&self.counts);
                c.submitted += 1;
                c.completed += 1;
                if spec_claim {
                    c.spec_hit += 1;
                    c.spec_warm_hits += 1;
                } else {
                    c.mem_hits += 1;
                }
                c.sim_cycles += entry.sim_cycles;
                if let Some(a) = &entry.attr {
                    c.add_attr(a);
                }
            }
            self.metrics.observe_job(source, 0);
            self.log_record(&record);
            return Ok(slot);
        }
        // Cold path: queue for a worker.
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let record = self.new_record(id, &spec, now);
        let slot = JobSlot::new(record, Vec::new(), Some(spec));
        lock(&self.jobs).insert(id, slot.clone());
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        match self.queue.push(id) {
            Ok(_) => {
                inflight.insert(key, id);
                let mut c = lock(&self.counts);
                c.submitted += 1;
                if self.cfg.spec.is_some() {
                    // No speculation anticipated this demand.
                    c.spec_miss += 1;
                }
                Ok(slot)
            }
            Err(e) => {
                self.outstanding.fetch_sub(1, Ordering::SeqCst);
                lock(&self.jobs).remove(&id);
                lock(&self.counts).rejected += 1;
                Err(match e {
                    PushError::Full => SubmitError::QueueFull,
                    PushError::Closed => SubmitError::Draining,
                })
            }
        }
    }

    /// Enqueue one candidate job on the speculative lane.  Silently a
    /// no-op if the key is already in flight, memoized, or the lane is
    /// full — speculation never generates errors, only missed chances.
    /// Returns whether a speculation was actually started.
    fn spec_submit(&self, spec: JobSpec) -> bool {
        if self.draining.load(Ordering::SeqCst) {
            return false;
        }
        let key = spec.dedup_key();
        let now = self.now_ms();
        let mut inflight = lock(&self.inflight);
        if inflight.contains_key(&key) || lock(&self.memo).contains_key(&key) {
            return false;
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut record = self.new_record(id, &spec, now);
        record.speculative = true;
        record.submissions = 0;
        let slot = JobSlot::new(record, Vec::new(), Some(spec));
        lock(&self.jobs).insert(id, slot);
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        match self.queue.push_spec(id) {
            Ok(_) => {
                inflight.insert(key, id);
                lock(&self.counts).spec_started += 1;
                true
            }
            Err(_) => {
                self.outstanding.fetch_sub(1, Ordering::SeqCst);
                lock(&self.jobs).remove(&id);
                false
            }
        }
    }

    /// Record a job's terminal outcome: publish the memo, release the
    /// dedup entry, count it, then fill the record, log it and wake every
    /// waiter.  The terminal state is published last, so anyone who reads
    /// a terminal record (a polling client, a streamer) finds the job
    /// already counted by `GET /stats` and `GET /metrics`.
    pub fn complete(&self, slot: &Arc<JobSlot>, dedup_key: &str, res: Result<Outcome, String>) {
        // `speculative` is set once at creation and never cleared, so this
        // unlocked-then-locked peek cannot misroute.
        if self.cfg.spec.is_some() && lock(&slot.inner).record.speculative {
            return self.complete_speculative(slot, dedup_key, res);
        }
        if let Ok(o) = &res {
            // Memo before dedup release: a racing submission sees either
            // the in-flight entry or the memo, never neither.
            self.memoize(dedup_key, o);
        }
        lock(&self.inflight).remove(dedup_key);
        self.count_terminal(&res, None);
        self.publish_terminal(slot, &res, None);
    }

    /// Terminal accounting for a job speculation started.  Takes the
    /// dedup index lock *first* (claims always hold it), so "did demand
    /// claim this before it finished?" has exactly one answer — a claimed
    /// speculation completes like any demand job, an unclaimed one parks
    /// its result in the memo and the ready index without touching the
    /// demand counters.  Once the dedup entry is gone no claim can reach
    /// the slot, so the answer still holds when the record is published.
    fn complete_speculative(
        &self,
        slot: &Arc<JobSlot>,
        dedup_key: &str,
        res: Result<Outcome, String>,
    ) {
        let mut inflight = lock(&self.inflight);
        let claimed = lock(&slot.inner).record.submissions > 0;
        if let Ok(o) = &res {
            self.memoize(dedup_key, o);
            if !claimed {
                self.spec_ready.publish(dedup_key, self.now_ms());
            }
        }
        inflight.remove(dedup_key);
        drop(inflight);
        self.count_terminal(&res, Some(claimed));
        // An unclaimed result is parked, labelled by who produced it.
        let parked = (!claimed).then_some("spec");
        self.publish_terminal(slot, &res, parked);
    }

    fn memoize(&self, dedup_key: &str, o: &Outcome) {
        lock(&self.memo).insert(
            dedup_key.to_string(),
            Arc::new(MemoEntry {
                metrics: o.metrics.clone(),
                sim_cycles: o.sim_cycles,
                attr: o.attr.clone(),
            }),
        );
    }

    /// Count one terminal outcome into the stats and the job histograms.
    /// `claimed` is `None` for a demand job; for a speculation it says
    /// whether a demand was waiting on it (normal accounting) or not
    /// (parked result, or a reclaimed failure — no demand counters move).
    fn count_terminal(&self, res: &Result<Outcome, String>, claimed: Option<bool>) {
        let served = claimed.unwrap_or(true);
        {
            let mut c = lock(&self.counts);
            match res {
                Ok(o) => {
                    c.sim_cycles += o.sim_cycles;
                    if let Some(a) = &o.attr {
                        c.add_attr(a);
                    }
                    if served {
                        c.completed += 1;
                        match o.source {
                            "disk" => c.disk_hits += 1,
                            "mem" => c.mem_hits += 1,
                            _ => c.cold += 1,
                        }
                    }
                }
                Err(_) if served => c.failed += 1,
                // Nobody was waiting; a failed speculation is reclaimed,
                // not a served failure.
                Err(_) => c.spec_cancelled += 1,
            }
        }
        if let Ok(o) = res {
            let source = if served { o.source } else { "spec" };
            self.metrics.observe_job(source, o.dur_ms);
        }
    }

    /// Fill the record and flip it terminal (the last step of a
    /// completion), release the drain barrier, log the record and wake
    /// every waiter.  `source` overrides the outcome's cache source.
    fn publish_terminal(
        &self,
        slot: &Arc<JobSlot>,
        res: &Result<Outcome, String>,
        source: Option<&'static str>,
    ) {
        let now = self.now_ms();
        let record = {
            let mut g = lock(&slot.inner);
            g.record.finish_t_ms = now;
            match res {
                Ok(o) => {
                    g.record.state = JobState::Done;
                    g.record.source = source.unwrap_or(o.source);
                    g.record.dur_ms = o.dur_ms;
                    g.record.sim_cycles = o.sim_cycles;
                    g.record.metrics = o.metrics.clone();
                    g.record.attr = o.attr.clone();
                }
                Err(e) => {
                    g.record.state = JobState::Failed;
                    g.record.error = e.clone();
                }
            }
            g.record.clone()
        };
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        self.log_record(&record);
        slot.cv.notify_all();
    }

    /// Reclaim expired speculation: queued unclaimed jobs older than the
    /// TTL are cancelled, parked ready results older than the TTL are
    /// reclassified as waste (their memo entries stay — a later demand is
    /// simply an ordinary `mem` hit).  Called on every demand submission
    /// and from the drain loop; a no-op when speculation is off.
    pub fn reap_stale(&self) {
        let Some(sc) = &self.cfg.spec else { return };
        let ttl_ms = sc.ttl.as_millis() as u64;
        let now = self.now_ms();
        self.reap_older_than(now, now.saturating_sub(ttl_ms));
    }

    /// Reclaim *all* pending speculation immediately (the drain barrier:
    /// queued speculations would otherwise hold `outstanding` up forever
    /// once the demand stream stops).
    pub fn purge_speculation(&self) {
        if self.cfg.spec.is_some() {
            let now = self.now_ms();
            self.reap_older_than(now, now);
        }
    }

    fn reap_older_than(&self, now: u64, cutoff_ms: u64) {
        let wasted = self.spec_ready.reap(cutoff_ms);
        if wasted > 0 {
            lock(&self.counts).spec_waste += wasted;
        }
        // The dedup index lock serializes reaping against claims, so a
        // job is either claimed (skipped here) or cancelled, never both.
        let mut inflight = lock(&self.inflight);
        for id in self.queue.spec_items() {
            let Some(slot) = self.job(id) else { continue };
            let (record, key) = {
                let mut g = lock(&slot.inner);
                if !g.record.speculative
                    || g.record.submissions > 0
                    || g.record.submit_t_ms > cutoff_ms
                    || !self.queue.remove_spec(id)
                {
                    continue;
                }
                g.record.state = JobState::Cancelled;
                g.record.finish_t_ms = now;
                let key = g.spec.take().map(|s| s.dedup_key());
                (g.record.clone(), key)
            };
            if let Some(key) = key {
                inflight.remove(&key);
            }
            lock(&self.counts).spec_cancelled += 1;
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
            self.log_record(&record);
            slot.cv.notify_all();
        }
    }

    /// The built suite for one (bench, scale) — a single-workload suite,
    /// so the runner's store filenames match a direct `experiments` run
    /// of the same point byte for byte.
    pub fn suite_for(&self, bench: Bench, scale: Scale) -> Arc<Suite> {
        let mut g = lock(&self.suites);
        g.entry((bench.name(), scale.units))
            .or_insert_with(|| {
                Arc::new(Suite {
                    scale,
                    workloads: vec![bench.build(scale)],
                })
            })
            .clone()
    }

    /// The decoded slab for the trace at `path`, revision-checked against
    /// this binary.  Decoded once (block decode fanned over the worker
    /// count) and shared by every replay job that names the same path.
    pub fn trace_for(&self, path: &Path) -> Result<Arc<TraceSlab>, String> {
        if let Some(t) = lock(&self.traces).get(path) {
            return Ok(t.clone());
        }
        let trace =
            Trace::read_from(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        if trace.header.sim_revision != wec_core::SIM_REVISION {
            return Err(format!(
                "{}: captured at simulator revision {} but this daemon is revision {} — recapture",
                path.display(),
                trace.header.sim_revision,
                wec_core::SIM_REVISION
            ));
        }
        let slab = Arc::new(
            TraceSlab::build(&trace, self.cfg.workers.max(1))
                .map_err(|e| format!("cannot decode {}: {e}", path.display()))?,
        );
        lock(&self.traces).insert(path.to_path_buf(), slab.clone());
        Ok(slab)
    }

    /// Append one terminal record to `jobs.jsonl` (no-op without a log
    /// directory).
    fn log_record(&self, record: &JobRecord) {
        let mut g = lock(&self.jobs_log);
        if let Some(f) = g.as_mut() {
            let _ = writeln!(f, "{}", record.to_json());
        }
    }

    /// Append one `wec-access-log-v1` line to `access.jsonl` (no-op without
    /// a log directory).  `path` has already been folded to a bounded
    /// endpoint label upstream only for metrics — the log keeps the real
    /// path, JSON-escaped, for per-request forensics.
    pub fn log_access(&self, method: &str, path: &str, status: u16, dur_us: u64, bytes: u64) {
        let mut g = lock(&self.access_log);
        if let Some(f) = g.as_mut() {
            let mut line = String::with_capacity(128);
            let _ = write!(line, "{{\"t_ms\":{},\"method\":", self.now_ms());
            wec_telemetry::json::escape_into(&mut line, method);
            line.push_str(",\"path\":");
            wec_telemetry::json::escape_into(&mut line, path);
            let _ = write!(
                line,
                ",\"status\":{status},\"dur_us\":{dur_us},\"bytes\":{bytes}}}"
            );
            let _ = writeln!(f, "{line}");
        }
    }

    /// The configured cluster identity, if any (`--backend-id`).
    pub fn backend_id(&self) -> Option<&str> {
        self.backend_id.as_deref()
    }

    /// A consistent point-in-time snapshot (see [`StatsSnapshot`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        let workers = self.cfg.workers.max(1) as u64;
        let c = lock(&self.counts);
        StatsSnapshot {
            uptime_ms: self.now_ms().max(1),
            workers,
            busy: self.busy.load(Ordering::SeqCst).min(workers),
            busy_ms: self.busy_ms.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            queue_depth: self.queue.depth().min(self.queue.cap()) as u64,
            queue_cap: self.queue.cap() as u64,
            outstanding: self.outstanding.load(Ordering::SeqCst),
            submitted: c.submitted,
            deduped: c.deduped,
            completed: c.completed,
            failed: c.failed,
            rejected: c.rejected,
            cold: c.cold,
            disk_hits: c.disk_hits,
            mem_hits: c.mem_hits,
            sim_cycles: c.sim_cycles,
            attr_fills: c.attr_fills,
            attr_useful: c.attr_useful,
            attr_wasted: c.attr_wasted,
            attr_victim_rescued: c.attr_victim_rescued,
            attr_still_resident: c.attr_still_resident,
            spec: self.cfg.spec.as_ref().map(|_| SpecStats {
                started: c.spec_started,
                hit: c.spec_hit,
                miss: c.spec_miss,
                waste: c.spec_waste,
                cancelled: c.spec_cancelled,
                // Derived, so hit + waste + cancelled + pending ==
                // started holds on every scrape by construction.
                pending: c
                    .spec_started
                    .saturating_sub(c.spec_hit + c.spec_waste + c.spec_cancelled),
                warm_hits: c.spec_warm_hits,
                queue_depth: self.queue.spec_depth() as u64,
                queue_cap: self.queue.spec_cap() as u64,
            }),
        }
    }

    /// The `wec-serve-stats-v1` document (`GET /stats` and `stats.json`).
    pub fn stats_json(&self) -> String {
        render_stats_json(&self.snapshot(), self.backend_id.as_deref())
    }

    /// The most recently submitted job records, newest first (the
    /// dashboard's drill-down table).
    pub fn recent_jobs(&self, n: usize) -> Vec<JobRecord> {
        let jobs = lock(&self.jobs);
        let mut records: Vec<JobRecord> = jobs.values().map(|s| s.record()).collect();
        drop(jobs);
        records.sort_unstable_by_key(|r| std::cmp::Reverse(r.id));
        records.truncate(n);
        records
    }

    /// Drain-time artifacts: `stats.json` beside the live `jobs.jsonl` and
    /// `access.jsonl`.
    pub fn write_exit_logs(&self) {
        if let Some(dir) = &self.cfg.log_dir {
            wec_bench::store::atomic_write_best_effort(&dir.join("stats.json"), &self.stats_json());
            if let Some(f) = lock(&self.jobs_log).as_mut() {
                let _ = f.flush();
            }
            if let Some(f) = lock(&self.access_log).as_mut() {
                let _ = f.flush();
            }
        }
    }
}

/// Render one snapshot as the serve-stats document.  Shared by
/// `GET /stats`, the drain-time `stats.json` and the `stats` element of
/// `GET /dashboard/data`, so all three are the same bytes for the same
/// snapshot.  Without speculation this is the `wec-serve-stats-v1`
/// document, byte-identical to a speculation-free build; with it, the
/// `wec-serve-stats-v2` superset (speculative queue gauges, a
/// `cache.spec_hits` bucket, and the `spec` conservation block).  A
/// configured `backend_id` is stamped right after the schema tag (absent
/// otherwise — same byte-identity contract as the job records).
pub fn render_stats_json(s: &StatsSnapshot, backend_id: Option<&str>) -> String {
    let jobs_per_sec = s.completed as f64 / (s.uptime_ms as f64 / 1000.0);
    let utilization = (s.busy_ms as f64 / (s.uptime_ms * s.workers) as f64).clamp(0.0, 1.0);
    let mut out = String::from(match &s.spec {
        None => "{\"schema\":\"wec-serve-stats-v1\"",
        Some(_) => "{\"schema\":\"wec-serve-stats-v2\"",
    });
    if let Some(b) = backend_id {
        out.push_str(",\"backend_id\":");
        wec_telemetry::json::escape_into(&mut out, b);
    }
    let _ = write!(
        out,
        ",\"uptime_ms\":{},\"workers\":{},\"busy_workers\":{},\"draining\":{}",
        s.uptime_ms, s.workers, s.busy, s.draining
    );
    let _ = write!(
        out,
        ",\"queue\":{{\"depth\":{},\"cap\":{},\"rejected\":{}",
        s.queue_depth, s.queue_cap, s.rejected
    );
    if let Some(sp) = &s.spec {
        let _ = write!(
            out,
            ",\"spec_depth\":{},\"spec_cap\":{}",
            sp.queue_depth, sp.queue_cap
        );
    }
    out.push('}');
    let _ = write!(
        out,
        ",\"jobs\":{{\"submitted\":{},\"deduped\":{},\"completed\":{},\"failed\":{}}}",
        s.submitted, s.deduped, s.completed, s.failed
    );
    let _ = write!(
        out,
        ",\"cache\":{{\"cold\":{},\"disk_hits\":{},\"mem_hits\":{}",
        s.cold, s.disk_hits, s.mem_hits
    );
    if let Some(sp) = &s.spec {
        let _ = write!(out, ",\"spec_hits\":{}", sp.warm_hits);
    }
    out.push('}');
    if let Some(sp) = &s.spec {
        let _ = write!(
            out,
            ",\"spec\":{{\"started\":{},\"hit\":{},\"miss\":{},\"waste\":{},\"cancelled\":{},\"pending\":{}}}",
            sp.started, sp.hit, sp.miss, sp.waste, sp.cancelled, sp.pending
        );
    }
    let _ = write!(
        out,
        ",\"throughput\":{{\"jobs_per_sec\":{jobs_per_sec:.3},\"utilization\":{utilization:.4}}}}}"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Popped;
    use wec_telemetry::schema;

    fn state() -> Arc<ServerState> {
        ServerState::new(ServeConfig {
            workers: 2,
            queue_cap: 2,
            store: None,
            log_dir: None,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn spec_state(queue_cap: usize, ttl: Duration) -> Arc<ServerState> {
        ServerState::new(ServeConfig {
            workers: 2,
            queue_cap,
            store: None,
            log_dir: None,
            spec: Some(SpecConfig {
                queue_cap: 8,
                inflight_max: 1,
                ttl,
            }),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn spec(body: &str) -> JobSpec {
        JobSpec::parse(body).unwrap()
    }

    fn ok_outcome(source: &'static str) -> Result<Outcome, String> {
        Ok(Outcome {
            source,
            metrics: Arc::new(vec![("cycles".to_string(), 42u64)]),
            sim_cycles: 42,
            dur_ms: 7,
            attr: None,
        })
    }

    fn spec_counters(s: &ServerState) -> SpecStats {
        s.snapshot().spec.unwrap()
    }

    fn assert_conserved(s: &ServerState) {
        let sp = spec_counters(s);
        assert_eq!(
            sp.hit + sp.waste + sp.cancelled + sp.pending,
            sp.started,
            "{sp:?}"
        );
    }

    #[test]
    fn identical_submissions_share_one_job() {
        let s = state();
        let a = s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let b = s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        assert_eq!(a.record().id, b.record().id);
        assert_eq!(b.record().submissions, 2);
        assert_eq!(s.queue.depth(), 1, "one execution queued");
        // A different configuration is its own job.
        let c = s
            .submit(spec(
                "{\"bench\": \"181.mcf\", \"cfg\": {\"side_entries\": 16}}",
            ))
            .unwrap();
        assert_ne!(a.record().id, c.record().id);
    }

    #[test]
    fn full_queue_rejects_and_draining_refuses() {
        let s = state();
        s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        s.submit(spec("{\"bench\": \"164.gzip\"}")).unwrap();
        let err = s.submit(spec("{\"bench\": \"175.vpr\"}")).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        s.draining.store(true, Ordering::SeqCst);
        let err = s.submit(spec("{\"bench\": \"177.mesa\"}")).unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        assert_eq!(s.outstanding(), 2);
    }

    #[test]
    fn completion_publishes_memo_and_serves_warm_hits() {
        let s = state();
        let spec1 = spec("{\"bench\": \"181.mcf\"}");
        let key = spec1.dedup_key();
        let slot = s.submit(spec1).unwrap();
        assert_eq!(s.queue.pop(), Some(Popped::Demand(slot.record().id)));
        let metrics = Arc::new(vec![("cycles".to_string(), 42u64)]);
        s.complete(
            &slot,
            &key,
            Ok(Outcome {
                source: "cold",
                metrics: metrics.clone(),
                sim_cycles: 42,
                dur_ms: 7,
                attr: None,
            }),
        );
        assert!(slot.wait_terminal(Duration::from_secs(1)));
        assert_eq!(slot.record().state, JobState::Done);
        assert_eq!(s.outstanding(), 0);

        // Same spec again: answered from the memo, no queueing.
        let warm = s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let rec = warm.record();
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(rec.source, "mem");
        assert_eq!(rec.metrics, metrics);
        assert_eq!(s.queue.depth(), 0);
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }

    #[test]
    fn failures_release_the_dedup_entry_without_memoizing() {
        let s = state();
        let spec1 = spec("{\"bench\": \"181.mcf\"}");
        let key = spec1.dedup_key();
        let slot = s.submit(spec1).unwrap();
        s.queue.pop().unwrap();
        s.complete(&slot, &key, Err("induced failure".to_string()));
        let rec = slot.record();
        assert_eq!(rec.state, JobState::Failed);
        assert_eq!(rec.error, "induced failure");
        // Resubmission runs fresh — not deduped onto the failure, not warm.
        let again = s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        assert_ne!(again.record().id, rec.id);
        assert_eq!(again.record().state, JobState::Queued);
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }

    #[test]
    fn snapshot_reconciles_sources_and_accumulates_cycles() {
        let s = state();
        let spec1 = spec("{\"bench\": \"181.mcf\"}");
        let key = spec1.dedup_key();
        let slot = s.submit(spec1).unwrap();
        s.queue.pop().unwrap();
        s.complete(
            &slot,
            &key,
            Ok(Outcome {
                source: "cold",
                metrics: Arc::new(vec![("cycles".to_string(), 42u64)]),
                sim_cycles: 42,
                dur_ms: 7,
                attr: None,
            }),
        );
        // Warm hit accumulates the memoized cycle count too.
        s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.cold + snap.disk_hits + snap.mem_hits, snap.completed);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.sim_cycles, 84);
        schema::validate_serve_stats_json(&render_stats_json(&snap, None)).unwrap();
        // The exposition's job counters come from the same snapshot type.
        let page = s.metrics.render_prometheus(&snap, None);
        assert!(page.contains("wec_serve_jobs_completed_total{source=\"cold\"} 1"));
        assert!(page.contains("wec_serve_jobs_completed_total{source=\"mem\"} 1"));
        assert!(page.contains("wec_serve_sim_cycles_total 84"));
    }

    #[test]
    fn speculation_off_renders_v1_with_no_spec_series() {
        let s = state();
        let snap = s.snapshot();
        assert!(snap.spec.is_none());
        let js = render_stats_json(&snap, None);
        assert!(js.starts_with("{\"schema\":\"wec-serve-stats-v1\""));
        assert!(!js.contains("spec"), "{js}");
        assert!(!js.contains("backend_id"), "{js}");
        schema::validate_serve_stats_json(&js).unwrap();
    }

    #[test]
    fn backend_id_is_stamped_into_records_and_stats_when_configured() {
        let s = ServerState::new(ServeConfig {
            workers: 2,
            queue_cap: 2,
            store: None,
            log_dir: None,
            backend_id: Some("node-a".to_string()),
            ..ServeConfig::default()
        })
        .unwrap();
        let slot = s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let js = slot.record().to_json();
        assert!(js.contains("\"backend_id\":\"node-a\""), "{js}");
        let stats = s.stats_json();
        assert!(
            stats.starts_with("{\"schema\":\"wec-serve-stats-v1\",\"backend_id\":\"node-a\""),
            "{stats}"
        );
        schema::validate_serve_stats_json(&stats).unwrap();
    }

    #[test]
    fn spec_submit_parks_one_speculation_and_refuses_while_draining() {
        let s = spec_state(2, Duration::from_secs(600));
        assert!(s.spec_submit(spec("{\"bench\": \"181.mcf\"}")));
        assert_eq!(spec_counters(&s).started, 1);
        assert_eq!(s.queue.spec_depth(), 1, "parked on the spec lane");
        assert_eq!(s.queue.depth(), 0, "demand lane untouched");
        // A duplicate is a silent no-op (already in flight).
        assert!(!s.spec_submit(spec("{\"bench\": \"181.mcf\"}")));
        assert_eq!(spec_counters(&s).started, 1);
        assert_conserved(&s);
        // Draining refuses speculation outright.
        s.draining.store(true, Ordering::SeqCst);
        assert!(!s.spec_submit(spec("{\"bench\": \"164.gzip\"}")));
        assert_eq!(spec_counters(&s).started, 1);
    }

    #[test]
    fn unclaimed_speculation_parks_a_result_the_first_demand_claims_as_spec() {
        let s = spec_state(2, Duration::from_secs(600));
        let sp = spec("{\"bench\": \"181.mcf\"}");
        let key = sp.dedup_key();
        s.spec_submit(sp);
        assert_eq!(spec_counters(&s).started, 1);
        let popped = s.queue.pop().unwrap();
        assert!(matches!(popped, Popped::Spec(_)));
        let slot = s.job(popped.id()).unwrap();
        s.complete(&slot, &key, ok_outcome("cold"));
        let rec = slot.record();
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(rec.source, "spec");
        assert_eq!(rec.submissions, 0, "nobody asked for it yet");
        assert!(rec.speculative);
        assert_eq!(s.snapshot().completed, 0, "unclaimed work served nobody");
        assert_eq!(s.outstanding(), 0);
        assert_conserved(&s);

        // First matching demand: synchronous warm hit credited to the
        // prefetcher, same memoized bytes as an on-demand run.
        let warm = s.submit_demand(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let wrec = warm.record();
        assert_eq!(wrec.state, JobState::Done);
        assert_eq!(wrec.source, "spec");
        assert_eq!(wrec.metrics, rec.metrics);
        let cnt = spec_counters(&s);
        assert_eq!((cnt.hit, cnt.warm_hits, cnt.pending), (1, 1, 0));
        assert_conserved(&s);

        // Second identical demand is an ordinary mem hit — the credit is
        // claimed exactly once.
        let again = s.submit_demand(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        assert_eq!(again.record().source, "mem");
        assert_eq!(spec_counters(&s).hit, 1);
        let snap = s.snapshot();
        assert_eq!(
            snap.cold + snap.disk_hits + snap.mem_hits + snap.spec.unwrap().warm_hits,
            snap.completed
        );
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }

    #[test]
    fn demand_claim_of_a_queued_speculation_promotes_to_one_execution() {
        let s = spec_state(2, Duration::from_secs(600));
        let sp = spec("{\"bench\": \"181.mcf\"}");
        let key = sp.dedup_key();
        s.spec_submit(sp);
        assert_eq!(s.queue.spec_depth(), 1);
        let demand = s.submit_demand(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let rec = demand.record();
        assert_eq!(rec.submissions, 1);
        assert!(rec.speculative, "the claimed slot is the speculative one");
        assert_eq!(s.queue.depth(), 1, "promoted to the demand lane");
        assert_eq!(s.queue.spec_depth(), 0);
        assert_eq!(spec_counters(&s).cancelled, 1, "claim-before-start");
        let popped = s.queue.pop().unwrap();
        assert_eq!(popped, Popped::Demand(rec.id), "exactly one execution");
        s.complete(&s.job(rec.id).unwrap(), &key, ok_outcome("cold"));
        let snap = s.snapshot();
        assert_eq!((snap.completed, snap.cold), (1, 1));
        assert_conserved(&s);
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }

    #[test]
    fn demand_claim_of_a_running_speculation_is_a_hit() {
        let s = spec_state(2, Duration::from_secs(600));
        let sp = spec("{\"bench\": \"181.mcf\"}");
        let key = sp.dedup_key();
        s.spec_submit(sp);
        let popped = s.queue.pop().unwrap();
        assert!(matches!(popped, Popped::Spec(_)), "worker holds it");
        let demand = s.submit_demand(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        assert_eq!(demand.record().id, popped.id(), "deduped onto the spec job");
        assert_eq!(spec_counters(&s).hit, 1, "prefetch was in flight");
        let slot = s.job(popped.id()).unwrap();
        s.complete(&slot, &key, ok_outcome("cold"));
        let rec = slot.record();
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(rec.source, "cold", "claimed completions count normally");
        let snap = s.snapshot();
        assert_eq!((snap.completed, snap.cold), (1, 1));
        assert_conserved(&s);
    }

    #[test]
    fn ttl_reaping_cancels_queued_and_wastes_parked_speculation() {
        let s = spec_state(2, Duration::from_millis(0));
        // Queued past TTL: cancelled, queue and drain barrier released.
        s.spec_submit(spec("{\"bench\": \"181.mcf\"}"));
        assert_eq!(s.outstanding(), 1);
        s.reap_stale();
        let cnt = spec_counters(&s);
        assert_eq!(cnt.cancelled, 1);
        assert_eq!(s.queue.spec_depth(), 0);
        assert_eq!(s.outstanding(), 0);
        assert_conserved(&s);

        // Parked ready result past TTL: waste — but the memo survives, so
        // a later demand is still an ordinary mem hit.
        let sp = spec("{\"bench\": \"164.gzip\"}");
        let key = sp.dedup_key();
        s.spec_submit(sp);
        let p = s.queue.pop().unwrap();
        s.complete(&s.job(p.id()).unwrap(), &key, ok_outcome("cold"));
        s.queue.spec_done();
        s.reap_stale();
        let cnt = spec_counters(&s);
        assert_eq!(cnt.waste, 1);
        assert_conserved(&s);
        let warm = s.submit_demand(spec("{\"bench\": \"164.gzip\"}")).unwrap();
        assert_eq!(warm.record().source, "mem");

        // A failed unclaimed speculation is reclaimed, not a served
        // failure.
        let sp = spec("{\"bench\": \"175.vpr\"}");
        let key = sp.dedup_key();
        s.spec_submit(sp);
        let p = s.queue.pop().unwrap();
        s.complete(&s.job(p.id()).unwrap(), &key, Err("induced".to_string()));
        s.queue.spec_done();
        let cnt = spec_counters(&s);
        assert_eq!(cnt.cancelled, 2);
        assert_eq!(s.snapshot().failed, 0);
        assert_conserved(&s);
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }

    /// Complete each job on another thread while this one spins on the
    /// record: the moment it reads terminal, the snapshot must already
    /// count the job.  Covers demand successes and failures and claimed
    /// speculations.
    #[test]
    fn a_terminal_record_is_always_already_counted() {
        const ROUNDS: u64 = 150;
        let s = spec_state(4, Duration::from_secs(600));
        for i in 0..ROUNDS {
            let body = format!(
                "{{\"bench\": \"181.mcf\", \"cfg\": {{\"mem_latency\": {}}}}}",
                i + 1
            );
            let key = spec(&body).dedup_key();
            let slot = if i % 3 == 2 {
                // A speculation a worker already holds, claimed by demand.
                assert!(s.spec_submit(spec(&body)));
                assert!(matches!(s.queue.pop(), Some(Popped::Spec(_))));
                s.queue.spec_done();
                s.submit_demand(spec(&body)).unwrap()
            } else {
                let slot = s.submit_demand(spec(&body)).unwrap();
                assert_eq!(s.queue.pop(), Some(Popped::Demand(slot.record().id)));
                slot
            };
            let before = s.snapshot();
            let res = if i % 3 == 1 {
                Err("induced".to_string())
            } else {
                ok_outcome("disk")
            };
            std::thread::scope(|sc| {
                sc.spawn(|| s.complete(&slot, &key, res));
                while !slot.record().state.terminal() {
                    std::hint::spin_loop();
                }
                let now = s.snapshot();
                let counted = (now.disk_hits - before.disk_hits) + (now.failed - before.failed);
                assert_eq!(counted, 1, "round {i}: terminal record not yet counted");
            });
        }
        let snap = s.snapshot();
        assert_eq!(snap.failed, ROUNDS / 3);
        assert_eq!(snap.disk_hits, ROUNDS - ROUNDS / 3);
        assert_eq!(s.outstanding(), 0);
    }

    #[test]
    fn demand_submissions_drive_the_predictor_and_count_misses() {
        let s = spec_state(4, Duration::from_secs(600));
        s.submit(spec("{\"bench\": \"181.mcf\"}")).unwrap();
        let cnt = spec_counters(&s);
        assert_eq!(cnt.miss, 1, "cold demand no speculation saw coming");
        assert_eq!(cnt.started, 4, "the four-point neighbourhood enqueued");
        assert_eq!(s.queue.spec_depth(), 4);
        assert_eq!(s.queue.depth(), 1, "demand lane untouched by speculation");
        assert_conserved(&s);
        // Drain purge reclaims everything queued speculatively.
        s.purge_speculation();
        let cnt = spec_counters(&s);
        assert_eq!(cnt.cancelled, 4);
        assert_eq!((cnt.pending, s.queue.spec_depth() as u64), (0, 0));
        assert_eq!(s.outstanding(), 1, "the demand job itself remains");
        schema::validate_serve_stats_json(&s.stats_json()).unwrap();
    }
}
