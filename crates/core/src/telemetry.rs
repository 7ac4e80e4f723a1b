//! Machine-side telemetry: drains the per-component gated buffers, tags
//! thread-unit ids, and feeds the four instruments of `wec-telemetry` —
//! the structured event sink, the interval sampler, the latency histograms,
//! and the Perfetto span/counter exporter.
//!
//! The machine owns at most one [`MachineTelemetry`] (boxed, `None` when
//! telemetry is off so the per-cycle hook is a single predictable branch).
//! Once per cycle it drains each L1 data path's telemetry buffer (the
//! [`DpObserver`] consumer that keeps the events `events.jsonl` renders),
//! each core's `FlushTrace`, the shared L2's [`CacheTrace`] and the
//! scheduler event log, then samples counters every `sample_interval`
//! cycles.  `finalize` closes the Perfetto spans, writes the artifact
//! files, and returns the [`TelemetrySummary`] attached to the run result.
//!
//! [`DpObserver`]: crate::dpath::DpObserver
//! [`CacheTrace`]: wec_telemetry::CacheTrace
//! [`TelemetrySummary`]: wec_telemetry::TelemetrySummary

use std::collections::HashMap;
use std::path::PathBuf;

use wec_common::error::{SimError, SimResult};
use wec_mem::stats::AccessKind;
use wec_telemetry::attr::FillOrigin;
use wec_telemetry::profile::{Phase, ProfileReport};
use wec_telemetry::{
    CacheEvent, EventSink, FlushRec, HistSummary, Log2Histogram, PerfettoTrace, TelemetryConfig,
    TelemetrySummary, TimeSeries, TraceEvent,
};

use crate::dpath::DpEvent;
use crate::events::SchedEvent;

/// Columns of the interval time-series.  Every column except the three
/// trailing gauges (`wec_occupancy`, `alive_threads`, `wrong_threads`) is a
/// cumulative counter; consumers diff adjacent rows for rates (IPC, miss
/// rates) so the file stays lossless and integer-exact.
pub const SAMPLE_COLUMNS: &[&str] = &[
    "cycle",
    "committed",
    "l1d_demand_accesses",
    "l1d_demand_misses",
    "l1d_wrong_accesses",
    "l1d_side_hits",
    "l2_demand_misses",
    "l2_wrong_misses",
    "wec_occupancy",
    "alive_threads",
    "wrong_threads",
];

const COL_WEC_OCCUPANCY: usize = 8;
const COL_ALIVE_THREADS: usize = 9;
const COL_WRONG_THREADS: usize = 10;

/// All run-time telemetry state, owned by the machine.
pub(crate) struct MachineTelemetry {
    pub cfg: TelemetryConfig,
    sink: EventSink,
    /// Commits surfaced from the bounded per-core rings at the end of the
    /// run; they are older than the tail of the main stream, so they go to
    /// their own `commits.jsonl` to keep both files cycle-ordered.
    commit_sink: EventSink,
    series: TimeSeries,
    pub next_sample_at: u64,
    perfetto: PerfettoTrace,
    h_load_to_fill: Log2Histogram,
    h_fill_to_hit: Log2Histogram,
    h_wrong_life: Log2Histogram,
    /// Per-TU map of WEC block base → fill cycle, for fill-to-first-hit.
    wec_fill_at: Vec<HashMap<u64, u64>>,
    /// Thread id → cycle it was marked wrong, for wrong-thread lifetime.
    marked_wrong_at: HashMap<u64, u64>,
    /// How much of the scheduler event log has been drained.
    pub sched_cursor: usize,
    /// Open Perfetto span per TU: (thread id, in-wrong-phase).
    tu_span: Vec<Option<(u64, bool)>>,
    /// Cycle-loop self-profile, attached by the machine just before
    /// [`MachineTelemetry::finalize`] when profiling was on.
    pub profile: Option<ProfileReport>,
}

impl MachineTelemetry {
    pub fn new(cfg: TelemetryConfig, n_tus: usize) -> Self {
        let mut perfetto = PerfettoTrace::new();
        if cfg.trace_events {
            for tu in 0..n_tus {
                perfetto.thread_name(tu as u32, &format!("TU{tu}"));
            }
        }
        MachineTelemetry {
            cfg,
            sink: EventSink::new(),
            commit_sink: EventSink::new(),
            series: TimeSeries::new(SAMPLE_COLUMNS.to_vec()),
            next_sample_at: 0,
            perfetto,
            h_load_to_fill: Log2Histogram::new(),
            h_fill_to_hit: Log2Histogram::new(),
            h_wrong_life: Log2Histogram::new(),
            wec_fill_at: vec![HashMap::new(); n_tus],
            marked_wrong_at: HashMap::new(),
            sched_cursor: 0,
            tu_span: vec![None; n_tus],
            profile: None,
        }
    }

    #[inline]
    fn emit(&mut self, cycle: u64, ev: &TraceEvent) {
        if self.cfg.trace_events {
            self.sink.emit(cycle, ev);
        }
    }

    /// A load left the data path (`ready_at` is when its data arrives).
    pub fn on_load(&mut self, tu: u32, cycle: u64, addr: u64, kind: AccessKind, ready_at: u64) {
        match kind {
            AccessKind::WrongPathLoad | AccessKind::WrongThreadLoad => {
                let ev = TraceEvent::WrongLoadIssue {
                    tu,
                    addr,
                    wrong_thread: kind == AccessKind::WrongThreadLoad,
                };
                self.emit(cycle, &ev);
            }
            AccessKind::CorrectLoad => {
                self.h_load_to_fill.observe(ready_at.saturating_sub(cycle));
            }
            _ => {}
        }
    }

    /// One drained L1 data-path event (block address), tagged with its TU.
    /// Side fills render by origin; the buffer never holds accesses,
    /// demand lookups or side evictions.
    pub fn on_l1(&mut self, tu: u32, cycle: u64, ev: DpEvent, addr: u64) {
        let te = match ev {
            DpEvent::SideFill(FillOrigin::Wrong) => {
                self.wec_fill_at[tu as usize].insert(addr, cycle);
                if self.cfg.trace_events {
                    self.perfetto.instant(tu, cycle, "wec_fill");
                }
                TraceEvent::WecFill { tu, addr }
            }
            DpEvent::SideHit {
                wrong_fetched,
                prefetched,
            } => {
                if let Some(filled) = self.wec_fill_at[tu as usize].remove(&addr) {
                    self.h_fill_to_hit.observe(cycle.saturating_sub(filled));
                }
                if self.cfg.trace_events {
                    self.perfetto.instant(tu, cycle, "wec_hit");
                }
                TraceEvent::WecHit {
                    tu,
                    addr,
                    wrong_fetched,
                    prefetched,
                }
            }
            DpEvent::SideFill(FillOrigin::Victim) => TraceEvent::VictimTransfer { tu, addr },
            DpEvent::SideFill(FillOrigin::Prefetch) => TraceEvent::NextLinePrefetch { tu, addr },
            DpEvent::MissToNext { wrong } => TraceEvent::L1Miss { tu, addr, wrong },
            DpEvent::Access { .. } | DpEvent::Demand { .. } | DpEvent::SideEvict => return,
        };
        self.emit(cycle, &te);
    }

    /// One drained shared-L2 event (no TU attribution).
    pub fn on_l2(&mut self, cycle: u64, ev: CacheEvent, addr: u64) {
        let CacheEvent::MissToNext { wrong } = ev;
        self.emit(cycle, &TraceEvent::L2Miss { addr, wrong });
    }

    /// One drained pipeline flush from a core's branch-recovery path.
    pub fn on_flush(&mut self, tu: u32, rec: FlushRec) {
        self.emit(
            rec.cycle,
            &TraceEvent::PipelineFlush {
                tu,
                pc: rec.pc,
                new_pc: rec.new_pc,
                squashed: rec.squashed,
            },
        );
    }

    /// One scheduler event.  `head_tu` is the TU the region head occupies
    /// (only meaningful for `Begin`, whose event does not carry it).
    pub fn on_sched(&mut self, cycle: u64, ev: &SchedEvent, head_tu: Option<u32>) {
        let te = match *ev {
            SchedEvent::Begin { region, head } => TraceEvent::Begin { region, head },
            SchedEvent::ForkScheduled { parent, child, tu } => TraceEvent::Fork {
                parent,
                child,
                tu: tu as u32,
                deferred: false,
            },
            SchedEvent::ForkDeferred { parent, child, tu } => TraceEvent::Fork {
                parent,
                child,
                tu: tu as u32,
                deferred: true,
            },
            SchedEvent::ThreadStart { id, tu } => TraceEvent::ThreadStart { id, tu: tu as u32 },
            SchedEvent::Abort { id } => TraceEvent::Abort { id },
            SchedEvent::MarkedWrong { id } => TraceEvent::MarkedWrong { id },
            SchedEvent::Killed { id, tu } => TraceEvent::Killed { id, tu: tu as u32 },
            SchedEvent::WrongDied { id } => TraceEvent::WrongDied { id },
            SchedEvent::WbStart { id, words } => TraceEvent::WbStart { id, words },
            SchedEvent::Retired { id, tu } => TraceEvent::Retired { id, tu: tu as u32 },
            SchedEvent::Sequential { tu } => TraceEvent::Sequential { tu: tu as u32 },
        };
        self.emit(cycle, &te);

        match *ev {
            SchedEvent::Begin { head, .. } => {
                if let Some(tu) = head_tu {
                    self.open_span(tu, cycle, head, false);
                }
            }
            SchedEvent::ThreadStart { id, tu } => self.open_span(tu as u32, cycle, id, false),
            SchedEvent::MarkedWrong { id } => {
                self.marked_wrong_at.insert(id, cycle);
                // Re-name the thread's span so the wrong phase is visible.
                if let Some(tu) = self.find_span(id) {
                    self.close_span(tu, cycle);
                    self.open_span(tu, cycle, id, true);
                }
            }
            SchedEvent::Killed { id, tu } => {
                self.close_span_for(tu as u32, id, cycle);
                self.observe_wrong_death(id, cycle);
            }
            SchedEvent::WrongDied { id } => {
                if let Some(tu) = self.find_span(id) {
                    self.close_span(tu, cycle);
                }
                self.observe_wrong_death(id, cycle);
            }
            SchedEvent::Retired { id, tu } => self.close_span_for(tu as u32, id, cycle),
            // The head thread resumes sequential execution; its span ends.
            SchedEvent::Sequential { tu } if self.tu_span[tu].is_some() => {
                self.close_span(tu as u32, cycle);
            }
            _ => {}
        }
    }

    fn observe_wrong_death(&mut self, id: u64, cycle: u64) {
        if let Some(marked) = self.marked_wrong_at.remove(&id) {
            self.h_wrong_life.observe(cycle.saturating_sub(marked));
        }
    }

    fn find_span(&self, id: u64) -> Option<u32> {
        self.tu_span
            .iter()
            .position(|s| matches!(s, Some((i, _)) if *i == id))
            .map(|tu| tu as u32)
    }

    fn open_span(&mut self, tu: u32, cycle: u64, id: u64, wrong: bool) {
        if self.tu_span[tu as usize].is_some() {
            self.close_span(tu, cycle);
        }
        if self.cfg.trace_events {
            let name = if wrong {
                format!("T{id} (wrong)")
            } else {
                format!("T{id}")
            };
            self.perfetto.begin_span(tu, cycle, &name);
        }
        self.tu_span[tu as usize] = Some((id, wrong));
    }

    fn close_span(&mut self, tu: u32, cycle: u64) {
        if self.tu_span[tu as usize].take().is_some() && self.cfg.trace_events {
            self.perfetto.end_span(tu, cycle);
        }
    }

    /// Close the span on `tu` only if it belongs to thread `id`.
    fn close_span_for(&mut self, tu: u32, id: u64, cycle: u64) {
        if matches!(self.tu_span[tu as usize], Some((i, _)) if i == id) {
            self.close_span(tu, cycle);
        }
    }

    /// Record one interval sample (a full `SAMPLE_COLUMNS` row).
    pub fn sample(&mut self, cycle: u64, row: Vec<u64>) {
        debug_assert_eq!(row.len(), SAMPLE_COLUMNS.len());
        if self.cfg.trace_events {
            self.perfetto
                .counter(cycle, "wec_occupancy", row[COL_WEC_OCCUPANCY]);
            self.perfetto
                .counter(cycle, "alive_threads", row[COL_ALIVE_THREADS]);
            self.perfetto
                .counter(cycle, "wrong_threads", row[COL_WRONG_THREADS]);
        }
        self.series.push(row);
    }

    /// Surface one end-of-run commit record (goes to `commits.jsonl`).
    pub fn record_commit(&mut self, cycle: u64, ev: TraceEvent) {
        self.commit_sink.emit(cycle, &ev);
    }

    /// Close spans, write artifacts, and summarize.
    pub fn finalize(mut self, final_cycle: u64) -> SimResult<TelemetrySummary> {
        for tu in 0..self.tu_span.len() {
            if self.tu_span[tu].is_some() {
                self.close_span(tu as u32, final_cycle);
            }
        }

        // Host-profile counter tracks: per-phase wall nanoseconds between
        // profiler checkpoints, laid on the simulated timeline.
        let profile = self.profile.take();
        if self.cfg.trace_events {
            if let Some(report) = &profile {
                let mut prev = [0u64; wec_telemetry::profile::PHASE_COUNT];
                for &(cycle, cum) in &report.checkpoints {
                    for (i, phase) in Phase::ALL.iter().enumerate() {
                        self.perfetto.counter(
                            cycle,
                            &format!("prof_{}_ns", phase.name()),
                            cum[i] - prev[i],
                        );
                    }
                    prev = cum;
                }
            }
        }

        let hists = [
            ("load_to_fill", &self.h_load_to_fill),
            ("wec_fill_to_hit", &self.h_fill_to_hit),
            ("wrong_thread_lifetime", &self.h_wrong_life),
        ];
        let histograms: Vec<HistSummary> = hists
            .iter()
            .map(|&(name, h)| HistSummary {
                name,
                count: h.count(),
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
                max: h.max(),
            })
            .collect();

        let mut files: Vec<PathBuf> = Vec::new();
        if let Some(dir) = self.cfg.out_dir.clone() {
            let io = |e: std::io::Error| SimError::Config(format!("telemetry output: {e}"));
            std::fs::create_dir_all(&dir).map_err(io)?;
            if self.cfg.trace_events {
                let events = dir.join("events.jsonl");
                self.sink.write_to(&events).map_err(io)?;
                files.push(events);
                if self.commit_sink.total() > 0 {
                    let commits = dir.join("commits.jsonl");
                    self.commit_sink.write_to(&commits).map_err(io)?;
                    files.push(commits);
                }
            }
            if self.cfg.sample_interval > 0 {
                let ts = dir.join("timeseries.csv");
                self.series.write_csv_to(&ts).map_err(io)?;
                files.push(ts);
            }
            let mut hjson = String::from("{");
            for (i, (name, h)) in hists.iter().enumerate() {
                if i > 0 {
                    hjson.push(',');
                }
                hjson.push_str(&format!("\"{name}\":{}", h.to_json()));
            }
            hjson.push_str("}\n");
            let hpath = dir.join("histograms.json");
            std::fs::write(&hpath, hjson).map_err(io)?;
            files.push(hpath);
            if self.cfg.trace_events {
                let ppath = dir.join("trace.perfetto.json");
                self.perfetto.write_to(&ppath).map_err(io)?;
                files.push(ppath);
            }
            if let Some(report) = &profile {
                let path = dir.join("profile.json");
                std::fs::write(&path, report.to_json()).map_err(io)?;
                files.push(path);
            }
        }

        let mut events_by_kind = self.sink.counts();
        for (kind, n) in self.commit_sink.counts() {
            match events_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some(slot) => slot.1 += n,
                None => events_by_kind.push((kind, n)),
            }
        }
        events_by_kind.sort_unstable_by_key(|&(k, _)| k);
        Ok(TelemetrySummary {
            events_total: self.sink.total() + self.commit_sink.total(),
            events_by_kind,
            samples: self.series.len() as u64,
            histograms,
            files,
            profile,
        })
    }
}
