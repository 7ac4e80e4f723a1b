//! Typed trace events and the per-component gated buffers that feed them.
//!
//! Hot simulator components (the shared L2, the core's recovery path) do
//! not know their thread-unit id and must not pay for telemetry when it is
//! off.  They own a [`CacheTrace`] / [`FlushTrace`] whose `push` is one
//! predictable branch when disabled; the machine drains the buffers once
//! per cycle, tags TU ids, and turns them into full [`TraceEvent`]s for the
//! sink.  (The L1 data paths feed the same drain through their observer
//! slot in `wec-core`.)

use std::fmt::Write as _;

use crate::json::escape_into;

/// One fully-attributed trace event (the JSONL schema; see `schema`).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A wrong-execution load issued to the data path.
    WrongLoadIssue {
        tu: u32,
        addr: u64,
        /// `true` for a wrong-*thread* load, `false` for a wrong-*path* load.
        wrong_thread: bool,
    },
    /// A wrong-execution miss filled the Wrong Execution Cache.
    WecFill { tu: u32, addr: u64 },
    /// A correct-path L1 miss hit the side structure (WEC / victim cache /
    /// prefetch buffer) — the paper's indirect-prefetch payoff event.
    WecHit {
        tu: u32,
        addr: u64,
        wrong_fetched: bool,
        prefetched: bool,
    },
    /// A displaced L1 victim parked in the side structure.
    VictimTransfer { tu: u32, addr: u64 },
    /// A next-line prefetch was issued into the side structure.
    NextLinePrefetch { tu: u32, addr: u64 },
    /// A correct-path L1 miss that also missed the side structure and went
    /// to the L2.
    L1Miss { tu: u32, addr: u64, wrong: bool },
    /// An L2 miss that went to main memory.
    L2Miss { addr: u64, wrong: bool },
    /// Branch-misprediction recovery flushed the pipeline.
    PipelineFlush {
        tu: u32,
        pc: u32,
        new_pc: u32,
        squashed: u32,
    },
    /// A committed instruction (surfaced from the per-core commit trace).
    Commit {
        tu: u32,
        seq: u64,
        pc: u32,
        op: String,
    },
    /// A parallel region began.
    Begin { region: u16, head: u64 },
    /// A fork was scheduled (or deferred) onto a TU.
    Fork {
        parent: u64,
        child: u64,
        tu: u32,
        deferred: bool,
    },
    /// A thread began executing.
    ThreadStart { id: u64, tu: u32 },
    /// A correct thread aborted its successors.
    Abort { id: u64 },
    /// A thread was marked wrong and kept running.
    MarkedWrong { id: u64 },
    /// A thread was killed outright.
    Killed { id: u64, tu: u32 },
    /// A wrong thread died (own abort / thread-end / write-back squash).
    WrongDied { id: u64 },
    /// A thread entered its write-back stage.
    WbStart { id: u64, words: u64 },
    /// A thread fully retired.
    Retired { id: u64, tu: u32 },
    /// The machine resumed sequential execution.
    Sequential { tu: u32 },
}

impl TraceEvent {
    /// The `"type"` field value in the JSONL schema.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::WrongLoadIssue { .. } => "wrong_load_issue",
            TraceEvent::WecFill { .. } => "wec_fill",
            TraceEvent::WecHit { .. } => "wec_hit",
            TraceEvent::VictimTransfer { .. } => "victim_transfer",
            TraceEvent::NextLinePrefetch { .. } => "next_line_prefetch",
            TraceEvent::L1Miss { .. } => "l1_miss",
            TraceEvent::L2Miss { .. } => "l2_miss",
            TraceEvent::PipelineFlush { .. } => "pipeline_flush",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Begin { .. } => "begin",
            TraceEvent::Fork { .. } => "fork",
            TraceEvent::ThreadStart { .. } => "thread_start",
            TraceEvent::Abort { .. } => "abort",
            TraceEvent::MarkedWrong { .. } => "marked_wrong",
            TraceEvent::Killed { .. } => "killed",
            TraceEvent::WrongDied { .. } => "wrong_died",
            TraceEvent::WbStart { .. } => "wb_start",
            TraceEvent::Retired { .. } => "retired",
            TraceEvent::Sequential { .. } => "sequential",
        }
    }

    /// Append this event as one JSONL line (`{"cycle":…,"type":…,…}\n`).
    pub fn write_jsonl(&self, cycle: u64, out: &mut String) {
        let _ = write!(out, "{{\"cycle\":{cycle},\"type\":\"{}\"", self.name());
        match *self {
            TraceEvent::WrongLoadIssue {
                tu,
                addr,
                wrong_thread,
            } => {
                let _ = write!(
                    out,
                    ",\"tu\":{tu},\"addr\":{addr},\"wrong_thread\":{wrong_thread}"
                );
            }
            TraceEvent::WecFill { tu, addr }
            | TraceEvent::VictimTransfer { tu, addr }
            | TraceEvent::NextLinePrefetch { tu, addr } => {
                let _ = write!(out, ",\"tu\":{tu},\"addr\":{addr}");
            }
            TraceEvent::WecHit {
                tu,
                addr,
                wrong_fetched,
                prefetched,
            } => {
                let _ = write!(
                    out,
                    ",\"tu\":{tu},\"addr\":{addr},\"wrong_fetched\":{wrong_fetched},\"prefetched\":{prefetched}"
                );
            }
            TraceEvent::L1Miss { tu, addr, wrong } => {
                let _ = write!(out, ",\"tu\":{tu},\"addr\":{addr},\"wrong\":{wrong}");
            }
            TraceEvent::L2Miss { addr, wrong } => {
                let _ = write!(out, ",\"addr\":{addr},\"wrong\":{wrong}");
            }
            TraceEvent::PipelineFlush {
                tu,
                pc,
                new_pc,
                squashed,
            } => {
                let _ = write!(
                    out,
                    ",\"tu\":{tu},\"pc\":{pc},\"new_pc\":{new_pc},\"squashed\":{squashed}"
                );
            }
            TraceEvent::Commit {
                tu,
                seq,
                pc,
                ref op,
            } => {
                let _ = write!(out, ",\"tu\":{tu},\"seq\":{seq},\"pc\":{pc},\"op\":");
                escape_into(out, op);
            }
            TraceEvent::Begin { region, head } => {
                let _ = write!(out, ",\"region\":{region},\"head\":{head}");
            }
            TraceEvent::Fork {
                parent,
                child,
                tu,
                deferred,
            } => {
                let _ = write!(
                    out,
                    ",\"parent\":{parent},\"child\":{child},\"tu\":{tu},\"deferred\":{deferred}"
                );
            }
            TraceEvent::ThreadStart { id, tu }
            | TraceEvent::Killed { id, tu }
            | TraceEvent::Retired { id, tu } => {
                let _ = write!(out, ",\"id\":{id},\"tu\":{tu}");
            }
            TraceEvent::Abort { id }
            | TraceEvent::MarkedWrong { id }
            | TraceEvent::WrongDied { id } => {
                let _ = write!(out, ",\"id\":{id}");
            }
            TraceEvent::WbStart { id, words } => {
                let _ = write!(out, ",\"id\":{id},\"words\":{words}");
            }
            TraceEvent::Sequential { tu } => {
                let _ = write!(out, ",\"tu\":{tu}");
            }
        }
        out.push_str("}\n");
    }
}

/// A shared-L2 event, recorded without TU attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent {
    /// Miss to main memory (`wrong` = wrong-execution access).
    MissToNext { wrong: bool },
}

/// Gated buffer of `(cycle, event, block address)` records owned by one
/// cache structure.  `push` is a no-op (one branch) when disabled.
#[derive(Clone, Debug, Default)]
pub struct CacheTrace {
    enabled: bool,
    buf: Vec<(u64, CacheEvent, u64)>,
}

impl CacheTrace {
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn push(&mut self, cycle: u64, ev: CacheEvent, addr: u64) {
        if self.enabled {
            self.buf.push((cycle, ev, addr));
        }
    }

    /// Remove and return everything recorded since the last drain.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (u64, CacheEvent, u64)> {
        self.buf.drain(..)
    }

    /// Remove and return the events stamped at or before `now`, in cycle
    /// order, keeping later-stamped ones buffered.  A shared structure (the
    /// L2) records at the request's arrival time, which can run ahead of
    /// the cycle doing the draining; holding those back keeps the merged
    /// event stream non-decreasing in cycle.
    pub fn drain_until(&mut self, now: u64) -> Vec<(u64, CacheEvent, u64)> {
        let (mut ready, later): (Vec<_>, Vec<_>) =
            self.buf.drain(..).partition(|&(c, _, _)| c <= now);
        self.buf = later;
        ready.sort_by_key(|&(c, _, _)| c);
        ready
    }

    /// The earliest stamp still buffered (`None` when empty): the first
    /// cycle whose [`drain_until`](Self::drain_until) returns anything.
    pub fn earliest(&self) -> Option<u64> {
        self.buf.iter().map(|&(c, _, _)| c).min()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// One pipeline-flush record from a core's branch-recovery path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushRec {
    pub cycle: u64,
    /// PC of the mispredicted branch.
    pub pc: u32,
    /// Redirect target.
    pub new_pc: u32,
    /// Squashed ROB entries.
    pub squashed: u32,
}

/// Gated buffer of pipeline flushes owned by one core.
#[derive(Clone, Debug, Default)]
pub struct FlushTrace {
    enabled: bool,
    buf: Vec<FlushRec>,
}

impl FlushTrace {
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn push(&mut self, rec: FlushRec) {
        if self.enabled {
            self.buf.push(rec);
        }
    }

    pub fn drain(&mut self) -> std::vec::Drain<'_, FlushRec> {
        self.buf.drain(..)
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_traces_record_nothing() {
        let mut t = CacheTrace::default();
        t.push(1, CacheEvent::MissToNext { wrong: true }, 0x40);
        assert!(t.is_empty());
        let mut f = FlushTrace::default();
        f.push(FlushRec {
            cycle: 1,
            pc: 2,
            new_pc: 3,
            squashed: 4,
        });
        assert!(f.is_empty());
    }

    #[test]
    fn enabled_traces_drain_in_order() {
        let mut t = CacheTrace::default();
        t.set_enabled(true);
        t.push(1, CacheEvent::MissToNext { wrong: true }, 0x40);
        t.push(2, CacheEvent::MissToNext { wrong: false }, 0x40);
        let got: Vec<_> = t.drain().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let mut s = String::new();
        TraceEvent::WecFill {
            tu: 3,
            addr: 0x1000,
        }
        .write_jsonl(77, &mut s);
        assert_eq!(
            s,
            "{\"cycle\":77,\"type\":\"wec_fill\",\"tu\":3,\"addr\":4096}\n"
        );
        let mut s = String::new();
        TraceEvent::Commit {
            tu: 0,
            seq: 9,
            pc: 5,
            op: "addi @\"x\"".into(),
        }
        .write_jsonl(1, &mut s);
        assert!(s.contains("\"op\":\"addi @\\\"x\\\"\""), "{s}");
    }
}
