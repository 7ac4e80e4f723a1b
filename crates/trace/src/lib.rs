//! Trace capture and trace-driven cache replay.
//!
//! The paper's sensitivity studies (WEC size/associativity sweeps, victim
//! and next-line-prefetch ablations) re-run the identical instruction
//! stream through the full timing model once per cache configuration.
//! Almost all of that work is redundant: the *admitted access stream* —
//! the exact sequence of [`wec_core::DataPath::access`] calls the timing
//! model makes — fully determines every cache counter, because all other
//! memory traffic (next-line prefetches, victim/WEC transfers, dirty
//! writebacks, L2 fills) is generated inside the data paths
//! deterministically from it.
//!
//! This crate therefore has two halves:
//!
//! * **Capture** ([`capture`]): [`capture_run`] attaches one recorder per
//!   thread unit to that TU's L1D and L1I, as a consumer of the data
//!   paths' event stream ([`wec_core::dpath::DpEvent`]).  It reads the
//!   access events only, and records every admitted access — cycle,
//!   thread unit, PC, address, kind (correct-path load/store, wrong-path
//!   load, wrong-thread load, instruction fetch) and commit/squash
//!   outcome — into per-TU delta/varint encoded streams ([`stream`])
//!   inside a versioned, checksummed container ([`format`](mod@format)).
//! * **Replay** ([`replay`]): re-drives fresh L1/WEC/L2 structures from a
//!   trace, merging the per-TU streams back into the machine's global
//!   access order.  At the captured configuration the replayed cache
//!   counters are *identical* to the full-timing run's; at other
//!   geometries it is a standard trace-driven cache simulation
//!   (sim-cache next to sim-outorder), two orders of magnitude cheaper
//!   than re-running the timing model.
//!
//! The admitted stream deliberately includes calls that returned `Retry`:
//! a port-rejected access has no side effects and is re-presented on a
//! later cycle (and recorded again), while an MSHR-full rejection *does*
//! record stats before bouncing — replaying the exact call sequence
//! reproduces both behaviours bit-for-bit.

pub mod capture;
pub mod codec;
pub mod format;
pub mod record;
pub mod replay;
pub mod slab;
pub mod stream;

pub use capture::{capture_run, CaptureMeta};
pub use format::{Trace, TraceHeader, FORMAT_VERSION};
pub use record::{TraceKind, TraceRecord};
pub use replay::{
    cache_stat_subset, kv_string, replay, replay_slab, replay_slab_with, ReplayOutcome,
};
pub use slab::{MergedOrder, TraceSlab};

use std::fmt;

/// Errors surfaced by trace encoding, decoding, and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream ended mid-value.
    Truncated(&'static str),
    /// A structural inconsistency (bad magic, checksum mismatch, record
    /// count mismatch, unknown kind tag, ...).
    Corrupt(String),
    /// The file declares a format version this build does not read.
    Version(u32),
    /// Filesystem failure (message carries the path).
    Io(String),
    /// The underlying simulator rejected a run or configuration.
    Sim(wec_common::SimError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated(what) => write!(f, "truncated trace: {what}"),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            TraceError::Version(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::Io(msg) => write!(f, "trace i/o: {msg}"),
            TraceError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<wec_common::SimError> for TraceError {
    fn from(e: wec_common::SimError) -> Self {
        TraceError::Sim(e)
    }
}
