//! Cycle-level memory hierarchy for the WEC simulator.
//!
//! The paper's memory system (§4.1): per-thread-unit private L1 instruction
//! and data caches, a unified shared L2, and a 200-cycle round-trip main
//! memory.  This crate provides the generic machinery:
//!
//! * [`cache`] — set-associative tag arrays (the L1s and the L2) with true
//!   LRU replacement and write-back state ([`line`](mod@line));
//! * [`side`] — the fully-associative side structure beside each L1D (the
//!   WEC, victim cache or prefetch buffer), with a counting miss filter
//!   and an LRU list;
//! * [`ports`] — per-cycle port arbitration (L1 data ports are the paper's
//!   load/store-unit contention point);
//! * [`mshr`] — outstanding-miss tracking so two loads to one in-flight
//!   block produce one refill;
//! * [`l2`] / [`dram`] — the shared second level and the fixed-latency main
//!   memory behind it, both with busy-time queueing;
//! * [`prefetch`] — the tagged next-line prefetch policy used by the
//!   paper's `nlp` comparator configuration and by the WEC's own
//!   hit-triggered next-line prefetch;
//! * [`stats`] — per-cache counters (Figure 17's traffic/miss metrics).
//!
//! The update-protocol broadcasts of §3.2.2 are counted by the machine
//! (`wec-core`), which asks each unit's data path whether it holds a copy.
//!
//! A deliberate modeling choice, shared with SimpleScalar: caches hold tags
//! and metadata only.  Architectural values always live in the committed
//! memory image (`wec_isa::MemImage`) plus the speculative store structures,
//! so no timing configuration can ever change computed results.

pub mod cache;
pub mod dram;
pub mod l2;
pub mod line;
pub mod mshr;
pub mod ports;
pub mod prefetch;
pub mod side;
pub mod stats;

pub use cache::{Cache, CacheGeometry, Evicted};
pub use dram::MainMemory;
pub use l2::SharedL2;
pub use line::LineFlags;
pub use mshr::{MshrOutcome, Mshrs};
pub use ports::PortSet;
pub use prefetch::TaggedNextLine;
pub use side::SideCache;
pub use stats::CacheStats;
