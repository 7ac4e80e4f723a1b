//! The paper's contribution: the **Wrong Execution Cache (WEC)** and the
//! superthreaded architecture it is evaluated on.
//!
//! * [`dpath`] — the per-thread-unit L1 data path, including the WEC policy
//!   of Figures 5 and 6 and its comparators (victim cache, tagged next-line
//!   prefetch buffer), and the one event stream its observers read;
//! * [`membuf`] — the speculative memory buffer with run-time dependence
//!   checking (target stores);
//! * [`thread`] — dynamic thread contexts;
//! * [`machine`] — the thread-pipelined superthreaded machine: fork/abort,
//!   write-back ordering, the communication ring, wrong-thread execution;
//! * [`config`] — the paper's eight processor configurations (§4.3) and
//!   Table 3's parameter scaling;
//! * [`metrics`] — the per-run quantities the evaluation section plots.
//!
//! # Quick start
//!
//! ```
//! use wec_core::config::ProcPreset;
//! use wec_core::machine::simulate;
//! use wec_isa::ProgramBuilder;
//! use wec_isa::reg::Reg;
//!
//! let mut b = ProgramBuilder::new("demo");
//! b.li(Reg(1), 21);
//! let out = b.alloc_zeroed_u64s(1);
//! b.la(Reg(2), out);
//! b.add(Reg(1), Reg(1), Reg(1));
//! b.sd(Reg(1), Reg(2), 0);
//! b.halt();
//! let program = b.build().unwrap();
//!
//! let result = simulate(ProcPreset::WthWpWec.machine(2), &program).unwrap();
//! assert!(result.cycles > 0);
//! ```

/// Simulator semantics revision.
///
/// Any change that can alter the metrics a simulation produces — timing
/// model edits, new mechanisms, bug fixes — must bump this constant.  It is
/// folded into the on-disk result-cache key, so stale cached results from
/// an older simulator are never returned as current ones.
pub const SIM_REVISION: u32 = 1;

pub mod config;
pub mod dpath;
pub mod events;
pub mod machine;
pub mod membuf;
pub mod metrics;
pub mod telemetry;
pub mod thread;

pub use config::{MachineConfig, ProcPreset};
pub use dpath::{DataPath, DataPathConfig, SideKind};
pub use machine::{simulate, Machine, RunResult};
pub use membuf::MemBuffer;
pub use metrics::MachineMetrics;
