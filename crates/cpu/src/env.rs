//! The core's window onto the rest of the machine.
//!
//! A [`Core`](crate::core::Core) never owns caches or thread-level state; it
//! calls through [`CoreEnv`].  The superthreaded machine (`wec-core`)
//! implements this trait per thread unit — routing loads through the memory
//! buffer and the L1/WEC composite, tagging them as wrong-thread loads when
//! the thread has been marked wrong, and realizing `fork`/`abort`/
//! write-back semantics.  [`MockEnv`] is the flat test implementation.

use wec_common::ids::{Addr, Cycle};
use wec_isa::inst::Inst;
use wec_isa::program::MemImage;

use crate::regs::ArchRegs;

/// Base "physical" address of the text segment: instruction index `i` is
/// fetched from `TEXT_BASE + 8*i` through the instruction cache.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// Outcome of issuing a memory access this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemIssue {
    /// Access accepted: `value` is the loaded value (zero for instruction
    /// fetches) and `ready_at` is when it arrives.
    Done { ready_at: Cycle, value: u64 },
    /// Structural hazard (cache port or MSHR): retry next cycle.
    Retry,
    /// Run-time dependence wait: the address matches an upstream target
    /// store whose value has not arrived yet (§2.2). Retry until released.
    Blocked,
}

/// What a committing superthreaded/system instruction tells the core to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaOutcome {
    /// Retired normally; keep committing.
    Continue,
    /// Cannot take effect yet (fork with no idle TU, abort draining older
    /// threads): retry this commit next cycle.
    Stall,
    /// Retired; squash everything younger and resume fetching at this PC.
    Redirect(u32),
    /// The thread is finished (thread end, wrong-thread death, halt): flush
    /// and go idle until the machine restarts this core.
    Stop,
}

/// Services the machine provides to a core.
pub trait CoreEnv {
    /// Issue a data load.  `wrong_path` marks loads issued by the wrong-path
    /// engine after branch resolution; the environment itself knows whether
    /// the whole *thread* is wrong.  `pc` is the program counter of the
    /// issuing instruction (the data path's observers — trace capture and
    /// the attribution ledger — read it alongside the address).
    /// The returned value reflects committed memory plus any thread-level
    /// forwarding.
    fn load(&mut self, addr: Addr, bytes: u64, now: Cycle, wrong_path: bool, pc: u32) -> MemIssue;

    /// Fetch the instruction-cache block containing `addr` (see
    /// [`TEXT_BASE`]). The value field of [`MemIssue::Done`] is unused.
    fn ifetch(&mut self, addr: Addr, now: Cycle) -> MemIssue;

    /// Commit a store. Returns false if the store cannot be accepted this
    /// cycle (store buffer full) — the core must stall commit and retry.
    fn commit_store(&mut self, addr: Addr, bytes: u64, value: u64, now: Cycle) -> bool;

    /// Commit a superthreaded instruction (`begin`/`fork`/`abort`/
    /// `tsannounce`/`tsagdone`/`thread_end`) or `halt`. `regs` is the
    /// architectural state at this commit point.
    fn sta_commit(&mut self, inst: &Inst, regs: &ArchRegs, now: Cycle) -> StaOutcome;
}

/// A flat-latency environment for unit tests: one memory image, fixed load
/// and fetch latencies, no thread semantics (`halt` stops, other STA
/// instructions retire as no-ops but are recorded).
pub struct MockEnv {
    pub mem: MemImage,
    pub load_latency: u64,
    pub ifetch_latency: u64,
    pub halted: bool,
    /// Every wrong-path load the core issued: (addr, bytes).
    pub wrong_path_loads: Vec<(Addr, u64)>,
    /// Every correct/speculative load issued: (addr, bytes).
    pub loads: Vec<(Addr, u64)>,
    /// Every committed store: (addr, bytes, value).
    pub stores: Vec<(Addr, u64, u64)>,
    /// STA instructions committed (for tests).
    pub sta_log: Vec<Inst>,
}

impl MockEnv {
    pub fn new(mem: MemImage) -> Self {
        MockEnv {
            mem,
            load_latency: 2,
            ifetch_latency: 1,
            halted: false,
            wrong_path_loads: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            sta_log: Vec::new(),
        }
    }
}

impl CoreEnv for MockEnv {
    fn load(&mut self, addr: Addr, bytes: u64, now: Cycle, wrong_path: bool, _pc: u32) -> MemIssue {
        if wrong_path {
            self.wrong_path_loads.push((addr, bytes));
        } else {
            self.loads.push((addr, bytes));
        }
        // Wrong-path loads to unmapped memory are dropped by real hardware;
        // correct-path ones would fault — in the mock both read as zero so
        // the pipeline keeps moving and tests can assert on the logs.
        let value = self.mem.try_read(addr, bytes).unwrap_or(0);
        MemIssue::Done {
            ready_at: now.plus(self.load_latency),
            value,
        }
    }

    fn ifetch(&mut self, _addr: Addr, now: Cycle) -> MemIssue {
        MemIssue::Done {
            ready_at: now.plus(self.ifetch_latency),
            value: 0,
        }
    }

    fn commit_store(&mut self, addr: Addr, bytes: u64, value: u64, _now: Cycle) -> bool {
        self.stores.push((addr, bytes, value));
        self.mem
            .write(addr, bytes, value)
            .expect("mock store to unmapped memory");
        true
    }

    fn sta_commit(&mut self, inst: &Inst, _regs: &ArchRegs, _now: Cycle) -> StaOutcome {
        match inst {
            Inst::Halt => {
                self.halted = true;
                StaOutcome::Stop
            }
            other => {
                self.sta_log.push(*other);
                StaOutcome::Continue
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_load_reads_image() {
        let mut img = MemImage::new();
        img.alloc(Addr(0x100), 64);
        img.write_u64(Addr(0x100), 77).unwrap();
        let mut env = MockEnv::new(img);
        match env.load(Addr(0x100), 8, Cycle(5), false, 0) {
            MemIssue::Done { ready_at, value } => {
                assert_eq!(ready_at, Cycle(7));
                assert_eq!(value, 77);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(env.loads.len(), 1);
    }

    #[test]
    fn mock_wrong_path_unmapped_reads_zero() {
        let mut env = MockEnv::new(MemImage::new());
        match env.load(Addr(0xdead_0000), 8, Cycle(0), true, 0) {
            MemIssue::Done { value, .. } => assert_eq!(value, 0),
            other => panic!("{other:?}"),
        }
        assert_eq!(env.wrong_path_loads.len(), 1);
    }

    #[test]
    fn mock_halt_stops() {
        let mut env = MockEnv::new(MemImage::new());
        let out = env.sta_commit(&Inst::Halt, &ArchRegs::new(), Cycle(0));
        assert_eq!(out, StaOutcome::Stop);
        assert!(env.halted);
    }
}
