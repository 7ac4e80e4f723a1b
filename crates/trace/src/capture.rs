//! Capture: record a full-timing run's admitted access stream.
//!
//! The recorder is one consumer of the L1 data paths' event stream: it
//! reads [`DpEvent::Access`], which every [`DataPath::access`] call emits
//! before its port check, so attempts that come back `Retry` are recorded
//! as often as they are presented.  Each thread unit gets one
//! [`StreamEncoder`], attached to both its L1D and its L1I, which encodes
//! records straight into the TU's stream — no intermediate record buffer,
//! so capture memory stays proportional to the *compressed* trace size.
//!
//! [`DpEvent::Access`]: wec_core::dpath::DpEvent::Access
//! [`DataPath::access`]: wec_core::DataPath::access

use std::cell::RefCell;
use std::rc::Rc;

use wec_core::dpath::AccessRecorder;
use wec_core::machine::{Machine, RunResult};
use wec_core::MachineConfig;
use wec_mem::stats::AccessKind;
use wec_workloads::Workload;

use crate::format::{Trace, TraceHeader, FORMAT_VERSION};
use crate::record::{TraceKind, TraceRecord};
use crate::stream::StreamEncoder;
use crate::TraceError;

impl AccessRecorder for StreamEncoder {
    fn record(&mut self, cycle: u64, pc: u32, addr: u64, kind: AccessKind) {
        let squashed = kind.is_wrong();
        let kind = TraceKind::from_access(kind).expect("data paths are never presented prefetches");
        self.push(&TraceRecord {
            cycle,
            // Implicit in the stream: neither the encoding nor the content
            // checksum reads it.
            tu: 0,
            pc,
            addr,
            kind,
            squashed,
        });
    }
}

/// Capture identity recorded in the trace header.
#[derive(Clone, Debug)]
pub struct CaptureMeta {
    /// Workload name, e.g. `"181.mcf"`.
    pub bench: String,
    /// Workload scale (`Scale::units`).
    pub scale_units: u32,
    /// Configuration label of the captured machine.
    pub cfg_label: String,
}

/// Run `w` under `cfg` with a recorder attached, verify the workload
/// self-check (exactly as `run_and_verify` does), and return both the
/// timing result and the captured trace.  Attaching the recorder does not
/// perturb the run: the metrics are bit-identical to an untraced run.
pub fn capture_run(
    w: &Workload,
    cfg: MachineConfig,
    meta: &CaptureMeta,
) -> Result<(RunResult, Trace), TraceError> {
    let mut m = Machine::new(cfg, &w.program)?;
    let encoders: Vec<Rc<RefCell<StreamEncoder>>> = m
        .data_paths_mut()
        .map(|(l1d, l1i)| {
            let enc = Rc::new(RefCell::new(StreamEncoder::new()));
            l1d.observe().recorder = Some(enc.clone());
            l1i.observe().recorder = Some(enc.clone());
            enc
        })
        .collect();
    let result = m.run()?;
    let got = m.memory().read_u64(w.check_addr)?;
    if got != w.expected_check {
        return Err(TraceError::Sim(wec_common::SimError::Config(format!(
            "{} self-check mismatch: got {got:#x}, want {:#x}",
            w.name, w.expected_check
        ))));
    }
    drop(m);
    let streams = encoders
        .into_iter()
        .map(|enc| {
            Rc::try_unwrap(enc)
                .map(|enc| enc.into_inner().finish())
                .map_err(|_| TraceError::Corrupt("recorder still shared after run".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let total_records = streams.iter().map(|s| s.records).sum();
    let trace = Trace {
        header: TraceHeader {
            format_version: FORMAT_VERSION,
            sim_revision: wec_core::SIM_REVISION,
            n_tus: streams.len() as u32,
            scale_units: meta.scale_units,
            bench: meta.bench.clone(),
            cfg_label: meta.cfg_label.clone(),
            total_records,
        },
        streams,
    };
    Ok((result, trace))
}
