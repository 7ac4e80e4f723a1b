//! Property tests for the trace codec: varint/zigzag primitives and the
//! delta + run-length stream encoding round-trip over randomized access
//! patterns (strided runs, pointer chasing, kind mixes, cycle bursts).

use proptest::prelude::*;

use wec_trace::codec::{put_varint, unzigzag, zigzag, Cursor};
use wec_trace::stream::{StreamDecoder, StreamEncoder};
use wec_trace::{Trace, TraceHeader, TraceKind, TraceRecord, FORMAT_VERSION};

/// One generated step: how the next record differs from the previous one.
#[derive(Clone, Debug)]
struct Step {
    cdelta: u64,
    kind: TraceKind,
    /// Signed address step, applied to the per-kind previous address.
    astep: i64,
    pc: u32,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        // Mostly small cycle deltas, occasionally a large idle gap.
        prop_oneof![0u64..4, 0u64..16, 1000u64..100_000],
        proptest::sample::select(TraceKind::ALL.to_vec()),
        // Strides (fixed small), random jumps, and backwards steps.
        prop_oneof![Just(64i64), Just(8i64), -4096i64..4096, Just(0i64)],
        0u32..2048,
    )
        .prop_map(|(cdelta, kind, astep, pc)| Step {
            cdelta,
            kind,
            astep,
            pc,
        })
}

/// Materialize steps into records with non-decreasing cycles and per-kind
/// address chains — the same shape a machine capture produces.  The machine's
/// phase invariant is enforced: within one cycle a store (drained after
/// all TU ticks) can never precede a load/fetch in the same stream, so a
/// phase regression at an unchanged cycle advances the cycle instead.
fn build_records(steps: &[Step], tu: u32) -> Vec<TraceRecord> {
    let mut cycle = 0u64;
    let mut addr = [0x1_0000u64; 5];
    let mut pc = 0x40_0000u32;
    let mut last_was_store = false;
    steps
        .iter()
        .map(|s| {
            let is_store = s.kind == TraceKind::CorrectStore;
            cycle += s.cdelta;
            if s.cdelta == 0 && last_was_store && !is_store {
                cycle += 1;
            }
            last_was_store = is_store;
            let a = &mut addr[s.kind as usize];
            *a = a.wrapping_add(s.astep as u64);
            pc = pc.wrapping_add(s.pc);
            TraceRecord {
                cycle,
                tu,
                pc: match s.kind {
                    TraceKind::InstFetch => *a as u32,
                    TraceKind::CorrectStore => 0,
                    _ => pc,
                },
                addr: *a,
                kind: s.kind,
                squashed: s.kind.access_kind().is_wrong(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut c = Cursor::new(&buf);
        prop_assert_eq!(c.get_varint("prop").unwrap(), v);
        prop_assert!(c.is_empty());
    }

    #[test]
    fn varint_concatenation_preserves_boundaries(vs in proptest::collection::vec(any::<u64>(), 1..40)) {
        let mut buf = Vec::new();
        for &v in &vs {
            put_varint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for &v in &vs {
            prop_assert_eq!(c.get_varint("prop").unwrap(), v);
        }
        prop_assert!(c.is_empty());
    }

    #[test]
    fn zigzag_round_trips(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn stream_round_trips(steps in proptest::collection::vec(step_strategy(), 0..600)) {
        let records = build_records(&steps, 0);
        let mut enc = StreamEncoder::new();
        for r in &records {
            enc.push(r);
        }
        let stream = enc.finish();
        let got: Vec<TraceRecord> = StreamDecoder::new(&stream, 0)
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(got, records);
    }

    #[test]
    fn container_round_trips_and_merge_orders(
        steps_a in proptest::collection::vec(step_strategy(), 0..200),
        steps_b in proptest::collection::vec(step_strategy(), 0..200),
    ) {
        let (ra, rb) = (build_records(&steps_a, 0), build_records(&steps_b, 1));
        let mut ea = StreamEncoder::new();
        let mut eb = StreamEncoder::new();
        for r in &ra { ea.push(r); }
        for r in &rb { eb.push(r); }
        let trace = Trace {
            header: TraceHeader {
                format_version: FORMAT_VERSION,
                sim_revision: wec_core::SIM_REVISION,
                n_tus: 2,
                scale_units: 1,
                bench: "prop.bench".into(),
                cfg_label: "prop/cfg".into(),
                total_records: (ra.len() + rb.len()) as u64,
            },
            streams: vec![ea.finish(), eb.finish()],
        };
        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(back.verify().unwrap(), trace.header.total_records);

        let merged: Vec<TraceRecord> = back.merged().unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(merged.len(), ra.len() + rb.len());
        for w in merged.windows(2) {
            prop_assert!(w[0].order_key() <= w[1].order_key());
        }
        // The merge is stable per stream: each TU's subsequence is intact.
        let sub_a: Vec<TraceRecord> = merged.iter().filter(|r| r.tu == 0).copied().collect();
        let sub_b: Vec<TraceRecord> = merged.iter().filter(|r| r.tu == 1).copied().collect();
        prop_assert_eq!(sub_a, ra);
        prop_assert_eq!(sub_b, rb);
    }
}
