//! Property test for the parallel replay engine's core invariant: a
//! record sequence replayed whole (streaming decoder + k-way merge +
//! one-at-a-time probes) and the same sequence block-partitioned into a
//! [`TraceSlab`] and replayed batched ([`replay_slab`]) produce identical
//! hit/miss/fill counters — for any record mix, any block size, and any
//! decoder-pool width.  It holds for later replays of the slab too, which
//! drive only its data records and L1I misses from the plan the first
//! replay left: at the same configuration, at another L1D, and at another
//! memory latency (where the plan's L2 ready cycles can stop matching).

use proptest::prelude::*;

use wec_core::config::ProcPreset;
use wec_trace::stream::StreamEncoder;
use wec_trace::{
    cache_stat_subset, replay, replay_slab, Trace, TraceHeader, TraceKind, TraceRecord, TraceSlab,
    FORMAT_VERSION,
};

/// One generated step: how the next record differs from the previous one
/// (same shape as `prop_trace_codec`).
#[derive(Clone, Debug)]
struct Step {
    cdelta: u64,
    kind: TraceKind,
    astep: i64,
    pc: u32,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        prop_oneof![0u64..4, 0u64..16, 1000u64..100_000],
        proptest::sample::select(TraceKind::ALL.to_vec()),
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

/// Materialize steps into capture-shaped records: non-decreasing cycles,
/// per-kind address chains, and the store-drains-last phase invariant.
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

fn trace_of(per_tu: &[Vec<TraceRecord>], block_cap: usize) -> Trace {
    let streams = per_tu
        .iter()
        .map(|recs| {
            let mut e = StreamEncoder::with_block_records(block_cap);
            for r in recs {
                e.push(r);
            }
            e.finish()
        })
        .collect::<Vec<_>>();
    Trace {
        header: TraceHeader {
            format_version: FORMAT_VERSION,
            sim_revision: wec_core::SIM_REVISION,
            n_tus: streams.len() as u32,
            scale_units: 1,
            bench: "prop.partition".into(),
            cfg_label: "prop/cfg".into(),
            total_records: per_tu.iter().map(|s| s.len() as u64).sum(),
        },
        streams,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_replay_partition(
        steps_a in proptest::collection::vec(step_strategy(), 0..400),
        steps_b in proptest::collection::vec(step_strategy(), 0..400),
        // Tiny blocks force many partitions; 8192 is the production size
        // (most sequences then fit in one block — the degenerate case).
        block_cap in prop_oneof![Just(16usize), Just(64), Just(8192)],
    ) {
        let ra = build_records(&steps_a, 0);
        let rb = build_records(&steps_b, 1);
        let trace = trace_of(&[ra.clone(), rb.clone()], block_cap);
        let cfg = ProcPreset::WthWpWec.machine(2);
        // Later replays of each slab: another L1D and side structure, and
        // another memory latency.
        let mut vc = ProcPreset::WthWpVc.machine(2);
        vc.l1d.ways = 2;
        vc.l1d.side_entries = 4;
        let mut memory = cfg.clone();
        memory.l2.memory_latency = 40;

        // Reference: the streaming decoder driving probes one at a time.
        let whole = replay(&trace, &cfg).unwrap();
        let whole_stats = cache_stat_subset(&whole.stats);

        for jobs in [1usize, 3] {
            let slab = TraceSlab::build(&trace, jobs).unwrap();
            // The partitioned decode reassembles each TU's slice exactly.
            prop_assert_eq!(slab.tu_records(0), &ra[..]);
            prop_assert_eq!(slab.tu_records(1), &rb[..]);

            let batched = replay_slab(&slab, &cfg).unwrap();
            prop_assert_eq!(batched.records, whole.records);
            prop_assert_eq!(
                cache_stat_subset(&batched.stats),
                whole_stats.clone(),
                "block_cap={} jobs={} drifted from whole-sequence replay",
                block_cap,
                jobs
            );

            for (name, later) in [("same", &cfg), ("vc", &vc), ("memory", &memory)] {
                prop_assert_eq!(
                    cache_stat_subset(&replay_slab(&slab, later).unwrap().stats),
                    cache_stat_subset(&replay(&trace, later).unwrap().stats),
                    "block_cap={} jobs={} later replay at {} drifted from streaming replay",
                    block_cap,
                    jobs,
                    name
                );
            }
        }
    }
}
