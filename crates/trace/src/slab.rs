//! The in-memory trace slab: decode a `.wectrace` once, replay it many
//! times.
//!
//! A geometry sweep replays the same trace at dozens of configurations.
//! Decoding per point (varint walk + k-way stream merge) is pure
//! redundancy — the trace never changes, only the cache geometry does.
//! [`TraceSlab`] pays the decode exactly once:
//!
//! * every block of every per-TU stream is decoded on a **decoder pool**
//!   (blocks are self-contained — all delta contexts reset at block
//!   boundaries — so they decode independently and in any order);
//! * per-TU record vectors are stitched back together in block order and
//!   verified against the stream record counts and content checksums, so
//!   the slab provides exactly the integrity guarantees of the streaming
//!   decoder;
//! * the per-TU streams are merged **once** into the machine's global
//!   access order and stored as a structure-of-arrays ([`MergedOrder`]):
//!   contiguous `cycles`/`addrs`/`tus`/`kinds`/`pcs` arrays that the
//!   batched replay loop streams through (the `squashed` field stays
//!   unused).
//!
//! The records never change after construction.  The one thing that
//! does is the slab's instruction-side plan: the first replay records it
//! (see [`crate::replay`]), and every later replay at the same L1I
//! configuration drives only the records it lists.  The plan sits in a
//! `OnceLock`, so the slab stays `Sync` and one slab is shared by every
//! worker of a parallel sweep; each worker owns only its private cache
//! hierarchy.

use std::sync::OnceLock;

use crate::format::{Trace, TraceHeader};
use crate::record::{TraceKind, TraceRecord};
use crate::replay::IfetchPlan;
use crate::stream::decode_block_into;
use crate::TraceError;

/// The merged global access order, structure-of-arrays.  Index `i` across
/// the five vectors is one admitted access; the arrays are contiguous so
/// the replay hot loop (and any precompute over addresses) streams
/// sequentially instead of striding over 32-byte records.
pub struct MergedOrder {
    pub cycles: Vec<u64>,
    pub addrs: Vec<u64>,
    pub tus: Vec<u16>,
    pub kinds: Vec<TraceKind>,
    /// Issuing PC per access (0 for stores, the fetch address for ifetches
    /// — the capture-side convention).  Replay presents it with every
    /// access; only the data paths' observers read it.
    pub pcs: Vec<u32>,
}

impl MergedOrder {
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// A fully decoded, merge-ordered, shareable trace.
pub struct TraceSlab {
    header: TraceHeader,
    identity: u64,
    /// Per-TU decoded records, in stream order.
    streams: Vec<Vec<TraceRecord>>,
    merged: MergedOrder,
    /// The instruction side of the first replay, set when it finishes.
    pub(crate) ifetch: OnceLock<IfetchPlan>,
}

impl TraceSlab {
    /// Decode `trace` into a slab, fanning block decoding over `jobs`
    /// worker threads (1 = decode inline).  Verifies every block byte
    /// checksum, every stream record count and content checksum, and the
    /// header total — the same guarantees as fully iterating the trace.
    pub fn build(trace: &Trace, jobs: usize) -> Result<TraceSlab, TraceError> {
        let streams = decode_streams(trace, jobs.max(1))?;
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        if total != trace.header.total_records {
            return Err(TraceError::Corrupt(format!(
                "decoded {total} records, header says {}",
                trace.header.total_records
            )));
        }
        let merged = merge_streams(&streams);
        Ok(TraceSlab {
            header: trace.header.clone(),
            identity: trace.identity(),
            streams,
            merged,
            ifetch: OnceLock::new(),
        })
    }

    /// [`TraceSlab::build`] with an inline (single-threaded) decode.
    pub fn build_seq(trace: &Trace) -> Result<TraceSlab, TraceError> {
        Self::build(trace, 1)
    }

    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The capture's stable identity ([`Trace::identity`]) — memo keys
    /// computed from a slab match those computed from the trace it was
    /// built from.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Total decoded records.
    pub fn records(&self) -> u64 {
        self.merged.len() as u64
    }

    /// One TU's records in stream order — a zero-copy slice into the slab.
    pub fn tu_records(&self, tu: u32) -> &[TraceRecord] {
        &self.streams[tu as usize]
    }

    /// The global-order structure-of-arrays view the replay loop drives.
    pub fn merged(&self) -> &MergedOrder {
        &self.merged
    }
}

/// Decode every stream's blocks, on `jobs` threads when `jobs > 1`.
fn decode_streams(trace: &Trace, jobs: usize) -> Result<Vec<Vec<TraceRecord>>, TraceError> {
    // One work item per block, addressed as (stream index, block index).
    let work: Vec<(usize, usize)> = trace
        .streams
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.blocks.len()).map(move |bi| (si, bi)))
        .collect();
    let jobs = jobs.min(work.len().max(1));

    let mut decoded: Vec<Vec<TraceRecord>> = Vec::with_capacity(work.len());
    if jobs <= 1 {
        for &(si, bi) in &work {
            let mut out = Vec::new();
            decode_block_into(&trace.streams[si].blocks[bi], si as u32, &mut out)
                .map_err(|e| block_err(si, bi, e))?;
            decoded.push(out);
        }
    } else {
        let slots: Vec<std::sync::OnceLock<Result<Vec<TraceRecord>, TraceError>>> = (0..work.len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(si, bi)) = work.get(i) else {
                        return;
                    };
                    let mut out = Vec::new();
                    let res = decode_block_into(&trace.streams[si].blocks[bi], si as u32, &mut out)
                        .map(|()| out)
                        .map_err(|e| block_err(si, bi, e));
                    let _ = slots[i].set(res);
                });
            }
        });
        for slot in slots {
            decoded.push(
                slot.into_inner()
                    .expect("decoder pool exited with an unfilled slot")?,
            );
        }
    }

    // Stitch blocks back into per-TU streams (work is in (stream, block)
    // order, so a plain sequential append reassembles each stream) and run
    // the stream-level integrity checks the streaming decoder enforces.
    let mut streams: Vec<Vec<TraceRecord>> = trace
        .streams
        .iter()
        .map(|s| Vec::with_capacity(s.records as usize))
        .collect();
    for (&(si, _), mut block) in work.iter().zip(decoded) {
        streams[si].append(&mut block);
    }
    for (si, (stream, enc)) in streams.iter().zip(&trace.streams).enumerate() {
        if stream.len() as u64 != enc.records {
            return Err(TraceError::Corrupt(format!(
                "stream {si} decoded {} records, header says {}",
                stream.len(),
                enc.records
            )));
        }
        let mut checksum = crate::codec::FNV_OFFSET;
        for rec in stream {
            checksum = rec.fold_checksum(checksum);
        }
        if checksum != enc.checksum {
            return Err(TraceError::Corrupt(format!(
                "stream {si} content checksum mismatch"
            )));
        }
    }
    Ok(streams)
}

fn block_err(si: usize, bi: usize, e: TraceError) -> TraceError {
    match e {
        TraceError::Corrupt(msg) => TraceError::Corrupt(format!("stream {si} block {bi}: {msg}")),
        other => other,
    }
}

/// K-way merge of the per-TU streams by [`TraceRecord::order_key`] into
/// the structure-of-arrays global order — computed once per slab instead
/// of once per replayed sweep point.
fn merge_streams(streams: &[Vec<TraceRecord>]) -> MergedOrder {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut merged = MergedOrder {
        cycles: Vec::with_capacity(total),
        addrs: Vec::with_capacity(total),
        tus: Vec::with_capacity(total),
        kinds: Vec::with_capacity(total),
        pcs: Vec::with_capacity(total),
    };
    let mut pos: Vec<usize> = vec![0; streams.len()];
    loop {
        let mut best: Option<((u64, u8, u32), usize)> = None;
        for (si, s) in streams.iter().enumerate() {
            if let Some(rec) = s.get(pos[si]) {
                let key = rec.order_key();
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, si));
                }
            }
        }
        let Some((_, si)) = best else {
            break;
        };
        let rec = &streams[si][pos[si]];
        pos[si] += 1;
        merged.cycles.push(rec.cycle);
        merged.addrs.push(rec.addr);
        merged.tus.push(rec.tu as u16);
        merged.kinds.push(rec.kind);
        merged.pcs.push(rec.pc);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FORMAT_VERSION;
    use crate::stream::StreamEncoder;

    fn rec(cycle: u64, tu: u32, kind: TraceKind, addr: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            tu,
            pc: match kind {
                TraceKind::InstFetch => addr as u32,
                TraceKind::CorrectStore => 0,
                _ => 0x40,
            },
            addr,
            kind,
            squashed: kind.access_kind().is_wrong(),
        }
    }

    fn trace_of(per_tu: Vec<Vec<TraceRecord>>, block_cap: usize) -> Trace {
        let total = per_tu.iter().map(|s| s.len() as u64).sum();
        let streams = per_tu
            .into_iter()
            .map(|recs| {
                let mut e = StreamEncoder::with_block_records(block_cap);
                for r in &recs {
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
                bench: "slab.test".into(),
                cfg_label: "slab/cfg".into(),
                total_records: total,
            },
            streams,
        }
    }

    fn sample(n: u64) -> Vec<Vec<TraceRecord>> {
        let tu0 = (0..n)
            .map(|i| rec(i, 0, TraceKind::CorrectLoad, 0x1000 + i * 64))
            .collect();
        let tu1 = (0..n / 2)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    TraceKind::WrongPathLoad
                } else {
                    TraceKind::InstFetch
                };
                rec(i * 2 + 1, 1, kind, 0x40_0000 + i * 8)
            })
            .collect();
        vec![tu0, tu1]
    }

    #[test]
    fn slab_matches_streaming_decode_any_job_count() {
        let per_tu = sample(500);
        let trace = trace_of(per_tu.clone(), 64);
        for jobs in [1, 2, 7] {
            let slab = TraceSlab::build(&trace, jobs).unwrap();
            assert_eq!(slab.records(), trace.header.total_records);
            assert_eq!(slab.identity(), trace.identity());
            for (tu, want) in per_tu.iter().enumerate() {
                assert_eq!(slab.tu_records(tu as u32), &want[..], "jobs={jobs} tu={tu}");
            }
        }
    }

    #[test]
    fn merged_order_matches_merged_iter() {
        let trace = trace_of(sample(300), 32);
        let slab = TraceSlab::build(&trace, 3).unwrap();
        let want: Vec<TraceRecord> = trace.merged().unwrap().collect::<Result<_, _>>().unwrap();
        let m = slab.merged();
        assert_eq!(m.len(), want.len());
        for (i, r) in want.iter().enumerate() {
            assert_eq!(m.cycles[i], r.cycle);
            assert_eq!(m.addrs[i], r.addr);
            assert_eq!(m.tus[i] as u32, r.tu);
            assert_eq!(m.kinds[i], r.kind);
            assert_eq!(m.pcs[i], r.pc);
        }
    }

    #[test]
    fn corrupt_block_fails_slab_build() {
        let mut trace = trace_of(sample(200), 32);
        let n = trace.streams[0].blocks[1].bytes.len();
        trace.streams[0].blocks[1].bytes[n / 2] ^= 0xff;
        for jobs in [1, 4] {
            match TraceSlab::build(&trace, jobs) {
                Err(TraceError::Corrupt(msg)) => {
                    assert!(msg.contains("block 1"), "unhelpful error: {msg}")
                }
                Err(other) => panic!("wrong error kind (jobs={jobs}): {other:?}"),
                Ok(_) => panic!("corruption not detected (jobs={jobs})"),
            }
        }
    }

    #[test]
    fn tampered_stream_count_fails_slab_build() {
        let mut trace = trace_of(sample(50), 16);
        trace.streams[0].records += 1;
        assert!(matches!(
            TraceSlab::build(&trace, 2),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_trace_builds_empty_slab() {
        let trace = trace_of(vec![vec![], vec![]], 16);
        let slab = TraceSlab::build(&trace, 4).unwrap();
        assert_eq!(slab.records(), 0);
        assert!(slab.merged().is_empty());
    }
}
