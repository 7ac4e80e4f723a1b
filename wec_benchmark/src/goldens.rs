//! Golden result digests: the correctness gate of every workload.
//!
//! `goldens.txt` holds the FNV-1a 64 digest of `MachineMetrics::to_kv()`
//! for every scale-1 configuration any workload can simulate or serve
//! (six benchmarks × eight presets × eight side-structure sizes × three L1
//! associativities on the 8-TU paper machine), and the digest of each
//! benchmark's 48-point replay sweep.  A change that alters any simulated
//! number fails the gate; one that only changes speed passes it.
//! `wec_benchmark goldens > wec_benchmark/goldens.txt` regenerates the
//! file after an intended change of simulator semantics.

use std::collections::HashMap;
use std::fmt::Write as _;

use wec_bench::tracerun::{capture_key, sweep_keys, PointResult};
use wec_bench::{CfgKey, Runner, Suite};
use wec_core::config::ProcPreset;
use wec_trace::{capture_run, kv_string, CaptureMeta, TraceSlab};
use wec_workloads::{Bench, Scale};

const GOLDENS: &str = include_str!("../goldens.txt");

/// Side-structure sizes and L1 associativities of the configuration space
/// (the replay sweep's axes).
pub const SIDES: [u8; 8] = [2, 4, 8, 16, 24, 32, 64, 128];
pub const WAYS: [u8; 3] = [1, 2, 4];

/// FNV-1a 64: stable across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The 8-TU paper machine under `preset` with the given side-structure
/// size and L1 associativity.
pub fn key(preset: ProcPreset, side: u8, ways: u8) -> CfgKey {
    let mut k = CfgKey::paper(preset, 8);
    k.side_entries = side;
    k.l1_ways = ways;
    k
}

/// Position of `b` in a [`Suite`], which builds [`Bench::ALL`] in order.
pub fn bench_index(b: Bench) -> usize {
    Bench::ALL
        .iter()
        .position(|&x| x == b)
        .expect("every bench is in Bench::ALL")
}

/// Every configuration the goldens cover, benchmark by benchmark.
pub fn space() -> Vec<(Bench, CfgKey)> {
    let mut out = Vec::new();
    for bench in Bench::ALL {
        for preset in ProcPreset::ALL {
            for side in SIDES {
                for ways in WAYS {
                    out.push((bench, key(preset, side, ways)));
                }
            }
        }
    }
    out
}

fn sim_id(bench: &str, k: &CfgKey) -> String {
    format!(
        "sim {bench} {} {} {}",
        k.preset.name(),
        k.side_entries,
        k.l1_ways
    )
}

/// The digest a replay sweep's results fold into, in `sweep_keys()` order.
pub fn sweep_digest(results: &[PointResult]) -> u64 {
    let text: String = results
        .iter()
        .map(|(subset, _)| kv_string(subset))
        .collect();
    fnv1a(text.as_bytes())
}

pub struct Goldens {
    rev: u32,
    digests: HashMap<String, u64>,
}

impl Goldens {
    pub fn load() -> Goldens {
        let mut rev = 0;
        let mut digests = HashMap::new();
        for line in GOLDENS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (id, value) = line.rsplit_once(' ').expect("goldens line: <id> <value>");
            if id == "rev" {
                rev = value.parse().expect("goldens revision");
            } else {
                let d = u64::from_str_radix(value, 16).expect("goldens digest");
                digests.insert(id.to_string(), d);
            }
        }
        Goldens { rev, digests }
    }

    /// Why no golden can be trusted, if the file was made for another
    /// simulator revision.
    pub fn stale(&self) -> Option<String> {
        (self.rev != wec_core::SIM_REVISION).then(|| {
            format!(
                "goldens.txt is for simulator revision {} but this build is revision {}; \
                 regenerate with `wec_benchmark goldens`",
                self.rev,
                wec_core::SIM_REVISION
            )
        })
    }

    /// Check one simulated result; the error names what differed.
    pub fn check_sim(&self, bench: &str, k: &CfgKey, kv: &str) -> Result<(), String> {
        let id = sim_id(bench, k);
        match self.digests.get(&id) {
            Some(&d) if d == fnv1a(kv.as_bytes()) => Ok(()),
            Some(_) => Err(format!("{id}: result differs from its golden digest")),
            None => Err(format!("{id}: no golden digest")),
        }
    }

    pub fn check_sweep(&self, bench: &str, digest: u64) -> Result<(), String> {
        let id = format!("replay {bench}");
        match self.digests.get(&id) {
            Some(&d) if d == digest => Ok(()),
            Some(_) => Err(format!("{id}: sweep differs from its golden digest")),
            None => Err(format!("{id}: no golden digest")),
        }
    }
}

/// Simulate the whole configuration space and every replay sweep, and
/// render `goldens.txt`.  Takes minutes: it is run once per change of
/// simulator semantics, never by a measured run.
pub fn generate(hosts: usize) -> String {
    let suite = Suite::build(Scale::SMOKE);
    let runner = Runner::without_disk_cache(&suite);
    let points: Vec<(usize, CfgKey)> = space()
        .into_iter()
        .map(|(b, k)| (bench_index(b), k))
        .collect();
    runner.warm_with_hosts(&points, hosts);
    let mut out = String::from(
        "# Golden digests for wec_benchmark (see src/goldens.rs).\n\
         # sim <bench> <preset> <side_entries> <l1_ways> <fnv1a64 of MachineMetrics::to_kv()>\n\
         # replay <bench> <fnv1a64 of the 48-point replay sweep's kv, in sweep order>\n",
    );
    let _ = writeln!(out, "rev {}", wec_core::SIM_REVISION);
    for &(b, k) in &points {
        let w = &suite.workloads[b];
        let kv = runner.metrics(b, k).to_kv();
        let _ = writeln!(out, "{} {:016x}", sim_id(w.name, &k), fnv1a(kv.as_bytes()));
    }
    let keys = sweep_keys();
    for w in &suite.workloads {
        let meta = CaptureMeta {
            bench: w.name.to_string(),
            scale_units: suite.scale.units,
            cfg_label: capture_key().label(),
        };
        let (_, trace) = capture_run(w, capture_key().build(), &meta).expect("capture");
        let slab = TraceSlab::build(&trace, hosts).expect("slab");
        let results = wec_bench::tracerun::replay_sweep(&slab, &keys, None, hosts);
        let _ = writeln!(out, "replay {} {:016x}", w.name, sweep_digest(&results));
    }
    out
}
