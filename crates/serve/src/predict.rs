//! Which jobs will a client ask for next?  The sweep-axis neighbourhood.
//!
//! The 48-point replay sweep (`wec-bench`'s `sweep_keys()`) walks two
//! presets × eight side-structure sizes × three L1 associativities, and
//! real clients walk it in order — so the strongest signal is *adjacency
//! on the sweep axes*, the serving-tier analog of the paper's fixed
//! next-line-prefetch rule.  [`neighbourhood`] is a pure function of the
//! submitted spec: no per-client history, no learned table, no lock, so
//! every backend behind a router predicts the same points for the same
//! demand whichever client sent it.

use wec_core::config::ProcPreset;

use crate::job::{JobKind, JobSpec};

/// The replay sweep's side-structure axis, in walk order.
pub const SIDE_AXIS: [u8; 8] = [2, 4, 8, 16, 24, 32, 64, 128];
/// The replay sweep's L1-associativity axis.
pub const WAYS_AXIS: [u8; 3] = [1, 2, 4];
/// Candidates enqueued speculatively per demand submission.
pub const FANOUT: usize = 4;

/// The sweep's preset pair: each member predicts the other.
fn sibling_preset(p: ProcPreset) -> Option<ProcPreset> {
    match p {
        ProcPreset::WthWpWec => Some(ProcPreset::WthWpVc),
        ProcPreset::WthWpVc => Some(ProcPreset::WthWpWec),
        _ => None,
    }
}

/// The entries one step up, then one step down, from `v` on `axis`.
fn steps(axis: &[u8], v: u8) -> impl Iterator<Item = u8> + '_ {
    let i = axis.iter().position(|&a| a == v);
    let up = i.and_then(|i| axis.get(i + 1));
    let down = i.and_then(|i| i.checked_sub(1)).map(|j| &axis[j]);
    up.into_iter().chain(down).copied()
}

/// `spec` with one field changed by `f`.
fn with(spec: &JobSpec, f: impl FnOnce(&mut JobSpec)) -> JobSpec {
    let mut s = spec.clone();
    f(&mut s);
    s
}

/// Up to [`FANOUT`] likely next specs after `spec`, best first: side
/// entries one step up then down the axis, L1 ways one step up then
/// down, the sibling preset, then (sims only) the doubled scale.  Each
/// rule changes exactly one field of the dedup key to a different value,
/// so the candidates are distinct and never `spec` itself.
pub fn neighbourhood(spec: &JobSpec) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for side in steps(&SIDE_AXIS, spec.key.side_entries) {
        out.push(with(spec, |s| s.key.side_entries = side));
    }
    for ways in steps(&WAYS_AXIS, spec.key.l1_ways) {
        out.push(with(spec, |s| s.key.l1_ways = ways));
    }
    if let Some(p) = sibling_preset(spec.key.preset) {
        out.push(with(spec, |s| s.key.preset = p));
    }
    if let JobKind::Sim { .. } = spec.kind {
        if spec.scale.units <= (1 << 19) {
            out.push(with(spec, |s| s.scale.units *= 2));
        }
    }
    out.truncate(FANOUT);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bench: &str, side: u8, ways: u8) -> JobSpec {
        JobSpec::parse(&format!(
            "{{\"bench\": \"{bench}\", \"cfg\": {{\"side_entries\": {side}, \"l1_ways\": {ways}}}}}"
        ))
        .unwrap()
    }

    fn keys(specs: &[JobSpec]) -> Vec<String> {
        specs.iter().map(JobSpec::dedup_key).collect()
    }

    #[test]
    fn predictions_are_deterministic_and_never_echo_the_input() {
        let s = spec("181.mcf", 8, 2);
        let a = keys(&neighbourhood(&s));
        assert_eq!(a, keys(&neighbourhood(&s)));
        assert!(a.iter().all(|k| *k != s.dedup_key()));
        let distinct: std::collections::HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "{a:?}");
        assert!(!a.is_empty() && a.len() <= FANOUT);
    }

    #[test]
    fn adjacent_sweep_points_lead_the_static_neighborhood() {
        let out = neighbourhood(&spec("181.mcf", 8, 2));
        let k = keys(&out);
        // Side one step up, then down, then ways up, then down.
        assert_eq!(
            out.iter()
                .map(|s| (s.key.side_entries, s.key.l1_ways))
                .collect::<Vec<_>>(),
            [(16, 2), (4, 2), (8, 4), (8, 1)],
            "{k:?}"
        );
        // At an axis end the sibling preset and the doubled scale move up.
        let out = neighbourhood(&spec("181.mcf", 128, 4));
        assert_eq!(out[0].key.side_entries, 64);
        assert_eq!(out[1].key.l1_ways, 2);
        assert_eq!(out[2].key.preset, ProcPreset::WthWpVc);
        assert_eq!(out[3].scale.units, 2);
    }

    #[test]
    fn fanout_caps_the_candidate_list() {
        // Side ±1, ways ±1, sibling preset and doubled scale: six rules
        // apply, four are kept.
        assert_eq!(neighbourhood(&spec("181.mcf", 16, 2)).len(), FANOUT);
    }
}
