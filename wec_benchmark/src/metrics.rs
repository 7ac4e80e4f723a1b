//! The benchmark's metric table: every end-to-end and per-layer metric,
//! its unit, which direction is better, and (end-to-end only) the share of
//! the parent's median by which it may worsen before a change counts as a
//! regression.  `BENCHMARK.json` mirrors this table; a unit test keeps the
//! two identical.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, in run order, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim-fig11",
        "cold full-timing Fig. 11 sweep: all time in the core/cpu/mem cycle loop; never touches trace, serve, router or the store",
    ),
    (
        "replay-geometry",
        "48-point cache-geometry replay of six captured traces: all time in trace replay and mem probes; the core runs only in set-up",
    ),
    (
        "serve-warm",
        "wec_serve answering warm repeats from its memo at 50 jobs/s: HTTP accept, parse and memo path with no simulator, queue or store",
    ),
    (
        "serve-routed",
        "wec_router over two wec_serve backends at 15 jobs/s: router hop and warm memo reads beside disk reads and cold queued simulations",
    ),
];

/// Every end-to-end metric is reported by every workload; an operation is
/// one simulation point (sim-fig11), one pass of the 48-point replay sweep
/// over all six traces (replay-geometry), or one job from its due time to
/// its result (serve-warm, serve-routed).  The tail latency (`tail_ms`,
/// the highest quantile with ten samples beyond it) is reported beside
/// these but carries no bound: on the reference host its run-to-run
/// spread exceeds the largest bound allowed.
pub const END_TO_END: [Metric; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
];

/// Per-layer metrics come from the traced run.  A workload that never
/// crosses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 69] = [
    layer("workloads.build_ms", "ms", Lower),
    layer("core.minst_per_s", "Minst/s", Higher),
    layer("core.minst_per_s.vpr", "Minst/s", Higher),
    layer("core.minst_per_s.gzip", "Minst/s", Higher),
    layer("core.minst_per_s.mcf", "Minst/s", Higher),
    layer("core.minst_per_s.parser", "Minst/s", Higher),
    layer("core.minst_per_s.equake", "Minst/s", Higher),
    layer("core.minst_per_s.mesa", "Minst/s", Higher),
    layer("core.instructions", "count", Lower),
    layer("core.sim_cycles", "count", Lower),
    layer("core.phase_share.fetch_rename", "share", Lower),
    layer("core.phase_share.exec", "share", Lower),
    layer("core.phase_share.mem", "share", Lower),
    layer("core.phase_share.commit_recovery", "share", Lower),
    layer("core.phase_share.sched", "share", Lower),
    layer("core.phase_share.telemetry", "share", Lower),
    layer("telemetry.attr_overhead", "ratio", Lower),
    layer("runner.busy_share", "share", Higher),
    layer("runner.tail_idle_s", "s", Lower),
    layer("trace.capture_s", "s", Lower),
    layer("trace.capture_overhead", "ratio", Lower),
    layer("trace.slab_build_ms", "ms", Lower),
    layer("trace.bytes_per_record", "B/record", Lower),
    layer("trace.records", "count", Lower),
    layer("trace.replay_ns_per_record.vpr", "ns", Lower),
    layer("trace.replay_ns_per_record.gzip", "ns", Lower),
    layer("trace.replay_ns_per_record.mcf", "ns", Lower),
    layer("trace.replay_ns_per_record.parser", "ns", Lower),
    layer("trace.replay_ns_per_record.equake", "ns", Lower),
    layer("trace.replay_ns_per_record.mesa", "ns", Lower),
    layer("tracerun.point_ms_p50", "ms", Lower),
    layer("tracerun.point_ms_tail", "ms", Lower),
    layer("tracerun.pool_efficiency", "share", Higher),
    layer("client.requests", "count", Lower),
    layer("client.connections", "count", Lower),
    layer("client.connect_us_p50", "us", Lower),
    layer("client.connect_us_tail", "us", Lower),
    layer("client.first_byte_us_p50", "us", Lower),
    layer("client.first_byte_us_tail", "us", Lower),
    layer("client.lateness_ms_p50", "ms", Lower),
    layer("client.lateness_ms_tail", "ms", Lower),
    layer("client.polls_per_job", "ratio", Lower),
    layer("serve.post_jobs_us_mean", "us", Lower),
    layer("serve.cache.cold", "count", Lower),
    layer("serve.cache.disk_hits", "count", Higher),
    layer("serve.cache.mem_hits", "count", Higher),
    layer("serve.deduped", "count", Higher),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p90", "ms", Lower),
    layer("serve.execute_ms_p50", "ms", Lower),
    layer("serve.execute_ms_p90", "ms", Lower),
    layer("serve.worker_busy_share", "share", Lower),
    layer("serve.warm_p50_ms", "ms", Lower),
    layer("serve.disk_p50_ms", "ms", Lower),
    layer("serve.cold_p50_ms", "ms", Lower),
    layer("serve.max_rps", "1/s", Higher),
    layer("step.100.p50_ms", "ms", Lower),
    layer("step.100.tail_ms", "ms", Lower),
    layer("step.100.achieved_rps", "1/s", Higher),
    layer("step.200.p50_ms", "ms", Lower),
    layer("step.200.tail_ms", "ms", Lower),
    layer("step.200.achieved_rps", "1/s", Higher),
    layer("step.400.p50_ms", "ms", Lower),
    layer("step.400.tail_ms", "ms", Lower),
    layer("step.400.achieved_rps", "1/s", Higher),
    layer("router.hop_us_p50", "us", Lower),
    layer("router.proxied", "count", Lower),
    layer("router.retries", "count", Lower),
    layer("router.resharded", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use wec_telemetry::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// `BENCHMARK.json` at the repository root is the driver-facing copy
    /// of this table; it must say exactly what the code measures.
    #[test]
    fn benchmark_json_mirrors_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::RUN_SECONDS)
        );
        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(w.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(w.get("why").and_then(Json::as_str), Some(why));
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let list = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(list.len(), table.len(), "{key}");
            for (j, m) in list.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    m.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
