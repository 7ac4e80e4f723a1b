//! End-to-end telemetry: turning the instruments on must not change the
//! simulation, and what they write must match the published schemas.

use std::path::PathBuf;

use wec_core::config::ProcPreset;
use wec_core::MachineConfig;
use wec_telemetry::{schema, TelemetryConfig};
use wec_workloads::{run_and_verify, Bench, Scale};

fn traced_cfg(preset: ProcPreset, out_dir: Option<PathBuf>) -> MachineConfig {
    let mut cfg = preset.machine(8);
    cfg.telemetry = TelemetryConfig {
        trace_events: true,
        sample_interval: 500,
        profile: false,
        out_dir,
    };
    cfg
}

/// The zero-cost-when-off guarantee, observed from the outside: a traced
/// run and an untraced run of the same workload produce byte-identical
/// metrics (the golden-file serialization), cycle counts, and checksums.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let w = Bench::Mcf.build(Scale::SMOKE);
    let off = run_and_verify(&w, ProcPreset::WthWpWec.machine(8)).unwrap();
    let on = run_and_verify(&w, traced_cfg(ProcPreset::WthWpWec, None)).unwrap();

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.checksum, on.checksum);
    assert_eq!(off.metrics.to_kv(), on.metrics.to_kv());
    assert!(off.telemetry.is_none());

    let tel = on.telemetry.expect("traced run must attach a summary");
    assert!(tel.events_total > 0);
    assert!(tel.samples > 0);
    assert!(tel.files.is_empty(), "no out_dir, nothing written");
    // The WEC preset on mcf must show the paper's mechanism working.
    assert!(tel.kind_count("wrong_load_issue") > 0);
    assert!(tel.kind_count("wec_fill") > 0);
    assert!(tel.kind_count("wec_hit") > 0);
    let names: Vec<&str> = tel.histograms.iter().map(|h| h.name).collect();
    assert_eq!(
        names,
        ["load_to_fill", "wec_fill_to_hit", "wrong_thread_lifetime"]
    );
}

/// A traced run's artifacts parse under the schema validators, the event
/// stream contains the kinds the paper's analysis needs, and its
/// side-structure events agree with the attribution ledger of the same
/// run.  Both read the data path's one event stream, so under the WEC and
/// under the victim cache (which parks victims on three different paths)
/// every side fill and side hit is counted once on each side.
#[test]
fn telemetry_artifacts_validate_against_schemas() {
    for preset in [ProcPreset::WthWpWec, ProcPreset::WthWpVc] {
        let dir = std::env::temp_dir().join(format!(
            "wec-telemetry-e2e-{}-{}",
            preset.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let w = Bench::Mcf.build(Scale::SMOKE);
        let mut cfg = traced_cfg(preset, Some(dir.clone()));
        cfg.core.commit_trace = 32;
        cfg.attribution = true;
        let r = run_and_verify(&w, cfg).unwrap();
        let tel = r.telemetry.unwrap();
        assert_eq!(
            tel.files.len(),
            5,
            "events/commits/timeseries/hists/perfetto"
        );

        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        let report = schema::validate_events_jsonl(&events).unwrap();
        assert_eq!(report.total + tel.kind_count("commit"), tel.events_total);
        let mut kinds = vec!["wrong_load_issue", "wec_hit", "l1_miss", "l2_miss"];
        kinds.push(match preset {
            ProcPreset::WthWpWec => "wec_fill",
            _ => "victim_transfer",
        });
        for kind in kinds {
            assert!(report.count_of(kind) > 0, "missing {kind} events");
            assert_eq!(report.count_of(kind), tel.kind_count(kind), "{kind}");
        }

        let ledger = r.attribution.expect("attribution on but no report").totals;
        let p = preset.name();
        assert_eq!(report.count_of("wec_fill"), ledger.fills_wrong, "{p}");
        assert_eq!(
            report.count_of("victim_transfer"),
            ledger.fills_victim,
            "{p}"
        );
        assert_eq!(
            report.count_of("next_line_prefetch"),
            ledger.fills_prefetch,
            "{p}"
        );
        assert_eq!(
            report.count_of("wec_hit"),
            ledger.useful + ledger.victim_rescued,
            "{p}"
        );

        let commits = std::fs::read_to_string(dir.join("commits.jsonl")).unwrap();
        let creport = schema::validate_events_jsonl(&commits).unwrap();
        assert_eq!(creport.count_of("commit"), creport.total);
        assert_eq!(creport.total, tel.kind_count("commit"));
        assert!(creport.total > 0 && creport.total <= 32 * 8);

        let csv = std::fs::read_to_string(dir.join("timeseries.csv")).unwrap();
        let rows = schema::validate_timeseries_csv(&csv).unwrap();
        assert_eq!(rows as u64, tel.samples);

        let hists = std::fs::read_to_string(dir.join("histograms.json")).unwrap();
        let names = schema::validate_histograms_json(&hists).unwrap();
        assert_eq!(
            names,
            ["load_to_fill", "wec_fill_to_hit", "wrong_thread_lifetime"]
        );

        let perfetto = std::fs::read_to_string(dir.join("trace.perfetto.json")).unwrap();
        assert!(schema::validate_perfetto(&perfetto).unwrap() > 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Sampling alone (no event trace) writes the time-series and histograms
/// but no JSONL or Perfetto files, and still leaves metrics untouched.
#[test]
fn sample_only_mode_writes_csv_and_histograms() {
    let dir = std::env::temp_dir().join(format!("wec-telemetry-sample-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let w = Bench::Gzip.build(Scale::SMOKE);
    let off = run_and_verify(&w, ProcPreset::WthWpWec.machine(8)).unwrap();
    let mut cfg = ProcPreset::WthWpWec.machine(8);
    cfg.telemetry = TelemetryConfig {
        trace_events: false,
        sample_interval: 200,
        profile: false,
        out_dir: Some(dir.clone()),
    };
    let on = run_and_verify(&w, cfg).unwrap();
    assert_eq!(off.metrics.to_kv(), on.metrics.to_kv());

    let tel = on.telemetry.unwrap();
    assert_eq!(tel.events_total, 0, "no event trace requested");
    assert!(tel.samples > 0);
    assert!(dir.join("timeseries.csv").exists());
    assert!(dir.join("histograms.json").exists());
    assert!(!dir.join("events.jsonl").exists());
    assert!(!dir.join("trace.perfetto.json").exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The cycle-loop self-profiler: profiling must not change the simulated
/// outcome, its report must be internally consistent, and `profile.json`
/// must validate against the published schema.  With the event trace on
/// too, the Perfetto export grows per-phase counter tracks.
#[test]
fn profiling_attributes_cycle_time_without_perturbing_metrics() {
    let dir = std::env::temp_dir().join(format!("wec-telemetry-prof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let w = Bench::Mcf.build(Scale::SMOKE);
    let off = run_and_verify(&w, ProcPreset::WthWpWec.machine(8)).unwrap();
    let mut cfg = ProcPreset::WthWpWec.machine(8);
    cfg.telemetry = TelemetryConfig {
        trace_events: false,
        sample_interval: 0,
        profile: true,
        out_dir: Some(dir.clone()),
    };
    let on = run_and_verify(&w, cfg).unwrap();
    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.checksum, on.checksum);
    assert_eq!(off.metrics.to_kv(), on.metrics.to_kv());

    let tel = on.telemetry.unwrap();
    let prof = tel.profile.as_ref().expect("profiling run must report");
    assert!(prof.sampled_cycles > 0);
    assert!(prof.sampled_cycles <= prof.total_cycles);
    assert_eq!(prof.total_cycles, on.cycles);
    assert!(prof.wall_ns_sampled() > 0, "sampled phases took no time?");
    let shares = prof.shares();
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // histograms.json is written whenever an out_dir is set; profile.json
    // is the only other artifact of a profile-only run.
    assert_eq!(tel.files.len(), 2, "histograms + profile only");
    let text = std::fs::read_to_string(dir.join("profile.json")).unwrap();
    let phases = schema::validate_profile_json(&text).unwrap();
    assert!(phases.contains(&"exec".to_string()));

    // Same run with the event trace on: Perfetto gains prof_* counters.
    let mut cfg = traced_cfg(ProcPreset::WthWpWec, Some(dir.clone()));
    cfg.telemetry.profile = true;
    let traced = run_and_verify(&w, cfg).unwrap();
    assert_eq!(traced.metrics.to_kv(), off.metrics.to_kv());
    // events + timeseries + histograms + perfetto + profile (no commit trace).
    assert_eq!(traced.telemetry.unwrap().files.len(), 5);
    let perfetto = std::fs::read_to_string(dir.join("trace.perfetto.json")).unwrap();
    assert!(schema::validate_perfetto(&perfetto).unwrap() > 0);
    assert!(perfetto.contains("prof_exec_ns"), "profiler counter track");

    std::fs::remove_dir_all(&dir).unwrap();
}
