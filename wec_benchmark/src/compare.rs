//! `wec_benchmark compare DIR_A DIR_B`: the regression and gain rule of the
//! benchmark, applied to two sets of runs.
//!
//! For each (workload, end-to-end metric) both sides get a median and
//! quartiles over their runs, then one verdict:
//!
//! * `unresolved` — either side's spread (quartile distance over median)
//!   is wider than the metric's bound, unless every run of B reads better,
//!   or every run reads worse, than every run of A;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `improved` — B wins at least nine tenths of at least ten seed-matched
//!   pairs and the medians differ by more than A's quartile distance;
//! * `unchanged` — otherwise.
//!
//! `compare --overhead DIR` sets DIR's untraced runs against its traced
//! runs: the difference is what tracing costs each end-to-end metric.
//! The exit code is 1 when any verdict is `worse`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use wec_telemetry::json::{self, Json};

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;

/// One run record, reduced to what comparison needs.
pub struct Rec {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub nproc: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_record(line: &str) -> Result<Rec, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("record without {k:?}"));
    let mut metrics = BTreeMap::new();
    if let Json::Obj(fields) = field("metrics")? {
        for (name, m) in fields {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(Rec {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        seed: field("seed")?.as_u64().unwrap_or_default(),
        traced: field("trace")?.as_u64() == Some(1),
        nproc: field("nproc")?.as_u64().unwrap_or_default(),
        metrics,
    })
}

fn load(dir: &Path) -> Result<Vec<Rec>, String> {
    let path = dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        // Smoke runs measure a different amount of work.
        if v.get("smoke").and_then(Json::as_bool) != Some(true) {
            out.push(parse_record(line)?);
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// B's change against A as a share of A's median, positive = better.
    pub gain: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Apply the rule to one metric's runs, `(seed, value)` per run.
pub fn judge(a: &[(u64, f64)], b: &[(u64, f64)], better: Better, bound: f64) -> Option<Row> {
    let vals = |s: &[(u64, f64)]| s.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    let (qa, qb) = (quartiles(&vals(a))?, quartiles(&vals(b))?);
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let better_than = |x: f64, y: f64| sign * (x - y) > 0.0;
    let gain = sign * (qb[1] - qa[1]) / qa[1];
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1];
    let (mut wins, mut pairs) = (0, 0);
    for &(seed, x) in b {
        if let Some(&(_, y)) = a.iter().find(|&&(s, _)| s == seed) {
            pairs += 1;
            wins += better_than(x, y) as usize;
        }
    }
    let all =
        |p: &dyn Fn(f64, f64) -> bool| b.iter().all(|&(_, x)| a.iter().all(|&(_, y)| p(x, y)));
    let verdict = if spread(&qa) > bound || spread(&qb) > bound {
        if all(&|x, y| better_than(x, y)) {
            Verdict::Improved
        } else if all(&|x, y| better_than(y, x)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > 0.0
        && pairs >= 10
        && wins * 10 >= pairs * 9
        && (qb[1] - qa[1]).abs() > qa[2] - qa[0]
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        a: qa,
        b: qb,
        gain,
        wins,
        pairs,
        verdict,
    })
}

/// Print the comparison table; returns whether any metric got worse.
fn report(a: &[&Rec], b: &[&Rec], label: &str) -> bool {
    let nproc = |rs: &[&Rec]| rs.iter().map(|r| r.nproc).collect::<BTreeSet<u64>>();
    if nproc(a) != nproc(b) {
        println!(
            "WARNING: records taken on different CPU counts (A {:?}, B {:?}); timings do not compare",
            nproc(a),
            nproc(b)
        );
    }
    let workloads: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    println!(
        "{:<16} {:<10} {:>30} {:>30} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", label, "bound", "wins"
    );
    let mut worse = false;
    for w in workloads {
        for m in &END_TO_END {
            let runs = |rs: &[&Rec]| -> Vec<(u64, f64)> {
                rs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.get(m.name).map(|&v| (r.seed, v)))
                    .collect()
            };
            let bound = m.bound.unwrap_or(0.0);
            let Some(row) = judge(&runs(a), &runs(b), m.better, bound) else {
                continue;
            };
            worse |= row.verdict == Verdict::Worse;
            let q = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "{w:<16} {:<10} {:>30} {:>30} {:>+7.1}% {:>6.0}% {:>2}/{:<3}  {}",
                m.name,
                q(row.a),
                q(row.b),
                row.gain * 100.0,
                bound * 100.0,
                row.wins,
                row.pairs,
                row.verdict.name()
            );
        }
    }
    worse
}

/// `compare DIR_A DIR_B` or `compare --overhead DIR`; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let loaded = match args {
        [flag, dir] if flag == "--overhead" => load(Path::new(dir)).map(|r| {
            let (traced, plain): (Vec<Rec>, Vec<Rec>) = r.into_iter().partition(|r| r.traced);
            (plain, traced, "tracing")
        }),
        [a, b] => load(Path::new(a)).and_then(|ra| {
            let rb = load(Path::new(b))?;
            let untraced = |v: Vec<Rec>| v.into_iter().filter(|r| !r.traced).collect();
            Ok((untraced(ra), untraced(rb), "B vs A"))
        }),
        _ => {
            eprintln!("usage: wec_benchmark compare DIR_A DIR_B | compare --overhead DIR");
            return 2;
        }
    };
    match loaded {
        Ok((a, b, label)) => {
            let (a, b): (Vec<&Rec>, Vec<&Rec>) = (a.iter().collect(), b.iter().collect());
            i32::from(report(&a, &b, label))
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(vals: &[f64]) -> Vec<(u64, f64)> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let a = runs(&base);
        // Same distribution: unchanged.
        let same = judge(&a, &runs(&base), Better::Lower, 0.1).unwrap();
        assert_eq!(same.verdict, Verdict::Unchanged);
        assert_eq!(same.pairs, 10);
        // 20% slower with a 10% bound: worse.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&a, &runs(&slow), Better::Lower, 0.1).unwrap().verdict,
            Verdict::Worse
        );
        // 5% faster on every pair, beyond A's spread: improved.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.95).collect();
        let row = judge(&a, &runs(&fast), Better::Lower, 0.1).unwrap();
        assert_eq!((row.verdict, row.wins), (Verdict::Improved, 10));
        assert!((row.gain - 0.05).abs() < 1e-9);
        // The same 5% on a higher-is-better metric reads as a loss, within bound.
        assert_eq!(
            judge(&a, &runs(&fast), Better::Higher, 0.1)
                .unwrap()
                .verdict,
            Verdict::Unchanged
        );
        // Fewer than ten pairs never claim a gain.
        assert_eq!(
            judge(&a[..5], &runs(&fast[..5]), Better::Lower, 0.1)
                .unwrap()
                .verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_separates() {
        let a = runs(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let overlap = runs(&[85.0, 105.0, 125.0, 95.0, 115.0]);
        assert_eq!(
            judge(&a, &overlap, Better::Lower, 0.1).unwrap().verdict,
            Verdict::Unresolved
        );
        let far = runs(&[200.0, 210.0, 250.0, 220.0, 230.0]);
        assert_eq!(
            judge(&a, &far, Better::Lower, 0.1).unwrap().verdict,
            Verdict::Worse
        );
        let below = runs(&[10.0, 12.0, 14.0, 11.0, 13.0]);
        assert_eq!(
            judge(&a, &below, Better::Lower, 0.1).unwrap().verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn records_parse_back_with_the_telemetry_json_reader() {
        let line =
            "{\"workload\":\"sim-fig11\",\"seed\":3,\"seconds\":15,\"trace\":0,\"smoke\":false,\
                    \"nproc\":2,\"metrics\":{\"p50_ms\":{\"value\":412.5,\"unit\":\"ms\"}}}";
        let r = parse_record(line).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced, r.nproc),
            ("sim-fig11", 3, false, 2)
        );
        assert_eq!(r.metrics.get("p50_ms"), Some(&412.5));
        assert!(parse_record("{\"seed\":1}").is_err());
    }
}
