//! Measure what trace capture costs a full-timing run: each of the six
//! workloads is run plain and with the access recorder attached
//! (`capture_run`), both at the captured configuration, alternately on
//! this one thread for several rounds (the order flips every round).
//! Prints the median of each side per workload and the overhead
//! `recorded / plain - 1`.
//!
//! ```text
//! cargo run --release -p wec-bench --example capture_overhead [-- --rounds N --scale N]
//! ```

use std::time::Instant;

use wec_bench::tracerun::capture_key;
use wec_trace::{capture_run, CaptureMeta};
use wec_workloads::{run_and_verify, Bench, Scale};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let (mut rounds, mut scale) = (5usize, Scale::SMOKE);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().map_or("", String::as_str);
        match a.as_str() {
            "--rounds" => rounds = value().parse().expect("--rounds N"),
            "--scale" => scale.units = value().parse().expect("--scale N"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    let key = capture_key();
    let workloads: Vec<_> = Bench::ALL.iter().map(|b| b.build(scale)).collect();
    let plain = |i: usize| {
        let t = Instant::now();
        run_and_verify(&workloads[i], key.build()).expect("plain run");
        t.elapsed().as_secs_f64()
    };
    let recorded = |i: usize| {
        let meta = CaptureMeta {
            bench: workloads[i].name.to_string(),
            scale_units: scale.units,
            cfg_label: key.label(),
        };
        let t = Instant::now();
        capture_run(&workloads[i], key.build(), &meta).expect("recorded run");
        t.elapsed().as_secs_f64()
    };
    let mut times = vec![(Vec::new(), Vec::new()); workloads.len()];
    for round in 0..rounds {
        for (i, (p, r)) in times.iter_mut().enumerate() {
            if round % 2 == 0 {
                p.push(plain(i));
                r.push(recorded(i));
            } else {
                r.push(recorded(i));
                p.push(plain(i));
            }
        }
    }
    println!(
        "{:<12} {:>10} {:>12} {:>9}",
        "workload", "plain ms", "recorded ms", "overhead"
    );
    for (w, (p, r)) in workloads.iter().zip(times) {
        let (p, r) = (median(p), median(r));
        println!(
            "{:<12} {:>10.1} {:>12.1} {:>8.1}%",
            w.name,
            p * 1e3,
            r * 1e3,
            (r / p - 1.0) * 100.0
        );
    }
}
