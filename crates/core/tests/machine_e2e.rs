//! End-to-end tests of the superthreaded machine: thread pipelining,
//! fork/abort, run-time dependence checking, wrong-thread execution, and
//! the cross-configuration semantics invariant.

use wec_common::error::SimError;
use wec_common::ids::Addr;
use wec_core::config::ProcPreset;
use wec_core::machine::{simulate, Machine};
use wec_isa::reg::Reg;
use wec_isa::{Program, ProgramBuilder};

/// A parallel loop with independent iterations, 8 elements of work each:
/// `out[i] = sum(a[8i .. 8i+8]) + 7` for `i in 0..n` (`n >= 1`).
///
/// Thread-pipelined in the paper's do-while shape (Figure 4): fork at the
/// top of the iteration, exit test at the bottom — so the thread executing
/// the *last valid* iteration aborts, and its already-running successors
/// become wrong threads mid-body (with loads still to issue, which is what
/// makes them wrong-execution loads).
fn independent_loop(n: i64) -> (Program, Addr, Vec<u64>) {
    assert!(n >= 1);
    const K: i64 = 16;
    let mut b = ProgramBuilder::new("indep");
    let a: Vec<u64> = (0..(n * K) as u64).map(|i| i * i + 1).collect();
    let a_base = b.alloc_u64s(&a);
    let out = b.alloc_zeroed_u64s(n as u64);
    // Cold, mapped slack after the arrays: the run-ahead of wrong threads
    // lands here and must miss (that is the effect under test).
    let _slack = b.alloc_bytes(64 * 1024, 64);
    let check = b.alloc_zeroed_u64s(1);
    let (i, my, n_r, ab, ob, t0, t1, acc, j) = (
        Reg(1),
        Reg(3),
        Reg(22),
        Reg(20),
        Reg(21),
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(7),
    );
    b.la(ab, a_base);
    b.la(ob, out);
    b.li(n_r, n);
    b.li(i, 0);
    b.begin(1);
    b.label("body");
    // Continuation: capture my index, compute the recurrence, fork.
    b.mv(my, i);
    b.addi(i, i, 1);
    b.fork(&[i], "body");
    // TSAG: no target stores in this loop.
    b.tsagdone();
    // Computation: acc = sum of a[8*my .. 8*my+8], then out[my] = acc + 7.
    b.slli(t0, my, 7); // 16 elements * 8 bytes
    b.add(t0, ab, t0);
    b.li(acc, 0);
    b.li(j, K);
    b.label("inner");
    b.ld(t1, t0, 0);
    b.add(acc, acc, t1);
    b.addi(t0, t0, 8);
    b.addi(j, j, -1);
    b.bne(j, Reg::ZERO, "inner");
    b.slli(t0, my, 3);
    b.add(t0, ob, t0);
    b.addi(acc, acc, 7);
    b.sd(acc, t0, 0);
    // Exit test: my iteration was the last valid one?
    b.blt(i, n_r, "done");
    b.abort_to("seq");
    b.label("done");
    b.thread_end();
    // Sequential tail: reduce out[] into a checksum cell, as a real
    // program would — and as the window in which wrong threads run
    // "in parallel with the following sequential code" (§3.1.2).
    b.label("seq");
    b.la(t0, out);
    b.li(acc, 0);
    b.li(j, n);
    b.label("reduce");
    b.ld(t1, t0, 0);
    b.add(acc, acc, t1);
    b.addi(t0, t0, 8);
    b.addi(j, j, -1);
    b.bne(j, Reg::ZERO, "reduce");
    b.la(t0, check);
    b.sd(acc, t0, 0);
    b.halt();
    let expected: Vec<u64> = a
        .chunks(K as usize)
        .map(|c| c.iter().sum::<u64>() + 7)
        .collect();
    let prog = b.build().unwrap();
    (prog, out, expected)
}

/// A parallel loop with a true cross-iteration dependence carried through
/// memory via a target store: `acc += a[i]`.
fn dependent_loop(n: i64) -> (Program, Addr, u64) {
    let mut b = ProgramBuilder::new("dep");
    let a: Vec<u64> = (1..=n as u64).collect();
    let a_base = b.alloc_u64s(&a);
    let acc = b.alloc_zeroed_u64s(1);
    let (i, my, n_r, ab, accb, t0, t1, t2) = (
        Reg(1),
        Reg(3),
        Reg(22),
        Reg(20),
        Reg(21),
        Reg(4),
        Reg(5),
        Reg(6),
    );
    b.la(ab, a_base);
    b.la(accb, acc);
    b.li(n_r, n);
    b.li(i, 0);
    b.begin(2);
    b.label("body");
    b.mv(my, i);
    b.addi(i, i, 1);
    b.fork(&[i], "body");
    // TSAG: announce the accumulator as a target store.
    b.tsannounce(accb, 0);
    b.tsagdone();
    // Computation: read the (possibly upstream-released) accumulator,
    // add my element, store it back (releasing downstream).
    b.ld(t0, accb, 0);
    b.slli(t1, my, 3);
    b.add(t1, ab, t1);
    b.ld(t2, t1, 0);
    b.add(t0, t0, t2);
    b.sd(t0, accb, 0);
    // Exit test at the bottom (do-while shape).
    b.blt(i, n_r, "done");
    b.abort_to("seq");
    b.label("done");
    b.thread_end();
    b.label("seq");
    b.halt();
    let expected: u64 = a.iter().sum();
    (b.build().unwrap(), acc, expected)
}

#[test]
fn independent_parallel_loop_computes_correct_results() {
    let (prog, out, expected) = independent_loop(24);
    let r = simulate(ProcPreset::Orig.machine(4), &prog).unwrap();
    let m = Machine::new(ProcPreset::Orig.machine(4), &prog).unwrap();
    drop(m);
    // Re-run to inspect memory.
    let mut machine = Machine::new(ProcPreset::Orig.machine(4), &prog).unwrap();
    machine.run().unwrap();
    for (k, &want) in expected.iter().enumerate() {
        assert_eq!(
            machine.memory().read_u64(out + 8 * k as u64).unwrap(),
            want,
            "out[{k}]"
        );
    }
    assert_eq!(r.metrics.regions, 1);
    // n valid iterations, plus whatever speculative successors started
    // before the last thread's abort swept them away.
    assert!(r.metrics.threads_started >= 24);
    assert!(r.metrics.parallel_instructions > 0);
    assert!(r.metrics.fraction_parallelized() > 0.3);
}

#[test]
fn dependent_loop_respects_target_store_ordering() {
    let (prog, acc, expected) = dependent_loop(30);
    for preset in [ProcPreset::Orig, ProcPreset::WthWpWec] {
        for tus in [1usize, 2, 4, 8] {
            let mut machine = Machine::new(preset.machine(tus), &prog).unwrap();
            machine
                .run()
                .unwrap_or_else(|e| panic!("{} {tus}TU: {e}", preset.name()));
            assert_eq!(
                machine.memory().read_u64(acc).unwrap(),
                expected,
                "{} {tus}TU",
                preset.name()
            );
        }
    }
}

#[test]
fn all_presets_and_tu_counts_preserve_semantics() {
    let (prog, _, _) = independent_loop(20);
    let baseline = simulate(ProcPreset::Orig.machine(1), &prog).unwrap();
    for preset in ProcPreset::ALL {
        for tus in [1usize, 2, 4] {
            let r = simulate(preset.machine(tus), &prog)
                .unwrap_or_else(|e| panic!("{} {tus}TU: {e}", preset.name()));
            assert_eq!(
                r.checksum,
                baseline.checksum,
                "{} at {tus} TUs diverged architecturally",
                preset.name()
            );
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let (prog, _, _) = dependent_loop(16);
    let a = simulate(ProcPreset::WthWpWec.machine(4), &prog).unwrap();
    let b = simulate(ProcPreset::WthWpWec.machine(4), &prog).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.metrics.l1d.wrong_accesses, b.metrics.l1d.wrong_accesses);
}

#[test]
fn wrong_thread_execution_marks_and_runs_wrong_threads() {
    let (prog, _, _) = independent_loop(24);
    let wth = simulate(ProcPreset::Wth.machine(4), &prog).unwrap();
    assert!(
        wth.metrics.threads_marked_wrong > 0,
        "no wrong threads were marked"
    );
    assert!(
        wth.metrics.wrong_instructions > 0,
        "wrong threads did not execute"
    );
    let orig = simulate(ProcPreset::Orig.machine(4), &prog).unwrap();
    assert_eq!(orig.metrics.threads_marked_wrong, 0);
    assert!(orig.metrics.threads_killed > 0);
    assert_eq!(wth.checksum, orig.checksum);
}

#[test]
fn wrong_thread_loads_are_tagged_and_wec_captures_them() {
    let (prog, _, _) = independent_loop(32);
    let wec = simulate(ProcPreset::WthWpWec.machine(4), &prog).unwrap();
    assert!(
        wec.metrics.l1d.wrong_accesses > 0,
        "no wrong-execution loads reached the L1 data path"
    );
    let orig = simulate(ProcPreset::Orig.machine(4), &prog).unwrap();
    assert_eq!(orig.metrics.l1d.wrong_accesses, 0);
}

#[test]
fn more_thread_units_speed_up_a_parallel_loop() {
    // Enough iterations that thread pipelining amortizes fork costs.
    let (prog, _, _) = independent_loop(64);
    let t1 = simulate(ProcPreset::Orig.machine(1), &prog).unwrap().cycles;
    let t4 = simulate(ProcPreset::Orig.machine(4), &prog).unwrap().cycles;
    assert!(
        t4 < t1,
        "4 TUs ({t4} cycles) should beat 1 TU ({t1} cycles)"
    );
}

#[test]
fn sequential_program_needs_no_region() {
    let mut b = ProgramBuilder::new("seq");
    let out = b.alloc_zeroed_u64s(1);
    b.la(Reg(1), out);
    b.li(Reg(2), 99);
    b.sd(Reg(2), Reg(1), 0);
    b.halt();
    let prog = b.build().unwrap();
    let mut m = Machine::new(ProcPreset::Orig.machine(2), &prog).unwrap();
    let r = m.run().unwrap();
    assert_eq!(m.memory().read_u64(out).unwrap(), 99);
    assert_eq!(r.metrics.regions, 0);
    assert_eq!(r.metrics.parallel_instructions, 0);
}

#[test]
fn runaway_program_hits_the_cycle_limit() {
    let mut b = ProgramBuilder::new("inf");
    b.label("loop");
    b.j("loop");
    let prog = b.build().unwrap();
    let mut cfg = ProcPreset::Orig.machine(1);
    cfg.max_cycles = 10_000;
    let err = simulate(cfg, &prog).unwrap_err();
    assert!(matches!(err, SimError::CycleLimit { .. }), "{err}");
}

#[test]
fn more_than_64_thread_units_is_a_config_error() {
    // The machine keeps its busy units in a 64-bit mask.
    let mut b = ProgramBuilder::new("halt");
    b.halt();
    let prog = b.build().unwrap();
    let mut cfg = ProcPreset::Orig.machine(64);
    assert!(Machine::new(cfg.clone(), &prog).is_ok());
    cfg.n_tus = 65;
    assert!(matches!(Machine::new(cfg, &prog), Err(SimError::Config(_))));
}

#[test]
fn back_to_back_regions_reuse_thread_units() {
    // Two parallel regions in sequence; the second must sweep leftovers.
    let mut b = ProgramBuilder::new("two-regions");
    let out = b.alloc_zeroed_u64s(2);
    let (i, my, n_r, ob, t0) = (Reg(1), Reg(3), Reg(22), Reg(21), Reg(4));
    b.la(ob, out);
    b.li(n_r, 10);

    for (region, label_suffix) in [(1u16, "a"), (2u16, "b")] {
        let body = format!("body{label_suffix}");
        let seq = format!("seq{label_suffix}");
        b.li(i, 0);
        b.begin(region);
        b.label(&body);
        b.mv(my, i);
        b.addi(i, i, 1);
        b.fork(&[i], &body);
        b.blt(my, n_r, &format!("run{label_suffix}"));
        b.abort_to(&seq);
        b.label(&format!("run{label_suffix}"));
        b.tsagdone();
        b.thread_end();
        b.label(&seq);
        // After the region, bump out[region-1].
        b.ld(t0, ob, (region as i32 - 1) * 8);
        b.addi(t0, t0, 1);
        b.sd(t0, ob, (region as i32 - 1) * 8);
    }
    b.halt();
    let prog = b.build().unwrap();
    for preset in [ProcPreset::Orig, ProcPreset::Wth, ProcPreset::WthWpWec] {
        let mut m = Machine::new(preset.machine(4), &prog).unwrap();
        let r = m.run().unwrap_or_else(|e| panic!("{}: {e}", preset.name()));
        assert_eq!(m.memory().read_u64(out).unwrap(), 1, "{}", preset.name());
        assert_eq!(m.memory().read_u64(out + 8).unwrap(), 1);
        assert_eq!(r.metrics.regions, 2);
    }
}

#[test]
fn fork_transfer_values_reach_the_child() {
    // Forward two continuation variables and check each thread observed its
    // own (i, i*i) pair by writing both to its slot.
    let n = 12i64;
    let mut b = ProgramBuilder::new("fwd2");
    let out = b.alloc_zeroed_u64s(2 * n as u64);
    let (i, sq, my, mysq, n_r, ob, t0) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(22), Reg(21), Reg(5));
    b.la(ob, out);
    b.li(n_r, n);
    b.li(i, 0);
    b.li(sq, 0);
    b.begin(1);
    b.label("body");
    b.mv(my, i);
    b.mv(mysq, sq);
    // next i, next i*i (recurrence: (i+1)^2 = i^2 + 2i + 1)
    b.addi(i, i, 1);
    b.slli(t0, my, 1);
    b.add(sq, sq, t0);
    b.addi(sq, sq, 1);
    b.fork(&[i, sq], "body");
    b.blt(my, n_r, "run");
    b.abort_to("seq");
    b.label("run");
    b.tsagdone();
    b.slli(t0, my, 4); // 16 bytes per slot
    b.add(t0, ob, t0);
    b.sd(my, t0, 0);
    b.sd(mysq, t0, 8);
    b.thread_end();
    b.label("seq");
    b.halt();
    let prog = b.build().unwrap();
    let mut m = Machine::new(ProcPreset::Orig.machine(3), &prog).unwrap();
    m.run().unwrap();
    for k in 0..n as u64 {
        assert_eq!(m.memory().read_u64(out + 16 * k).unwrap(), k);
        assert_eq!(m.memory().read_u64(out + 16 * k + 8).unwrap(), k * k);
    }
}
