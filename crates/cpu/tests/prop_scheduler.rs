//! Scheduler invariants on random programs.
//!
//! Random loops mix the cases the event-driven scheduler has to get right:
//! flip-flopping and data-dependent branches (frequent recoveries), a
//! computed `jr` whose target alternates and a `jal`/`jr ra` call pair,
//! store-to-load forwarding, partial store/load overlaps, and stores whose
//! address is only known late.  Each program runs on the mock environment
//! at widths 1, 2 and 8, with wrong-path loads on and off; after every tick
//! [`Core::check_scheduler`] must hold, and committed memory must equal a
//! sequential interpretation of the program.  Whenever a tick leaves the
//! core [`Core::parked`], the ticks through its predicted span must change
//! nothing ([`Core::quiet_fingerprint`]) but the counters
//! [`Parked::bump`] predicts.
//!
//! The invariant checks are debug-build aids, so this file compiles to
//! nothing in release test builds.
#![cfg(debug_assertions)]

use std::sync::Arc;

use proptest::prelude::*;
use wec_common::ids::{Addr, Cycle};
use wec_common::SplitMix64;
use wec_cpu::config::CoreConfig;
use wec_cpu::core::{Core, CoreStats, Parked, QuietCore};
use wec_cpu::env::MockEnv;
use wec_isa::inst::{AluOp, BranchCond, Inst, LoadKind};
use wec_isa::program::MemImage;
use wec_isa::reg::Reg;
use wec_isa::semantics::{eval_alu, eval_branch, sext};
use wec_isa::{Program, ProgramBuilder};

/// Registers the random operations read and write.
const DATA_REGS: [Reg; 6] = [Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6)];
const BASE: Reg = Reg(7);
const COUNT: Reg = Reg(8);
const TMP: Reg = Reg(9);
const JUMP: Reg = Reg(10);
/// Doublewords in the data array every access stays inside.
const WORDS: u64 = 16;

/// A random loop whose body mixes the scheduler's hard cases.
fn generate(seed: u64) -> (Program, Addr) {
    let mut rng = SplitMix64::new(seed);
    let mut b = ProgramBuilder::new("sched");
    let init: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let data = b.alloc_u64s(&init);
    let out = b.alloc_zeroed_u64s(DATA_REGS.len() as u64);
    let reg = |rng: &mut SplitMix64| DATA_REGS[rng.below(DATA_REGS.len() as u64) as usize];
    let word = |rng: &mut SplitMix64| 8 * rng.below(WORDS) as i32;

    b.la(BASE, data);
    b.li(COUNT, 8 + rng.below(32) as i64);
    for r in DATA_REGS {
        b.li(r, (rng.next_u64() >> 17) as i64);
    }
    // Indices of the `li JUMP` placeholders, patched with label indices.
    let mut jump_patches: Vec<(usize, String)> = Vec::new();
    let mut labels = 0;
    let mut fresh = |what: &str| {
        labels += 1;
        format!("{what}{labels}")
    };
    b.label("loop");
    for _ in 0..6 + rng.below(20) {
        match rng.below(12) {
            0 | 1 => {
                let op = AluOp::ALL[rng.below(AluOp::ALL.len() as u64) as usize];
                let (rd, rs1, rs2) = (reg(&mut rng), reg(&mut rng), reg(&mut rng));
                b.alu(op, rd, rs1, rs2);
            }
            2 => {
                let rd = reg(&mut rng);
                let rs = reg(&mut rng);
                b.addi(rd, rs, rng.below(64) as i32 - 32);
            }
            3 => {
                // Store-to-load forwarding: same address, same size.
                let off = word(&mut rng);
                b.sd(reg(&mut rng), BASE, off);
                b.ld(reg(&mut rng), BASE, off);
            }
            4 => {
                // Partial overlap: the load must wait for the store to commit.
                let off = word(&mut rng);
                let rs = reg(&mut rng);
                if rng.chance(0.5) {
                    b.sw(rs, BASE, off + 4 * rng.below(2) as i32);
                } else {
                    b.sb(rs, BASE, off + rng.below(8) as i32);
                }
                b.ld(reg(&mut rng), BASE, off);
            }
            5 | 6 => {
                let rd = reg(&mut rng);
                let off = word(&mut rng);
                match rng.below(3) {
                    0 => b.ld(rd, BASE, off),
                    1 => b.lw(rd, BASE, off + 4 * rng.below(2) as i32),
                    _ => b.lbu(rd, BASE, off + rng.below(8) as i32),
                };
            }
            7 => {
                // A data-dependent address: loads behind this store cannot
                // pass it until its address is computed.
                let rs = reg(&mut rng);
                b.andi(TMP, rs, 8 * (WORDS as i32 - 1));
                b.add(TMP, TMP, BASE);
                if rng.chance(0.5) {
                    b.sd(reg(&mut rng), TMP, 0);
                } else {
                    b.ld(reg(&mut rng), TMP, 0);
                }
            }
            8 => {
                // Flip-flopping branch on the loop counter.
                let skip = fresh("skip");
                b.andi(TMP, COUNT, 1);
                b.beq(TMP, Reg::ZERO, &skip);
                for _ in 0..1 + rng.below(3) {
                    let rd = reg(&mut rng);
                    b.addi(rd, rd, 1 + rng.below(9) as i32);
                }
                b.label(&skip);
            }
            9 => {
                // Data-dependent branch on a loaded or computed value.
                let skip = fresh("skip");
                let cond = BranchCond::ALL[rng.below(BranchCond::ALL.len() as u64) as usize];
                b.branch(cond, reg(&mut rng), reg(&mut rng), &skip);
                let rd = reg(&mut rng);
                b.xor(rd, rd, reg(&mut rng));
                b.label(&skip);
            }
            10 => {
                // Computed jr whose target alternates between two blocks.
                let (odd, even, join) = (fresh("odd"), fresh("even"), fresh("join"));
                jump_patches.push((b.here() as usize, odd.clone()));
                b.li(JUMP, 0);
                b.andi(TMP, COUNT, 1);
                let keep = fresh("keep");
                b.bne(TMP, Reg::ZERO, &keep);
                jump_patches.push((b.here() as usize, even.clone()));
                b.li(JUMP, 0);
                b.label(&keep);
                b.jr(JUMP);
                b.label(&odd);
                let rd = reg(&mut rng);
                b.addi(rd, rd, 3);
                b.j(&join);
                b.label(&even);
                let rd = reg(&mut rng);
                b.slli(rd, rd, 1);
                b.label(&join);
            }
            _ => {
                b.jal(Reg::RA, "leaf");
            }
        }
    }
    b.addi(COUNT, COUNT, -1);
    b.bne(COUNT, Reg::ZERO, "loop");
    b.la(BASE, out);
    for (i, r) in DATA_REGS.into_iter().enumerate() {
        b.sd(r, BASE, 8 * i as i32);
    }
    b.halt();
    b.label("leaf");
    let rd = reg(&mut rng);
    b.alu(AluOp::Add, rd, rd, reg(&mut rng));
    b.jr(Reg::RA);

    let mut program = b.build().unwrap();
    for (at, label) in jump_patches {
        let target = program.label(&label).unwrap() as i64;
        program.text[at] = Inst::Li {
            rd: JUMP,
            imm: target,
        };
    }
    (program, out)
}

/// Sequential reference semantics for the instructions [`generate`] emits.
fn interpret(program: &Program) -> MemImage {
    let mut mem = program.data.clone();
    let mut r = [0u64; 32];
    let mut pc = program.entry;
    for _ in 0..1_000_000 {
        fn write(r: &mut [u64; 32], rd: Reg, v: u64) {
            if !rd.is_zero() {
                r[rd.index()] = v;
            }
        }
        let inst = program.text[pc as usize];
        let mut next = pc + 1;
        match inst {
            Inst::Li { rd, imm } => write(&mut r, rd, imm as u64),
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = eval_alu(op, r[rs1.index()], r[rs2.index()]);
                write(&mut r, rd, v)
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = eval_alu(op, r[rs1.index()], imm as i64 as u64);
                write(&mut r, rd, v)
            }
            Inst::Load {
                kind,
                rd,
                base,
                off,
            } => {
                let addr = Addr(r[base.index()].wrapping_add(off as i64 as u64));
                let raw = mem.read(addr, inst.mem_bytes().unwrap()).unwrap();
                let v = match kind {
                    LoadKind::W => sext(raw, 32),
                    _ => raw,
                };
                write(&mut r, rd, v)
            }
            Inst::Store { rs, base, off, .. } => {
                let addr = Addr(r[base.index()].wrapping_add(off as i64 as u64));
                mem.write(addr, inst.mem_bytes().unwrap(), r[rs.index()])
                    .unwrap();
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if eval_branch(cond, r[rs1.index()], r[rs2.index()]) {
                    next = target;
                }
            }
            Inst::Jump { target } => next = target,
            Inst::Jal { rd, target } => {
                write(&mut r, rd, pc as u64 + 1);
                next = target;
            }
            Inst::Jr { rs } => next = r[rs.index()] as u32,
            Inst::Halt => return mem,
            other => panic!("generator emitted {other:?}"),
        }
        pc = next;
    }
    panic!("reference interpreter ran away");
}

/// A parked span being ticked: its first and last cycle, the parking
/// report, and the core's fingerprint and counters before the span.
struct Span {
    first: u64,
    last: u64,
    parked: Parked,
    fingerprint: QuietCore,
    stats: CoreStats,
}

/// Run `program` to `halt`, checking the scheduler after every tick and
/// every parked span as it is ticked.  Also returns how many parked cycles
/// were checked.
fn run_checked(
    program: &Program,
    cfg: CoreConfig,
    load_latency: u64,
) -> Result<(MockEnv, u64), String> {
    let mut core = Core::new(cfg, Arc::new(program.clone()));
    let mut env = MockEnv::new(program.data.clone());
    env.load_latency = load_latency;
    core.start(program.entry, Cycle(0));
    let mut cycle = 0u64;
    let mut span: Option<Span> = None;
    let mut parked_cycles = 0;
    while core.is_running() && !env.halted {
        core.tick(&mut env, Cycle(cycle));
        core.check_scheduler()
            .map_err(|e| format!("cycle {cycle}: {e}"))?;
        if let Some(s) = &span {
            let mut want = s.stats.clone();
            s.parked.bump(&mut want, cycle - s.first + 1);
            let fingerprint = core.quiet_fingerprint();
            if fingerprint != s.fingerprint {
                return Err(format!(
                    "cycle {cycle}, parked {:?}: state changed\nbefore {:?}\nnow    {fingerprint:?}",
                    s.parked, s.fingerprint
                ));
            }
            if core.stats != want {
                return Err(format!(
                    "cycle {cycle}, parked {:?}: counters\npredicted {want:?}\ngot       {:?}",
                    s.parked, core.stats
                ));
            }
            parked_cycles += 1;
            if cycle == s.last {
                span = None;
            }
        } else if let Some(parked) = core.parked(Cycle(cycle)) {
            span = Some(Span {
                first: cycle + 1,
                last: parked.wake.0 - 1,
                parked,
                fingerprint: core.quiet_fingerprint(),
                stats: core.stats.clone(),
            });
        }
        cycle += 1;
        if cycle > 1_000_000 {
            return Err("runaway program".into());
        }
    }
    Ok((env, parked_cycles))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scheduler_invariants_hold_and_memory_matches(
        seed in any::<u64>(),
        load_latency in prop_oneof![Just(1u64), Just(2u64), Just(12u64), Just(40u64)],
    ) {
        let (program, out) = generate(seed);
        let want = interpret(&program);
        for width in [1u32, 2, 8] {
            for wrong_path_loads in [false, true] {
                let mut cfg = CoreConfig::with_width(width);
                cfg.wrong_path_loads = wrong_path_loads;
                let (env, _) = run_checked(&program, cfg, load_latency)
                    .map_err(|e| format!("width {width}, wrong-path {wrong_path_loads}: {e}"))?;
                for i in 0..DATA_REGS.len() as u64 {
                    prop_assert_eq!(
                        env.mem.read_u64(out + 8 * i).unwrap(),
                        want.read_u64(out + 8 * i).unwrap(),
                        "register r{} at width {}, wrong-path {}", i + 1, width, wrong_path_loads
                    );
                }
                prop_assert_eq!(
                    env.mem.checksum(),
                    want.checksum(),
                    "memory at width {}, wrong-path {}", width, wrong_path_loads
                );
            }
        }
    }
}

/// The parked-span check is not vacuous: with 40-cycle loads, the cores of
/// every width park, and their spans are ticked and checked.
#[test]
fn parked_spans_are_checked() {
    for width in [1u32, 2, 8] {
        let checked: u64 = (0..8)
            .map(|seed| {
                let (program, _) = generate(seed);
                run_checked(&program, CoreConfig::with_width(width), 40)
                    .unwrap_or_else(|e| panic!("seed {seed}, width {width}: {e}"))
                    .1
            })
            .sum();
        assert!(checked > 0, "width {width}: no parked cycle checked");
    }
}
