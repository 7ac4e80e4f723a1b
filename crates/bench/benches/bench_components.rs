//! Microbenchmarks of the simulator's own building blocks — how fast the
//! simulator simulates (host-side performance, not simulated cycles).

use criterion::{criterion_group, criterion_main, Criterion};
use wec_common::ids::{Addr, Cycle};
use wec_common::SplitMix64;
use wec_core::config::ProcPreset;
use wec_core::dpath::{DataPath, DataPathConfig, SideKind};
use wec_core::machine::Machine;
use wec_cpu::bpred::{Bimodal, Btb};
use wec_isa::program::MemImage;
use wec_isa::reg::Reg;
use wec_isa::ProgramBuilder;
use wec_mem::l2::{L2Config, SharedL2};
use wec_mem::stats::AccessKind;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    group.bench_function("dpath wec access (hit-heavy mix)", |b| {
        let mut dp = DataPath::new(DataPathConfig::paper_default(SideKind::Wec)).unwrap();
        let mut l2 = SharedL2::new(L2Config::default()).unwrap();
        let mut rng = SplitMix64::new(1);
        let mut now = Cycle(0);
        b.iter(|| {
            now += 1;
            let addr = Addr(rng.below(64 * 1024) & !7);
            let kind = if rng.chance(0.1) {
                AccessKind::WrongPathLoad
            } else {
                AccessKind::CorrectLoad
            };
            dp.access(addr, kind, 0x40, now, &mut l2)
        })
    });

    group.bench_function("bimodal predict+update", |b| {
        let mut p = Bimodal::new(2048);
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(13);
            let t = p.predict(pc);
            p.update(pc, !t);
            t
        })
    });

    group.bench_function("btb lookup+update", |b| {
        let mut btb = Btb::new(1024, 4);
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(7);
            btb.update(pc, pc + 1);
            btb.lookup(pc)
        })
    });

    group.bench_function("memimage read_u64", |b| {
        let mut m = MemImage::new();
        m.alloc(Addr(0), 1 << 20);
        let mut rng = SplitMix64::new(2);
        b.iter(|| m.read_u64(Addr(rng.below(1 << 20) & !7)).unwrap())
    });

    // Whole-machine throughput: simulated cycles per host second on a
    // simple kernel (reported as time per 10k simulated cycles).
    group.bench_function("machine: 10k cycles of a loop kernel", |b| {
        let mut p = ProgramBuilder::new("spin");
        let arr = p.alloc_zeroed_u64s(1024);
        p.la(Reg(1), arr);
        p.li(Reg(2), 1_000_000);
        p.label("loop");
        p.andi(Reg(3), Reg(2), 1023);
        p.slli(Reg(3), Reg(3), 3);
        p.add(Reg(3), Reg(1), Reg(3));
        p.ld(Reg(4), Reg(3), 0);
        p.addi(Reg(4), Reg(4), 1);
        p.sd(Reg(4), Reg(3), 0);
        p.addi(Reg(2), Reg(2), -1);
        p.bne(Reg(2), Reg::ZERO, "loop");
        p.halt();
        let prog = p.build().unwrap();
        b.iter(|| {
            let mut cfg = ProcPreset::WthWpWec.machine(2);
            cfg.max_cycles = 10_000;
            let mut m = Machine::new(cfg, &prog).unwrap();
            // Expected to hit the limit; we are timing simulation speed.
            let _ = m.run();
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
