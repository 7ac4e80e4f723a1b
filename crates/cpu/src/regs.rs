//! Architectural register state and the register alias table.
//!
//! Renaming is ROB-based (SimpleScalar's RUU style): the alias table maps
//! each architectural register to the ROB entry that will produce it, by
//! its rid (window index, see [`crate::rob`]); values live in ROB entries
//! until commit writes them here.  Floating-point values are stored as raw
//! `f64` bit patterns so every dataflow path is a plain `u64`.

use wec_isa::reg::{FReg, Reg, NUM_FREGS, NUM_IREGS};

/// Committed register state.
#[derive(Clone, Debug)]
pub struct ArchRegs {
    i: [u64; NUM_IREGS],
    f: [u64; NUM_FREGS],
}

impl Default for ArchRegs {
    fn default() -> Self {
        ArchRegs {
            i: [0; NUM_IREGS],
            f: [0; NUM_FREGS],
        }
    }
}

impl ArchRegs {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn read_i(&self, r: Reg) -> u64 {
        self.i[r.index()]
    }

    /// Writes to `r0` are dropped (hardwired zero).
    #[inline]
    pub fn write_i(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.i[r.index()] = v;
        }
    }

    #[inline]
    pub fn read_f_bits(&self, r: FReg) -> u64 {
        self.f[r.index()]
    }

    #[inline]
    pub fn write_f_bits(&mut self, r: FReg, v: u64) {
        self.f[r.index()] = v;
    }

    #[inline]
    pub fn read_f(&self, r: FReg) -> f64 {
        f64::from_bits(self.f[r.index()])
    }

    #[inline]
    pub fn write_f(&mut self, r: FReg, v: f64) {
        self.f[r.index()] = v.to_bits();
    }

    /// Copy the integer registers selected by `mask` from `src` (the fork
    /// register transfer; bit i selects rI).
    pub fn copy_masked_from(&mut self, src: &ArchRegs, mask: u32) {
        for bit in 0..NUM_IREGS {
            if mask & (1 << bit) != 0 {
                self.i[bit] = src.i[bit];
            }
        }
        self.i[0] = 0;
    }
}

/// A renamed source slot: either architectural (use `ArchRegs` at dispatch)
/// or a ROB producer, identified by its rid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mapping {
    /// No in-flight producer; read the architectural file.
    Arch,
    /// Produced by the ROB entry with this rid.  A rid below the ROB head
    /// has retired (and is never reused): read the architectural file.
    Rob(u64),
}

/// Register alias table: one slot per integer register and one per FP
/// register.  Recovery takes no snapshot: each ROB entry keeps the mapping
/// its destination replaced (what [`set_i`](Self::set_i) returns), and a
/// squash puts them back youngest first.
#[derive(Debug)]
pub struct Rat {
    slots: [Mapping; NUM_IREGS + NUM_FREGS],
}

impl Default for Rat {
    fn default() -> Self {
        Rat {
            slots: [Mapping::Arch; NUM_IREGS + NUM_FREGS],
        }
    }
}

impl Rat {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn islot(r: Reg) -> usize {
        r.index()
    }

    #[inline]
    fn fslot(r: FReg) -> usize {
        NUM_IREGS + r.index()
    }

    pub fn lookup_i(&self, r: Reg) -> Mapping {
        if r.is_zero() {
            Mapping::Arch
        } else {
            self.slots[Self::islot(r)]
        }
    }

    pub fn lookup_f(&self, r: FReg) -> Mapping {
        self.slots[Self::fslot(r)]
    }

    /// Rename `r` to the ROB entry `rid`; returns the mapping it replaces.
    pub fn set_i(&mut self, r: Reg, rid: u64) -> Mapping {
        if r.is_zero() {
            return Mapping::Arch;
        }
        std::mem::replace(&mut self.slots[Self::islot(r)], Mapping::Rob(rid))
    }

    /// See [`set_i`](Self::set_i).
    pub fn set_f(&mut self, r: FReg, rid: u64) -> Mapping {
        std::mem::replace(&mut self.slots[Self::fslot(r)], Mapping::Rob(rid))
    }

    /// Undo a rename of `r` (misprediction recovery): put back the mapping
    /// [`set_i`](Self::set_i) replaced.
    pub(crate) fn restore_i(&mut self, r: Reg, prev: Mapping) {
        self.slots[Self::islot(r)] = prev;
    }

    /// See [`restore_i`](Self::restore_i).
    pub(crate) fn restore_f(&mut self, r: FReg, prev: Mapping) {
        self.slots[Self::fslot(r)] = prev;
    }

    /// At commit of the entry `rid`, which renamed `r`: if the slot still
    /// names it, it is the youngest producer — future reads go to the
    /// architectural file.
    #[inline]
    pub fn retire_i(&mut self, r: Reg, rid: u64) {
        let s = &mut self.slots[Self::islot(r)];
        if *s == Mapping::Rob(rid) {
            *s = Mapping::Arch;
        }
    }

    /// See [`retire_i`](Self::retire_i).
    #[inline]
    pub fn retire_f(&mut self, r: FReg, rid: u64) {
        let s = &mut self.slots[Self::fslot(r)];
        if *s == Mapping::Rob(rid) {
            *s = Mapping::Arch;
        }
    }

    /// Drop every mapping (full pipeline flush).
    pub fn clear(&mut self) {
        self.slots = [Mapping::Arch; NUM_IREGS + NUM_FREGS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let mut a = ArchRegs::new();
        a.write_i(Reg::ZERO, 42);
        assert_eq!(a.read_i(Reg::ZERO), 0);
        a.write_i(Reg(1), 42);
        assert_eq!(a.read_i(Reg(1)), 42);
    }

    #[test]
    fn f64_roundtrip_through_bits() {
        let mut a = ArchRegs::new();
        a.write_f(FReg(3), -0.5);
        assert_eq!(a.read_f(FReg(3)), -0.5);
        assert_eq!(a.read_f_bits(FReg(3)), (-0.5f64).to_bits());
    }

    #[test]
    fn masked_copy_models_fork_transfer() {
        let mut src = ArchRegs::new();
        src.write_i(Reg(1), 11);
        src.write_i(Reg(2), 22);
        src.write_i(Reg(3), 33);
        let mut dst = ArchRegs::new();
        dst.write_i(Reg(2), 99);
        dst.copy_masked_from(&src, (1 << 1) | (1 << 3));
        assert_eq!(dst.read_i(Reg(1)), 11);
        assert_eq!(dst.read_i(Reg(2)), 99); // not in mask
        assert_eq!(dst.read_i(Reg(3)), 33);
    }

    #[test]
    fn rat_rename_and_retire() {
        let mut rat = Rat::new();
        assert_eq!(rat.lookup_i(Reg(5)), Mapping::Arch);
        rat.set_i(Reg(5), 7);
        assert_eq!(rat.lookup_i(Reg(5)), Mapping::Rob(7));
        // A younger producer supersedes.
        assert_eq!(rat.set_i(Reg(5), 9), Mapping::Rob(7));
        rat.retire_i(Reg(5), 7); // old producer retires: mapping unchanged
        assert_eq!(rat.lookup_i(Reg(5)), Mapping::Rob(9));
        rat.retire_i(Reg(5), 9);
        assert_eq!(rat.lookup_i(Reg(5)), Mapping::Arch);
    }

    #[test]
    fn rat_zero_reg_never_renamed() {
        let mut rat = Rat::new();
        rat.set_i(Reg::ZERO, 3);
        assert_eq!(rat.lookup_i(Reg::ZERO), Mapping::Arch);
    }

    #[test]
    fn rat_int_and_fp_slots_independent() {
        let mut rat = Rat::new();
        rat.set_i(Reg(4), 1);
        rat.set_f(FReg(4), 2);
        assert_eq!(rat.lookup_i(Reg(4)), Mapping::Rob(1));
        assert_eq!(rat.lookup_f(FReg(4)), Mapping::Rob(2));
    }

    #[test]
    fn checkpoint_restore() {
        // The table at the branch is recovered by putting back, youngest
        // first, what each later rename replaced.
        let mut rat = Rat::new();
        rat.set_i(Reg(1), 1);
        let p2 = rat.set_i(Reg(2), 2);
        let p1 = rat.set_i(Reg(1), 3);
        let pf = rat.set_f(FReg(2), 4);
        rat.restore_f(FReg(2), pf);
        rat.restore_i(Reg(1), p1);
        rat.restore_i(Reg(2), p2);
        assert_eq!(rat.lookup_i(Reg(1)), Mapping::Rob(1));
        assert_eq!(rat.lookup_i(Reg(2)), Mapping::Arch);
        assert_eq!(rat.lookup_f(FReg(2)), Mapping::Arch);
    }
}
