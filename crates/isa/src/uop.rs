//! Micro-ops: the pre-decoded record every pipeline walks, and macro-op
//! cracking into it.
//!
//! The out-of-order main core renames and schedules *micro-ops*; the decoder
//! cracks each architectural [`Instruction`] into between one and
//! [`MAX_UOPS_PER_INSN`] [`PreUop`]s. A micro-op's index within its macro-op
//! is its position in the cracked slice, and the last one retires the
//! macro-op: the load-store log (paper §IV-D) must always start a checker at
//! a macro-op boundary. The `k`-th micro-op of a memory macro-op makes its
//! `k`-th access, at the address [`Instruction::mem_operand`] describes.

use crate::insn::{AluOp, Instruction};
use crate::reg::{FReg, Reg};

/// Maximum number of micro-ops a single macro-op can crack into.
///
/// The partitioned load-store log uses this to guarantee a macro-op's
/// accesses never straddle a segment boundary (§IV-D suggests "start filling
/// a new log segment whenever there are fewer free entries in the current
/// segment than required for the largest possible macro-op" as one option).
pub const MAX_UOPS_PER_INSN: usize = 2;

/// Scoreboard-slot value meaning "no register": see [`PreUop::srcs`].
pub const NO_REG_SLOT: u8 = u8::MAX;

/// Static functional-unit / latency class of a micro-op.
///
/// One flat discriminant in place of the nested instruction / [`AluOp`] /
/// `FpuOp` matches the hot loops would otherwise repeat per dynamic
/// instruction: the out-of-order core's dispatch and the checker's latency
/// lookup both switch on this single byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UopClass {
    /// Pipelined integer ALU op (add, logic, shifts, compares).
    IntAlu = 0,
    /// Integer multiply (unpipelined multiplier occupancy).
    Mul,
    /// Integer divide / remainder (unpipelined divider occupancy).
    Div,
    /// Pipelined floating-point ALU op.
    FpAlu,
    /// Floating-point divide (unpipelined).
    FpDiv,
    /// Fused multiply-add.
    Fma,
    /// Floating-point square root (unpipelined).
    FSqrt,
    /// Register move / conversion between int and fp files.
    FMov,
    /// Conditional branch.
    Branch,
    /// Unconditional direct jump (`jal`).
    Jump,
    /// Indirect jump (`jalr`).
    JumpReg,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Non-deterministic cycle-counter read.
    RdCycle,
    /// No-op.
    Nop,
    /// Halt.
    Halt,
}

/// Number of [`UopClass`] discriminants (sized for latency lookup tables).
pub const N_UOP_CLASSES: usize = 16;

/// One micro-op of the pre-decoded superinstruction stream.
///
/// Everything the timing loops would otherwise re-derive per dynamic
/// micro-op — unit class and flat scoreboard slots of the source/destination
/// registers (`0..32` integer, `32..64` floating-point, [`NO_REG_SLOT`]
/// absent) — resolved once, by [`crack`], at program construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreUop {
    /// Functional-unit / latency class.
    pub class: UopClass,
    /// Source registers as flat scoreboard slots. A store's data register
    /// is `srcs[1]`; a memory micro-op's base register is `srcs[0]`.
    pub srcs: [u8; 3],
    /// Destination register as a flat scoreboard slot.
    pub dst: u8,
}

/// Selector for the int↔float register moves and conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FMovKind {
    /// Raw bits, integer → FP register file.
    BitsToFp,
    /// Raw bits, FP → integer register file.
    BitsToInt,
    /// Signed integer → binary64 conversion.
    CvtToFp,
    /// binary64 → signed integer conversion (round toward zero, saturating).
    CvtToInt,
}

impl FMovKind {
    /// Applies the move/conversion to a raw 64-bit value.
    pub fn apply(self, v: u64) -> u64 {
        match self {
            FMovKind::BitsToFp | FMovKind::BitsToInt => v,
            FMovKind::CvtToFp => (v as i64 as f64).to_bits(),
            FMovKind::CvtToInt => {
                let f = f64::from_bits(v);
                if f.is_nan() {
                    0
                } else if f >= i64::MAX as f64 {
                    i64::MAX as u64
                } else if f <= i64::MIN as f64 {
                    i64::MIN as u64
                } else {
                    f as i64 as u64
                }
            }
        }
    }
}

/// Scoreboard slot of an integer register. `x0` is hardwired zero, so it
/// is no slot at all: that removes a false dependency in the schedulers.
fn x(r: Reg) -> u8 {
    if r == Reg::X0 {
        NO_REG_SLOT
    } else {
        r.index() as u8
    }
}

/// Scoreboard slot of a floating-point register.
fn f(r: FReg) -> u8 {
    32 + r.index() as u8
}

/// Cracks an architectural instruction into its micro-ops.
///
/// The result has between 1 and [`MAX_UOPS_PER_INSN`] entries, in program
/// order; the last retires the macro-op.
pub fn crack(insn: &Instruction) -> Vec<PreUop> {
    use Instruction as I;
    use UopClass as C;
    const NONE: u8 = NO_REG_SLOT;
    let uop = |class, srcs, dst| PreUop { class, srcs, dst };
    let one = |class, srcs, dst| vec![uop(class, srcs, dst)];
    let alu = |op: AluOp| {
        if matches!(op, AluOp::Div | AluOp::Rem) {
            C::Div
        } else if op.is_mul_div() {
            C::Mul
        } else {
            C::IntAlu
        }
    };
    match *insn {
        I::Op { op, rd, rs1, rs2 } => one(alu(op), [x(rs1), x(rs2), NONE], x(rd)),
        I::OpImm { op, rd, rs1, .. } => one(alu(op), [x(rs1), NONE, NONE], x(rd)),
        I::Load { rd, rs1, .. } => one(C::Load, [x(rs1), NONE, NONE], x(rd)),
        I::Store { rs2, rs1, .. } => one(C::Store, [x(rs1), x(rs2), NONE], NONE),
        I::Ldp { rd1, rd2, rs1, .. } => vec![
            uop(C::Load, [x(rs1), NONE, NONE], x(rd1)),
            uop(C::Load, [x(rs1), NONE, NONE], x(rd2)),
        ],
        I::Stp { rs2a, rs2b, rs1, .. } => vec![
            uop(C::Store, [x(rs1), x(rs2a), NONE], NONE),
            uop(C::Store, [x(rs1), x(rs2b), NONE], NONE),
        ],
        I::FLoad { fd, rs1, .. } => one(C::Load, [x(rs1), NONE, NONE], f(fd)),
        I::FStore { fs2, rs1, .. } => one(C::Store, [x(rs1), f(fs2), NONE], NONE),
        I::Branch { rs1, rs2, .. } => one(C::Branch, [x(rs1), x(rs2), NONE], NONE),
        I::Jal { rd, .. } => one(C::Jump, [NONE; 3], x(rd)),
        I::Jalr { rd, rs1, .. } => one(C::JumpReg, [x(rs1), NONE, NONE], x(rd)),
        I::FOp { op, fd, fs1, fs2 } => {
            let class = if op.is_div() { C::FpDiv } else { C::FpAlu };
            one(class, [f(fs1), f(fs2), NONE], f(fd))
        }
        I::Fma { fd, fs1, fs2, fs3 } => one(C::Fma, [f(fs1), f(fs2), f(fs3)], f(fd)),
        I::FSqrt { fd, fs1 } => one(C::FSqrt, [f(fs1), NONE, NONE], f(fd)),
        I::FMovFromInt { fd, rs1 } | I::FCvtFromInt { fd, rs1 } => {
            one(C::FMov, [x(rs1), NONE, NONE], f(fd))
        }
        I::FMovToInt { rd, fs1 } | I::FCvtToInt { rd, fs1 } => {
            one(C::FMov, [f(fs1), NONE, NONE], x(rd))
        }
        I::RdCycle { rd } => one(C::RdCycle, [NONE; 3], x(rd)),
        I::Nop => one(C::Nop, [NONE; 3], NONE),
        I::Halt => one(C::Halt, [NONE; 3], NONE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::FpuOp;

    #[test]
    fn single_uop_instructions() {
        let uops =
            crack(&Instruction::Op { op: AluOp::Add, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 });
        assert_eq!(uops, [PreUop { class: UopClass::IntAlu, srcs: [2, 3, NO_REG_SLOT], dst: 1 }]);
        let uops =
            crack(&Instruction::FOp { op: FpuOp::Div, fd: FReg::F1, fs1: FReg::F2, fs2: FReg::F3 });
        assert_eq!(uops, [PreUop { class: UopClass::FpDiv, srcs: [34, 35, NO_REG_SLOT], dst: 33 }]);
    }

    #[test]
    fn ldp_cracks_into_two_loads() {
        let uops = crack(&Instruction::Ldp { rd1: Reg::X1, rd2: Reg::X2, rs1: Reg::X3, imm: 16 });
        assert_eq!(uops.len(), 2);
        assert!(uops.iter().all(|u| u.class == UopClass::Load && u.srcs[0] == 3));
        assert_eq!((uops[0].dst, uops[1].dst), (1, 2));
    }

    #[test]
    fn stp_cracks_into_two_stores() {
        let uops = crack(&Instruction::Stp { rs2a: Reg::X1, rs2b: Reg::X2, rs1: Reg::X3, imm: 0 });
        assert_eq!(uops.len(), 2);
        assert!(uops.iter().all(|u| u.class == UopClass::Store && u.dst == NO_REG_SLOT));
        // The data registers sit in srcs[1], where store issue reads them.
        assert_eq!((uops[0].srcs[1], uops[1].srcs[1]), (1, 2));
    }

    #[test]
    fn x0_is_not_a_dependency() {
        let uops = crack(&Instruction::OpImm { op: AluOp::Add, rd: Reg::X0, rs1: Reg::X0, imm: 1 });
        assert_eq!(uops[0].srcs, [NO_REG_SLOT; 3]);
        assert_eq!(uops[0].dst, NO_REG_SLOT);
        let uops = crack(&Instruction::FStore { fs2: FReg::F0, rs1: Reg::X0, imm: 8 });
        assert_eq!(uops[0].srcs, [NO_REG_SLOT, 32, NO_REG_SLOT], "f0 is a register");
    }

    #[test]
    fn max_uops_bound_holds() {
        // Every instruction kind must respect MAX_UOPS_PER_INSN — the
        // load-store log's boundary rule depends on it.
        let samples = [
            Instruction::Nop,
            Instruction::Halt,
            Instruction::Ldp { rd1: Reg::X1, rd2: Reg::X2, rs1: Reg::X3, imm: 0 },
            Instruction::Stp { rs2a: Reg::X1, rs2b: Reg::X2, rs1: Reg::X3, imm: 0 },
            Instruction::Fma { fd: FReg::F0, fs1: FReg::F1, fs2: FReg::F2, fs3: FReg::F3 },
        ];
        for s in &samples {
            assert!((1..=MAX_UOPS_PER_INSN).contains(&crack(s).len()));
        }
    }

    #[test]
    fn fmov_conversions() {
        assert_eq!(FMovKind::CvtToFp.apply((-3i64) as u64), (-3.0f64).to_bits());
        assert_eq!(FMovKind::CvtToInt.apply(2.9f64.to_bits()), 2);
        assert_eq!(FMovKind::CvtToInt.apply((-2.9f64).to_bits()), (-2i64) as u64);
        assert_eq!(FMovKind::CvtToInt.apply(f64::NAN.to_bits()), 0);
        assert_eq!(FMovKind::CvtToInt.apply(f64::INFINITY.to_bits()), i64::MAX as u64);
        assert_eq!(FMovKind::BitsToFp.apply(0xdead_beef), 0xdead_beef);
    }

    #[test]
    fn rdcycle_is_nondet() {
        let uops = crack(&Instruction::RdCycle { rd: Reg::X1 });
        assert_eq!(uops[0].class, UopClass::RdCycle);
    }
}
