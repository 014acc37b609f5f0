//! Micro-op representation and macro-op cracking.
//!
//! The out-of-order main core renames and schedules *micro-ops*; the decoder
//! cracks each architectural [`Instruction`] into between one and
//! [`MAX_UOPS_PER_INSN`] micro-ops. The load-store log (paper §IV-D) must
//! always start a checker at a macro-op boundary, so every micro-op carries
//! its index within the parent macro-op and a `last` marker.

use crate::insn::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
use crate::reg::{FReg, Reg};

/// Maximum number of micro-ops a single macro-op can crack into.
///
/// The partitioned load-store log uses this to guarantee a macro-op's
/// accesses never straddle a segment boundary (§IV-D suggests "start filling
/// a new log segment whenever there are fewer free entries in the current
/// segment than required for the largest possible macro-op" as one option).
pub const MAX_UOPS_PER_INSN: usize = 2;

/// A source register operand, in either register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcReg {
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Fp(FReg),
}

/// A destination register operand, in either register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DstReg {
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Fp(FReg),
}

/// Kind of memory access performed by a memory micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load; `signed` selects sign- vs zero-extension.
    Load {
        /// Sign-extend the loaded value when true.
        signed: bool,
    },
    /// A store.
    Store,
}

/// The operation a micro-op performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// Integer ALU: `dst = op(src0, src1_or_imm)`.
    IntAlu {
        /// Operation.
        op: AluOp,
        /// Immediate replacing the second source when present.
        imm: Option<i64>,
    },
    /// Memory access; address is `src0 + imm`. For stores the data operand
    /// is `src1`.
    Mem {
        /// Load or store.
        kind: MemKind,
        /// Access width.
        width: MemWidth,
        /// Address offset.
        imm: i64,
        /// Whether the loaded value lands in (or the stored value comes from)
        /// the floating-point register file.
        fp: bool,
    },
    /// Conditional branch; taken target is `pc + offset`.
    Branch {
        /// Condition evaluated on `src0`, `src1`.
        cond: BranchCond,
        /// Byte offset of the taken target relative to the branch PC.
        offset: i64,
    },
    /// Unconditional direct jump (`Jal`): writes link, target `pc + offset`.
    Jump {
        /// Byte offset of the target relative to the jump PC.
        offset: i64,
    },
    /// Indirect jump (`Jalr`): writes link, target `src0 + imm`.
    JumpReg {
        /// Target offset added to `src0`.
        imm: i64,
    },
    /// Floating-point binary ALU operation.
    FpAlu {
        /// Operation.
        op: FpuOp,
    },
    /// Fused multiply-add over three FP sources.
    Fma,
    /// Floating-point square root.
    FSqrt,
    /// Bit-move between register files, or int↔float conversion.
    FMov {
        /// Conversion selector; see [`FMovKind`].
        kind: FMovKind,
    },
    /// Read the cycle counter (non-deterministic; forwarded via the log).
    RdCycle,
    /// No operation.
    Nop,
    /// Program termination.
    Halt,
}

/// Selector for the `FMov` micro-op family.
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

/// A decoded micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// The operation.
    pub kind: UopKind,
    /// Up to three source registers (FMA uses all three).
    pub srcs: [Option<SrcReg>; 3],
    /// Destination register, if any.
    pub dst: Option<DstReg>,
    /// Index of this micro-op within its macro-op (0-based).
    pub uop_index: u8,
    /// Whether this is the last micro-op of its macro-op. Commit of a `last`
    /// micro-op retires the architectural instruction.
    pub last: bool,
}

fn none3() -> [Option<SrcReg>; 3] {
    [None, None, None]
}

fn int_src(r: Reg) -> Option<SrcReg> {
    // x0 is hardwired zero: treating it as "no source" removes a false
    // dependency in the schedulers; readers substitute 0.
    if r == Reg::X0 {
        None
    } else {
        Some(SrcReg::Int(r))
    }
}

fn int_dst(r: Reg) -> Option<DstReg> {
    if r == Reg::X0 {
        None
    } else {
        Some(DstReg::Int(r))
    }
}

/// Cracks an architectural instruction into its micro-ops.
///
/// The result vector has between 1 and [`MAX_UOPS_PER_INSN`] entries; the
/// final entry always has `last == true`.
pub fn crack(insn: &Instruction) -> Vec<MicroOp> {
    use Instruction as I;
    let one = |kind, srcs, dst| vec![MicroOp { kind, srcs, dst, uop_index: 0, last: true }];
    match *insn {
        I::Op { op, rd, rs1, rs2 } => {
            one(UopKind::IntAlu { op, imm: None }, [int_src(rs1), int_src(rs2), None], int_dst(rd))
        }
        I::OpImm { op, rd, rs1, imm } => {
            one(UopKind::IntAlu { op, imm: Some(imm) }, [int_src(rs1), None, None], int_dst(rd))
        }
        I::Load { width, signed, rd, rs1, imm } => one(
            UopKind::Mem { kind: MemKind::Load { signed }, width, imm, fp: false },
            [int_src(rs1), None, None],
            int_dst(rd),
        ),
        I::Store { width, rs2, rs1, imm } => one(
            UopKind::Mem { kind: MemKind::Store, width, imm, fp: false },
            [int_src(rs1), int_src(rs2), None],
            None,
        ),
        I::Ldp { rd1, rd2, rs1, imm } => vec![
            MicroOp {
                kind: UopKind::Mem {
                    kind: MemKind::Load { signed: false },
                    width: MemWidth::D,
                    imm,
                    fp: false,
                },
                srcs: [int_src(rs1), None, None],
                dst: int_dst(rd1),
                uop_index: 0,
                last: false,
            },
            MicroOp {
                kind: UopKind::Mem {
                    kind: MemKind::Load { signed: false },
                    width: MemWidth::D,
                    imm: imm + 8,
                    fp: false,
                },
                srcs: [int_src(rs1), None, None],
                dst: int_dst(rd2),
                uop_index: 1,
                last: true,
            },
        ],
        I::Stp { rs2a, rs2b, rs1, imm } => vec![
            MicroOp {
                kind: UopKind::Mem { kind: MemKind::Store, width: MemWidth::D, imm, fp: false },
                srcs: [int_src(rs1), int_src(rs2a), None],
                dst: None,
                uop_index: 0,
                last: false,
            },
            MicroOp {
                kind: UopKind::Mem {
                    kind: MemKind::Store,
                    width: MemWidth::D,
                    imm: imm + 8,
                    fp: false,
                },
                srcs: [int_src(rs1), int_src(rs2b), None],
                dst: None,
                uop_index: 1,
                last: true,
            },
        ],
        I::FLoad { fd, rs1, imm } => one(
            UopKind::Mem {
                kind: MemKind::Load { signed: false },
                width: MemWidth::D,
                imm,
                fp: true,
            },
            [int_src(rs1), None, None],
            Some(DstReg::Fp(fd)),
        ),
        I::FStore { fs2, rs1, imm } => one(
            UopKind::Mem { kind: MemKind::Store, width: MemWidth::D, imm, fp: true },
            [int_src(rs1), Some(SrcReg::Fp(fs2)), None],
            None,
        ),
        I::Branch { cond, rs1, rs2, offset } => {
            one(UopKind::Branch { cond, offset }, [int_src(rs1), int_src(rs2), None], None)
        }
        I::Jal { rd, offset } => one(UopKind::Jump { offset }, none3(), int_dst(rd)),
        I::Jalr { rd, rs1, imm } => {
            one(UopKind::JumpReg { imm }, [int_src(rs1), None, None], int_dst(rd))
        }
        I::FOp { op, fd, fs1, fs2 } => one(
            UopKind::FpAlu { op },
            [Some(SrcReg::Fp(fs1)), Some(SrcReg::Fp(fs2)), None],
            Some(DstReg::Fp(fd)),
        ),
        I::Fma { fd, fs1, fs2, fs3 } => one(
            UopKind::Fma,
            [Some(SrcReg::Fp(fs1)), Some(SrcReg::Fp(fs2)), Some(SrcReg::Fp(fs3))],
            Some(DstReg::Fp(fd)),
        ),
        I::FSqrt { fd, fs1 } => {
            one(UopKind::FSqrt, [Some(SrcReg::Fp(fs1)), None, None], Some(DstReg::Fp(fd)))
        }
        I::FMovFromInt { fd, rs1 } => one(
            UopKind::FMov { kind: FMovKind::BitsToFp },
            [int_src(rs1), None, None],
            Some(DstReg::Fp(fd)),
        ),
        I::FMovToInt { rd, fs1 } => one(
            UopKind::FMov { kind: FMovKind::BitsToInt },
            [Some(SrcReg::Fp(fs1)), None, None],
            int_dst(rd),
        ),
        I::FCvtFromInt { fd, rs1 } => one(
            UopKind::FMov { kind: FMovKind::CvtToFp },
            [int_src(rs1), None, None],
            Some(DstReg::Fp(fd)),
        ),
        I::FCvtToInt { rd, fs1 } => one(
            UopKind::FMov { kind: FMovKind::CvtToInt },
            [Some(SrcReg::Fp(fs1)), None, None],
            int_dst(rd),
        ),
        I::RdCycle { rd } => one(UopKind::RdCycle, none3(), int_dst(rd)),
        I::Nop => one(UopKind::Nop, none3(), None),
        I::Halt => one(UopKind::Halt, none3(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_uop_instructions() {
        let uops =
            crack(&Instruction::Op { op: AluOp::Add, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 });
        assert_eq!(uops.len(), 1);
        assert!(uops[0].last);
        assert_eq!(uops[0].dst, Some(DstReg::Int(Reg::X1)));
    }

    #[test]
    fn ldp_cracks_into_two_loads() {
        let uops = crack(&Instruction::Ldp { rd1: Reg::X1, rd2: Reg::X2, rs1: Reg::X3, imm: 16 });
        assert_eq!(uops.len(), 2);
        assert!(uops
            .iter()
            .all(|u| matches!(u.kind, UopKind::Mem { kind: MemKind::Load { .. }, .. })));
        assert!(!uops[0].last);
        assert!(uops[1].last);
        assert_eq!(uops[0].uop_index, 0);
        assert_eq!(uops[1].uop_index, 1);
        // Second load is at +8.
        match (uops[0].kind, uops[1].kind) {
            (UopKind::Mem { imm: a, .. }, UopKind::Mem { imm: b, .. }) => {
                assert_eq!(b - a, 8);
            }
            _ => panic!("expected mem uops"),
        }
    }

    #[test]
    fn stp_cracks_into_two_stores() {
        let uops = crack(&Instruction::Stp { rs2a: Reg::X1, rs2b: Reg::X2, rs1: Reg::X3, imm: 0 });
        assert_eq!(uops.len(), 2);
        assert!(uops.iter().all(|u| matches!(u.kind, UopKind::Mem { kind: MemKind::Store, .. })));
    }

    #[test]
    fn x0_is_not_a_dependency() {
        let uops = crack(&Instruction::OpImm { op: AluOp::Add, rd: Reg::X0, rs1: Reg::X0, imm: 1 });
        assert_eq!(uops[0].srcs, [None, None, None]);
        assert_eq!(uops[0].dst, None);
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
            assert!(crack(s).len() <= MAX_UOPS_PER_INSN);
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
        assert_eq!(uops[0].kind, UopKind::RdCycle);
    }
}
