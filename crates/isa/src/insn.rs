//! Architectural instruction (macro-op) definitions.

use crate::reg::{FReg, Reg};
use std::fmt;

/// Integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Two's-complement addition (wrapping).
    Add,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Sll,
    /// Logical shift right (shift amount taken modulo 64).
    Srl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sra,
    /// Low 64 bits of the product.
    Mul,
    /// High 64 bits of the signed×signed product.
    Mulh,
    /// Signed division; division by zero yields all-ones as in RISC-V.
    Div,
    /// Signed remainder; remainder of division by zero yields the dividend.
    Rem,
    /// Set-if-less-than, signed: `rd = (rs1 <s rs2) as u64`.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operands.
    ///
    /// This is the single source of truth for integer semantics: the golden
    /// model, the out-of-order core and the checker cores all call it, so a
    /// fault injected in one copy is *not* silently mirrored in the others.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
        }
    }

    /// Whether this operation uses the (single, long-latency) multiply/divide
    /// functional unit rather than a plain ALU.
    pub fn is_mul_div(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Mulh | AluOp::Div | AluOp::Rem)
    }
}

/// Binary floating-point operation on IEEE-754 binary64 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimum (propagates the non-NaN operand).
    Min,
    /// IEEE maximum (propagates the non-NaN operand).
    Max,
}

impl FpuOp {
    /// Evaluates the operation on two f64 bit patterns, returning a bit
    /// pattern. Operating on bits keeps checkpoint comparison exact.
    pub fn eval_bits(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpuOp::Add => x + y,
            FpuOp::Sub => x - y,
            FpuOp::Mul => x * y,
            FpuOp::Div => x / y,
            FpuOp::Min => x.min(y),
            FpuOp::Max => x.max(y),
        };
        r.to_bits()
    }

    /// Whether this operation uses the long-latency divide path.
    pub fn is_div(self) -> bool {
        matches!(self, FpuOp::Div)
    }
}

/// Branch comparison condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two 64-bit operands.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Truncates `val` to this width (zero-extending the result).
    pub fn truncate(self, val: u64) -> u64 {
        match self {
            MemWidth::B => val & 0xff,
            MemWidth::H => val & 0xffff,
            MemWidth::W => val & 0xffff_ffff,
            MemWidth::D => val,
        }
    }

    /// Sign-extends a value of this width to 64 bits.
    pub fn sign_extend(self, val: u64) -> u64 {
        match self {
            MemWidth::B => val as u8 as i8 as i64 as u64,
            MemWidth::H => val as u16 as i16 as i64 as u64,
            MemWidth::W => val as u32 as i32 as i64 as u64,
            MemWidth::D => val,
        }
    }
}

/// An architectural instruction (macro-op).
///
/// Instructions are stored unencoded: the simulator models *timing* and
/// *dataflow*, not binary encodings, so keeping structured instructions makes
/// every pipeline model simpler without changing any result the paper
/// reports. Each instruction occupies 4 bytes of the read-only text segment
/// for PC arithmetic purposes.
///
/// `Ldp`/`Stp` are deliberate multi-micro-op macro-ops (in the style of Arm's
/// load/store-pair): the paper's load-store log must never split a macro-op
/// across two segments (§IV-D), and these instructions exercise that rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Op {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    OpImm {
        /// Operation to perform.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (full 64-bit range; the simulator does not model
        /// immediate encodings).
        imm: i64,
    },
    /// Integer load: `rd = sext/zext(mem[rs1 + imm])`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Whether to sign-extend the loaded value.
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset.
        imm: i64,
    },
    /// Integer store: `mem[rs1 + imm] = rs2`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset.
        imm: i64,
    },
    /// Load-pair macro-op: `rd1 = mem[rs1+imm]; rd2 = mem[rs1+imm+8]`.
    /// Cracks into two load micro-ops.
    Ldp {
        /// First destination register.
        rd1: Reg,
        /// Second destination register.
        rd2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset of the first doubleword.
        imm: i64,
    },
    /// Store-pair macro-op: `mem[rs1+imm] = rs2a; mem[rs1+imm+8] = rs2b`.
    /// Cracks into two store micro-ops.
    Stp {
        /// First data register.
        rs2a: Reg,
        /// Second data register.
        rs2b: Reg,
        /// Base address register.
        rs1: Reg,
        /// Address offset of the first doubleword.
        imm: i64,
    },
    /// Floating-point load (binary64 only): `fd = mem[rs1 + imm]`.
    FLoad {
        /// Destination register.
        fd: FReg,
        /// Base address register.
        rs1: Reg,
        /// Address offset.
        imm: i64,
    },
    /// Floating-point store (binary64 only): `mem[rs1 + imm] = fs2`.
    FStore {
        /// Data register.
        fs2: FReg,
        /// Base address register.
        rs1: Reg,
        /// Address offset.
        imm: i64,
    },
    /// Conditional branch: `if cond(rs1, rs2) pc += offset`.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First comparison register.
        rs1: Reg,
        /// Second comparison register.
        rs2: Reg,
        /// Byte offset relative to this instruction's PC.
        offset: i64,
    },
    /// Unconditional jump-and-link: `rd = pc + 4; pc += offset`.
    Jal {
        /// Link register (use `x0` for a plain jump).
        rd: Reg,
        /// Byte offset relative to this instruction's PC.
        offset: i64,
    },
    /// Indirect jump-and-link: `rd = pc + 4; pc = (rs1 + imm) & !1`.
    Jalr {
        /// Link register (use `x0` for a plain indirect jump / return).
        rd: Reg,
        /// Target base register.
        rs1: Reg,
        /// Target offset.
        imm: i64,
    },
    /// Binary floating-point operation: `fd = op(fs1, fs2)`.
    FOp {
        /// Operation to perform.
        op: FpuOp,
        /// Destination register.
        fd: FReg,
        /// First source register.
        fs1: FReg,
        /// Second source register.
        fs2: FReg,
    },
    /// Fused multiply-add: `fd = fs1 * fs2 + fs3`.
    Fma {
        /// Destination register.
        fd: FReg,
        /// Multiplicand.
        fs1: FReg,
        /// Multiplier.
        fs2: FReg,
        /// Addend.
        fs3: FReg,
    },
    /// Floating-point square root: `fd = sqrt(fs1)`.
    FSqrt {
        /// Destination register.
        fd: FReg,
        /// Source register.
        fs1: FReg,
    },
    /// Move integer register bits into a floating-point register.
    FMovFromInt {
        /// Destination register.
        fd: FReg,
        /// Source register (raw bits).
        rs1: Reg,
    },
    /// Move floating-point register bits into an integer register.
    FMovToInt {
        /// Destination register (raw bits).
        rd: Reg,
        /// Source register.
        fs1: FReg,
    },
    /// Convert a signed 64-bit integer to binary64.
    FCvtFromInt {
        /// Destination register.
        fd: FReg,
        /// Source register.
        rs1: Reg,
    },
    /// Convert a binary64 value to a signed 64-bit integer (round toward
    /// zero, saturating).
    FCvtToInt {
        /// Destination register.
        rd: Reg,
        /// Source register.
        fs1: FReg,
    },
    /// Read the core's cycle counter: a *non-deterministic* instruction whose
    /// result must be forwarded through the load-store log for checking
    /// (§IV-D: "the results of other non-deterministic instructions are
    /// forwarded in a similar way").
    RdCycle {
        /// Destination register.
        rd: Reg,
    },
    /// No operation.
    Nop,
    /// Stop the program. Commit of this instruction terminates simulation
    /// (after all outstanding checks complete — §IV-H).
    Halt,
}

impl Instruction {
    /// Whether this macro-op is a control-flow instruction.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Branch { .. } | Instruction::Jal { .. } | Instruction::Jalr { .. }
        )
    }

    /// The base register, offset and width of this macro-op's memory
    /// accesses, or `None` if it makes none. Its `k`-th access — the one
    /// its `k`-th micro-op makes — is at `base + imm + 8k`, wrapping.
    pub fn mem_operand(&self) -> Option<(Reg, i64, MemWidth)> {
        use Instruction as I;
        match *self {
            I::Load { width, rs1, imm, .. } | I::Store { width, rs1, imm, .. } => {
                Some((rs1, imm, width))
            }
            I::Ldp { rs1, imm, .. }
            | I::Stp { rs1, imm, .. }
            | I::FLoad { rs1, imm, .. }
            | I::FStore { rs1, imm, .. } => Some((rs1, imm, MemWidth::D)),
            _ => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            Op { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}"),
            OpImm { op, rd, rs1, imm } => write!(f, "{op:?}i {rd}, {rs1}, {imm}"),
            Load { width, signed, rd, rs1, imm } => {
                let s = if *signed { "s" } else { "u" };
                write!(f, "l{width:?}{s} {rd}, {imm}({rs1})")
            }
            Store { width, rs2, rs1, imm } => write!(f, "s{width:?} {rs2}, {imm}({rs1})"),
            Ldp { rd1, rd2, rs1, imm } => write!(f, "ldp {rd1}, {rd2}, {imm}({rs1})"),
            Stp { rs2a, rs2b, rs1, imm } => write!(f, "stp {rs2a}, {rs2b}, {imm}({rs1})"),
            FLoad { fd, rs1, imm } => write!(f, "fld {fd}, {imm}({rs1})"),
            FStore { fs2, rs1, imm } => write!(f, "fsd {fs2}, {imm}({rs1})"),
            Branch { cond, rs1, rs2, offset } => {
                write!(f, "b{cond:?} {rs1}, {rs2}, pc{offset:+}")
            }
            Jal { rd, offset } => write!(f, "jal {rd}, pc{offset:+}"),
            Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {imm}({rs1})"),
            FOp { op, fd, fs1, fs2 } => write!(f, "f{op:?} {fd}, {fs1}, {fs2}"),
            Fma { fd, fs1, fs2, fs3 } => write!(f, "fma {fd}, {fs1}, {fs2}, {fs3}"),
            FSqrt { fd, fs1 } => write!(f, "fsqrt {fd}, {fs1}"),
            FMovFromInt { fd, rs1 } => write!(f, "fmv.d.x {fd}, {rs1}"),
            FMovToInt { rd, fs1 } => write!(f, "fmv.x.d {rd}, {fs1}"),
            FCvtFromInt { fd, rs1 } => write!(f, "fcvt.d.l {fd}, {rs1}"),
            FCvtToInt { rd, fs1 } => write!(f, "fcvt.l.d {rd}, {fs1}"),
            RdCycle { rd } => write!(f, "rdcycle {rd}"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_basic() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), u64::MAX); // -1
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Mul.eval(1 << 40, 1 << 30), 0); // 2^70 wraps to 0
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 65), 2); // 65 & 63 == 1
        assert_eq!(AluOp::Srl.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000_0000_0000, 63), u64::MAX);
    }

    #[test]
    fn alu_div_by_zero_riscv_semantics() {
        assert_eq!(AluOp::Div.eval(42, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(42, 0), 42);
    }

    #[test]
    fn alu_div_overflow() {
        let min = i64::MIN as u64;
        assert_eq!(AluOp::Div.eval(min, u64::MAX), min);
        assert_eq!(AluOp::Rem.eval(min, u64::MAX), 0);
    }

    #[test]
    fn alu_mulh_signed() {
        assert_eq!(AluOp::Mulh.eval((-1i64) as u64, 2), u64::MAX); // -1 * 2 >> 64 == -1
        assert_eq!(AluOp::Mulh.eval(1 << 63, 2), u64::MAX); // i64::MIN * 2 high half
    }

    #[test]
    fn alu_comparisons() {
        assert_eq!(AluOp::Slt.eval((-5i64) as u64, 3), 1);
        assert_eq!(AluOp::Sltu.eval((-5i64) as u64, 3), 0);
    }

    #[test]
    fn fpu_ops() {
        let a = 2.5f64.to_bits();
        let b = 0.5f64.to_bits();
        assert_eq!(f64::from_bits(FpuOp::Add.eval_bits(a, b)), 3.0);
        assert_eq!(f64::from_bits(FpuOp::Sub.eval_bits(a, b)), 2.0);
        assert_eq!(f64::from_bits(FpuOp::Mul.eval_bits(a, b)), 1.25);
        assert_eq!(f64::from_bits(FpuOp::Div.eval_bits(a, b)), 5.0);
        assert_eq!(f64::from_bits(FpuOp::Min.eval_bits(a, b)), 0.5);
        assert_eq!(f64::from_bits(FpuOp::Max.eval_bits(a, b)), 2.5);
    }

    #[test]
    fn branch_conditions() {
        let neg = (-1i64) as u64;
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(neg, 0));
        assert!(!BranchCond::Ltu.eval(neg, 0));
        assert!(BranchCond::Ge.eval(0, neg));
        assert!(BranchCond::Geu.eval(neg, 0));
    }

    #[test]
    fn mem_width_ops() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::D.bytes(), 8);
        assert_eq!(MemWidth::W.truncate(0x1_2345_6789), 0x2345_6789);
        assert_eq!(MemWidth::B.sign_extend(0x80), (-128i64) as u64);
        assert_eq!(MemWidth::H.sign_extend(0x7fff), 0x7fff);
    }

    #[test]
    fn display_roundtrips_are_nonempty() {
        let insns = [
            Instruction::Op { op: AluOp::Add, rd: Reg::X1, rs1: Reg::X2, rs2: Reg::X3 },
            Instruction::Nop,
            Instruction::Halt,
            Instruction::RdCycle { rd: Reg::X5 },
        ];
        for i in &insns {
            assert!(!i.to_string().is_empty());
        }
    }
}
