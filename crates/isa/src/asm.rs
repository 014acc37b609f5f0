//! A small structured assembler with labels.
//!
//! [`ProgramBuilder`] is the only way workloads construct [`Program`]s. It
//! offers one method per instruction plus a handful of pseudo-instructions
//! (`li`, `mv`), forward/backward label references, and data-segment
//! allocation helpers.

use crate::insn::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
use crate::program::{DataImage, Program, INSN_BYTES, TEXT_BASE};
use crate::reg::{FReg, Reg};

/// A label referring to an instruction address, usable before it is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Patch the `offset` field of the branch/jal at `at` to target `label`.
    RelTarget { at: usize, label: Label },
}

/// Incremental builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use paradet_isa::{ProgramBuilder, Reg};
/// let mut b = ProgramBuilder::new();
/// let done = b.new_label();
/// b.li(Reg::X1, 3);
/// b.beq(Reg::X1, Reg::X0, done); // not taken
/// b.addi(Reg::X1, Reg::X1, 1);
/// b.bind(done);
/// b.halt();
/// let program = b.build();
/// assert_eq!(program.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    text: Vec<Instruction>,
    data: Vec<DataImage>,
    labels: Vec<Option<usize>>,
    fixups: Vec<Fixup>,
    next_data_addr: u64,
}

/// Default base address for [`ProgramBuilder::alloc_data`].
const DATA_BASE: u64 = 0x10_0000;

/// Inter-allocation padding (five cache lines) breaking set alignment of
/// power-of-two arrays; see [`ProgramBuilder::alloc_data`].
const ALLOC_STAGGER: u64 = 320;

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder { next_data_addr: DATA_BASE, ..ProgramBuilder::default() }
    }

    /// Current instruction index (useful for size accounting in tests).
    pub fn here(&self) -> usize {
        self.text.len()
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.text.len());
    }

    /// Creates a label bound to the current position (for backward branches).
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, insn: Instruction) -> &mut Self {
        self.text.push(insn);
        self
    }

    // ---- data segment -------------------------------------------------

    /// Adds a data image at an explicit address.
    pub fn data_at(&mut self, base: u64, bytes: Vec<u8>) -> &mut Self {
        self.data.push(DataImage { base, bytes });
        self
    }

    /// Allocates `bytes.len()` bytes in the data segment (16-byte aligned)
    /// and returns the base address.
    ///
    /// Consecutive allocations are padded apart by a few cache lines so
    /// that power-of-two-sized arrays do not land set-aligned in the
    /// caches — mirroring what page colouring / malloc headers do on real
    /// systems (without this, e.g. STREAM's three arrays conflict-miss on
    /// every access in a 2-way L1).
    pub fn alloc_data(&mut self, bytes: Vec<u8>) -> u64 {
        let base = self.next_data_addr;
        self.next_data_addr = ((base + bytes.len() as u64 + 15) & !15) + ALLOC_STAGGER;
        self.data.push(DataImage { base, bytes });
        base
    }

    /// Allocates space for `n` zeroed doublewords, returning the base
    /// address. Zero pages need no image, so this just reserves addresses.
    pub fn alloc_zeroed(&mut self, n_doublewords: u64) -> u64 {
        let base = self.next_data_addr;
        self.next_data_addr = ((base + n_doublewords * 8 + 15) & !15) + ALLOC_STAGGER;
        base
    }

    /// Allocates `values` as little-endian doublewords, returning the base.
    pub fn alloc_u64s(&mut self, values: &[u64]) -> u64 {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.alloc_data(bytes)
    }

    /// Allocates `values` as binary64 doublewords, returning the base.
    pub fn alloc_f64s(&mut self, values: &[f64]) -> u64 {
        let raw: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        self.alloc_u64s(&raw)
    }

    // ---- integer ops ---------------------------------------------------

    /// `rd = op(rs1, rs2)`.
    pub fn op(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Instruction::Op { op, rd, rs1, rs2 })
    }

    /// `rd = op(rs1, imm)`.
    pub fn op_imm(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::OpImm { op, rd, rs1, imm })
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.op_imm(AluOp::Add, rd, rs1, imm)
    }

    /// Load immediate (pseudo-op: `addi rd, x0, imm`).
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.addi(rd, Reg::X0, imm)
    }

    /// Register move (pseudo-op: `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    // ---- memory ---------------------------------------------------------

    /// Doubleword load.
    pub fn ld(&mut self, rd: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Load { width: MemWidth::D, signed: false, rd, rs1: base, imm })
    }

    /// Word load (`signed` selects sign extension).
    pub fn lw(&mut self, rd: Reg, base: Reg, imm: i64, signed: bool) -> &mut Self {
        self.push(Instruction::Load { width: MemWidth::W, signed, rd, rs1: base, imm })
    }

    /// Halfword load.
    pub fn lh(&mut self, rd: Reg, base: Reg, imm: i64, signed: bool) -> &mut Self {
        self.push(Instruction::Load { width: MemWidth::H, signed, rd, rs1: base, imm })
    }

    /// Byte load.
    pub fn lb(&mut self, rd: Reg, base: Reg, imm: i64, signed: bool) -> &mut Self {
        self.push(Instruction::Load { width: MemWidth::B, signed, rd, rs1: base, imm })
    }

    /// Doubleword store.
    pub fn sd(&mut self, src: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Store { width: MemWidth::D, rs2: src, rs1: base, imm })
    }

    /// Word store.
    pub fn sw(&mut self, src: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Store { width: MemWidth::W, rs2: src, rs1: base, imm })
    }

    /// Byte store.
    pub fn sb(&mut self, src: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Store { width: MemWidth::B, rs2: src, rs1: base, imm })
    }

    /// Load-pair macro-op.
    pub fn ldp(&mut self, rd1: Reg, rd2: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Ldp { rd1, rd2, rs1: base, imm })
    }

    /// Store-pair macro-op.
    pub fn stp(&mut self, rs2a: Reg, rs2b: Reg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Stp { rs2a, rs2b, rs1: base, imm })
    }

    /// Floating-point doubleword load.
    pub fn fld(&mut self, fd: FReg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::FLoad { fd, rs1: base, imm })
    }

    /// Floating-point doubleword store.
    pub fn fsd(&mut self, fs2: FReg, base: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::FStore { fs2, rs1: base, imm })
    }

    // ---- control flow ----------------------------------------------------

    fn branch_to(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        let at = self.text.len();
        self.fixups.push(Fixup::RelTarget { at, label });
        self.push(Instruction::Branch { cond, rs1, rs2, offset: 0 })
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Eq, rs1, rs2, label)
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Ne, rs1, rs2, label)
    }

    /// Branch if signed less-than.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Lt, rs1, rs2, label)
    }

    /// Branch if signed greater-or-equal.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Ge, rs1, rs2, label)
    }

    /// Branch if unsigned less-than.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Ltu, rs1, rs2, label)
    }

    /// Branch if unsigned greater-or-equal.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        self.branch_to(BranchCond::Geu, rs1, rs2, label)
    }

    /// Jump-and-link to a label.
    pub fn jal_to(&mut self, rd: Reg, label: Label) -> &mut Self {
        let at = self.text.len();
        self.fixups.push(Fixup::RelTarget { at, label });
        self.push(Instruction::Jal { rd, offset: 0 })
    }

    /// Unconditional jump to a label (pseudo-op: `jal x0, label`).
    pub fn j(&mut self, label: Label) -> &mut Self {
        self.jal_to(Reg::X0, label)
    }

    /// Indirect jump-and-link.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.push(Instruction::Jalr { rd, rs1, imm })
    }

    /// Return (pseudo-op: `jalr x0, rs, 0`).
    pub fn ret(&mut self, link: Reg) -> &mut Self {
        self.jalr(Reg::X0, link, 0)
    }

    // ---- floating point ---------------------------------------------------

    /// `fd = op(fs1, fs2)`.
    pub fn fop(&mut self, op: FpuOp, fd: FReg, fs1: FReg, fs2: FReg) -> &mut Self {
        self.push(Instruction::FOp { op, fd, fs1, fs2 })
    }

    /// Fused multiply-add.
    pub fn fma(&mut self, fd: FReg, fs1: FReg, fs2: FReg, fs3: FReg) -> &mut Self {
        self.push(Instruction::Fma { fd, fs1, fs2, fs3 })
    }

    /// Square root.
    pub fn fsqrt(&mut self, fd: FReg, fs1: FReg) -> &mut Self {
        self.push(Instruction::FSqrt { fd, fs1 })
    }

    /// Bit move, integer register → FP register.
    pub fn fmv_from_int(&mut self, fd: FReg, rs1: Reg) -> &mut Self {
        self.push(Instruction::FMovFromInt { fd, rs1 })
    }

    /// Bit move, FP register → integer register.
    pub fn fmv_to_int(&mut self, rd: Reg, fs1: FReg) -> &mut Self {
        self.push(Instruction::FMovToInt { rd, fs1 })
    }

    /// Signed integer → binary64 conversion.
    pub fn fcvt_from_int(&mut self, fd: FReg, rs1: Reg) -> &mut Self {
        self.push(Instruction::FCvtFromInt { fd, rs1 })
    }

    /// binary64 → signed integer conversion.
    pub fn fcvt_to_int(&mut self, rd: Reg, fs1: FReg) -> &mut Self {
        self.push(Instruction::FCvtToInt { rd, fs1 })
    }

    // ---- misc --------------------------------------------------------------

    /// Read the cycle counter (non-deterministic).
    pub fn rdcycle(&mut self, rd: Reg) -> &mut Self {
        self.push(Instruction::RdCycle { rd })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instruction::Nop)
    }

    /// Halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instruction::Halt)
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound, or the program is
    /// empty.
    pub fn build(mut self) -> Program {
        assert!(!self.text.is_empty(), "cannot build an empty program");
        for fixup in &self.fixups {
            let Fixup::RelTarget { at, label } = *fixup;
            let target = self.labels[label.0].expect("label referenced but never bound");
            let offset = (target as i64 - at as i64) * INSN_BYTES as i64;
            match &mut self.text[at] {
                Instruction::Branch { offset: o, .. } | Instruction::Jal { offset: o, .. } => {
                    *o = offset;
                }
                other => panic!("fixup points at non-branch instruction {other}"),
            }
        }
        Program::from_parts(self.text, self.data, TEXT_BASE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ArchState, FlatMemory, MemoryIface, NoNondet};

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.li(Reg::X1, 1);
        b.j(skip);
        b.li(Reg::X1, 99); // skipped
        b.bind(skip);
        let back = b.label_here();
        b.addi(Reg::X1, Reg::X1, 1);
        b.li(Reg::X2, 3);
        b.blt(Reg::X1, Reg::X2, back);
        b.halt();
        let p = b.build();
        let mut st = ArchState::at_entry(&p);
        let mut mem = FlatMemory::new();
        st.run_blocks(&p, &mut mem, &mut NoNondet, 1000).unwrap();
        assert_eq!(st.x(Reg::X1), 3);
    }

    #[test]
    fn alloc_helpers_lay_out_data() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_u64s(&[7, 8]);
        let c = b.alloc_f64s(&[1.5]);
        let z = b.alloc_zeroed(4);
        assert!(c >= a + 16);
        assert!(z >= c + 8);
        b.halt();
        let p = b.build();
        let mut mem = FlatMemory::new();
        mem.load_image(&p);
        assert_eq!(mem.load(a, MemWidth::D), 7);
        assert_eq!(mem.load(a + 8, MemWidth::D), 8);
        assert_eq!(f64::from_bits(mem.load(c, MemWidth::D)), 1.5);
        assert_eq!(mem.load(z, MemWidth::D), 0);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.j(l);
        b.halt();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    #[should_panic(expected = "empty program")]
    fn empty_build_panics() {
        let _ = ProgramBuilder::new().build();
    }
}
