//! Assembled programs: a read-only text segment plus initial data images,
//! pre-cracked into micro-ops and pre-decoded into a basic-block
//! superinstruction stream at construction.

use crate::insn::{AluOp, Instruction};
use crate::uop::{DstReg, MemKind, MicroOp, SrcReg, UopKind};

/// Base address of the read-only text segment.
///
/// The paper assumes "the instruction stream is read-only, such that the
/// instructions read by checker units will be identical to those read by the
/// main thread" (§IV-A); the simulator enforces this by keeping text outside
/// the writable data space entirely.
pub const TEXT_BASE: u64 = 0x1000;

/// Byte size of one instruction slot (for PC arithmetic).
pub const INSN_BYTES: u64 = 4;

/// Scoreboard-slot value meaning "no register": see [`PreUop::srcs`].
pub const NO_REG_SLOT: u8 = u8::MAX;

/// Static functional-unit / latency class of a pre-decoded micro-op.
///
/// Collapses the nested [`UopKind`] / [`AluOp`] / `FpuOp` matches that the
/// hot loops would otherwise repeat per dynamic instruction into one flat
/// discriminant: the out-of-order core's dispatch and the checker's latency
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

impl UopClass {
    /// Classifies one cracked micro-op.
    fn of(u: &MicroOp) -> UopClass {
        match u.kind {
            UopKind::IntAlu { op, .. } => {
                if matches!(op, AluOp::Div | AluOp::Rem) {
                    UopClass::Div
                } else if op.is_mul_div() {
                    UopClass::Mul
                } else {
                    UopClass::IntAlu
                }
            }
            UopKind::Mem { kind: MemKind::Load { .. }, .. } => UopClass::Load,
            UopKind::Mem { kind: MemKind::Store, .. } => UopClass::Store,
            UopKind::Branch { .. } => UopClass::Branch,
            UopKind::Jump { .. } => UopClass::Jump,
            UopKind::JumpReg { .. } => UopClass::JumpReg,
            UopKind::FpAlu { op } => {
                if op.is_div() {
                    UopClass::FpDiv
                } else {
                    UopClass::FpAlu
                }
            }
            UopKind::Fma => UopClass::Fma,
            UopKind::FSqrt => UopClass::FSqrt,
            UopKind::FMov { .. } => UopClass::FMov,
            UopKind::RdCycle => UopClass::RdCycle,
            UopKind::Nop => UopClass::Nop,
            UopKind::Halt => UopClass::Halt,
        }
    }
}

/// One fused record of the pre-decoded superinstruction stream.
///
/// Everything the timing loops re-derive per dynamic micro-op — unit class
/// and flat scoreboard slots of the source/destination registers (`0..32`
/// integer, `32..64` floating-point, [`NO_REG_SLOT`] absent) — resolved once
/// at program construction. Stored as a column parallel to the cracked
/// micro-ops (same `cracked_idx` offsets), keeping the stream a flat
/// struct-of-arrays run.
#[derive(Debug, Clone, Copy)]
pub struct PreUop {
    /// Functional-unit / latency class.
    pub class: UopClass,
    /// Source registers as flat scoreboard slots.
    pub srcs: [u8; 3],
    /// Destination register as a flat scoreboard slot.
    pub dst: u8,
}

impl PreUop {
    fn of(u: &MicroOp) -> PreUop {
        let mut srcs = [NO_REG_SLOT; 3];
        for (o, s) in srcs.iter_mut().zip(u.srcs.iter()) {
            if let Some(s) = s {
                *o = match s {
                    SrcReg::Int(r) => r.index() as u8,
                    SrcReg::Fp(r) => 32 + r.index() as u8,
                };
            }
        }
        let dst = match u.dst {
            Some(DstReg::Int(r)) => r.index() as u8,
            Some(DstReg::Fp(r)) => 32 + r.index() as u8,
            None => NO_REG_SLOT,
        };
        PreUop { class: UopClass::of(u), srcs, dst }
    }
}

/// How a basic block exits, with static successor hints where the target is
/// known at assembly time. Hints are indices into [`Program::blocks`];
/// `None` means the target falls outside the text segment (reaching it
/// crashes with a bad PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Conditional-branch terminator.
    Branch {
        /// Block starting at the branch target.
        taken: Option<u32>,
        /// Block starting at the fall-through instruction.
        not_taken: Option<u32>,
    },
    /// Unconditional direct jump (`jal`).
    Jump {
        /// Block starting at the jump target.
        target: Option<u32>,
    },
    /// Indirect jump (`jalr`): the target is only known dynamically.
    JumpReg,
    /// `halt` terminator.
    Halt,
    /// No terminator: the following instruction is a leader (some branch
    /// targets it), so control falls straight through into that block.
    FallThrough {
        /// The successor block.
        next: Option<u32>,
    },
}

/// One discovered basic block: the instruction-index range
/// `first .. first + len` (always non-empty; only the last instruction may
/// transfer control) plus its exit record.
#[derive(Debug, Clone, Copy)]
pub struct BasicBlock {
    /// Index into text of the block's first instruction.
    pub first: u32,
    /// Number of instructions in the block.
    pub len: u32,
    /// Block-exit record: terminator kind and successor hints.
    pub exit: BlockExit,
}

impl BasicBlock {
    /// Byte address of the block's first instruction.
    pub fn start_pc(&self) -> u64 {
        TEXT_BASE + self.first as u64 * INSN_BYTES
    }
}

/// An initial data image: `bytes` copied to `base` before execution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataImage {
    /// Starting byte address.
    pub base: u64,
    /// Raw little-endian contents.
    pub bytes: Vec<u8>,
}

/// An assembled, immutable program.
///
/// Built with [`ProgramBuilder`](crate::ProgramBuilder). Both the main core
/// and every checker core fetch from the same `Program`, mirroring the
/// paper's shared read-only instruction stream.
#[derive(Debug, Clone)]
pub struct Program {
    text: Vec<Instruction>,
    data: Vec<DataImage>,
    entry: u64,
    /// Pre-cracked micro-ops of every text instruction, flattened.
    /// Computed once at construction so the out-of-order core's decode and
    /// the checker farm's replays never re-crack (or heap-allocate) per
    /// dynamic instruction.
    cracked: Vec<crate::MicroOp>,
    /// Start offset of instruction `i`'s micro-ops in `cracked`
    /// (`text.len() + 1` entries; the last is `cracked.len()`).
    cracked_idx: Vec<u32>,
    /// Pre-decoded superinstruction stream: one fused record per entry of
    /// `cracked` (same `cracked_idx` offsets — another column of the same
    /// struct-of-arrays layout).
    pre: Vec<PreUop>,
    /// Basic blocks discovered at construction, in text order.
    blocks: Vec<BasicBlock>,
    /// Block id containing instruction `i` (`text.len()` entries).
    block_of: Vec<u32>,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `entry` does not point at an instruction slot.
    pub fn from_parts(text: Vec<Instruction>, data: Vec<DataImage>, entry: u64) -> Program {
        let mut cracked = Vec::with_capacity(text.len());
        let mut cracked_idx = Vec::with_capacity(text.len() + 1);
        for insn in &text {
            cracked_idx.push(cracked.len() as u32);
            cracked.extend(crate::crack(insn));
        }
        cracked_idx.push(cracked.len() as u32);
        let pre: Vec<PreUop> = cracked.iter().map(PreUop::of).collect();
        let (blocks, block_of) = discover_blocks(&text, entry);
        let p = Program { text, data, entry, cracked, cracked_idx, pre, blocks, block_of };
        assert!(p.instr_at(entry).is_some(), "entry point {entry:#x} is outside text");
        p
    }

    /// The entry-point PC.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The instruction at byte address `pc`, or `None` if `pc` falls outside
    /// the text segment or is misaligned.
    pub fn instr_at(&self, pc: u64) -> Option<&Instruction> {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(INSN_BYTES) {
            return None;
        }
        self.text.get(((pc - TEXT_BASE) / INSN_BYTES) as usize)
    }

    /// The pre-decoded records of the instruction at text index `i`,
    /// parallel to [`uops_of`](Program::uops_of).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pre_uops_of(&self, i: usize) -> &[PreUop] {
        &self.pre[self.cracked_idx[i] as usize..self.cracked_idx[i + 1] as usize]
    }

    /// The pre-cracked micro-ops of the instruction at text index `i`
    /// (identical to `crack(text()[i])` without the per-call allocation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn uops_of(&self, i: usize) -> &[MicroOp] {
        &self.cracked[self.cracked_idx[i] as usize..self.cracked_idx[i + 1] as usize]
    }

    /// The basic blocks discovered at construction, in text order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The basic block containing `pc` plus the instruction's offset within
    /// it, or `None` if `pc` falls outside the text segment or is
    /// misaligned. Mid-block entry (a `jalr` landing past a block's leader)
    /// is supported: the offset may be non-zero.
    pub fn block_at(&self, pc: u64) -> Option<(&BasicBlock, u32)> {
        if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(INSN_BYTES) {
            return None;
        }
        let i = ((pc - TEXT_BASE) / INSN_BYTES) as usize;
        if i >= self.text.len() {
            return None;
        }
        let b = &self.blocks[self.block_of[i] as usize];
        Some((b, i as u32 - b.first))
    }

    /// Resolves the block that `next_pc` (the PC the oracle produced at a
    /// block exit) lands in, trying `exit`'s static successor hints before
    /// falling back to a full [`block_at`](Program::block_at) lookup.
    pub fn succ_block(&self, exit: BlockExit, next_pc: u64) -> Option<(&BasicBlock, u32)> {
        let hints = match exit {
            BlockExit::Branch { taken, not_taken } => [taken, not_taken],
            BlockExit::Jump { target } => [target, None],
            BlockExit::FallThrough { next } => [next, None],
            BlockExit::JumpReg | BlockExit::Halt => [None, None],
        };
        for h in hints.into_iter().flatten() {
            let b = &self.blocks[h as usize];
            if b.start_pc() == next_pc {
                return Some((b, 0));
            }
        }
        self.block_at(next_pc)
    }

    /// Mean static micro-ops per discovered basic block.
    pub fn mean_uops_per_block(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.cracked.len() as f64 / self.blocks.len() as f64
    }

    /// All instructions in text order.
    pub fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text segment is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Initial data images, to be copied into memory before execution.
    pub fn data(&self) -> &[DataImage] {
        &self.data
    }

    /// Byte address of the first slot past the text segment.
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + self.text.len() as u64 * INSN_BYTES
    }

    /// Renders a human-readable disassembly listing of the text segment.
    ///
    /// ```
    /// use paradet_isa::{ProgramBuilder, Reg};
    /// let mut b = ProgramBuilder::new();
    /// b.li(Reg::X1, 7);
    /// b.halt();
    /// let listing = b.build().listing();
    /// assert!(listing.contains("0x1000"));
    /// assert!(listing.contains("halt"));
    /// ```
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.text.len() * 32);
        for (i, insn) in self.text.iter().enumerate() {
            let pc = TEXT_BASE + i as u64 * INSN_BYTES;
            let _ = writeln!(out, "{pc:#8x}:  {insn}");
        }
        out
    }
}

/// Discovers basic blocks over `text`: leaders are the first instruction,
/// the entry point, every in-text branch/jump target, and the fall-through
/// after every control instruction or halt. Returns the block table and the
/// instruction-index → block-id map.
fn discover_blocks(text: &[Instruction], entry: u64) -> (Vec<BasicBlock>, Vec<u32>) {
    let n = text.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    // Branch/jump target of the instruction at index `i`, as a text index.
    let target_index = |i: usize, offset: i64| -> Option<usize> {
        let pc = TEXT_BASE + i as u64 * INSN_BYTES;
        let t = pc.wrapping_add(offset as u64);
        if t < TEXT_BASE || !(t - TEXT_BASE).is_multiple_of(INSN_BYTES) {
            return None;
        }
        let ti = ((t - TEXT_BASE) / INSN_BYTES) as usize;
        (ti < n).then_some(ti)
    };

    let mut leader = vec![false; n];
    leader[0] = true;
    if entry >= TEXT_BASE && (entry - TEXT_BASE).is_multiple_of(INSN_BYTES) {
        let ei = ((entry - TEXT_BASE) / INSN_BYTES) as usize;
        if ei < n {
            leader[ei] = true;
        }
    }
    for (i, insn) in text.iter().enumerate() {
        match insn {
            Instruction::Branch { offset, .. } | Instruction::Jal { offset, .. } => {
                if let Some(t) = target_index(i, *offset) {
                    leader[t] = true;
                }
            }
            _ => {}
        }
        if (insn.is_control() || matches!(insn, Instruction::Halt)) && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    let mut blocks = Vec::new();
    let mut block_of = vec![0u32; n];
    let mut i = 0usize;
    while i < n {
        let first = i;
        let id = blocks.len() as u32;
        loop {
            block_of[i] = id;
            let terminator = text[i].is_control() || matches!(text[i], Instruction::Halt);
            i += 1;
            if terminator || i >= n || leader[i] {
                break;
            }
        }
        blocks.push(BasicBlock {
            first: first as u32,
            len: (i - first) as u32,
            exit: BlockExit::Halt, // filled below once block_of is complete
        });
    }
    for b in &mut blocks {
        let last = (b.first + b.len - 1) as usize;
        let block_of_index = |i: usize| (i < n).then(|| block_of[i]);
        b.exit = match &text[last] {
            Instruction::Branch { offset, .. } => BlockExit::Branch {
                taken: target_index(last, *offset).map(|t| block_of[t]),
                not_taken: block_of_index(last + 1),
            },
            Instruction::Jal { offset, .. } => {
                BlockExit::Jump { target: target_index(last, *offset).map(|t| block_of[t]) }
            }
            Instruction::Jalr { .. } => BlockExit::JumpReg,
            Instruction::Halt => BlockExit::Halt,
            _ => BlockExit::FallThrough { next: block_of_index(last + 1) },
        };
    }
    (blocks, block_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Instruction as I;

    #[test]
    fn instr_lookup() {
        let p = Program::from_parts(vec![I::Nop, I::Halt], vec![], TEXT_BASE);
        assert_eq!(p.instr_at(TEXT_BASE), Some(&I::Nop));
        assert_eq!(p.instr_at(TEXT_BASE + 4), Some(&I::Halt));
        assert_eq!(p.instr_at(TEXT_BASE + 8), None);
        assert_eq!(p.instr_at(TEXT_BASE + 1), None); // misaligned
        assert_eq!(p.instr_at(0), None); // below text
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }

    #[test]
    #[should_panic(expected = "outside text")]
    fn bad_entry_panics() {
        let _ = Program::from_parts(vec![I::Nop], vec![], 0);
    }

    #[test]
    fn block_discovery_splits_at_branches_and_targets() {
        use crate::insn::BranchCond;
        use crate::Reg;
        // 0x1000: nop                      — leader (first, branch target)
        // 0x1004: beq x0, x0, pc-4         — terminator of block 0
        // 0x1008: nop                      — leader (fall-through)
        // 0x100c: halt                     — terminator of block 1
        let p = Program::from_parts(
            vec![
                I::Nop,
                I::Branch { cond: BranchCond::Eq, rs1: Reg::X0, rs2: Reg::X0, offset: -4 },
                I::Nop,
                I::Halt,
            ],
            vec![],
            TEXT_BASE,
        );
        assert_eq!(p.blocks().len(), 2);
        let (b0, off0) = p.block_at(TEXT_BASE).unwrap();
        assert_eq!((b0.first, b0.len, off0), (0, 2, 0));
        assert_eq!(b0.exit, BlockExit::Branch { taken: Some(0), not_taken: Some(1) });
        let (b0m, offm) = p.block_at(TEXT_BASE + 4).unwrap();
        assert_eq!((b0m.first, offm), (0, 1)); // mid-block entry
        let (b1, _) = p.block_at(TEXT_BASE + 8).unwrap();
        assert_eq!((b1.first, b1.len), (2, 2));
        assert_eq!(b1.exit, BlockExit::Halt);
        // Successor hints resolve without a full lookup.
        let (s, so) = p.succ_block(b0.exit, TEXT_BASE).unwrap();
        assert_eq!((s.first, so), (0, 0));
        let (s, _) = p.succ_block(b0.exit, TEXT_BASE + 8).unwrap();
        assert_eq!(s.first, 2);
        assert!(p.block_at(TEXT_BASE + 16).is_none());
        assert!(p.mean_uops_per_block() > 0.0);
    }

    #[test]
    fn block_discovery_fall_through_into_jump_target() {
        use crate::Reg;
        // 0x1000: jal x0, pc+8   — block 0, jumps to 0x1008
        // 0x1004: nop            — block 1 (fall-through leader), falls into
        // 0x1008: halt           — block 2 (jump target leader)
        let p = Program::from_parts(
            vec![I::Jal { rd: Reg::X0, offset: 8 }, I::Nop, I::Halt],
            vec![],
            TEXT_BASE,
        );
        assert_eq!(p.blocks().len(), 3);
        assert_eq!(p.blocks()[0].exit, BlockExit::Jump { target: Some(2) });
        assert_eq!(p.blocks()[1].exit, BlockExit::FallThrough { next: Some(2) });
        assert_eq!(p.blocks()[2].exit, BlockExit::Halt);
        // A jump target outside text carries no hint.
        let p = Program::from_parts(vec![I::Jal { rd: Reg::X0, offset: 64 }], vec![], TEXT_BASE);
        assert_eq!(p.blocks()[0].exit, BlockExit::Jump { target: None });
    }

    #[test]
    fn pre_decoded_stream_parallels_cracked_uops() {
        use crate::{AluOp, Reg};
        let p = Program::from_parts(
            vec![
                I::Op { op: AluOp::Mul, rd: Reg::X3, rs1: Reg::X1, rs2: Reg::X2 },
                I::Op { op: AluOp::Div, rd: Reg::X4, rs1: Reg::X3, rs2: Reg::X1 },
                I::Halt,
            ],
            vec![],
            TEXT_BASE,
        );
        for i in 0..p.len() {
            assert_eq!(p.pre_uops_of(i).len(), p.uops_of(i).len());
        }
        assert_eq!(p.pre_uops_of(0)[0].class, UopClass::Mul);
        assert_eq!(p.pre_uops_of(0)[0].srcs, [1, 2, NO_REG_SLOT]);
        assert_eq!(p.pre_uops_of(0)[0].dst, 3);
        assert_eq!(p.pre_uops_of(1)[0].class, UopClass::Div);
        assert_eq!(p.pre_uops_of(2)[0].class, UopClass::Halt);
    }

    #[test]
    fn listing_shows_every_instruction() {
        let p = Program::from_parts(vec![I::Nop, I::Halt], vec![], TEXT_BASE);
        let l = p.listing();
        assert_eq!(l.lines().count(), 2);
        assert!(l.contains("0x1000:  nop"));
        assert!(l.contains("0x1004:  halt"));
    }
}
