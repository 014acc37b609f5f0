//! Instruction-set architecture for the paradet simulator.
//!
//! This crate defines the 64-bit RISC instruction set shared by the main
//! out-of-order core and the small in-order checker cores of the paradet
//! system (Ainsworth & Jones, *Parallel Error Detection Using Heterogeneous
//! Cores*, DSN 2018). The paper requires that "each of our small checker
//! cores must implement the same ISA as the main core, so that all cores can
//! execute the same instruction stream" (§IV-B) — everything in this crate is
//! therefore used verbatim by both core models.
//!
//! The crate provides:
//!
//! * [`Instruction`] — architectural *macro-ops*, including paired-memory
//!   macro-ops ([`Instruction::Ldp`], [`Instruction::Stp`]) that crack into
//!   several micro-ops, exercising the paper's segment-boundary rule (§IV-D);
//! * [`PreUop`]/[`crack`] — the one micro-op form: each macro-op cracked
//!   into its functional-unit class and scoreboard slots, which both
//!   pipelines walk;
//! * [`ArchState`] and [`step`](ArchState::step) — a functional golden-model
//!   executor used by the checker cores, the fault-injection oracle and the
//!   test suite;
//! * [`ProgramBuilder`] — a small assembler with labels, used by the
//!   workload generators;
//! * [`Program`] — an assembled read-only instruction stream plus initial
//!   data image.
//!
//! # Example
//!
//! ```
//! use paradet_isa::{ProgramBuilder, Reg, ArchState, FlatMemory, NoNondet};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::X1, 5);
//! b.li(Reg::X2, 7);
//! b.op(paradet_isa::AluOp::Add, Reg::X3, Reg::X1, Reg::X2);
//! b.halt();
//! let program = b.build();
//!
//! let mut state = ArchState::at_entry(&program);
//! let mut mem = FlatMemory::new();
//! mem.load_image(&program);
//! while !state.halted {
//!     state.step(&program, &mut mem, &mut NoNondet).unwrap();
//! }
//! assert_eq!(state.x(Reg::X3), 12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod exec;
mod insn;
mod program;
mod reg;
mod uop;

pub use asm::{Label, ProgramBuilder};
pub use exec::{
    ArchState, ExecError, FlatMemory, ImageDiff, MemAccess, MemAccessList, MemoryIface, NoNondet,
    NondetSource, StepInfo,
};
pub use insn::{AluOp, BranchCond, FpuOp, Instruction, MemWidth};
pub use program::{BasicBlock, BlockExit, DataImage, Program, INSN_BYTES, TEXT_BASE};
pub use reg::{FReg, Reg};
pub use uop::{crack, FMovKind, PreUop, UopClass, MAX_UOPS_PER_INSN, NO_REG_SLOT, N_UOP_CLASSES};
