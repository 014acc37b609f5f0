//! The benchmark suite of Table II, rebuilt as synthetic kernels.
//!
//! The paper evaluates on PARSEC (blackscholes, fluidanimate, swaptions,
//! freqmine, bodytrack, facesim), HPCC (RandomAccess, STREAM) and MiBench
//! (bitcount). None of those can run on a custom ISA, so each kernel here
//! is engineered to match the published memory/compute character of its
//! namesake — which is the only property the paper's figures depend on
//! (they sort benchmarks along the memory-bound ↔ compute-bound axis):
//!
//! | kernel | character |
//! |---|---|
//! | [`Workload::Randacc`] | dependent irregular 64-bit XOR updates over a large table (lowest IPC) |
//! | [`Workload::Stream`] | unit-stride copy/scale/add/triad over large FP arrays |
//! | [`Workload::Bitcount`] | pure integer bit-twiddling (most compute-bound) |
//! | [`Workload::Blackscholes`] | FP polynomial pipeline with divides and square roots |
//! | [`Workload::Fluidanimate`] | neighbour-grid FP relaxation, mixed strides |
//! | [`Workload::Swaptions`] | Monte-Carlo paths: integer RNG feeding an FP accumulation |
//! | [`Workload::Freqmine`] | hash-bucket counting, integer and memory heavy |
//! | [`Workload::Bodytrack`] | branchy particle weighting, mixed int/FP |
//! | [`Workload::Facesim`] | regular 5-point FP stencil with FMAs |
//!
//! Every kernel is deterministic (seeded LCG data, no host randomness at
//! run time) and halts after its configured iteration count, so a kernel
//! can either run to completion or be cut off by the experiment harness at
//! a fixed dynamic instruction count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use paradet_isa::{AluOp, FReg, Program, ProgramBuilder, Reg};

mod kernels;

pub use kernels::DEFAULT_TABLE_BYTES;

/// One benchmark of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Workload {
    Randacc,
    Stream,
    Bitcount,
    Blackscholes,
    Fluidanimate,
    Swaptions,
    Freqmine,
    Bodytrack,
    Facesim,
}

impl Workload {
    /// All nine benchmarks, in the paper's Table II order.
    pub fn all() -> [Workload; 9] {
        [
            Workload::Randacc,
            Workload::Stream,
            Workload::Bitcount,
            Workload::Blackscholes,
            Workload::Fluidanimate,
            Workload::Swaptions,
            Workload::Freqmine,
            Workload::Bodytrack,
            Workload::Facesim,
        ]
    }

    /// The benchmark's name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Randacc => "randacc",
            Workload::Stream => "stream",
            Workload::Bitcount => "bitcount",
            Workload::Blackscholes => "blackscholes",
            Workload::Fluidanimate => "fluidanimate",
            Workload::Swaptions => "swaptions",
            Workload::Freqmine => "freqmine",
            Workload::Bodytrack => "bodytrack",
            Workload::Facesim => "facesim",
        }
    }

    /// The suite the original benchmark came from (Table II "Source").
    pub fn source(self) -> &'static str {
        match self {
            Workload::Randacc | Workload::Stream => "HPCC",
            Workload::Bitcount => "MiBench",
            _ => "Parsec",
        }
    }

    /// One-line description of the synthetic kernel's character.
    pub fn description(self) -> &'static str {
        match self {
            Workload::Randacc => {
                "dependent random XOR updates over a large table (memory bound, irregular)"
            }
            Workload::Stream => "copy/scale/add/triad over large FP arrays (memory bound, regular)",
            Workload::Bitcount => "integer popcount bit-twiddling (compute bound)",
            Workload::Blackscholes => "FP option-pricing polynomial with div/sqrt",
            Workload::Fluidanimate => "neighbour-grid FP relaxation, mixed strides",
            Workload::Swaptions => "Monte-Carlo paths, RNG + FP accumulation",
            Workload::Freqmine => "hash-bucket counting, integer memory heavy",
            Workload::Bodytrack => "branchy particle weighting, mixed int/FP",
            Workload::Facesim => "regular 5-point FP stencil with FMAs",
        }
    }

    /// Looks a benchmark up by its paper name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name() == name)
    }

    /// Builds the kernel with approximately `iters` iterations of its inner
    /// loop. Any positive value works; the experiment harness typically
    /// builds large and cuts off at a fixed dynamic instruction count.
    pub fn build(self, iters: u64) -> Program {
        let iters = iters.max(1) as i64;
        match self {
            Workload::Randacc => kernels::randacc(iters),
            Workload::Stream => kernels::stream(iters),
            Workload::Bitcount => kernels::bitcount(iters),
            Workload::Blackscholes => kernels::blackscholes(iters),
            Workload::Fluidanimate => kernels::fluidanimate(iters),
            Workload::Swaptions => kernels::swaptions(iters),
            Workload::Freqmine => kernels::freqmine(iters),
            Workload::Bodytrack => kernels::bodytrack(iters),
            Workload::Facesim => kernels::facesim(iters),
        }
    }

    /// Iterations needed for *at least* `instrs` dynamic instructions
    /// (based on the kernel's inner-loop length), with ~30% margin.
    pub fn iters_for_instrs(self, instrs: u64) -> u64 {
        let body = match self {
            Workload::Randacc => 9,
            Workload::Stream => 8,
            Workload::Bitcount => 21,
            Workload::Blackscholes => 24,
            Workload::Fluidanimate => 14,
            Workload::Swaptions => 16,
            Workload::Freqmine => 13,
            Workload::Bodytrack => 16,
            Workload::Facesim => 12,
        };
        (instrs / body) * 13 / 10 + 16
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Common prologue: `x28` = iteration counter, `x27` = bound.
pub(crate) fn outer_loop(
    b: &mut ProgramBuilder,
    iters: i64,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    b.li(Reg::X28, 0);
    b.li(Reg::X27, iters);
    let top = b.label_here();
    body(b);
    b.addi(Reg::X28, Reg::X28, 1);
    b.blt(Reg::X28, Reg::X27, top);
    b.halt();
}

/// Loads an f64 constant into `fd` via an integer register move.
pub(crate) fn load_f64(b: &mut ProgramBuilder, fd: FReg, scratch: Reg, v: f64) {
    b.li(scratch, v.to_bits() as i64);
    b.fmv_from_int(fd, scratch);
}

/// Emits `rd = lcg_next(rd)` using `mul_reg`/`add_reg` holding constants.
pub(crate) fn lcg_step(b: &mut ProgramBuilder, rd: Reg, mul_reg: Reg, add_reg: Reg) {
    b.op(AluOp::Mul, rd, rd, mul_reg);
    b.op(AluOp::Add, rd, rd, add_reg);
}

/// Emits the standard SWAR popcount of `src` into `dst` using `t1` as
/// scratch and `m1`,`m2`,`m4`,`h01` holding the masks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn popcount(
    b: &mut ProgramBuilder,
    dst: Reg,
    src: Reg,
    t1: Reg,
    m1: Reg,
    m2: Reg,
    m4: Reg,
    h01: Reg,
) {
    // v = v - ((v >> 1) & 0x5555…)
    b.op_imm(AluOp::Srl, t1, src, 1);
    b.op(AluOp::And, t1, t1, m1);
    b.op(AluOp::Sub, dst, src, t1);
    // v = (v & 0x3333…) + ((v >> 2) & 0x3333…)
    b.op_imm(AluOp::Srl, t1, dst, 2);
    b.op(AluOp::And, t1, t1, m2);
    b.op(AluOp::And, dst, dst, m2);
    b.op(AluOp::Add, dst, dst, t1);
    // v = (v + (v >> 4)) & 0x0f0f…
    b.op_imm(AluOp::Srl, t1, dst, 4);
    b.op(AluOp::Add, dst, dst, t1);
    b.op(AluOp::And, dst, dst, m4);
    // count = (v * 0x0101…) >> 56
    b.op(AluOp::Mul, dst, dst, h01);
    b.op_imm(AluOp::Srl, dst, dst, 56);
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{ArchState, FlatMemory, NoNondet};

    fn run_golden(program: &Program, max: u64) -> (ArchState, FlatMemory, u64) {
        let mut st = ArchState::at_entry(program);
        let mut mem = FlatMemory::new();
        mem.load_image(program);
        let n = st.run_blocks(program, &mut mem, &mut NoNondet, max).unwrap();
        (st, mem, n)
    }

    /// Every shipped workload discovers a non-trivial block structure at
    /// program build: blocks exist, they tile the text exactly, and the mean
    /// block length is at least one micro-op.
    #[test]
    fn workloads_discover_blocks() {
        for w in Workload::all() {
            let p = w.build(50);
            let blocks = p.blocks();
            assert!(blocks.len() > 1, "{w}: a looping workload must have several blocks");
            let covered: u64 = blocks.iter().map(|b| u64::from(b.len)).sum();
            assert_eq!(covered, p.len() as u64, "{w}: blocks must tile the text exactly");
            assert!(p.mean_uops_per_block() >= 1.0, "{w}: mean uops/block below one");
            assert!(p.block_at(p.entry()).is_some(), "{w}: entry PC must start or join a block");
        }
    }

    #[test]
    fn all_workloads_build_and_halt() {
        for w in Workload::all() {
            let p = w.build(50);
            let (st, _, n) = run_golden(&p, 1_000_000);
            assert!(st.halted, "{w} did not halt in 1M instructions");
            assert!(n > 100, "{w} retired too few instructions: {n}");
        }
    }

    #[test]
    fn workloads_do_memory_traffic_except_bitcount_is_light() {
        for w in Workload::all() {
            let p = w.build(200);
            let mut st = ArchState::at_entry(&p);
            let mut mem = FlatMemory::new();
            mem.load_image(&p);
            let mut mem_ops = 0u64;
            let mut total = 0u64;
            while !st.halted && total < 200_000 {
                let info = st.step(&p, &mut mem, &mut NoNondet).unwrap();
                mem_ops += info.mem.len() as u64;
                total += 1;
            }
            let density = mem_ops as f64 / total as f64;
            match w {
                Workload::Bitcount => assert!(
                    density < 0.12,
                    "bitcount must be compute bound, got {density:.3} mem/instr"
                ),
                Workload::Randacc | Workload::Stream => {
                    assert!(density > 0.15, "{w} must be memory heavy, got {density:.3} mem/instr")
                }
                _ => assert!(density > 0.02, "{w} does some memory traffic: {density:.3}"),
            }
        }
    }

    #[test]
    fn iteration_scaling_is_monotone() {
        for w in Workload::all() {
            let (_, _, small) = run_golden(&w.build(20), 10_000_000);
            let (_, _, large) = run_golden(&w.build(200), 10_000_000);
            assert!(large > small, "{w}: {large} !> {small}");
        }
    }

    #[test]
    fn iters_for_instrs_overshoots() {
        for w in Workload::all() {
            let target = 30_000;
            let p = w.build(w.iters_for_instrs(target));
            let (_, _, n) = run_golden(&p, 10_000_000);
            assert!(n >= target, "{w} built for {target} instrs only retired {n}");
        }
    }

    #[test]
    fn deterministic_builds() {
        for w in Workload::all() {
            let a = w.build(100);
            let b = w.build(100);
            assert_eq!(a.text().len(), b.text().len());
            let (sa, ma, _) = run_golden(&a, 10_000_000);
            let (sb, mb, _) = run_golden(&b, 10_000_000);
            assert_eq!(sa.first_register_mismatch(&sb), None, "{w} is nondeterministic");
            assert_eq!(ma.first_difference(&mb), None);
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for w in Workload::all() {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn table_ii_metadata() {
        assert_eq!(Workload::Randacc.source(), "HPCC");
        assert_eq!(Workload::Bitcount.source(), "MiBench");
        assert_eq!(Workload::Facesim.source(), "Parsec");
        for w in Workload::all() {
            assert!(!w.description().is_empty());
        }
    }
}
