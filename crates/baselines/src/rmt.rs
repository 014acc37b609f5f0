//! Redundant multithreading baseline (§II-B, §VII-B).
//!
//! Every micro-op is duplicated at rename; the copy competes for window
//! slots, issue bandwidth and functional units on the *same* core
//! (chip-level redundant threading in the style of Mukherjee et al., which
//! the paper cites at ~32% performance overhead). Hard faults are NOT
//! covered — both copies execute on the same hardware — which is exactly
//! the deficiency Fig. 1 tabulates.

use paradet_core::{run_unchecked, SystemConfig};
use paradet_isa::Program;
use paradet_mem::{MemConfig, MemHier, Time};
use paradet_ooo::{NullSink, OooConfig, OooCore};

/// Result of an RMT run.
#[derive(Debug, Clone, Copy)]
pub struct RmtReport {
    /// Instructions retired.
    pub instrs: u64,
    /// Core cycles.
    pub cycles: u64,
    /// Completion time.
    pub time: Time,
    /// Whether the program halted.
    pub halted: bool,
}

/// Runs `program` with micro-op duplication enabled.
pub fn run_rmt(cfg: OooConfig, program: &Program, max_instrs: u64) -> RmtReport {
    let cfg = OooConfig { rmt_duplicate: true, ..cfg };
    let mut hier = MemHier::new(&MemConfig::paper_default(cfg.clock, cfg.clock), 0);
    hier.data.load_image(program);
    let mut core = OooCore::new(cfg, program);
    core.run(&mut hier, &mut NullSink, max_instrs);
    RmtReport {
        instrs: core.stats.committed_instrs,
        cycles: core.stats.last_commit_cycle,
        time: core.now(),
        halted: core.halted(),
    }
}

/// Normalized slowdown of RMT over the unchecked baseline.
pub fn rmt_slowdown(cfg: &SystemConfig, program: &Program, max_instrs: u64) -> f64 {
    let base = run_unchecked(cfg, program, max_instrs);
    let rmt = run_rmt(cfg.main, program, max_instrs);
    rmt.cycles as f64 / base.main_cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{ProgramBuilder, Reg};

    #[test]
    fn rmt_is_measurably_slower() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X9, 0);
        b.li(Reg::X10, 3000);
        let top = b.label_here();
        b.addi(Reg::X1, Reg::X1, 1);
        b.addi(Reg::X2, Reg::X2, 1);
        b.addi(Reg::X3, Reg::X3, 1);
        b.addi(Reg::X9, Reg::X9, 1);
        b.blt(Reg::X9, Reg::X10, top);
        b.halt();
        let p = b.build();
        let s = rmt_slowdown(&SystemConfig::paper_default(), &p, u64::MAX);
        assert!(s > 1.15, "RMT must cost well over 15% on an ILP-rich loop, got {s:.2}");
        assert!(s < 3.0, "but not be absurd: {s:.2}");
    }
}
