//! Dual-core lockstep (§II-B, §VII-A): the industry baseline.
//!
//! Two identical out-of-order cores execute the same program on duplicated
//! hardware (each with its own L1/L2/DRAM — full duplication, which is the
//! point of the area comparison); a hardware comparator checks the two
//! commit streams. Detection latency is a few cycles; area and power are
//! ~2×; performance overhead is negligible.

use paradet_isa::{ArchState, Program};
use paradet_mem::{MemConfig, MemHier, Time};
use paradet_ooo::{
    ArmedFault, CommitEvent, CommitGate, DetectionSink, MemEffect, OooConfig, OooCore,
};

/// A detected lockstep mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepMismatch {
    /// Micro-op sequence number at which the streams diverged.
    pub seq: u64,
    /// Commit time on the checked core.
    pub at: Time,
}

/// Result of a lockstep run.
#[derive(Debug, Clone)]
pub struct DclsReport {
    /// Instructions retired (on the primary core).
    pub instrs: u64,
    /// Primary-core cycles.
    pub cycles: u64,
    /// Completion time.
    pub time: Time,
    /// The first commit-stream mismatch, if any.
    pub mismatch: Option<LockstepMismatch>,
    /// Whether the primary crashed (wild PC under fault injection).
    pub crashed: bool,
}

impl DclsReport {
    /// Whether the comparator detected an error.
    pub fn detected(&self) -> bool {
        self.mismatch.is_some() || self.crashed
    }
}

/// Records a commit stream (store effects only — what leaves the sphere of
/// replication, as in the paper's industry baselines).
#[derive(Debug, Default)]
struct StreamRecorder {
    stores: Vec<(u64, MemEffect, Time)>,
}

impl DetectionSink for StreamRecorder {
    fn on_commit(
        &mut self,
        ev: &CommitEvent,
        at: Time,
        _committed: &ArchState,
        _hier: &mut MemHier,
    ) -> CommitGate {
        if let Some(m) = ev.mem {
            if m.is_store {
                self.stores.push((ev.seq, m, at));
            }
        }
        CommitGate::Accept
    }
}

/// A dual-core lockstep system: full hardware duplication plus a stream
/// comparator.
#[derive(Debug)]
pub struct DclsSystem {
    primary: OooCore,
    secondary: OooCore,
    hier_a: MemHier,
    hier_b: MemHier,
}

impl DclsSystem {
    /// Builds the pair; both cores share the configuration and one shared
    /// copy of the program (a single clone, not one per core).
    pub fn new(cfg: OooConfig, program: &Program) -> DclsSystem {
        let mem_cfg = MemConfig::paper_default(cfg.clock, cfg.clock);
        let mut hier_a = MemHier::new(&mem_cfg, 0);
        let mut hier_b = MemHier::new(&mem_cfg, 0);
        hier_a.data.load_image(program);
        hier_b.data.load_image(program);
        let program = std::sync::Arc::new(program.clone());
        DclsSystem {
            primary: OooCore::new_shared(cfg, std::sync::Arc::clone(&program)),
            secondary: OooCore::new_shared(cfg, program),
            hier_a,
            hier_b,
        }
    }

    /// Arms a fault in the *primary* core only (the secondary is the
    /// reference copy).
    pub fn arm_fault(&mut self, fault: ArmedFault) {
        self.primary.arm_fault(fault);
    }

    /// Runs both cores to halt (or `max_instrs`) and compares the committed
    /// store streams.
    pub fn run(&mut self, max_instrs: u64) -> DclsReport {
        let mut rec_a = StreamRecorder::default();
        let mut rec_b = StreamRecorder::default();
        let n = self.primary.run(&mut self.hier_a, &mut rec_a, max_instrs);
        let crashed = self.primary.crashed().is_some();
        self.secondary.run(&mut self.hier_b, &mut rec_b, n);
        // The comparator: first differing store (sequence, address or value).
        let mismatch = rec_a
            .stores
            .iter()
            .zip(rec_b.stores.iter())
            .find(|((sa, ma, _), (sb, mb, _))| {
                sa != sb || ma.addr != mb.addr || ma.value != mb.value
            })
            .map(|((sa, _, ta), _)| LockstepMismatch { seq: *sa, at: *ta })
            .or_else(|| {
                if rec_a.stores.len() != rec_b.stores.len() {
                    let (seq, _, at) = *rec_a
                        .stores
                        .get(rec_b.stores.len().min(rec_a.stores.len().saturating_sub(1)))
                        .unwrap_or(rec_a.stores.last()?);
                    Some(LockstepMismatch { seq, at })
                } else {
                    None
                }
            });
        DclsReport {
            instrs: self.primary.stats.committed_instrs,
            cycles: self.primary.stats.last_commit_cycle,
            time: self.primary.now(),
            mismatch,
            crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{AluOp, ProgramBuilder, Reg};
    use paradet_ooo::FaultTarget;

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(64);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 500);
        let top = b.label_here();
        b.op_imm(AluOp::And, Reg::X5, Reg::X2, 63);
        b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
        b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
        b.sd(Reg::X2, Reg::X5, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        b.build()
    }

    #[test]
    fn clean_run_matches() {
        let mut sys = DclsSystem::new(OooConfig::default(), &program());
        let r = sys.run(u64::MAX);
        assert!(!r.detected());
        assert_eq!(r.instrs, 500 * 6 + 4);
    }

    #[test]
    fn lockstep_performance_is_native() {
        let p = program();
        let mut sys = DclsSystem::new(OooConfig::default(), &p);
        let r = sys.run(u64::MAX);
        let base =
            paradet_core::run_unchecked(&paradet_core::SystemConfig::paper_default(), &p, u64::MAX);
        assert_eq!(r.cycles, base.main_cycles, "lockstep adds no slowdown");
    }

    #[test]
    fn fault_in_primary_is_detected() {
        let mut sys = DclsSystem::new(OooConfig::default(), &program());
        sys.arm_fault(ArmedFault::new(100, FaultTarget::IntRegBit { reg: Reg::X2, bit: 2 }));
        let r = sys.run(u64::MAX);
        assert!(r.detected());
    }

    #[test]
    fn store_value_fault_is_detected() {
        let mut sys = DclsSystem::new(OooConfig::default(), &program());
        sys.arm_fault(ArmedFault::new(50, FaultTarget::StoreValueBit { bit: 1 }));
        let r = sys.run(u64::MAX);
        assert!(r.detected());
    }
}
