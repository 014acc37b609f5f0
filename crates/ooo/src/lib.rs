//! Out-of-order main core model for the paradet simulator.
//!
//! Implements the Table I main core of Ainsworth & Jones (DSN 2018): a
//! 3-wide out-of-order core at 3.2 GHz with a 40-entry ROB, 32-entry issue
//! queue, 16-entry load and store queues, 128+128 physical registers, three
//! integer ALUs, two FP ALUs, one multiply/divide unit and a tournament
//! branch predictor — plus the commit-stage hooks ([`DetectionSink`])
//! through which the parallel error-detection hardware observes committed
//! loads and stores and gates commit (checkpoint pauses, log-full stalls).
//!
//! # Example
//!
//! ```
//! use paradet_isa::{ProgramBuilder, Reg};
//! use paradet_mem::{MemConfig, MemHier, Freq};
//! use paradet_ooo::{NullSink, OooConfig, OooCore};
//!
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::X1, 41);
//! b.addi(Reg::X1, Reg::X1, 1);
//! b.halt();
//! let program = b.build();
//!
//! let cfg = OooConfig::default();
//! let mut hier = MemHier::new(&MemConfig::paper_default(cfg.clock, Freq::from_mhz(1000)));
//! let mut core = OooCore::new(cfg, &program);
//! core.run(&mut hier, &mut NullSink, 1_000);
//! assert!(core.halted());
//! assert_eq!(core.committed_state().x(Reg::X1), 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod core;
mod fault;
mod predictor;
mod resources;
mod types;

pub use crate::core::{BlockOutcome, CoreError, CoreSnapshot, CoreStats, OooCore};
pub use config::{LatencyTable, OooConfig};
pub use fault::{ArmedFault, FaultKind, FaultTarget};
pub use predictor::{DirectionPrediction, PredictorConfig, PredictorStats, TournamentPredictor};
pub use resources::{FifoOccupancy, SlotPool, UnorderedOccupancy};
pub use types::{CommitEvent, CommitGate, DetectionSink, NullSink};

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{
        AluOp, ArchState, FlatMemory, MemWidth, MemoryIface, NoNondet, Program, ProgramBuilder, Reg,
    };
    use paradet_mem::{Freq, MemConfig, MemHier, Time};

    fn hier_for(cfg: &OooConfig) -> MemHier {
        MemHier::new(&MemConfig::paper_default(cfg.clock, Freq::from_mhz(1000)))
    }

    fn run_program(program: &Program) -> (OooCore, MemHier) {
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        hier.data.load_image(program);
        let mut core = OooCore::new(cfg, program);
        core.run(&mut hier, &mut NullSink, 10_000_000);
        (core, hier)
    }

    /// Build a loop of `n` iterations whose body is created by `body`.
    fn loop_program(n: i64, body: impl Fn(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X30, 0);
        b.li(Reg::X31, n);
        let top = b.label_here();
        body(&mut b);
        b.addi(Reg::X30, Reg::X30, 1);
        b.blt(Reg::X30, Reg::X31, top);
        b.halt();
        b.build()
    }

    #[test]
    fn matches_golden_model() {
        // A program with stores, loads, branches and FP; the OoO core's
        // committed state must equal the functional golden model's.
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_u64s(&[5, 10, 15, 20]);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 0); // acc
        b.li(Reg::X4, 4);
        let top = b.label_here();
        b.op_imm(AluOp::Sll, Reg::X5, Reg::X2, 3);
        b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
        b.ld(Reg::X6, Reg::X5, 0);
        b.op(AluOp::Add, Reg::X3, Reg::X3, Reg::X6);
        b.sd(Reg::X3, Reg::X5, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X4, top);
        b.halt();
        let program = b.build();

        let (core, hier) = run_program(&program);
        assert!(core.halted());

        let mut golden = ArchState::at_entry(&program);
        let mut gmem = FlatMemory::new();
        gmem.load_image(&program);
        golden.run_blocks(&program, &mut gmem, &mut NoNondet, 1_000_000).unwrap();

        assert_eq!(core.committed_state().first_register_mismatch(&golden), None);
        assert_eq!(hier.data.first_difference(&gmem), None);
        assert_eq!(core.committed_state().x(Reg::X3), 50);
    }

    #[test]
    fn independent_ops_reach_superscalar_ipc() {
        // Independent adds across 6 registers: should run near width=3.
        let program = loop_program(2000, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X2, Reg::X2, 1);
            b.addi(Reg::X3, Reg::X3, 1);
            b.addi(Reg::X4, Reg::X4, 1);
            b.addi(Reg::X5, Reg::X5, 1);
            b.addi(Reg::X6, Reg::X6, 1);
        });
        let (core, _) = run_program(&program);
        let ipc = core.stats.ipc();
        assert!(ipc > 1.8, "independent ops should exceed IPC 1.8, got {ipc:.2}");
        assert!(ipc <= 3.0 + 1e-9, "IPC cannot exceed width, got {ipc:.2}");
    }

    #[test]
    fn dependent_chain_limits_ipc() {
        // A serial dependence chain: IPC near 1 (every add waits a cycle).
        let program = loop_program(2000, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X1, Reg::X1, 1);
        });
        let (core, _) = run_program(&program);
        let ipc = core.stats.ipc();
        assert!(ipc < 1.4, "dependent chain should bound IPC near 1, got {ipc:.2}");
        assert_eq!(core.committed_state().x(Reg::X1), 12000);
    }

    #[test]
    fn dependent_divides_are_slow() {
        let fast = loop_program(500, |b| {
            b.op(AluOp::Add, Reg::X1, Reg::X1, Reg::X2);
        });
        let slow = loop_program(500, |b| {
            b.op(AluOp::Div, Reg::X1, Reg::X1, Reg::X2);
        });
        let (cf, _) = run_program(&fast);
        let (cs, _) = run_program(&slow);
        assert!(
            cs.stats.last_commit_cycle > cf.stats.last_commit_cycle * 4,
            "div chain should be much slower: {} vs {}",
            cs.stats.last_commit_cycle,
            cf.stats.last_commit_cycle
        );
    }

    #[test]
    fn pointer_chase_pays_memory_latency() {
        // A dependent pointer chase over a large ring: every load misses
        // or at least pays L2 latency; IPC must be far below 1.
        let n: usize = 65536; // 512 KiB of pointers: misses L1D, fits L2
        let stride = 97; // co-prime with n: full-cycle permutation
        let base = 0x200000u64;
        let mut ring = vec![0u64; n];
        for (i, slot) in ring.iter_mut().enumerate() {
            *slot = base + (((i + stride) % n) as u64) * 8;
        }
        let mut b = ProgramBuilder::new();
        let mut bytes = Vec::new();
        for v in &ring {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        b.data_at(base, bytes);
        b.li(Reg::X1, base as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 20000);
        let top = b.label_here();
        b.ld(Reg::X1, Reg::X1, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        let program = b.build();
        let (core, _) = run_program(&program);
        let ipc = core.stats.ipc();
        assert!(ipc < 0.5, "pointer chase should be memory bound, got IPC {ipc:.2}");
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Data-dependent unpredictable branches (LCG parity) vs the same
        // loop with an always-not-taken pattern.
        let make = |unpredictable: bool| {
            let mut b = ProgramBuilder::new();
            b.li(Reg::X1, 12345);
            b.li(Reg::X2, 0);
            b.li(Reg::X3, 5000);
            b.li(Reg::X7, 6364136223846793005u64 as i64);
            let top = b.label_here();
            let skip = b.new_label();
            if unpredictable {
                b.op(AluOp::Mul, Reg::X1, Reg::X1, Reg::X7);
                b.addi(Reg::X1, Reg::X1, 1442695040888963407u64 as i64);
                b.op_imm(AluOp::Srl, Reg::X4, Reg::X1, 33);
                b.op_imm(AluOp::And, Reg::X4, Reg::X4, 1);
            } else {
                b.op(AluOp::Mul, Reg::X5, Reg::X1, Reg::X7); // same work
                b.addi(Reg::X5, Reg::X5, 1442695040888963407u64 as i64);
                b.op_imm(AluOp::Srl, Reg::X6, Reg::X5, 33);
                b.li(Reg::X4, 0);
            }
            b.beq(Reg::X4, Reg::X0, skip);
            b.addi(Reg::X8, Reg::X8, 1);
            b.bind(skip);
            b.addi(Reg::X2, Reg::X2, 1);
            b.blt(Reg::X2, Reg::X3, top);
            b.halt();
            b.build()
        };
        let (unpred, _) = run_program(&make(true));
        let (pred, _) = run_program(&make(false));
        assert!(
            unpred.stats.mispredicts > pred.stats.mispredicts + 1000,
            "random branches must mispredict: {} vs {}",
            unpred.stats.mispredicts,
            pred.stats.mispredicts
        );
        assert!(
            unpred.stats.last_commit_cycle > pred.stats.last_commit_cycle * 11 / 10,
            "mispredictions must cost cycles: {} vs {}",
            unpred.stats.last_commit_cycle,
            pred.stats.last_commit_cycle
        );
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        // store x → immediately load x: should forward, staying near-L1
        // speed and counting forwards.
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(1);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 2000);
        let top = b.label_here();
        b.sd(Reg::X2, Reg::X1, 0);
        b.ld(Reg::X4, Reg::X1, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        let (core, _) = run_program(&b.build());
        assert!(
            core.stats.store_forwards > 1000,
            "expected forwarding, got {}",
            core.stats.store_forwards
        );
    }

    #[test]
    fn sink_sees_commits_in_order_with_monotonic_times() {
        struct Recorder {
            times: Vec<Time>,
            seqs: Vec<u64>,
            mems: u64,
        }
        impl DetectionSink for Recorder {
            fn on_commit(
                &mut self,
                ev: &CommitEvent,
                at: Time,
                _c: &ArchState,
                _h: &mut MemHier,
            ) -> CommitGate {
                self.times.push(at);
                self.seqs.push(ev.seq);
                if ev.mem.is_some() {
                    self.mems += 1;
                }
                CommitGate::Accept
            }
        }
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(4);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 7);
        b.sd(Reg::X2, Reg::X1, 0);
        b.stp(Reg::X2, Reg::X2, Reg::X1, 8);
        b.ldp(Reg::X3, Reg::X4, Reg::X1, 8);
        b.halt();
        let program = b.build();
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        hier.data.load_image(&program);
        let mut core = OooCore::new(cfg, &program);
        let mut rec = Recorder { times: Vec::new(), seqs: Vec::new(), mems: 0 };
        core.run(&mut hier, &mut rec, 1000);
        assert!(core.halted());
        assert!(rec.times.windows(2).all(|w| w[0] <= w[1]), "commit times must be monotonic");
        assert!(rec.seqs.windows(2).all(|w| w[0] < w[1]), "sequence must increase");
        assert_eq!(rec.mems, 5, "1 store + 2 stp stores + 2 ldp loads");
    }

    #[test]
    fn retry_gate_stalls_commit() {
        struct StallOnce {
            stalled: bool,
            until: Time,
        }
        impl DetectionSink for StallOnce {
            fn on_commit(
                &mut self,
                ev: &CommitEvent,
                at: Time,
                _c: &ArchState,
                _h: &mut MemHier,
            ) -> CommitGate {
                if !self.stalled && ev.instr_index == 1 {
                    self.stalled = true;
                    self.until = at + Time::from_us(1);
                    return CommitGate::Retry(self.until);
                }
                assert!(
                    ev.instr_index < 1 || at >= self.until,
                    "commit proceeded before the retry time"
                );
                CommitGate::Accept
            }
        }
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 1);
        b.li(Reg::X2, 2);
        b.li(Reg::X3, 3);
        b.halt();
        let program = b.build();
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        let mut sink = StallOnce { stalled: false, until: Time::ZERO };
        core.run(&mut hier, &mut sink, 100);
        assert!(core.halted());
        assert!(sink.stalled);
        assert!(core.stats.gate_retry_cycles > 2000, "3.2GHz × 1µs ≈ 3200 cycles of stall");
    }

    #[test]
    fn pause_gate_delays_following_commits() {
        struct PauseAt2;
        impl DetectionSink for PauseAt2 {
            fn on_commit(
                &mut self,
                ev: &CommitEvent,
                _at: Time,
                _c: &ArchState,
                _h: &mut MemHier,
            ) -> CommitGate {
                if ev.instr_index == 2 {
                    CommitGate::AcceptWithPause(16)
                } else {
                    CommitGate::Accept
                }
            }
        }
        let program = loop_program(100, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
        });
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.run(&mut hier, &mut PauseAt2, 10_000);
        assert_eq!(core.stats.gate_pauses, 1);
        assert_eq!(core.stats.gate_pause_cycles, 16);
    }

    #[test]
    fn rmt_duplication_slows_the_core() {
        let program = loop_program(2000, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
            b.addi(Reg::X2, Reg::X2, 1);
            b.addi(Reg::X3, Reg::X3, 1);
        });
        let (normal, _) = run_program(&program);
        let cfg = OooConfig { rmt_duplicate: true, ..OooConfig::default() };
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.run(&mut hier, &mut NullSink, 10_000_000);
        assert!(core.halted());
        let slowdown = core.stats.last_commit_cycle as f64 / normal.stats.last_commit_cycle as f64;
        assert!(
            slowdown > 1.15,
            "RMT duplication should cost ≳15% on a wide-ILP loop, got {slowdown:.2}x"
        );
    }

    #[test]
    fn int_reg_fault_corrupts_final_state() {
        let program = loop_program(100, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
        });
        let (clean, _) = run_program(&program);
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.arm_fault(ArmedFault::new(50, FaultTarget::IntRegBit { reg: Reg::X1, bit: 7 }));
        core.run(&mut hier, &mut NullSink, 10_000_000);
        assert!(core.halted());
        assert_ne!(
            core.committed_state().x(Reg::X1),
            clean.committed_state().x(Reg::X1),
            "register fault must change the outcome"
        );
    }

    #[test]
    fn pc_fault_can_crash_the_core() {
        let program = loop_program(1000, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
        });
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.arm_fault(ArmedFault::new(10, FaultTarget::PcBit { bit: 20 }));
        core.run(&mut hier, &mut NullSink, 10_000_000);
        assert!(
            core.crashed().is_some() || core.halted(),
            "pc fault should crash or (rarely) survive to halt"
        );
    }

    #[test]
    fn store_value_fault_corrupts_memory_and_event() {
        struct CatchStore {
            value: Option<u64>,
        }
        impl DetectionSink for CatchStore {
            fn on_commit(
                &mut self,
                ev: &CommitEvent,
                _at: Time,
                _c: &ArchState,
                _h: &mut MemHier,
            ) -> CommitGate {
                if let Some(m) = ev.mem {
                    if m.is_store {
                        self.value = Some(m.value);
                    }
                }
                CommitGate::Accept
            }
        }
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(1);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0xff);
        b.sd(Reg::X2, Reg::X1, 0);
        b.halt();
        let program = b.build();
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        hier.data.load_image(&program);
        let mut core = OooCore::new(cfg, &program);
        core.arm_fault(ArmedFault::new(0, FaultTarget::StoreValueBit { bit: 0 }));
        let mut sink = CatchStore { value: None };
        core.run(&mut hier, &mut sink, 100);
        assert_eq!(sink.value, Some(0xfe), "bit 0 flipped in the stored value");
        assert_eq!(hier.data.load(buf, MemWidth::D), 0xfe);
    }

    #[test]
    fn rdcycle_returns_plausible_cycle() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.nop();
        b.rdcycle(Reg::X1);
        b.halt();
        let (core, _) = run_program(&b.build());
        let v = core.committed_state().x(Reg::X1);
        assert!(v > 0 && v < 1000, "rdcycle should be a small positive cycle, got {v}");
    }

    #[test]
    fn halted_core_refuses_to_step() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let program = b.build();
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.run(&mut hier, &mut NullSink, 10);
        assert!(core.halted());
        assert!(matches!(core.step_block(&mut hier, &mut NullSink, 1), Err(CoreError::Halted)));
    }

    #[test]
    fn zero_budget_retires_nothing_even_with_a_fault_armed() {
        let program = loop_program(100, |b| {
            b.addi(Reg::X1, Reg::X1, 1);
        });
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.arm_fault(ArmedFault::new(50, FaultTarget::IntRegBit { reg: Reg::X1, bit: 7 }));
        let out = core.step_block(&mut hier, &mut NullSink, 0).unwrap();
        assert_eq!(out.instrs, 0);
        assert_eq!(core.stats.committed_instrs, 0);
    }

    #[test]
    fn pc_fault_ends_the_block() {
        // A straight-line block of adds: a PC flip firing mid-block must end
        // the call at the struck instruction, with fetch redirected to the
        // flipped PC.
        let mut b = ProgramBuilder::new();
        for _ in 0..8 {
            b.addi(Reg::X1, Reg::X1, 1);
        }
        b.halt();
        let program = b.build();
        let cfg = OooConfig::default();
        let mut hier = hier_for(&cfg);
        let mut core = OooCore::new(cfg, &program);
        core.arm_fault(ArmedFault::new(2, FaultTarget::PcBit { bit: 3 }));
        let out = core.step_block(&mut hier, &mut NullSink, 100).unwrap();
        assert_eq!(out.instrs, 3, "the struck instruction is the block's last");
        assert_eq!(core.committed_state().pc, (program.entry() + 12) ^ 8);
        assert!(core.unfired_faults().is_empty());
    }
}
