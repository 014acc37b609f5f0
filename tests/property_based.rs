//! Property-based tests over core data structures and invariants.

use paradet::isa::{
    crack, AluOp, ArchState, BranchCond, FlatMemory, Instruction, MemWidth, MemoryIface, NoNondet,
    ProgramBuilder, Reg,
};
use paradet::mem::{Cache, CacheConfig, Dram, DramConfig, Freq, Time};
use paradet::ooo::{FifoOccupancy, SlotPool, UnorderedOccupancy};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..32).prop_map(Reg::from_index)
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Mul),
        Just(AluOp::Mulh),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

proptest! {
    /// ALU semantics: every op is total and deterministic, and matches a
    /// direct reference computation for the simple ops.
    #[test]
    fn alu_ops_total_and_deterministic(op in arb_alu_op(), a in any::<u64>(), b in any::<u64>()) {
        let x = op.eval(a, b);
        let y = op.eval(a, b);
        prop_assert_eq!(x, y);
        match op {
            AluOp::Add => prop_assert_eq!(x, a.wrapping_add(b)),
            AluOp::Xor => prop_assert_eq!(x, a ^ b),
            AluOp::Sltu => prop_assert_eq!(x, (a < b) as u64),
            _ => {}
        }
    }

    /// Branch conditions partition: eq/ne, lt/ge, ltu/geu are complements.
    #[test]
    fn branch_conditions_are_complements(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(BranchCond::Eq.eval(a, b), BranchCond::Ne.eval(a, b));
        prop_assert_ne!(BranchCond::Lt.eval(a, b), BranchCond::Ge.eval(a, b));
        prop_assert_ne!(BranchCond::Ltu.eval(a, b), BranchCond::Geu.eval(a, b));
    }

    /// Memory round trip at any width/offset: store-then-load returns the
    /// truncated value, and neighbouring bytes are untouched.
    #[test]
    fn memory_roundtrip(addr in 0u64..1_000_000, val in any::<u64>(), w in 0usize..4) {
        let width = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D][w];
        let mut m = FlatMemory::new();
        m.store(addr + 16, width, val);
        prop_assert_eq!(m.load(addr + 16, width), width.truncate(val));
        prop_assert_eq!(m.read_byte(addr + 15), 0, "byte before is untouched");
        prop_assert_eq!(m.read_byte(addr + 16 + width.bytes()), 0, "byte after is untouched");
    }

    /// Sign extension agrees with a reference computation.
    #[test]
    fn sign_extension_reference(v in any::<u64>()) {
        prop_assert_eq!(MemWidth::B.sign_extend(v & 0xff), (v as u8 as i8 as i64) as u64);
        prop_assert_eq!(MemWidth::W.sign_extend(v & 0xffff_ffff), (v as u32 as i32 as i64) as u64);
    }

    /// Cracking invariants: 1..=2 micro-ops, exactly one `last`, indices
    /// sequential.
    #[test]
    fn cracking_invariants(rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(), imm in any::<i32>()) {
        let insns = [
            Instruction::Op { op: AluOp::Add, rd, rs1, rs2 },
            Instruction::Load { width: MemWidth::D, signed: false, rd, rs1, imm: imm as i64 },
            Instruction::Store { width: MemWidth::D, rs2, rs1, imm: imm as i64 },
            Instruction::Ldp { rd1: rd, rd2: rs2, rs1, imm: imm as i64 },
            Instruction::Stp { rs2a: rd, rs2b: rs2, rs1, imm: imm as i64 },
        ];
        for insn in insns {
            let uops = crack(&insn);
            prop_assert!(!uops.is_empty() && uops.len() <= paradet::isa::MAX_UOPS_PER_INSN);
            prop_assert_eq!(uops.iter().filter(|u| u.last).count(), 1);
            prop_assert!(uops.last().unwrap().last);
            for (i, u) in uops.iter().enumerate() {
                prop_assert_eq!(u.uop_index as usize, i);
            }
        }
    }

    /// Straight-line random arithmetic: the golden model is equivalent to
    /// evaluating the same dataflow directly on a register array.
    #[test]
    fn straight_line_programs_match_interpreter(
        ops in proptest::collection::vec((arb_alu_op(), 1usize..8, 0usize..8, 0usize..8), 1..40),
        seeds in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let mut b = ProgramBuilder::new();
        // Load seeds via data memory so all 64 bits are exercised.
        let base = b.alloc_u64s(&seeds);
        b.li(Reg::X31, base as i64);
        for i in 0..8 {
            b.ld(Reg::from_index(i + 1), Reg::X31, (i * 8) as i64);
        }
        let mut model: Vec<u64> = std::iter::once(0).chain(seeds.iter().copied()).collect();
        model.resize(9, 0);
        for &(op, rd, rs1, rs2) in &ops {
            b.op(op, Reg::from_index(rd), Reg::from_index(rs1), Reg::from_index(rs2));
            model[rd] = op.eval(model[rs1], model[rs2]);
        }
        b.halt();
        let program = b.build();
        let mut st = ArchState::at_entry(&program);
        let mut mem = FlatMemory::new();
        mem.load_image(&program);
        st.run_blocks(&program, &mut mem, &mut NoNondet, 10_000).unwrap();
        prop_assert!(st.halted);
        for (r, &expected) in model.iter().enumerate().take(8).skip(1) {
            prop_assert_eq!(st.x(Reg::from_index(r)), expected, "x{} diverged", r);
        }
    }

    /// SlotPool: starts are never before the requested cycle, and at most
    /// `n` operations overlap any single cycle (width enforcement).
    #[test]
    fn slot_pool_respects_width(
        n in 1usize..6,
        reqs in proptest::collection::vec(0u64..50, 1..60),
    ) {
        let mut pool = SlotPool::new(n);
        let mut sorted = reqs.clone();
        sorted.sort_unstable();
        let mut starts = Vec::new();
        for r in sorted {
            let (_, start) = pool.take(r, 1);
            prop_assert!(start >= r);
            starts.push(start);
        }
        for c in 0..=60u64 {
            let overlapping = starts.iter().filter(|&&s| s == c).count();
            prop_assert!(overlapping <= n, "cycle {} has {} > {} ops", c, overlapping, n);
        }
    }

    /// FifoOccupancy: at most `cap` entries are ever "live" at the cycle an
    /// acquisition is granted.
    #[test]
    fn fifo_occupancy_never_exceeds_capacity(
        cap in 1usize..8,
        durations in proptest::collection::vec(1u64..30, 1..50),
    ) {
        let mut f = FifoOccupancy::new(cap);
        let mut t = 0u64;
        let mut live: Vec<(u64, u64)> = Vec::new(); // (granted, release)
        for d in durations {
            let granted = f.acquire(t);
            prop_assert!(granted >= t);
            let release = granted + d;
            f.push(release);
            live.retain(|&(_, r)| r > granted);
            live.push((granted, release));
            prop_assert!(live.len() <= cap, "window over capacity");
            t = granted + 1;
        }
    }

    /// UnorderedOccupancy behaves like FifoOccupancy for monotone loads.
    #[test]
    fn unordered_occupancy_never_exceeds_capacity(
        cap in 1usize..8,
        durations in proptest::collection::vec(1u64..30, 1..50),
    ) {
        let mut u = UnorderedOccupancy::new(cap);
        let mut t = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for d in durations {
            let granted = u.acquire(t);
            let release = granted + d;
            u.push(release);
            live.retain(|&r| r > granted);
            live.push(release);
            prop_assert!(live.len() <= cap);
            t = granted + 1;
        }
    }

    /// Cache: completion times never precede the request, and a repeat
    /// access to the same line is at least as fast as the first.
    #[test]
    fn cache_latency_sanity(addrs in proptest::collection::vec(0u64..1_000_000, 1..50)) {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            hit_latency: Time::from_ns(1),
            mshrs: 4,
        });
        let mut now = Time::ZERO;
        for addr in addrs {
            let r1 = c.access(addr, false, now, &mut |_, _, t| t + Time::from_ns(20));
            prop_assert!(r1.done > now);
            let r2 = c.access(addr, false, r1.done, &mut |_, _, t| t + Time::from_ns(20));
            prop_assert!(r2.hit, "immediate re-access must hit");
            prop_assert!(r2.done - r1.done <= Time::from_ns(1));
            now += Time::from_ns(1);
        }
    }

    /// DRAM: completions are causal and the same bank never serves two
    /// overlapping bursts.
    #[test]
    fn dram_completions_are_causal(addrs in proptest::collection::vec(0u64..10_000_000, 1..50)) {
        let mut d = Dram::new(DramConfig::ddr3_1600());
        let mut now = Time::ZERO;
        let burst = Freq::from_mhz(800).cycles(4);
        let mut dones: Vec<Time> = Vec::new();
        for addr in addrs {
            let done = d.access(addr & !63, now);
            prop_assert!(done > now);
            // The shared data bus serializes all bursts.
            for &p in &dones {
                let gap = if done > p { done - p } else { p - done };
                prop_assert!(gap >= burst, "bursts overlap on the bus");
            }
            dones.push(done);
            now += Time::from_ns(1);
        }
    }
}
