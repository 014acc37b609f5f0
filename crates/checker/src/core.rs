//! The in-order checker core: timing model and replay driver.
//!
//! Checking is two-phase (see [`crate::trace`]): [`replay_segment`] is the
//! expensive, purely functional phase (crack, architectural step, log
//! comparison) that any worker thread can run, and
//! [`CheckerCore::fold_timing`] is the cheap timing phase that consumes the
//! replay's [`ReplayTrace`] against the shared [`MemHier`] and this core's
//! `free_at` on the simulation thread. [`CheckerCore::run_segment`] chains
//! the two for callers that want the classic one-call interface.

use crate::replay::{CheckError, CheckOutcome, ReplayError, ReplaySource};
use crate::trace::ReplayTrace;
use paradet_isa::{
    ArchState, Instruction, MemWidth, MemoryIface, Program, UopClass, N_UOP_CLASSES,
};
use paradet_mem::{Freq, MemHier, Time};

/// Functional-unit latencies of the checker pipeline, in checker cycles.
///
/// The checker is a small in-order machine: latencies are short and the
/// pipeline has full forwarding, but long-latency operations stall
/// dependants (no out-of-order window to hide them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerLatencies {
    /// Simple integer ALU op.
    pub int_alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide (also stalls issue).
    pub div: u64,
    /// FP add/sub/mul/FMA.
    pub fp_alu: u64,
    /// FP divide.
    pub fp_div: u64,
    /// FP square root.
    pub fsqrt: u64,
    /// Log read (the "data cache" of a checker is its SRAM log segment:
    /// sequential, always hits).
    pub log_read: u64,
}

impl Default for CheckerLatencies {
    fn default() -> CheckerLatencies {
        CheckerLatencies {
            int_alu: 1,
            mul: 3,
            div: 16,
            fp_alu: 3,
            fp_div: 16,
            fsqrt: 24,
            log_read: 1,
        }
    }
}

/// Static configuration of one checker core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// Core clock (Table I: 1 GHz default).
    pub clock: Freq,
    /// Pipeline depth (Table I: "4 stage pipeline") — paid as a fill cost
    /// when a check starts.
    pub pipeline_depth: u64,
    /// Cycles to compare the architectural register file against the end
    /// checkpoint when a replay completes (two-ported file, 64 registers —
    /// mirrors the main core's 16-cycle checkpoint copy, but the checker
    /// also compares, so two reads per cycle per port pair).
    pub register_check_cycles: u64,
    /// Functional-unit latencies.
    pub lat: CheckerLatencies,
}

impl CheckerConfig {
    /// The paper's Table I checker core at the given clock.
    pub fn paper_default(clock: Freq) -> CheckerConfig {
        CheckerConfig {
            clock,
            pipeline_depth: 4,
            register_check_cycles: 16,
            lat: CheckerLatencies::default(),
        }
    }
}

impl Default for CheckerConfig {
    fn default() -> CheckerConfig {
        CheckerConfig::paper_default(Freq::from_mhz(1000))
    }
}

/// Running statistics for one checker core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Segments checked.
    pub segments: u64,
    /// Macro-instructions replayed.
    pub instrs: u64,
    /// Loads replayed from the log.
    pub loads: u64,
    /// Stores checked against the log.
    pub stores: u64,
    /// Errors raised.
    pub errors: u64,
    /// Total busy time across all segments, in femtoseconds.
    pub busy_fs: u64,
}

/// Adapter: routes the golden model's memory interface to the log segment,
/// capturing any replay error (the `MemoryIface` signature is infallible, so
/// errors are latched and surfaced after the step).
///
/// Purely functional: check *times* are the timing fold's business, so the
/// source sees [`Time::ZERO`] throughout.
struct LogMemory<'a> {
    src: &'a mut dyn ReplaySource,
    error: Option<ReplayError>,
    loads: u64,
    stores: u64,
    /// Entries consumed whose checks passed (the ones the timing fold
    /// records detection delays for).
    passed: u64,
}

impl MemoryIface for LogMemory<'_> {
    fn load(&mut self, addr: u64, width: MemWidth) -> u64 {
        if self.error.is_some() {
            return 0;
        }
        self.loads += 1;
        match self.src.replay_load(addr, width, Time::ZERO) {
            Ok(v) => {
                self.passed += 1;
                v
            }
            Err(e) => {
                self.error = Some(e);
                0
            }
        }
    }

    fn store(&mut self, addr: u64, width: MemWidth, val: u64) {
        if self.error.is_some() {
            return;
        }
        self.stores += 1;
        match self.src.check_store(addr, val, width, Time::ZERO) {
            Ok(()) => self.passed += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// One unit of checking work: everything a checker core needs to verify a
/// log segment (Fig. 2 of the paper: start checkpoint, end checkpoint, the
/// segment itself arrives as the [`ReplaySource`]).
#[derive(Debug, Clone, Copy)]
pub struct SegmentTask<'a> {
    /// The shared read-only program.
    pub program: &'a Program,
    /// Start checkpoint: architectural state at the segment's first
    /// instruction (assumed correct — strong induction, §IV).
    pub start: &'a ArchState,
    /// End checkpoint to validate against.
    pub end: &'a ArchState,
    /// Number of macro-instructions the main core committed in this segment
    /// — the checker's replay bound (§IV-J: it must never run past this).
    pub instr_count: u64,
    /// Time at which the segment (and its end checkpoint) became available.
    pub ready_at: Time,
}

/// An in-order checker core.
#[derive(Debug)]
pub struct CheckerCore {
    id: usize,
    cfg: CheckerConfig,
    free_at: Time,
    /// Statistics (public for the experiment harness).
    pub stats: CheckerStats,
}

impl CheckerCore {
    /// Creates checker core `id` (the index selects its L0 I-cache in the
    /// shared [`MemHier`]).
    pub fn new(id: usize, cfg: CheckerConfig) -> CheckerCore {
        CheckerCore { id, cfg, free_at: Time::ZERO, stats: CheckerStats::default() }
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This core's configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.cfg
    }

    /// Time at which the core finishes its current work and can accept the
    /// next segment.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Folds a finished replay's timing trace through the shared memory
    /// hierarchy and this core's availability, in seal order: pipeline fill,
    /// per-line I-fetches, in-order micro-op issue against the scoreboard,
    /// and the end-of-segment register comparison.
    ///
    /// `on_check(entry_index, check_time)` fires for every log entry that
    /// passed its check, in consumption order — the hook detection-delay
    /// accounting hangs off.
    ///
    /// Returns the verdict paired with the finish time; updates `free_at`
    /// and the running statistics exactly as the eager one-call path did.
    pub fn fold_timing(
        &mut self,
        ready_at: Time,
        replay: &ReplayOutcome,
        hier: &mut MemHier,
        on_check: impl FnMut(usize, Time),
    ) -> CheckOutcome {
        self.fold_timing_with(
            ready_at,
            replay,
            |core, line, cycle, period| hier.checker_ifetch_cycle(core, line, cycle, period),
            on_check,
        )
    }

    /// [`fold_timing`](CheckerCore::fold_timing) with an explicit I-fetch
    /// hook instead of a [`MemHier`]: `ifetch(core, line, cycle, period_fs)`
    /// returns the cycle at which the line is ready.
    ///
    /// This is the multi-domain fold entry point: one shared
    /// [`ReplayTrace`](crate::ReplayTrace) can be folded once per
    /// [`ClockDomain`](crate::ClockDomain), each fold routing its I-fetches
    /// through that domain's own checker-cache path (see
    /// `paradet_mem::CheckerPath`) while everything else about the fold —
    /// scoreboard, latency classes, pipeline fill — comes from this core's
    /// own [`CheckerConfig`].
    pub fn fold_timing_with(
        &mut self,
        ready_at: Time,
        replay: &ReplayOutcome,
        mut ifetch: impl FnMut(usize, u64, u64, u64) -> u64,
        mut on_check: impl FnMut(usize, Time),
    ) -> CheckOutcome {
        let period = self.cfg.clock.period().as_fs();
        let start_time = ready_at.max(self.free_at);
        // Convert to this core's cycle domain.
        let mut cycle = start_time.as_fs().div_ceil(period) + self.cfg.pipeline_depth;

        let mut reg_ready = [0u64; 64];
        let mut line_ready = 0u64;
        let mut entry_idx = 0usize;
        let id = self.id;
        replay.trace.walk(|ev| match ev {
            crate::trace::TraceEvent::Op(new_line) => {
                // Fetch timing: one I-cache access per new line.
                if let Some(line) = new_line {
                    line_ready = ifetch(id, line, cycle, period);
                }
                cycle = cycle.max(line_ready);
            }
            crate::trace::TraceEvent::Uop(u) => {
                // In-order issue, one micro-op per cycle, stalling on
                // operand readiness (scoreboard with forwarding).
                let issue = (cycle + 1).max(u.srcs_ready(&reg_ready));
                u.retire(&mut reg_ready, issue + u.lat());
                cycle = issue;
            }
            crate::trace::TraceEvent::Checked(n) => {
                // The check timestamp is the macro-op's issue time.
                let now = Time::from_fs(cycle * period);
                for _ in 0..n {
                    on_check(entry_idx, now);
                    entry_idx += 1;
                }
            }
        });

        cycle += self.cfg.pipeline_depth + self.cfg.register_check_cycles;
        let finish_time = Time::from_fs(cycle * period);
        self.stats.segments += 1;
        self.stats.instrs += replay.instrs;
        self.stats.loads += replay.loads;
        self.stats.stores += replay.stores;
        if matches!(replay.result, Err(ref e) if !matches!(e, CheckError::Exec)) {
            self.stats.errors += 1;
        }
        self.stats.busy_fs += finish_time.saturating_sub(start_time).as_fs();
        self.free_at = finish_time;
        CheckOutcome { finish_time, result: replay.result.clone(), instrs_replayed: replay.instrs }
    }

    /// Replays and checks one segment to completion, returning the verdict
    /// and finish time. The core is busy until
    /// [`finish_time`](CheckOutcome::finish_time).
    ///
    /// One-call convenience over the two-phase interface: a fresh
    /// [`replay_segment`] immediately folded by
    /// [`fold_timing`](CheckerCore::fold_timing). The decoupled farm calls
    /// the phases separately (replay on a worker, fold at the join).
    pub fn run_segment(
        &mut self,
        task: SegmentTask<'_>,
        source: &mut dyn ReplaySource,
        hier: &mut MemHier,
    ) -> CheckOutcome {
        let mut trace = ReplayTrace::new();
        let replay = replay_segment(&self.cfg, task, source, &mut trace);
        self.fold_timing(task.ready_at, &replay, hier, |_, _| {})
    }
}

/// The result of the functional replay phase: the verdict plus the
/// [`ReplayTrace`] the timing fold consumes.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// `Ok` if the segment verified clean.
    pub result: Result<(), CheckError>,
    /// Macro-instructions replayed.
    pub instrs: u64,
    /// Loads replayed from the log.
    pub loads: u64,
    /// Stores checked against the log.
    pub stores: u64,
    /// The timing trace (taken by value into the outcome so farm jobs can
    /// recycle its buffers).
    pub trace: ReplayTrace,
}

/// The functional replay phase: architectural re-execution of one segment
/// against its log, with no timing and no shared state.
///
/// Needs only the shared program, the owned checkpoint pair and the sealed
/// entries — everything a worker thread can hold — and leaves the timing
/// facts in `trace` (cleared first; pass a recycled buffer to avoid
/// allocation). The `source` sees [`Time::ZERO`] for every check `now`:
/// real check times exist only in the fold.
pub fn replay_segment(
    cfg: &CheckerConfig,
    task: SegmentTask<'_>,
    source: &mut dyn ReplaySource,
    out_trace: &mut ReplayTrace,
) -> ReplayOutcome {
    out_trace.clear();
    let mut state = task.start.clone();
    let mut last_fetch_line = u64::MAX;
    let mut instrs = 0u64;
    let mut verdict: Result<(), CheckError> = Ok(());

    let mut log = LogMemory { src: source, error: None, loads: 0, stores: 0, passed: 0 };

    // Block-stepped replay: one [`Program::block_at`] lookup per basic
    // block, and trace micro-ops emitted straight from the pre-decoded
    // stream with per-class latencies. A wild control transfer surfaces
    // as a failed block lookup at the next block boundary
    // (`CheckError::Exec`).
    let lut = class_latency_lut(&cfg.lat);
    let text = task.program.text();
    'blocks: while instrs < task.instr_count && !state.halted {
        let Some((block, off)) = task.program.block_at(state.pc) else {
            verdict = Err(CheckError::Exec);
            break;
        };
        let first = (block.first + off) as usize;
        let end = (block.first + block.len) as usize;
        for (i, &insn) in text.iter().enumerate().take(end).skip(first) {
            let pc = state.pc;
            debug_assert_eq!(
                pc,
                paradet_isa::TEXT_BASE + i as u64 * 4,
                "architectural PC out of sync with block walk"
            );
            let line = pc & !63;
            let new_line = if line != last_fetch_line {
                last_fetch_line = line;
                Some(line)
            } else {
                None
            };
            out_trace.begin_op(new_line);
            for p in task.program.pre_uops_of(i) {
                out_trace.push_uop(p.srcs, p.dst, lut[p.class as usize]);
            }

            let passed_before = log.passed;
            match insn {
                Instruction::RdCycle { rd } => {
                    match log.src.replay_nondet(Time::ZERO) {
                        Ok(v) => {
                            log.passed += 1;
                            state.set_x(rd, v);
                        }
                        Err(e) => {
                            log.error = Some(e);
                            state.set_x(rd, 0);
                        }
                    }
                    state.pc += 4;
                    state.retired += 1;
                }
                insn => {
                    state.step_decoded(insn, &mut log, &mut paradet_isa::NoNondet);
                }
            }
            instrs += 1;
            out_trace.set_entries((log.passed - passed_before) as u8);

            if let Some(e) = log.error {
                verdict = Err(CheckError::Replay { at_instr: instrs - 1, error: e });
                break 'blocks;
            }
            if state.halted || instrs >= task.instr_count {
                break 'blocks;
            }
        }
    }

    // End-of-segment validation (§IV-B): all entries consumed, then the
    // register checkpoint compared.
    if verdict.is_ok() {
        if instrs >= task.instr_count && !log.src.exhausted() {
            // Replayed as many instructions as the main core committed
            // but did not consume the log: divergence timeout.
            verdict = Err(CheckError::Divergence);
        } else if !log.src.exhausted() {
            verdict = Err(CheckError::EntriesLeftOver);
        } else if let Some(reg) = state.first_register_mismatch(task.end) {
            verdict = Err(CheckError::RegisterMismatch { reg });
        }
    }

    ReplayOutcome {
        result: verdict,
        instrs,
        loads: log.loads,
        stores: log.stores,
        trace: std::mem::take(out_trace),
    }
}

/// Per-[`UopClass`] checker latencies, indexed by the class discriminant.
fn class_latency_lut(lat: &CheckerLatencies) -> [u64; N_UOP_CLASSES] {
    let mut lut = [lat.int_alu; N_UOP_CLASSES];
    lut[UopClass::Mul as usize] = lat.mul;
    lut[UopClass::Div as usize] = lat.div;
    lut[UopClass::FpAlu as usize] = lat.fp_alu;
    lut[UopClass::FpDiv as usize] = lat.fp_div;
    lut[UopClass::Fma as usize] = lat.fp_alu;
    lut[UopClass::FSqrt as usize] = lat.fsqrt;
    lut[UopClass::Load as usize] = lat.log_read;
    lut[UopClass::Store as usize] = lat.log_read;
    lut
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{AluOp, FlatMemory, NoNondet, ProgramBuilder, Reg};
    use paradet_mem::MemConfig;

    /// A reference replay source backed by a vector of (is_store, addr,
    /// value) entries plus optional nondet values, as the golden model
    /// produced them.
    #[derive(Debug, Default)]
    struct VecSource {
        entries: Vec<(u8, u64, u64)>, // kind 0=load,1=store,2=nondet
        pos: usize,
        check_times: Vec<Time>,
    }

    impl ReplaySource for VecSource {
        fn replay_load(&mut self, addr: u64, _w: MemWidth, now: Time) -> Result<u64, ReplayError> {
            let Some(&(kind, a, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
            self.check_times.push(now);
            if kind != 0 {
                return Err(ReplayError::KindMismatch);
            }
            if a != addr {
                return Err(ReplayError::LoadAddrMismatch { got: addr, logged: a });
            }
            Ok(v)
        }

        fn check_store(
            &mut self,
            addr: u64,
            value: u64,
            _w: MemWidth,
            now: Time,
        ) -> Result<(), ReplayError> {
            let Some(&(kind, a, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
            self.check_times.push(now);
            if kind != 1 {
                return Err(ReplayError::KindMismatch);
            }
            if a != addr {
                return Err(ReplayError::StoreAddrMismatch { got: addr, logged: a });
            }
            if v != value {
                return Err(ReplayError::StoreValueMismatch { got: value, logged: v });
            }
            Ok(())
        }

        fn replay_nondet(&mut self, now: Time) -> Result<u64, ReplayError> {
            let Some(&(kind, _, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
            self.check_times.push(now);
            if kind != 2 {
                return Err(ReplayError::KindMismatch);
            }
            Ok(v)
        }

        fn exhausted(&self) -> bool {
            self.pos >= self.entries.len()
        }
    }

    /// Build a program, run it on the golden model collecting a "segment"
    /// spanning the whole run, and return everything a checker needs.
    fn golden_segment(
        b: ProgramBuilder,
    ) -> (paradet_isa::Program, ArchState, ArchState, u64, VecSource) {
        let program = b.build();
        let start = ArchState::at_entry(&program);
        let mut state = start.clone();
        let mut mem = FlatMemory::new();
        mem.load_image(&program);
        let mut entries = Vec::new();
        let mut count = 0;
        while !state.halted {
            let info = state.step(&program, &mut mem, &mut NoNondet).unwrap();
            for a in &info.mem {
                entries.push((a.is_store as u8, a.addr, a.value));
            }
            if let Some(v) = info.nondet {
                entries.push((2, 0, v));
            }
            count += 1;
        }
        let src = VecSource { entries, pos: 0, check_times: Vec::new() };
        (program, start, state, count, src)
    }

    fn test_program() -> ProgramBuilder {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_u64s(&[3, 1, 4, 1, 5]);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 5);
        b.li(Reg::X4, 0);
        let top = b.label_here();
        b.ld(Reg::X5, Reg::X1, 0);
        b.op(AluOp::Add, Reg::X4, Reg::X4, Reg::X5);
        b.sd(Reg::X4, Reg::X1, 0);
        b.addi(Reg::X1, Reg::X1, 8);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        b
    }

    fn mk_hier(n: usize) -> MemHier {
        MemHier::new(&MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000)), n)
    }

    #[test]
    fn clean_segment_verifies() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert_eq!(out.result, Ok(()));
        assert_eq!(out.instrs_replayed, count);
        assert!(out.finish_time > Time::ZERO);
        assert_eq!(core.stats.loads, 5);
        assert_eq!(core.stats.stores, 5);
        // Check timestamps are monotone non-decreasing.
        assert!(src.check_times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn corrupted_store_value_is_detected() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        // Corrupt one logged store value (as if the main core computed it
        // wrongly).
        let idx = src.entries.iter().position(|e| e.0 == 1).unwrap();
        src.entries[idx].2 ^= 0x10;
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert!(
            matches!(
                out.result,
                Err(CheckError::Replay { error: ReplayError::StoreValueMismatch { .. }, .. })
            ),
            "got {:?}",
            out.result
        );
        assert_eq!(core.stats.errors, 1);
    }

    #[test]
    fn corrupted_load_addr_is_detected() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        let idx = src.entries.iter().position(|e| e.0 == 0).unwrap();
        src.entries[idx].1 ^= 0x8;
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert!(matches!(
            out.result,
            Err(CheckError::Replay { error: ReplayError::LoadAddrMismatch { .. }, .. })
        ));
    }

    #[test]
    fn corrupted_end_checkpoint_is_detected() {
        let (program, start, mut end, count, mut src) = golden_segment(test_program());
        end.set_x(Reg::X4, end.x(Reg::X4) ^ 1);
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert_eq!(out.result, Err(CheckError::RegisterMismatch { reg: "x4".into() }));
    }

    #[test]
    fn corrupted_start_checkpoint_diverges() {
        // A corrupted *start* checkpoint PC makes the replay skip the
        // first instruction (`li x1, buf`), so every load address differs:
        // the address check fires (or the register check at worst).
        let (program, mut start, end, count, mut src) = golden_segment(test_program());
        start.pc += 4;
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert!(out.result.is_err());
    }

    #[test]
    fn leftover_entries_are_detected() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        src.entries.push((0, 0xdead, 0));
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert!(matches!(
            out.result,
            Err(CheckError::Divergence) | Err(CheckError::EntriesLeftOver)
        ));
    }

    #[test]
    fn slower_clock_takes_longer() {
        let (program, start, end, count, mut src1) = golden_segment(test_program());
        let mut src2 = VecSource { entries: src1.entries.clone(), pos: 0, check_times: Vec::new() };
        let mut hier = mk_hier(2);
        let mut fast = CheckerCore::new(0, CheckerConfig::paper_default(Freq::from_mhz(2000)));
        let mut slow = CheckerCore::new(1, CheckerConfig::paper_default(Freq::from_mhz(250)));
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let f = fast.run_segment(task, &mut src1, &mut hier);
        let s = slow.run_segment(task, &mut src2, &mut hier);
        assert_eq!(f.result, Ok(()));
        assert_eq!(s.result, Ok(()));
        assert!(
            s.finish_time > f.finish_time + (f.finish_time - Time::ZERO),
            "250MHz check should take much longer than 2GHz: {} vs {}",
            s.finish_time,
            f.finish_time
        );
    }

    #[test]
    fn core_stays_busy_between_segments() {
        let (program, start, end, count, mut src1) = golden_segment(test_program());
        let mut src2 = VecSource { entries: src1.entries.clone(), pos: 0, check_times: Vec::new() };
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let first = core.run_segment(task, &mut src1, &mut hier);
        // Second segment "ready" at time zero, but the core is busy.
        let second = core.run_segment(task, &mut src2, &mut hier);
        assert!(second.finish_time > first.finish_time);
        assert_eq!(core.stats.segments, 2);
    }

    #[test]
    fn nondet_is_replayed_from_log() {
        let mut b = ProgramBuilder::new();
        b.rdcycle(Reg::X1);
        b.addi(Reg::X2, Reg::X1, 1);
        b.halt();
        let (program, start, mut end, count, mut src) = golden_segment(b);
        // The golden run recorded nondet 0 (NoNondet); pretend the main core
        // observed 41 instead, and adjust the end checkpoint accordingly.
        let idx = src.entries.iter().position(|e| e.0 == 2).unwrap();
        src.entries[idx].2 = 41;
        end.set_x(Reg::X1, 41);
        end.set_x(Reg::X2, 42);
        let mut hier = mk_hier(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask {
            program: &program,
            start: &start,
            end: &end,
            instr_count: count,
            ready_at: Time::ZERO,
        };
        let out = core.run_segment(task, &mut src, &mut hier);
        assert_eq!(out.result, Ok(()), "nondet value must come from the log");
    }
}
