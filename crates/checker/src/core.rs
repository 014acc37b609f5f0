//! The in-order checker core: timing model and replay driver.
//!
//! Checking is two-phase (see [`crate::trace`]): [`replay_segment`] is the
//! expensive, purely functional phase (architectural step, log
//! comparison), and [`CheckerCore::fold_timing`] is the cheap timing phase
//! that walks the replay's path through the program's micro-ops against
//! an I-fetch hook, this core's `free_at` and this core's latencies, on
//! the simulation thread.

use crate::replay::{CheckError, CheckOutcome, ReplayError, ReplaySource};
use crate::trace::{ReplayTrace, TraceOp};
use paradet_isa::{
    ArchState, Instruction, MemWidth, MemoryIface, Program, UopClass, INSN_BYTES, N_UOP_CLASSES,
    TEXT_BASE,
};
use paradet_mem::{Freq, Time};

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
struct LogMemory<'a> {
    src: &'a mut dyn ReplaySource,
    error: Option<ReplayError>,
    loads: u64,
    stores: u64,
    /// Entries consumed whose checks passed (the ones the timing fold
    /// records detection delays for).
    passed: u64,
}

impl LogMemory<'_> {
    /// Consumes the next log entry as `rdcycle`'s value, the main core's.
    fn nondet(&mut self) -> Option<u64> {
        match self.src.replay_nondet() {
            Ok(v) => {
                self.passed += 1;
                Some(v)
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl MemoryIface for LogMemory<'_> {
    fn load(&mut self, addr: u64, width: MemWidth) -> u64 {
        if self.error.is_some() {
            return 0;
        }
        self.loads += 1;
        match self.src.replay_load(addr, width) {
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
        match self.src.check_store(addr, val, width) {
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
}

/// An in-order checker core.
#[derive(Debug, Clone)]
pub struct CheckerCore {
    id: usize,
    cfg: CheckerConfig,
    free_at: Time,
    /// Statistics (public for the experiment harness).
    pub stats: CheckerStats,
}

impl CheckerCore {
    /// Creates checker core `id` (the `core` its I-fetches name: the index
    /// of its L0 I-cache on its checker-cache path).
    pub fn new(id: usize, cfg: CheckerConfig) -> CheckerCore {
        CheckerCore { id, cfg, free_at: Time::ZERO, stats: CheckerStats::default() }
    }

    /// This core's configuration.
    pub fn config(&self) -> &CheckerConfig {
        &self.cfg
    }

    /// When this core finishes its last folded check: the end of its busy
    /// window.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Folds a finished replay through an I-fetch hook and this core's
    /// availability, in seal order: pipeline fill, per-line I-fetches,
    /// in-order issue of the program's micro-ops along the replay's path
    /// against the scoreboard, and the end-of-segment register comparison.
    ///
    /// `ifetch(core, line, cycle, period_fs)` returns the cycle at which
    /// the line is ready. The detector routes it through the checker-cache
    /// path of the fold's clock (see `paradet_mem::CheckerPath`): one
    /// shared [`ReplayTrace`] can be folded once per
    /// [`ClockDomain`](crate::ClockDomain), while everything else about the
    /// fold — scoreboard, latency classes, pipeline fill — comes from this
    /// core's own [`CheckerConfig`].
    ///
    /// `on_check(entry_index, check_time)` fires for every log entry that
    /// passed its check, in consumption order — the hook detection-delay
    /// accounting hangs off.
    ///
    /// Returns the verdict paired with the finish time; updates `free_at`
    /// and the running statistics.
    pub fn fold_timing(
        &mut self,
        program: &Program,
        ready_at: Time,
        replay: &ReplayTrace,
        mut ifetch: impl FnMut(usize, u64, u64, u64) -> u64,
        mut on_check: impl FnMut(usize, Time),
    ) -> CheckOutcome {
        let period = self.cfg.clock.period().as_fs();
        let lat = class_latency_lut(&self.cfg.lat);
        let start_time = ready_at.max(self.free_at);
        // Convert to this core's cycle domain.
        let mut cycle = start_time.as_fs().div_ceil(period) + self.cfg.pipeline_depth;

        let mut reg_ready = [0u64; 64];
        let mut line = u64::MAX;
        let mut line_ready = 0u64;
        let mut entry_idx = 0usize;
        for &TraceOp { idx, passed } in &replay.ops {
            // Fetch timing: one I-cache access per new line.
            let pc_line = (TEXT_BASE + u64::from(idx) * INSN_BYTES) & !63;
            if pc_line != line {
                line = pc_line;
                line_ready = ifetch(self.id, line, cycle, period);
            }
            cycle = cycle.max(line_ready);
            // In-order issue, one micro-op per cycle, stalling on operand
            // readiness (scoreboard with forwarding).
            for p in program.pre_uops_of(idx as usize) {
                let issue = (cycle + 1).max(p.srcs_ready(&reg_ready));
                p.retire(&mut reg_ready, issue + lat[p.class as usize]);
                cycle = issue;
            }
            // The check timestamp is the macro-op's issue time.
            let now = Time::from_fs(cycle * period);
            for _ in 0..passed {
                on_check(entry_idx, now);
                entry_idx += 1;
            }
        }

        cycle += self.cfg.pipeline_depth + self.cfg.register_check_cycles;
        let finish_time = Time::from_fs(cycle * period);
        self.stats.segments += 1;
        self.stats.instrs += replay.ops.len() as u64;
        self.stats.loads += replay.loads;
        self.stats.stores += replay.stores;
        if matches!(replay.error, Some(ref e) if !matches!(e, CheckError::Exec)) {
            self.stats.errors += 1;
        }
        self.stats.busy_fs += finish_time.saturating_sub(start_time).as_fs();
        self.free_at = finish_time;
        CheckOutcome { finish_time, result: replay.error.clone().map_or(Ok(()), Err) }
    }
}

/// The functional replay phase: architectural re-execution of one segment
/// against its log, with no timing and no shared state.
///
/// Needs only the shared program, the checkpoint pair and the sealed
/// entries, and overwrites `out` with the verdict and the path (pass a
/// recycled trace to avoid allocation). Check times exist only in the
/// fold.
pub fn replay_segment(task: SegmentTask<'_>, source: &mut dyn ReplaySource, out: &mut ReplayTrace) {
    out.clear();
    let mut state = task.start.clone();
    let mut log = LogMemory { src: source, error: None, loads: 0, stores: 0, passed: 0 };

    // Block-stepped replay: one [`Program::block_at`] lookup per basic
    // block. A wild control transfer surfaces as a failed block lookup at
    // the next block boundary (`CheckError::Exec`).
    let text = task.program.text();
    'blocks: while (out.ops.len() as u64) < task.instr_count && !state.halted {
        let Some((block, off)) = task.program.block_at(state.pc) else {
            out.error = Some(CheckError::Exec);
            break;
        };
        for idx in block.first + off..block.first + block.len {
            debug_assert_eq!(
                state.pc,
                TEXT_BASE + u64::from(idx) * INSN_BYTES,
                "architectural PC out of sync with block walk"
            );
            let insn = text[idx as usize];
            let passed_before = log.passed;
            let mut nondet =
                if matches!(insn, Instruction::RdCycle { .. }) { log.nondet() } else { None };
            state.step_decoded(insn, &mut log, &mut nondet);
            out.ops.push(TraceOp { idx, passed: (log.passed - passed_before) as u8 });

            if let Some(error) = log.error {
                let at_instr = out.ops.len() as u64 - 1;
                out.error = Some(CheckError::Replay { at_instr, error });
                break 'blocks;
            }
            if state.halted || out.ops.len() as u64 >= task.instr_count {
                break 'blocks;
            }
        }
    }

    // End-of-segment validation (§IV-B): all entries consumed, then the
    // register checkpoint compared.
    if out.error.is_none() {
        out.error = if !log.src.exhausted() {
            // Replaying as many instructions as the main core committed
            // without consuming the log is the divergence timeout.
            Some(if out.ops.len() as u64 >= task.instr_count {
                CheckError::Divergence
            } else {
                CheckError::EntriesLeftOver
            })
        } else {
            state.first_register_mismatch(task.end).map(|reg| CheckError::RegisterMismatch { reg })
        };
    }
    out.loads = log.loads;
    out.stores = log.stores;
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
    use paradet_mem::{CheckerPath, MemConfig, MemHier};

    /// A reference replay source backed by a vector of (is_store, addr,
    /// value) entries plus optional nondet values, as the golden model
    /// produced them.
    #[derive(Debug, Default)]
    struct VecSource {
        entries: Vec<(u8, u64, u64)>, // kind 0=load,1=store,2=nondet
        pos: usize,
    }

    impl ReplaySource for VecSource {
        fn replay_load(&mut self, addr: u64, _w: MemWidth) -> Result<u64, ReplayError> {
            let Some(&(kind, a, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
            if kind != 0 {
                return Err(ReplayError::KindMismatch);
            }
            if a != addr {
                return Err(ReplayError::LoadAddrMismatch { got: addr, logged: a });
            }
            Ok(v)
        }

        fn check_store(&mut self, addr: u64, value: u64, _w: MemWidth) -> Result<(), ReplayError> {
            let Some(&(kind, a, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
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

        fn replay_nondet(&mut self) -> Result<u64, ReplayError> {
            let Some(&(kind, _, v)) = self.entries.get(self.pos) else {
                return Err(ReplayError::LogExhausted);
            };
            self.pos += 1;
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
        let src = VecSource { entries, pos: 0 };
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

    /// The memory side of a one-class farm: the shared hierarchy and a
    /// cold checker-cache path with `n` L0 caches at 1 GHz.
    struct Mem {
        hier: MemHier,
        path: CheckerPath,
    }

    fn mk_mem(n: usize) -> Mem {
        let cfg = MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000));
        Mem { hier: MemHier::new(&cfg), path: CheckerPath::new(&cfg, n) }
    }

    /// Replays one segment and folds its timing through `mem`'s checker
    /// path: the detector's two phases, back to back.
    fn run_segment(
        core: &mut CheckerCore,
        task: SegmentTask<'_>,
        source: &mut dyn ReplaySource,
        mem: &mut Mem,
    ) -> CheckOutcome {
        let mut replay = ReplayTrace::default();
        replay_segment(task, source, &mut replay);
        let Mem { hier, path } = mem;
        core.fold_timing(
            task.program,
            Time::ZERO,
            &replay,
            |c, line, cycle, period| hier.checker_ifetch_cycle_on(path, c, line, cycle, period),
            |_, _| {},
        )
    }

    #[test]
    fn clean_segment_verifies() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert_eq!(out.result, Ok(()));
        assert_eq!(core.stats.instrs, count);
        assert!(out.finish_time > Time::ZERO);
        assert_eq!(core.stats.loads, 5);
        assert_eq!(core.stats.stores, 5);
    }

    #[test]
    fn corrupted_store_value_is_detected() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        // Corrupt one logged store value (as if the main core computed it
        // wrongly).
        let idx = src.entries.iter().position(|e| e.0 == 1).unwrap();
        src.entries[idx].2 ^= 0x10;
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
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
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert!(matches!(
            out.result,
            Err(CheckError::Replay { error: ReplayError::LoadAddrMismatch { .. }, .. })
        ));
    }

    #[test]
    fn corrupted_end_checkpoint_is_detected() {
        let (program, start, mut end, count, mut src) = golden_segment(test_program());
        end.set_x(Reg::X4, end.x(Reg::X4) ^ 1);
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert_eq!(out.result, Err(CheckError::RegisterMismatch { reg: "x4".into() }));
    }

    #[test]
    fn corrupted_start_checkpoint_diverges() {
        // A corrupted *start* checkpoint PC makes the replay skip the
        // first instruction (`li x1, buf`), so every load address differs:
        // the address check fires (or the register check at worst).
        let (program, mut start, end, count, mut src) = golden_segment(test_program());
        start.pc += 4;
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert!(out.result.is_err());
    }

    #[test]
    fn leftover_entries_are_detected() {
        let (program, start, end, count, mut src) = golden_segment(test_program());
        src.entries.push((0, 0xdead, 0));
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert!(matches!(
            out.result,
            Err(CheckError::Divergence) | Err(CheckError::EntriesLeftOver)
        ));
    }

    #[test]
    fn slower_clock_takes_longer() {
        // One replay, folded by three cores through cold paths of their
        // own: each fold applies its own core's clock and latencies.
        let (program, start, end, count, mut src) = golden_segment(test_program());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let mut replay = ReplayTrace::default();
        replay_segment(task, &mut src, &mut replay);
        let fold = |cfg: CheckerConfig| {
            let Mem { mut hier, mut path } = mk_mem(1);
            let out = CheckerCore::new(0, cfg).fold_timing(
                &program,
                Time::ZERO,
                &replay,
                |c, line, cycle, period| {
                    hier.checker_ifetch_cycle_on(&mut path, c, line, cycle, period)
                },
                |_, _| {},
            );
            assert_eq!(out.result, Ok(()));
            out.finish_time
        };
        let fast = fold(CheckerConfig::paper_default(Freq::from_mhz(2000)));
        let slow = fold(CheckerConfig::paper_default(Freq::from_mhz(250)));
        let lat = CheckerLatencies { int_alu: 4, log_read: 4, ..CheckerLatencies::default() };
        let lagging =
            fold(CheckerConfig { lat, ..CheckerConfig::paper_default(Freq::from_mhz(2000)) });
        assert!(
            slow > fast + (fast - Time::ZERO),
            "250MHz check should take much longer than 2GHz: {slow} vs {fast}"
        );
        assert!(lagging > fast, "slower latencies at 2GHz should take longer: {lagging} vs {fast}");
    }

    #[test]
    fn core_stays_busy_between_segments() {
        let (program, start, end, count, mut src1) = golden_segment(test_program());
        let mut src2 = VecSource { entries: src1.entries.clone(), pos: 0 };
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let first = run_segment(&mut core, task, &mut src1, &mut mem);
        // Second segment "ready" at time zero, but the core is busy.
        let second = run_segment(&mut core, task, &mut src2, &mut mem);
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
        let mut mem = mk_mem(1);
        let mut core = CheckerCore::new(0, CheckerConfig::default());
        let task = SegmentTask { program: &program, start: &start, end: &end, instr_count: count };
        let out = run_segment(&mut core, task, &mut src, &mut mem);
        assert_eq!(out.result, Ok(()), "nondet value must come from the log");
    }
}
