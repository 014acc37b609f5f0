//! The out-of-order main core model.
//!
//! # Modelling approach
//!
//! The core is a *one-pass, trace-driven* out-of-order timing model: a
//! functional oracle ([`ArchState`]) executes macro-ops in program order
//! while a dataflow scheduler assigns every micro-op its fetch, dispatch,
//! issue, complete and commit cycles subject to:
//!
//! * fetch width + I-cache line timing + branch-predictor redirects,
//! * in-order dispatch bounded by ROB/IQ/LQ/SQ/physical-register occupancy,
//! * operand readiness through renamed registers (RAW only),
//! * functional-unit pools (3 int ALUs, 2 FP ALUs, 1 unpipelined mul/div,
//!   2 L1D ports) and issue width,
//! * store-to-load forwarding inside the store window, loads timed through
//!   the cache hierarchy otherwise,
//! * in-order commit with width, write-buffer and *detection-hardware*
//!   gating: the sink can pause commit (register checkpoints) or make it
//!   retry (load-store log full).
//!
//! Because micro-ops are finalized strictly in program order, detection
//! hardware attached via [`DetectionSink`] observes exactly the committed
//! instruction stream with correct commit-order timing — including the
//! feedback loop where a full log stalls commit (§IV-D of the paper).
//! Wrong-path instructions are not simulated; a misprediction instead
//! inserts the fetch-redirect bubble at resolution time (standard
//! trace-driven approximation; DESIGN.md §5).

use crate::config::OooConfig;
use crate::fault::{ArmedFault, FaultTarget};
use crate::predictor::{PredictorSnapshot, TournamentPredictor};
use crate::resources::{FifoOccupancy, SlotPool, UnorderedOccupancy};
use crate::types::{CommitEvent, CommitGate, DetectionSink};
use paradet_isa::{
    ArchState, ExecError, Instruction, MemAccess, NondetSource, PreUop, Program, Reg, UopClass,
    INSN_BYTES, MAX_UOPS_PER_INSN, NO_REG_SLOT, TEXT_BASE,
};
use paradet_mem::{CycleDiv, MemHier, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// Running statistics of the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Macro-ops retired.
    pub committed_instrs: u64,
    /// Micro-ops retired (excluding RMT duplicates).
    pub committed_uops: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Control-flow mispredictions that paid a full resolve-time redirect.
    pub mispredicts: u64,
    /// Cycle of the most recent commit.
    pub last_commit_cycle: u64,
    /// Cycles commit spent blocked on [`CommitGate::Retry`] (log full).
    pub gate_retry_cycles: u64,
    /// Commit pauses issued by the sink (register checkpoints).
    pub gate_pauses: u64,
    /// Cycles of commit pause issued by the sink.
    pub gate_pause_cycles: u64,
    /// Loads whose value was forwarded from the store window.
    pub store_forwards: u64,
    /// Cycles the core crossed in one of its two jumps: a micro-op
    /// dispatching past the core's busy horizon (the gap from the horizon
    /// to the dispatch cycle), and a log-full commit stall jumped straight
    /// to the checker-finish deadline (the cycles strictly between the
    /// stalled commit and the retry). Near zero under full detection on
    /// most workloads. Always 0 on the exhaustive path
    /// (`OooConfig::event_skip = false`), which crosses the same stalls at
    /// the same times but accounts nothing — the skip-vs-tick identity
    /// suite zeroes this field before comparing reports.
    pub cycles_skipped: u64,
}

impl CoreStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.last_commit_cycle == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.last_commit_cycle as f64
        }
    }
}

/// Why [`OooCore::step_block`] could not retire an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreError {
    /// The program has halted (committed `halt`).
    Halted,
    /// Execution crashed — e.g. a fault drove the PC outside the text
    /// segment. The paper's §IV-H semantics apply: the OS holds process
    /// termination until outstanding checks complete.
    Crashed(ExecError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Halted => write!(f, "program has halted"),
            CoreError::Crashed(e) => write!(f, "execution crashed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Outcome of one [`OooCore::step_block`] call: a batch of retirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Macro-ops retired by this call (≥ 1 on `Ok`).
    pub instrs: u64,
    /// Whether the batch committed `halt`.
    pub halted: bool,
}

/// `issue_uop`'s unit index for micro-ops that ran on no integer ALU.
const NO_UNIT: usize = usize::MAX;

/// Post-execution overrides fired faults leave for the current
/// instruction (see `OooCore::apply_flips`).
#[derive(Debug, Clone, Copy, Default)]
struct PendingFlips {
    store_value: Option<u8>,
    store_addr: Option<u8>,
    load_value: Option<u8>,
    load_capture: Option<u8>,
    pc: Option<u8>,
}

#[derive(Debug, Clone, Copy)]
struct InflightStore {
    addr: u64,
    bytes: u64,
    data_ready: u64,
    commit: u64,
}

struct SuppliedNondet(Option<u64>);

impl NondetSource for SuppliedNondet {
    fn next_nondet(&mut self) -> u64 {
        self.0.take().unwrap_or(0)
    }
}

/// An [`OooCore`] in compact form (see [`OooCore::snapshot`]).
#[derive(Debug, Clone)]
pub struct CoreSnapshot {
    /// The core, its predictor a table-less placeholder.
    core: OooCore,
    /// The predictor, tables sparse.
    pred: PredictorSnapshot,
}

impl CoreSnapshot {
    /// Macro-ops the core had retired when the snapshot was taken.
    pub fn instrs(&self) -> u64 {
        self.core.stats.committed_instrs
    }

    /// Bytes the snapshot occupies: the core's inline state and the
    /// predictor's sparse tables (the resource windows' few-KB ring
    /// buffers are not counted).
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<OooCore>() + self.pred.bytes()
    }
}

/// The out-of-order main core.
#[derive(Debug, Clone)]
pub struct OooCore {
    cfg: OooConfig,
    /// Reciprocal for the core clock period: `to_cycle` runs on every
    /// memory access, and a real 64-bit divide there is measurable.
    cycle_div: CycleDiv,
    program: Arc<Program>,
    state: ArchState,
    pred: TournamentPredictor,
    // Resource pools, all in core cycles.
    fetch_slots: SlotPool,
    dispatch_slots: SlotPool,
    issue_slots: SlotPool,
    commit_slots: SlotPool,
    int_alus: SlotPool,
    fp_alus: SlotPool,
    mul_div: SlotPool,
    mem_ports: SlotPool,
    write_buffer: SlotPool,
    rob: FifoOccupancy,
    lq: FifoOccupancy,
    sq: FifoOccupancy,
    phys_int: FifoOccupancy,
    phys_fp: FifoOccupancy,
    iq: UnorderedOccupancy,
    /// Register-wakeup scoreboard in the pre-decoded slot encoding
    /// (`0..32` integer, `32..64` floating-point — the same layout
    /// [`PreUop`](paradet_isa::PreUop) srcs/dst carry), so the block path
    /// indexes it straight off the pre-resolved bytes.
    reg_ready: [u64; 64],
    stores_in_flight: VecDeque<InflightStore>,
    // Fetch state.
    next_fetch_cycle: u64,
    last_fetch_line: u64,
    line_ready: u64,
    last_commit: u64,
    commit_gate: u64,
    /// Dispatch is also held during a sink-issued pause: the register
    /// checkpoint copy occupies the register-file read ports (Table I's
    /// two-ported copy of 32+32 registers), starving issue/rename for the
    /// same window.
    dispatch_gate: u64,
    seq: u64,
    instr_index: u64,
    halted: bool,
    crashed: Option<ExecError>,
    faults: Vec<ArmedFault>,
    /// Earliest `at_instr` over `faults` (`u64::MAX` when none is armed):
    /// the kernel's whole per-instruction fault check is one compare
    /// against it.
    next_fault_at: u64,
    stuck: Option<(u8, u8, bool)>,
    /// The resource-event horizon: no pool busy-until, occupancy release,
    /// register wakeup, line fill or gate recorded so far lies beyond this
    /// cycle. A micro-op dispatching at or past it observes a fully
    /// quiescent core — the event-driven skip path jumps straight there.
    horizon: u64,
    /// Upper bound on the `commit` cycle of any store still in the
    /// forwarding window: a load whose address resolves at or after this
    /// provably cannot forward, so the skip path elides the window scan.
    stores_commit_max: u64,
    /// Statistics (public for the experiment harness).
    pub stats: CoreStats,
}

impl OooCore {
    /// Creates a core positioned at `program`'s entry point.
    ///
    /// Deep-clones `program` once; hot loops constructing many cores over
    /// the same program should share it via [`OooCore::new_shared`].
    pub fn new(cfg: OooConfig, program: &Program) -> OooCore {
        OooCore::new_shared(cfg, Arc::new(program.clone()))
    }

    /// Creates a core positioned at `program`'s entry point, sharing the
    /// program instead of cloning it (the per-run allocation hot path for
    /// fault campaigns and sweeps).
    pub fn new_shared(cfg: OooConfig, program: Arc<Program>) -> OooCore {
        let state = ArchState::at_entry(&program);
        OooCore {
            pred: TournamentPredictor::new(cfg.predictor),
            fetch_slots: SlotPool::new(cfg.width),
            dispatch_slots: SlotPool::new(cfg.width),
            issue_slots: SlotPool::new(cfg.width),
            commit_slots: SlotPool::new(cfg.width),
            int_alus: SlotPool::new(cfg.int_alus),
            fp_alus: SlotPool::new(cfg.fp_alus),
            mul_div: SlotPool::new(cfg.mul_div_units),
            mem_ports: SlotPool::new(cfg.mem_ports),
            write_buffer: SlotPool::new(cfg.write_buffer),
            rob: FifoOccupancy::new(cfg.rob_entries),
            lq: FifoOccupancy::new(cfg.lq_entries),
            sq: FifoOccupancy::new(cfg.sq_entries),
            phys_int: FifoOccupancy::new(cfg.phys_int - Reg::COUNT),
            phys_fp: FifoOccupancy::new(cfg.phys_fp - Reg::COUNT),
            iq: UnorderedOccupancy::new(cfg.iq_entries),
            reg_ready: [0; 64],
            stores_in_flight: VecDeque::with_capacity(cfg.sq_entries),
            next_fetch_cycle: 0,
            last_fetch_line: u64::MAX,
            line_ready: 0,
            last_commit: 0,
            commit_gate: 0,
            dispatch_gate: 0,
            seq: 0,
            instr_index: 0,
            halted: false,
            crashed: None,
            faults: Vec::new(),
            next_fault_at: u64::MAX,
            stuck: None,
            horizon: 0,
            stores_commit_max: 0,
            stats: CoreStats::default(),
            cycle_div: cfg.clock.divider(),
            program,
            state,
            cfg,
        }
    }

    /// Creates a core whose architectural state is `state` instead of the
    /// program's entry point — the recovery path's "pipeline flush +
    /// restore from the validated register checkpoint". Every
    /// micro-architectural structure (predictor, occupancy windows,
    /// in-flight stores, fetch state) starts cold, exactly as a restored
    /// core would after a flush; `instr_index` restarts at zero, so armed
    /// faults address the *re-execution* stream (callers translate global
    /// strike indices by the checkpoint's retirement count).
    pub fn new_resumed(cfg: OooConfig, program: Arc<Program>, state: ArchState) -> OooCore {
        let mut core = OooCore::new_shared(cfg, program);
        core.state = state;
        core
    }

    /// A compact copy of the core between two [`step_block`] calls: the
    /// predictor's tables as their entries that differ from reset,
    /// everything else cloned. Armed
    /// faults are copied too; a fault armed on the restored core at or
    /// after [`CoreSnapshot::instrs`] changes nothing before it fires.
    ///
    /// [`step_block`]: OooCore::step_block
    pub fn snapshot(&mut self) -> CoreSnapshot {
        // Swap the dense predictor out so the clone does not copy it.
        let placeholder = TournamentPredictor::placeholder(self.cfg.predictor);
        let pred = std::mem::replace(&mut self.pred, placeholder);
        let control_pcs: Vec<u64> = (self.program.text().iter().enumerate())
            .filter(|(_, insn)| {
                matches!(
                    insn,
                    Instruction::Branch { .. } | Instruction::Jal { .. } | Instruction::Jalr { .. }
                )
            })
            .map(|(i, _)| TEXT_BASE + i as u64 * INSN_BYTES)
            .collect();
        let snap = CoreSnapshot { core: self.clone(), pred: pred.snapshot(&control_pcs) };
        self.pred = pred;
        snap
    }

    /// Rebuilds the core a [`snapshot`](OooCore::snapshot) was taken of.
    pub fn from_snapshot(snap: &CoreSnapshot) -> OooCore {
        OooCore { pred: TournamentPredictor::from_snapshot(&snap.pred), ..snap.core.clone() }
    }

    /// The core's configuration.
    pub fn config(&self) -> &OooConfig {
        &self.cfg
    }

    /// The program the core runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The committed architectural state (used by the detection system to
    /// take register checkpoints).
    pub fn committed_state(&self) -> &ArchState {
        &self.state
    }

    /// Whether the core has committed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The crash reason, if a fault drove execution off the rails.
    pub fn crashed(&self) -> Option<ExecError> {
        self.crashed
    }

    /// Absolute time of the most recent commit.
    pub fn now(&self) -> Time {
        self.to_time(self.last_commit)
    }

    /// Arms a fault (see [`FaultTarget`]).
    pub fn arm_fault(&mut self, fault: ArmedFault) {
        self.next_fault_at = self.next_fault_at.min(fault.at_instr);
        self.faults.push(fault);
    }

    /// Faults armed but not yet fired — still waiting for their trigger
    /// instruction (or, for store/load faults, the first qualifying access
    /// after it). A recovery driver uses this to carry unconsumed strikes
    /// into a re-execution attempt.
    pub fn unfired_faults(&self) -> &[ArmedFault] {
        &self.faults
    }

    /// Raises the resource-event horizon to `cycle`.
    #[inline]
    fn note_event(&mut self, cycle: u64) {
        if cycle > self.horizon {
            self.horizon = cycle;
        }
    }

    fn to_time(&self, cycle: u64) -> Time {
        self.cfg.clock.cycles(cycle)
    }

    #[inline]
    fn to_cycle(&self, t: Time) -> u64 {
        // Ceiling division: an event at time t is usable at the first cycle
        // boundary at or after t.
        self.cycle_div.ceil(t)
    }

    /// Operand readiness straight off pre-decoded source slots: the slot
    /// bytes already carry the unified `0..64` encoding the scoreboard is
    /// laid out in, so no enum dispatch remains.
    #[inline]
    fn pre_srcs_ready(&self, srcs: [u8; 3]) -> u64 {
        let mut m = 0;
        for s in srcs {
            if s != NO_REG_SLOT {
                m = m.max(self.reg_ready[s as usize]);
            }
        }
        m
    }

    /// Retires the remainder of the current basic block (capped at
    /// `max_instrs` macro-ops) off the program's pre-decoded
    /// superinstruction stream — the core's one retirement path. One block
    /// lookup per call; branch prediction and resolution run for the block
    /// terminator alone (only it can transfer control), functional units
    /// are selected by the pre-resolved [`UopClass`] byte, and the oracle
    /// executes the already-fetched instruction.
    ///
    /// Fault injection, stuck-at ALUs and RMT duplication are
    /// per-instruction branches of the same kernel. With no strike due the
    /// fault check is one compare against the earliest armed trigger; a
    /// fired `PcBit` flip ends the call, since the next instruction is no
    /// longer the block's next one.
    ///
    /// # Errors
    ///
    /// [`CoreError::Halted`] once `halt` has committed, and
    /// [`CoreError::Crashed`] if the PC has left the text segment (possible
    /// only under fault injection). A wild control transfer is observed by
    /// the *next* call's block lookup.
    // Inlined into every block loop: with two loops stepping a detector
    // (`PairedSystem::advance` through `run`, and `advance_until_error`)
    // the compiler otherwise keeps the kernel out of line, and full
    // detection ran slower that way on a 2-core host.
    #[inline(always)]
    pub fn step_block<S: DetectionSink + ?Sized>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
        max_instrs: u64,
    ) -> Result<BlockOutcome, CoreError> {
        if self.halted {
            return Err(CoreError::Halted);
        }
        if let Some(e) = self.crashed {
            return Err(CoreError::Crashed(e));
        }
        if max_instrs == 0 {
            return Ok(BlockOutcome { instrs: 0, halted: false });
        }

        let program = Arc::clone(&self.program);
        let rmt = self.cfg.rmt_duplicate;
        let mut done = 0u64;
        let (block, off) = match program.block_at(self.state.pc) {
            Some(c) => c,
            None => {
                let e = ExecError::BadPc { pc: self.state.pc };
                self.crashed = Some(e);
                return Err(CoreError::Crashed(e));
            }
        };
        let first = (block.first + off) as usize;
        let end = (block.first + block.len) as usize;
        for i in first..end {
            let pc = self.state.pc;
            let insn = program.text()[i];
            let is_term = i + 1 == end;

            // ---- Fetch timing ---------------------------------------------
            let (_, fslot) = self.fetch_slots.take(self.next_fetch_cycle, 1);
            self.note_event(fslot + 1);
            let line = pc & !63;
            if line != self.last_fetch_line {
                let done_t = hier.ifetch(line, self.to_time(fslot));
                self.line_ready = self.to_cycle(done_t);
                self.last_fetch_line = line;
                self.note_event(self.line_ready);
            }
            let fetch_cycle = fslot.max(self.line_ready);

            // ---- Branch prediction (terminator only; consulted before the
            // outcome is known) ---------------------------------------------
            let mut prediction = None;
            let mut jalr_prediction = None;
            if is_term {
                match insn {
                    Instruction::Branch { .. } => {
                        let p = self.pred.predict_direction(pc);
                        let target = if p.taken { self.pred.btb_lookup(pc) } else { None };
                        prediction = Some((p, target));
                    }
                    Instruction::Jalr { rd, rs1, .. } => {
                        let is_return = rd == Reg::X0 && rs1 == Reg::X1;
                        let predicted =
                            if is_return { self.pred.ras_pop() } else { self.pred.btb_lookup(pc) };
                        if rd == Reg::X1 {
                            self.pred.ras_push(pc + 4);
                        }
                        jalr_prediction = Some(predicted);
                    }
                    Instruction::Jal { rd: Reg::X1, .. } => {
                        self.pred.ras_push(pc + 4);
                    }
                    _ => {}
                }
            }

            // ---- Pre-decoded micro-ops + memory addresses -----------------
            // Timing addresses come from the pre-state: a register flip
            // firing below lands after they are read. Micro-op `k` of a
            // memory macro-op makes its `k`-th access, at `addr + 8k`.
            let pre = program.pre_uops_of(i);
            let (addr, bytes) = match insn.mem_operand() {
                Some((base, imm, width)) => {
                    (self.state.x(base).wrapping_add(imm as u64), width.bytes())
                }
                None => (0, 0),
            };

            // ---- Fault arming ---------------------------------------------
            let flips = (self.instr_index >= self.next_fault_at).then(|| self.fire_due_faults(pre));
            let pc_flipped = flips.is_some_and(|f| f.pc.is_some());

            // ---- Per-micro-op timing --------------------------------------
            let mut completes = [0u64; MAX_UOPS_PER_INSN];
            let mut alu_units = [NO_UNIT; MAX_UOPS_PER_INSN];
            let mut resolve_cycle: Option<u64> = None;
            let mut nondet_value: Option<u64> = None;
            for (k, &p) in pre.iter().enumerate() {
                let uop_addr = addr.wrapping_add(8 * k as u64);
                let (complete, unit) =
                    self.issue_uop(hier, pc, fetch_cycle, p, uop_addr, bytes, false);
                match p.class {
                    UopClass::Branch | UopClass::Jump | UopClass::JumpReg => {
                        resolve_cycle = Some(complete)
                    }
                    UopClass::RdCycle => nondet_value = Some(complete),
                    _ => {}
                }
                completes[k] = complete;
                alu_units[k] = unit;
                // Record IQ release at issue (approximated by complete -
                // latency ≈ issue; using complete keeps it conservative).
                self.iq.push(complete);
                if p.dst != NO_REG_SLOT {
                    self.reg_ready[p.dst as usize] = complete;
                }
                if rmt {
                    self.issue_rmt_duplicate(hier, pc, fetch_cycle, p);
                }
            }

            // ---- Functional execution (oracle) + faults --------------------
            let mut nondet = SuppliedNondet(nondet_value);
            let mut step = self.state.step_decoded(insn, &mut hier.data, &mut nondet);
            // Access `k` is micro-op `k`'s. The LFU captures a load's value
            // at cache access (§IV-C), before a fault below can corrupt it.
            let mut captured = [0u64; MAX_UOPS_PER_INSN];
            for (c, a) in captured.iter_mut().zip(&step.mem) {
                *c = a.value;
            }
            if let Some(flips) = flips {
                self.apply_flips(flips, insn, step.mem.as_mut_slice(), &mut captured, hier);
            }
            if let Some(stuck) = self.stuck {
                self.force_stuck(stuck, pre, &alu_units);
            }

            // ---- Load-forwarding-unit capture events ----------------------
            // `(seq + k) % rob_entries`, maintained incrementally: one
            // divide per instruction instead of one per uop.
            let mut rob_slot = (self.seq % self.cfg.rob_entries as u64) as usize;
            for (k, p) in pre.iter().enumerate() {
                if p.class == UopClass::Load {
                    let a = step.mem[k];
                    let at = self.to_time(completes[k]);
                    sink.on_load_executed(rob_slot, a.addr, captured[k], a.width, at);
                }
                rob_slot += 1;
                if rob_slot == self.cfg.rob_entries {
                    rob_slot = 0;
                }
            }

            // ---- Control-flow resolution & predictor training -------------
            if is_term {
                match insn {
                    Instruction::Branch { .. } => {
                        self.stats.branches += 1;
                        let (p, btb_target) = prediction.expect("branch was predicted");
                        let taken = step.taken_branch;
                        self.pred.update_direction(pc, p, taken);
                        if taken {
                            self.pred.btb_update(pc, step.next_pc);
                        }
                        let correct =
                            p.taken == taken && (!taken || btb_target == Some(step.next_pc));
                        if correct {
                            if taken {
                                // Correctly-predicted taken branch ends the
                                // fetch group.
                                self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + 1);
                            }
                        } else {
                            self.stats.mispredicts += 1;
                            let resolve = resolve_cycle.expect("branch resolved");
                            self.next_fetch_cycle = self.next_fetch_cycle.max(resolve + 1);
                        }
                    }
                    Instruction::Jal { .. } => {
                        // Direct jump: target known at decode; at worst a
                        // short front-end bubble when the BTB misses.
                        let hit = self.pred.btb_lookup(pc) == Some(step.next_pc);
                        self.pred.btb_update(pc, step.next_pc);
                        let bubble = if hit { 1 } else { 2 };
                        self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + bubble);
                    }
                    Instruction::Jalr { .. } => {
                        let predicted = jalr_prediction.expect("jalr was predicted");
                        self.pred.btb_update(pc, step.next_pc);
                        if predicted == Some(step.next_pc) {
                            self.next_fetch_cycle = self.next_fetch_cycle.max(fetch_cycle + 1);
                        } else {
                            self.stats.mispredicts += 1;
                            let resolve = resolve_cycle.expect("jalr resolved");
                            self.next_fetch_cycle = self.next_fetch_cycle.max(resolve + 1);
                        }
                    }
                    _ => {}
                }
            }
            // A PC corruption also redirects fetch (at commit of this instr).
            if pc_flipped {
                self.last_fetch_line = u64::MAX;
            }

            // ---- In-order commit with detection gating --------------------
            // `(seq + k) % rob_entries`, maintained incrementally (see the
            // load capture loop above).
            let mut rob_slot = (self.seq % self.cfg.rob_entries as u64) as usize;
            for (k, p) in pre.iter().enumerate() {
                let class = p.class;
                let complete = completes[k];
                let mut commit = (complete + 1).max(self.last_commit).max(self.commit_gate);
                let mem = step.mem.get(k).copied();
                // Committed stores drain through the write buffer.
                if let Some(e) = mem {
                    if e.is_store {
                        let (wb_slot, wb_start) = self.write_buffer.take(commit, 0);
                        commit = commit.max(wb_start);
                        let done_t = hier.dwrite(pc, e.addr, self.to_time(wb_start));
                        let done_cycle = self.to_cycle(done_t);
                        self.write_buffer.set_busy(wb_slot, done_cycle);
                        self.note_event(done_cycle);
                    }
                }
                let (_, slot) = self.commit_slots.take(commit, 1);
                commit = commit.max(slot);

                let ev = CommitEvent {
                    seq: self.seq + k as u64,
                    instr_index: self.instr_index,
                    pc,
                    insn,
                    uop_index: k as u8,
                    last: k + 1 == pre.len(),
                    mem,
                    nondet: if class == UopClass::RdCycle { step.nondet } else { None },
                    rob_slot,
                };
                loop {
                    match sink.on_commit(&ev, self.to_time(commit), &self.state, hier) {
                        CommitGate::Accept => break,
                        CommitGate::AcceptWithPause(pause) => {
                            self.stats.gate_pauses += 1;
                            self.stats.gate_pause_cycles += pause;
                            self.commit_gate = commit + pause;
                            self.dispatch_gate = commit + pause;
                            self.note_event(commit + pause);
                            break;
                        }
                        CommitGate::Retry(t) => {
                            // A log-full stall: jump commit straight to the
                            // checker-finish deadline — the cycles in between
                            // are crossed in this one step, never evaluated.
                            let c2 = self.to_cycle(t).max(commit + 1);
                            self.stats.gate_retry_cycles += c2 - commit;
                            if self.cfg.event_skip {
                                self.stats.cycles_skipped += (c2 - 1) - commit;
                            }
                            commit = c2;
                        }
                    }
                }
                self.last_commit = commit;
                self.note_event(commit + 1);

                // Record occupancy releases now that commit is final.
                self.rob.push(commit);
                if class == UopClass::Load {
                    self.lq.push(commit);
                }
                if let Some(e) = mem {
                    if e.is_store {
                        self.sq.push(commit);
                        self.stores_in_flight.push_back(InflightStore {
                            addr: e.addr,
                            bytes: e.width.bytes(),
                            data_ready: complete,
                            commit,
                        });
                        self.stores_commit_max = self.stores_commit_max.max(commit);
                        if self.stores_in_flight.len() > self.cfg.sq_entries {
                            self.stores_in_flight.pop_front();
                        }
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                }
                match p.dst {
                    NO_REG_SLOT => {}
                    d if d < 32 => self.phys_int.push(commit),
                    _ => self.phys_fp.push(commit),
                }
                self.stats.committed_uops += 1;
                rob_slot += 1;
                if rob_slot == self.cfg.rob_entries {
                    rob_slot = 0;
                }
            }

            self.seq += pre.len() as u64;
            self.instr_index += 1;
            self.stats.committed_instrs += 1;
            self.stats.last_commit_cycle = self.last_commit;
            done += 1;
            if step.halted {
                self.halted = true;
                return Ok(BlockOutcome { instrs: done, halted: true });
            }
            if done >= max_instrs || pc_flipped {
                return Ok(BlockOutcome { instrs: done, halted: false });
            }
        }
        // Block exhausted: the next call resolves the successor block (a
        // wild target crashes there).
        Ok(BlockOutcome { instrs: done, halted: false })
    }

    /// Dispatches, issues and executes one micro-op, returning its
    /// completion cycle and — for a simple integer-ALU op — the unit it ran
    /// on ([`NO_UNIT`] otherwise). A load reads `bytes` at `addr`; with
    /// `dup` set this is the micro-op's RMT duplicate, whose loads read the
    /// load value queue instead of the cache.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn issue_uop(
        &mut self,
        hier: &mut MemHier,
        pc: u64,
        fetch_cycle: u64,
        p: PreUop,
        addr: u64,
        bytes: u64,
        dup: bool,
    ) -> (u64, usize) {
        let lat = self.cfg.lat;
        let is_load = p.class == UopClass::Load;
        let is_store = p.class == UopClass::Store;
        // Dispatch: in-order, bounded by window occupancy and any
        // checkpoint-copy pause.
        let mut disp = (fetch_cycle + self.cfg.front_depth).max(self.dispatch_gate);
        if self.cfg.event_skip && disp >= self.horizon {
            // Quiescent jump: every recorded resource event is at or before
            // `disp`, so each acquisition this micro-op would perform drains
            // its window empty and returns `disp` unchanged — advance time
            // straight there, clearing those windows in O(1) instead of
            // walking their entries. Only the structures the exhaustive path
            // would acquire are touched (dispatch times are not monotone
            // across instructions, so an untouched window must keep its
            // entries for later, earlier-cycle acquisitions).
            self.stats.cycles_skipped += disp - self.horizon;
            self.rob.reset();
            self.iq.reset();
            if is_load {
                self.lq.reset();
            }
            if is_store {
                self.sq.reset();
            }
            match p.dst {
                NO_REG_SLOT => {}
                d if d < 32 => self.phys_int.reset(),
                _ => self.phys_fp.reset(),
            }
        } else {
            disp = self.rob.acquire(disp);
            disp = self.iq.acquire(disp);
            if is_load {
                disp = self.lq.acquire(disp);
            }
            if is_store {
                disp = self.sq.acquire(disp);
            }
            match p.dst {
                NO_REG_SLOT => {}
                d if d < 32 => disp = self.phys_int.acquire(disp),
                _ => disp = self.phys_fp.acquire(disp),
            }
        }
        let (_, disp) = self.dispatch_slots.take(disp, 1);
        self.note_event(disp + 1);

        // Operand readiness (RAW through renamed registers).
        let ready = self.pre_srcs_ready(p.srcs).max(disp + 1);

        // Issue + execute through a functional unit.
        let mut unit = NO_UNIT;
        let complete = match p.class {
            UopClass::IntAlu => {
                let (alu, start) = self.int_alus.take(ready, 1);
                let (_, start) = self.issue_slots.take(start, 1);
                unit = alu;
                start + lat.int_alu
            }
            UopClass::Mul => {
                let (_, start) = self.mul_div.take(ready, lat.mul);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.mul
            }
            UopClass::Div => {
                let (_, start) = self.mul_div.take(ready, lat.div);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.div
            }
            UopClass::FpAlu | UopClass::Fma => {
                let (_, start) = self.fp_alus.take(ready, 1);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.fp_alu
            }
            UopClass::FpDiv => {
                let (_, start) = self.fp_alus.take(ready, lat.fp_div);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.fp_div
            }
            UopClass::FSqrt => {
                let (_, start) = self.fp_alus.take(ready, lat.fsqrt);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.fsqrt
            }
            UopClass::FMov => {
                let (_, start) = self.int_alus.take(ready, 1);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.fmov
            }
            UopClass::Branch | UopClass::Jump | UopClass::JumpReg => {
                let (_, start) = self.int_alus.take(ready, 1);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.branch
            }
            UopClass::Load => {
                let (_, agu_start) = self.mem_ports.take(ready, 1);
                let (_, agu_start) = self.issue_slots.take(agu_start, 1);
                let addr_known = agu_start + lat.agu;
                if dup {
                    addr_known + lat.forward
                } else {
                    // Store-to-load forwarding: youngest older store
                    // overlapping this access and still in flight at
                    // addr_known. The skip path elides the window walk when
                    // every store has provably left the window by then.
                    let fwd = if self.cfg.event_skip && addr_known >= self.stores_commit_max {
                        None
                    } else {
                        self.stores_in_flight
                            .iter()
                            .rev()
                            .find(|s| {
                                s.commit > addr_known
                                    && addr < s.addr + s.bytes
                                    && s.addr < addr + bytes
                            })
                            .map(|s| s.data_ready)
                    };
                    match fwd {
                        Some(dr) => {
                            self.stats.store_forwards += 1;
                            addr_known.max(dr) + lat.forward
                        }
                        None => {
                            let done_t = hier.dread(pc, addr, self.to_time(addr_known));
                            self.to_cycle(done_t)
                        }
                    }
                }
            }
            UopClass::Store => {
                // Stores are "complete" when address and data are both
                // available; memory is written at commit through the write
                // buffer.
                let (_, agu_start) = self.mem_ports.take(ready, 1);
                let (_, agu_start) = self.issue_slots.take(agu_start, 1);
                let data_slot = p.srcs[1];
                let data_ready =
                    if data_slot == NO_REG_SLOT { 0 } else { self.reg_ready[data_slot as usize] };
                (agu_start + lat.agu).max(data_ready) + 1
            }
            UopClass::RdCycle => {
                let (_, start) = self.int_alus.take(ready, 1);
                let (_, start) = self.issue_slots.take(start, 1);
                start + lat.int_alu
            }
            UopClass::Nop | UopClass::Halt => {
                let (_, start) = self.issue_slots.take(ready, 1);
                start + 1
            }
        };
        // One horizon raise covers everything this micro-op booked: unit
        // busy-until ≤ complete, issue slot ≤ complete, wakeup (reg_ready) =
        // complete, window releases ≤ complete + 1.
        self.note_event(complete + 1);
        (complete, unit)
    }

    /// Issues one micro-op's RMT duplicate: it competes for the same
    /// resources but produces no architectural effects, and holds its
    /// window entries until it commits alongside the primary (approximated
    /// by its completion + 1).
    #[cold]
    fn issue_rmt_duplicate(&mut self, hier: &mut MemHier, pc: u64, fetch_cycle: u64, p: PreUop) {
        let (c, _) = self.issue_uop(hier, pc, fetch_cycle, p, 0, 0, true);
        self.rob.push(c + 1);
        self.iq.push(c);
        match p.class {
            UopClass::Load => self.lq.push(c + 1),
            UopClass::Store => self.sq.push(c + 1),
            _ => {}
        }
        match p.dst {
            NO_REG_SLOT => {}
            d if d < 32 => self.phys_int.push(c + 1),
            _ => self.phys_fp.push(c + 1),
        }
    }

    /// Fires every armed fault due at the current instruction, in arming
    /// order: register flips and stuck-at latches land now, store/load
    /// faults wait for an instruction with a matching access, and the rest
    /// leave post-execution overrides. Compacts the armed list in place and
    /// refreshes the cached earliest trigger.
    #[cold]
    fn fire_due_faults(&mut self, pre: &[PreUop]) -> PendingFlips {
        let has_store = pre.iter().any(|p| p.class == UopClass::Store);
        let has_load = pre.iter().any(|p| p.class == UopClass::Load);
        let now = self.instr_index;
        let mut flips = PendingFlips::default();
        let mut faults = std::mem::take(&mut self.faults);
        faults.retain(|f| {
            if now < f.at_instr {
                return true;
            }
            match f.target {
                FaultTarget::IntRegBit { reg, bit } => {
                    let v = self.state.x(reg) ^ (1u64 << (bit & 63));
                    self.state.set_x(reg, v);
                }
                FaultTarget::FpRegBit { reg, bit } => {
                    let v = self.state.f_bits(reg) ^ (1u64 << (bit & 63));
                    self.state.set_f_bits(reg, v);
                }
                FaultTarget::AluStuckAt { unit, bit, value } => {
                    self.stuck = Some((unit, bit, value));
                }
                FaultTarget::StoreValueBit { bit } if has_store => flips.store_value = Some(bit),
                FaultTarget::StoreAddrBit { bit } if has_store => flips.store_addr = Some(bit),
                FaultTarget::LoadValueBit { bit } if has_load => flips.load_value = Some(bit),
                FaultTarget::LoadCaptureBit { bit } if has_load => flips.load_capture = Some(bit),
                FaultTarget::PcBit { bit } => flips.pc = Some(bit),
                // Store/load faults wait for a matching instruction.
                _ => return true,
            }
            false
        });
        self.next_fault_at = faults.iter().map(|f| f.at_instr).min().unwrap_or(u64::MAX);
        self.faults = faults;
        flips
    }

    /// Applies the post-execution overrides a fired fault left for this
    /// instruction to memory, the architectural state, its memory accesses
    /// and the LFU capture values.
    #[cold]
    fn apply_flips(
        &mut self,
        flips: PendingFlips,
        insn: Instruction,
        mem_effects: &mut [MemAccess],
        captured: &mut [u64; 2],
        hier: &mut MemHier,
    ) {
        use paradet_isa::MemoryIface;
        if let Some(bit) = flips.store_value {
            if let Some(eff) = mem_effects.iter_mut().find(|e| e.is_store) {
                let corrupted = eff.width.truncate(eff.value ^ (1u64 << (bit & 63)));
                hier.data.store(eff.addr, eff.width, corrupted);
                eff.value = corrupted;
            }
        }
        if let Some(bit) = flips.store_addr {
            if let Some(eff) = mem_effects.iter_mut().find(|e| e.is_store) {
                // The store escaped to the wrong address: the oracle already
                // wrote the correct one, so put its pre-store bytes back
                // (`eff.old`, captured by the oracle before it stored), then
                // land the value at the flipped address. The logged entry is
                // exactly the one memory mutation the instruction made —
                // (wrong, value, old-at-wrong) — so a per-entry undo restores
                // memory precisely; the checker detects the address mismatch
                // either way, and the memory-state difference is what the
                // SDC classifier needs.
                let wrong = eff.addr ^ (1u64 << (bit % 48));
                hier.data.store(eff.addr, eff.width, eff.old);
                let old_at_wrong = hier.data.load(wrong, eff.width);
                hier.data.store(wrong, eff.width, eff.value);
                eff.addr = wrong;
                eff.old = old_at_wrong;
            }
        }
        if let Some(bit) = flips.load_value.or(flips.load_capture) {
            // Corrupt the loaded destination register in the oracle. The
            // commit-time view of the load (what a naive no-LFU design would
            // forward to the log) is the *register* value, so the event's
            // value is corrupted for both fault flavours; the LFU capture
            // (taken at cache access, §IV-C) stays clean unless the fault
            // struck before duplication (`LoadCaptureBit`).
            let flip = 1u64 << (bit & 63);
            if let Some(eff) = mem_effects.iter_mut().find(|e| !e.is_store) {
                eff.value ^= flip;
            }
            match insn {
                Instruction::Load { rd, .. } | Instruction::Ldp { rd1: rd, .. } => {
                    let v = self.state.x(rd) ^ flip;
                    self.state.set_x(rd, v);
                }
                Instruction::FLoad { fd, .. } => {
                    let v = self.state.f_bits(fd) ^ flip;
                    self.state.set_f_bits(fd, v);
                }
                _ => {}
            }
            if flips.load_capture.is_some() {
                captured[0] ^= flip;
            }
        }
        if let Some(bit) = flips.pc {
            self.state.pc ^= 1u64 << (bit % 21).max(2);
        }
    }

    /// Hard stuck-at ALU fault: forces `bit` of every simple int-ALU result
    /// computed on the struck unit.
    #[cold]
    fn force_stuck(
        &mut self,
        (unit, bit, value): (u8, u8, bool),
        pre: &[PreUop],
        alu_units: &[usize; MAX_UOPS_PER_INSN],
    ) {
        let struck = unit as usize % self.cfg.int_alus;
        for (p, &used) in pre.iter().zip(alu_units) {
            // Slots below 32 are integer registers other than x0.
            if used == struck && p.dst < 32 {
                let r = Reg::from_index(p.dst as usize);
                let mask = 1u64 << (bit & 63);
                let v = self.state.x(r);
                self.state.set_x(r, if value { v | mask } else { v & !mask });
            }
        }
    }

    /// Runs until halt, crash, or `max_instrs` retired instructions.
    ///
    /// Returns the number of instructions retired by this call; inspect
    /// [`halted`](Self::halted)/[`crashed`](Self::crashed) for the cause.
    pub fn run<S: DetectionSink + ?Sized>(
        &mut self,
        hier: &mut MemHier,
        sink: &mut S,
        max_instrs: u64,
    ) -> u64 {
        let mut n = 0;
        while n < max_instrs {
            match self.step_block(hier, sink, max_instrs - n) {
                Ok(out) => n += out.instrs,
                Err(_) => break,
            }
        }
        n
    }
}
