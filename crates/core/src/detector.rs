//! The detection hardware attached to the main core's commit stage.
//!
//! [`Detector`] implements [`DetectionSink`]: it captures committed loads,
//! stores and non-deterministic results into the current load-store log
//! segment, seals segments (taking the register checkpoint and pausing
//! commit for the copy latency), queues sealed segments for their checker
//! cores, and stalls the main core when every segment is in use (§IV-D:
//! "If all log segments are full, we stall the main core until a checker
//! core finishes").
//!
//! # The checker farm
//!
//! The paper's checker cores run in parallel with the main core; the
//! simulator models that parallelism in *simulated* time. Checking a
//! sealed segment is two-phase (see `paradet-checker`). `seal` moves the
//! segment's replay inputs — start/end checkpoint pair and sealed entries
//! — onto the back of one queue of checks, in seal order. Each check is then
//! **replayed and folded lazily, in seal order**, on the simulation
//! thread, at the first point the simulation actually needs its finish
//! time: when the segment ring wraps around to a still-checking segment
//! (the stall decision in `on_commit`), at a dynamic policy's seal, and
//! at [`Detector::finalize`]. The **functional replay** runs there into
//! one reused trace buffer, recording the path it took, and the **timing
//! fold** walks that path through the program's micro-ops with the slot's
//! own latencies, against the checker's availability and its speed
//! class's checker-cache path, whose misses reach the shared
//! [`MemHier`]'s L2/DRAM. Replay is pure, so only host time depends on
//! when it runs; the fold points depend only on simulated state.

use crate::config::{DetectionMode, SystemConfig};
use crate::delay::DelayStats;
use crate::error::DetectedError;
use crate::lfu::LoadForwardingUnit;
use crate::log::{EntryKind, Segment, SegmentLog, SegmentReader, SegmentState};
use crate::scratch::SimScratch;
use paradet_checker::{
    replay_segment, CheckerCore, CheckerStats, ClockDomain, ReplayTrace, ScheduleCtx, SegmentTask,
    SlotView,
};
use paradet_isa::{ArchState, Instruction, MemWidth, Program};
use paradet_mem::{CheckerPath, MemHier, Time};
use paradet_ooo::{CommitEvent, CommitGate, DetectionSink};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a segment was sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealKind {
    /// The segment had fewer free entries than the largest macro-op.
    Space,
    /// The instruction-count timeout elapsed (§IV-J).
    Timeout,
    /// An interrupt boundary forced an early checkpoint (§IV-G).
    Interrupt,
    /// The program halted or the run was finalized (§IV-H).
    Final,
}

/// Running statistics of the detection hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Segments sealed.
    pub seals: u64,
    /// … because the segment filled.
    pub space_seals: u64,
    /// … because of the instruction timeout.
    pub timeout_seals: u64,
    /// … because of an interrupt boundary.
    pub interrupt_seals: u64,
    /// … at termination.
    pub final_seals: u64,
    /// Entries written to the log.
    pub entries_logged: u64,
    /// Commit attempts turned away because the log was full.
    pub log_full_retries: u64,
}

/// Everything besides the program that a checker needs to replay one
/// sealed segment: the chained start checkpoint (moved out of the
/// detector), the committed end state, and the log entries (moved out of
/// the segment ring). Replay is a pure function of these and the program
/// (invariant 3), so the check queue and any snapshot share an in-flight
/// check's inputs, and the check replays at its fold wherever the run
/// continues.
#[derive(Debug)]
struct ReplayInputs {
    start: ArchState,
    end: ArchState,
    instr_count: u64,
    log: SegmentLog,
}

/// One farm's fold results, in seal order: the primary farm keeps one, and
/// so does every secondary clock domain.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldRecord {
    /// Detection delays over all checked entries (Fig. 8).
    pub(crate) delays: DelayStats,
    /// Detection delays over stores only (Fig. 11/12).
    pub(crate) store_delays: DelayStats,
    /// Finish time of every folded check, indexed by seal sequence.
    finishes: Vec<Time>,
    /// Errors the farm's checkers raised, in seal order, each confirmed at
    /// its fold.
    pub(crate) errors: Vec<DetectedError>,
    /// The latest finish time so far: when every check folded so far has
    /// finished.
    done_at: Time,
}

impl FoldRecord {
    /// Folds check `c`'s replay `trace` on `checker`, fetching through
    /// `ifetch`, and records the outcome — the one fold of the primary farm
    /// and of every secondary clock domain. Returns whether the check
    /// failed. A lying checker (`lie`) reports "pass" regardless of the
    /// replay's verdict (the missed-detection fault class), and the
    /// segment then counts as validated downstream like any clean check.
    fn fold(
        &mut self,
        checker: &mut CheckerCore,
        c: &SealedCheck,
        program: &Program,
        trace: &ReplayTrace,
        lie: bool,
        ifetch: impl FnMut(usize, u64, u64, u64) -> u64,
    ) -> bool {
        let FoldRecord { delays, store_delays, .. } = self;
        let log = &c.inputs.log;
        let out = checker.fold_timing(program, c.ready_at, trace, ifetch, |idx, now| {
            let d = now.saturating_sub(log.commit_time(idx));
            delays.record(d);
            if log.kind(idx) == EntryKind::Store {
                store_delays.record(d);
            }
        });
        self.finish(c.seal_seq, out.finish_time);
        match out.result {
            Err(error) if !lie => {
                // §IV: an error is known to be the first once every earlier
                // check has finished — at `done_at`, since folds run in
                // seal order.
                self.errors.push(DetectedError {
                    seal_seq: c.seal_seq,
                    error,
                    detect_time: out.finish_time,
                    confirm_time: self.done_at,
                    base_instr: c.base_instr,
                });
                true
            }
            _ => false,
        }
    }

    /// Records check `seal_seq`'s finish time. Finish times are indexed by
    /// seal sequence: each check finishes exactly once, in seal order.
    fn finish(&mut self, seal_seq: u64, at: Time) {
        assert_eq!(
            seal_seq,
            self.finishes.len() as u64,
            "a check folded out of seal order or twice"
        );
        self.finishes.push(at);
        self.done_at = self.done_at.max(at);
    }

    /// Bytes the record holds besides its fixed-size parts.
    fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.finishes.as_slice())
            + self.delays.bytes()
            + self.store_delays.bytes()
            + size_of_val(self.errors.as_slice())
    }
}

/// One secondary clock domain's live state: its own checker cores
/// (`free_at`, statistics), its own checker-cache path (cold-cloned from
/// the domain's `MemConfig` template, exactly as a dedicated run at that
/// clock starts), and its own fold results. Folds run in seal order,
/// primary farm first, immediately after the primary fold of the same
/// segment.
#[derive(Debug, Clone)]
struct DomainState {
    domain: ClockDomain,
    /// Each core's `free_at` is the busy window a dedicated run at this
    /// clock would gate the main core on.
    checkers: Vec<CheckerCore>,
    path: CheckerPath,
    folds: FoldRecord,
    /// Commit-gate decisions where this domain's busy window differed from
    /// the primary's (see [`DomainReport::stall_divergences`]).
    stall_divergences: u64,
}

/// One secondary clock domain's results out of a multi-domain run.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// The domain swept.
    pub domain: ClockDomain,
    /// Detection delays over all checked entries (Fig. 8 at this clock).
    pub delays: DelayStats,
    /// Detection delays over stores only (Fig. 11 at this clock).
    pub store_delays: DelayStats,
    /// Errors this domain's checkers raised, in seal order, with
    /// confirmation times filled in.
    pub errors: Vec<DetectedError>,
    /// Finish times of every folded check, indexed by seal sequence.
    pub finishes: Vec<Time>,
    /// Per-core checker statistics.
    pub checkers: Vec<CheckerStats>,
    /// Time at which every check of this domain has finished.
    pub all_checks_done_at: Time,
    /// Commit-gate decisions where this domain's segment-busy window would
    /// have gated the main core differently than the primary domain's
    /// (stalled when the primary didn't, freed when the primary stalled,
    /// or stalled to a different time). **Zero certifies this domain's
    /// one-run results as bit-identical to a dedicated single-clock run**;
    /// non-zero means a dedicated run's main-core timeline would have
    /// diverged, and this domain's rows are approximations.
    pub stall_divergences: u64,
}

/// One seal's scheduling decision, recorded in seal order: which slot the
/// policy assigned the sealed segment to and the entry capacity that
/// segment had. The log is what pins scheduling as a pure function of
/// (kernel, config, geometry) — identical runs must produce identical
/// assignment streams (see `tests/mixed_farms.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealAssignment {
    /// Seal sequence number.
    pub seal_seq: u64,
    /// Checker slot the segment was assigned to.
    pub slot: usize,
    /// Entry capacity of the segment when it sealed.
    pub capacity: usize,
}

/// One sealed check, queued in seal order until it folds, and after its
/// fold while it is part of the rollback window.
#[derive(Debug, Clone)]
struct SealedCheck {
    /// The replay's inputs, shared by the check queue and any snapshot.
    inputs: Arc<ReplayInputs>,
    seal_seq: u64,
    /// Segment (= checker) index the check came from.
    slot: usize,
    /// Seal time: when the segment and its end checkpoint became available.
    ready_at: Time,
    base_instr: u64,
}

/// Everything a recovery driver needs to roll the system back to the last
/// validated checkpoint after a detected error (see
/// [`Detector::rollback_plan`]).
#[derive(Debug, Clone)]
pub struct RollbackPlan {
    /// Retired-instruction count at the rollback target (counted from this
    /// run's start — a resumed run's driver adds its own global offset).
    pub base_instr: u64,
    /// Architectural state to resume from: the last validated checkpoint.
    pub state: ArchState,
    /// Store-undo writes `(addr, width, old_value)` in application order —
    /// newest unvalidated segment first, stores reversed within each
    /// segment — so applying them front-to-back restores memory to the
    /// checkpoint.
    pub undo: Vec<(u64, MemWidth, u64)>,
}

/// The detection hardware: load forwarding unit, partitioned log,
/// checkpointing, and the checker-core farm.
///
/// A clone is the detector's part of a
/// [`SystemSnapshot`](crate::SystemSnapshot): the check queue shares its
/// checks' inputs, and every segment that is not filling holds no
/// entries, so the clone copies little beyond the filling segment, the
/// statistics and the checker-cache paths.
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: SystemConfig,
    next_interrupt: Time,
    program: Arc<Program>,
    /// The checker cores (public for statistics inspection). Each slot
    /// runs its speed class's configuration
    /// (`SystemConfig::checker_config_for_slot`), and its `free_at` is
    /// when the slot's segment storage frees after a folded check.
    pub checkers: Vec<CheckerCore>,
    /// One private checker-cache path per speed class (a uniform farm has
    /// one), cold at construction and clocked at the class clock
    /// (per-class hit latencies). Unlike a secondary domain's observe-only
    /// path, these belong to the *primary* farm: their misses mutate the
    /// shared L2/DRAM through `MemHier::checker_ifetch_cycle_on`, in seal
    /// order. Empty in checkpoint-only mode, which folds nothing.
    class_paths: Vec<CheckerPath>,
    /// The primary farm's fold results.
    pub(crate) folds: FoldRecord,
    /// Scheduling decisions, one per seal (see [`SealAssignment`]).
    assignments: Vec<SealAssignment>,
    /// Reusable scratch for the per-seal [`SlotView`] snapshot.
    slot_views: Vec<SlotView>,
    /// Secondary clock domains folded alongside the primary.
    domains: Vec<DomainState>,
    /// The load forwarding unit (public for statistics inspection).
    pub lfu: LoadForwardingUnit,
    segs: Vec<Segment>,
    cur: usize,
    /// Start checkpoint chained from the previous segment's end (§IV-D:
    /// "start a checker core with the register checkpoint collected when
    /// the previous segment was filled").
    chain_ckpt: ArchState,
    base_instr: u64,
    /// Sealed checks, oldest seal first: the first `folded` are folded and
    /// form the rollback window, the rest wait for their folds.
    checks: VecDeque<SealedCheck>,
    /// Folded checks at the front of `checks`. Non-zero only with recovery
    /// tracking on, from the first failed check on: that check stays at
    /// the front, and its start checkpoint is the last *validated* state
    /// of the run.
    folded: usize,
    /// Whether a failed check and every check after it stay in the queue
    /// once folded (see [`Detector::enable_recovery_tracking`]).
    track_recovery: bool,
    /// The replay-trace buffer every fold's replay reuses, left empty
    /// between folds.
    trace: ReplayTrace,
    /// Statistics (public for the experiment harness).
    pub stats: DetectorStats,
    /// An armed fault in the *detection hardware itself*: flips `bit` of
    /// the value of entry `entry` in the segment with seal sequence `seq`,
    /// just before its check runs. Models §IV-I over-detection: "errors
    /// within the checker circuitry do not affect the main program", but
    /// are still reported.
    log_fault: Option<(u64, usize, u8)>,
    /// A lying checker farm that always reports "pass": every detected
    /// error is silently dropped (the missed-detection checker-fault
    /// class). The converse lie — a false positive — is
    /// [`Detector::arm_log_fault`].
    lie_miss: bool,
}

impl Detector {
    /// Builds the detection hardware sharing `program` and drawing
    /// log-segment buffers from `scratch` instead of allocating fresh ones.
    pub fn new_shared(
        cfg: &SystemConfig,
        program: Arc<Program>,
        scratch: &mut SimScratch,
    ) -> Detector {
        let entries = cfg.entries_per_segment();
        let full = cfg.mode == DetectionMode::Full;
        let mut det = Detector {
            cfg: *cfg,
            next_interrupt: cfg.interrupt_interval.unwrap_or(Time::MAX),
            checkers: (0..cfg.n_checkers)
                .map(|i| CheckerCore::new(i, cfg.checker_config_for_slot(i)))
                .collect(),
            class_paths: if full {
                (0..cfg.farm.n_classes())
                    .map(|c| {
                        let clock = cfg.class_checker(c).clock;
                        CheckerPath::new(&cfg.mem_config_for(clock), cfg.n_checkers)
                    })
                    .collect()
            } else {
                Vec::new()
            },
            folds: FoldRecord::default(),
            assignments: Vec::new(),
            slot_views: Vec::with_capacity(cfg.n_checkers),
            domains: if full {
                cfg.extra_domains
                    .iter()
                    .map(|domain| DomainState {
                        checkers: (0..cfg.n_checkers)
                            .map(|i| CheckerCore::new(i, domain.checker))
                            .collect(),
                        path: CheckerPath::new(
                            &cfg.mem_config_for(domain.checker.clock),
                            cfg.n_checkers,
                        ),
                        domain,
                        folds: FoldRecord::default(),
                        stall_divergences: 0,
                    })
                    .collect()
            } else {
                Vec::new()
            },
            lfu: LoadForwardingUnit::new(cfg.main.rob_entries),
            segs: (0..cfg.n_checkers)
                .map(|_| Segment::with_buffer(entries, scratch.take_seg_buf()))
                .collect(),
            cur: 0,
            chain_ckpt: ArchState::at_entry(&program),
            program,
            base_instr: 0,
            checks: VecDeque::new(),
            folded: 0,
            track_recovery: false,
            trace: ReplayTrace::default(),
            stats: DetectorStats::default(),
            log_fault: None,
            lie_miss: false,
        };
        // Let the policy pick (and size) the first segment to fill, from a
        // fully idle farm at t=0. For round-robin this resolves to slot 0
        // at the even-split capacity — exactly the fixed-ring start — so
        // the uniform default is untouched (invariant 11).
        let n = det.segs.len();
        det.cur = det.schedule_next(n - 1, Time::ZERO);
        det
    }

    /// Rebuilds the detector `snap` is a clone of (see
    /// [`PairedSystem::snapshot`](crate::PairedSystem::snapshot)), drawing
    /// segment entry buffers from `scratch`. The snapshot's check queue
    /// comes back as it is, its inputs still shared with it; nothing
    /// replays here, each check replays at its own fold.
    pub(crate) fn from_snapshot(snap: &Detector, scratch: &mut SimScratch) -> Detector {
        let mut det = snap.clone();
        for seg in &mut det.segs {
            let mut log = Segment::with_buffer(seg.capacity, scratch.take_seg_buf()).log;
            log.extend_from(&seg.log);
            seg.log = log;
        }
        det
    }

    /// Bytes a clone of the detector holds on its own: log entries, delay
    /// samples, finish times and scheduling decisions, checker-cache
    /// paths. Queued checks' inputs are shared and counted by
    /// [`shared_inputs`](Detector::shared_inputs).
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.checkers.as_slice())
            + self.class_paths.iter().map(CheckerPath::bytes).sum::<usize>()
            + size_of_val(self.assignments.as_slice())
            + self.domains.len() * std::mem::size_of::<DomainState>()
            + self.segs.iter().map(|s| s.log.bytes()).sum::<usize>()
            + self.folds.bytes()
    }

    /// `(address, bytes)` of the shared inputs of every queued check: a
    /// caller summing several snapshots counts each address once.
    pub(crate) fn shared_inputs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.checks.iter().map(|c| {
            let bytes = std::mem::size_of::<ReplayInputs>() + c.inputs.log.bytes();
            (Arc::as_ptr(&c.inputs) as usize, bytes)
        })
    }

    /// Turns on rollback bookkeeping: the first failed check and every
    /// check sealed after it stay in the check queue once folded, sharing
    /// their replay inputs (start checkpoint and store-undo rows), so
    /// [`Detector::rollback_plan`] can reconstruct the last validated state
    /// after a detected error. Full-detection mode only.
    /// A detector restored from a snapshot of a tracked run keeps the
    /// checks it was restored with.
    pub fn enable_recovery_tracking(&mut self) {
        debug_assert_eq!(self.cfg.mode, DetectionMode::Full, "recovery needs full detection");
        self.track_recovery = true;
    }

    /// Arms the missed-detection checker fault: from now on the checker
    /// farm, at its own clock and at every secondary domain's, lies "pass"
    /// on every check, silently dropping detected errors (the segment
    /// counts as validated downstream). Models a faulty checker core — the
    /// converse of [`Detector::arm_log_fault`]'s over-detection.
    pub fn arm_checker_miss(&mut self) {
        self.lie_miss = true;
    }

    /// Restarts the detection chain from `state` instead of the program
    /// entry point — the first sealed segment of a resumed run replays from
    /// this checkpoint. Call before the first commit.
    pub fn resume_from(&mut self, state: &ArchState) {
        debug_assert_eq!(self.stats.seals, 0, "resume_from after seals");
        self.chain_ckpt.clone_from(state);
    }

    /// After a run with recovery tracking enabled ends with a detected
    /// error, returns the plan that rolls the system back to the last
    /// validated checkpoint: the resume state, its retired-instruction
    /// offset, and the store-undo writes (already ordered for
    /// front-to-back application). `None` when no check failed or when
    /// tracking is off.
    pub fn rollback_plan(&self) -> Option<RollbackPlan> {
        if self.folded == 0 {
            return None;
        }
        let front = &self.checks[0];
        let undo = self.checks.iter().rev().flat_map(|c| c.inputs.log.undo_rows().rev()).collect();
        Some(RollbackPlan { base_instr: front.base_instr, state: front.inputs.start.clone(), undo })
    }

    /// Returns the detector's segment entry buffers to `scratch` so the
    /// next [`Detector::new_shared`] skips reallocating them. Checks still
    /// pending are dropped unreplayed; the buffers of those a snapshot
    /// does not share come home too.
    pub fn recycle_into(self, scratch: &mut SimScratch) {
        // The folded front is dropped, not pooled: each of its segments
        // holds a buffer of its own, and pooling both would grow the pool
        // with every such run.
        for c in self.checks.into_iter().skip(self.folded) {
            if let Ok(inputs) = Arc::try_unwrap(c.inputs) {
                scratch.put_seg_buf(inputs.log);
            }
        }
        for seg in self.segs {
            scratch.put_seg_buf(seg.log);
        }
    }

    /// Arms an over-detection fault: corrupts one bit of one log entry in
    /// the segment with seal sequence `seal_seq` before it is checked
    /// (§IV-I). The main program is unaffected; the checker reports a
    /// false-positive error.
    pub fn arm_log_fault(&mut self, seal_seq: u64, entry: usize, bit: u8) {
        self.log_fault = Some((seal_seq, entry, bit));
    }

    /// Time at which every sealed check has finished. Complete only once
    /// [`Detector::finalize`] has folded every pending check.
    pub fn all_checks_done_at(&self) -> Time {
        self.folds.done_at
    }

    /// Finish times of every folded check, indexed by seal sequence (for
    /// the determinism test-suite; complete after [`Detector::finalize`]).
    pub fn finish_times(&self) -> &[Time] {
        &self.folds.finishes
    }

    /// The scheduling decisions so far, one per seal, in seal order (for
    /// the mixed-farm determinism suite).
    pub fn assignments(&self) -> &[SealAssignment] {
        &self.assignments
    }

    /// When `slot`'s segment storage frees: its checker's `free_at` while
    /// the storage waits on a folded check, and `Time::ZERO` when it is
    /// free or filling.
    fn storage_busy_until(&self, slot: usize) -> Time {
        match self.segs[slot].state {
            SegmentState::Busy => self.checkers[slot].free_at(),
            _ => Time::ZERO,
        }
    }

    /// Asks the policy which slot receives the segment now starting to
    /// fill (and at what capacity), given the farm's busy windows at
    /// `at`. `prev` is the slot just sealed.
    ///
    /// A still-`Checking` slot has no materialized finish time; its view
    /// carries a `Time::MAX` sentinel. Only round-robin can see one — it
    /// never reads busy windows — because for dynamic policies the seal
    /// path drains in-flight folds first, so every window is exact.
    fn schedule_next(&mut self, prev: usize, at: Time) -> usize {
        let mut views = std::mem::take(&mut self.slot_views);
        views.clear();
        for (i, checker) in self.checkers.iter().enumerate() {
            let busy_until = match self.segs[i].state {
                SegmentState::Checking => Time::MAX,
                _ => self.storage_busy_until(i),
            };
            views.push(SlotView { mhz: checker.config().clock.mhz(), busy_until });
        }
        let ctx = ScheduleCtx {
            slots: &views,
            prev_slot: prev,
            now: at,
            base_capacity: self.cfg.entries_per_segment(),
            min_capacity: crate::MAX_UOPS_PER_INSN,
        };
        let policy = self.cfg.sched_policy;
        let next = policy.next_slot(&ctx);
        assert!(next < self.segs.len(), "policy chose slot {next} of {}", self.segs.len());
        let capacity = policy.segment_capacity(next, &ctx).max(ctx.min_capacity);
        self.slot_views = views;
        let seg = &mut self.segs[next];
        if seg.capacity != capacity {
            seg.capacity = capacity;
            seg.log.ensure_capacity(capacity);
        }
        next
    }

    /// Snapshots every secondary clock domain's results (complete after
    /// [`Detector::finalize`]).
    pub fn domain_reports(&self) -> Vec<DomainReport> {
        self.domains
            .iter()
            .map(|d| DomainReport {
                domain: d.domain,
                delays: d.folds.delays.clone(),
                store_delays: d.folds.store_delays.clone(),
                errors: d.folds.errors.clone(),
                finishes: d.folds.finishes.clone(),
                checkers: d.checkers.iter().map(|c| c.stats).collect(),
                all_checks_done_at: d.folds.done_at,
                stall_divergences: d.stall_divergences,
            })
            .collect()
    }

    /// Records, for every secondary domain, whether its busy window for
    /// `slot` would have gated the main core differently than the
    /// primary's at time `at` (`primary_until` is the primary's busy-until
    /// for the slot, `Time::ZERO` when its storage is free). Called at
    /// exactly the simulation points where the primary consults a
    /// segment's busy state.
    fn note_domain_stalls(&mut self, slot: usize, at: Time, primary_until: Time) {
        for d in &mut self.domains {
            let domain_until = d.checkers[slot].free_at();
            let primary_stalls = at < primary_until;
            let domain_stalls = at < domain_until;
            if primary_stalls != domain_stalls || (primary_stalls && primary_until != domain_until)
            {
                d.stall_divergences += 1;
            }
        }
    }

    /// Seals whatever remains (entries and instructions since the last
    /// boundary), checks it, and folds every pending check — used at
    /// halt, crash, or experiment cutoff (§IV-H: process termination is
    /// held until checks complete).
    pub fn finalize(
        &mut self,
        committed: &ArchState,
        instr_count: u64,
        at: Time,
        hier: &mut MemHier,
    ) {
        // Fold everything in flight (seal order) so segment states and
        // finish times below are settled.
        self.drain_pending(hier);
        let covered = instr_count.saturating_sub(self.base_instr);
        if covered > 0 || !self.segs[self.cur].log.is_empty() {
            // Wait for the current segment's storage if it is still busy.
            let until = self.storage_busy_until(self.cur);
            self.note_domain_stalls(self.cur, at, until);
            let at = at.max(until);
            self.seal(committed, instr_count, at, hier, SealKind::Final);
            self.drain_pending(hier);
        }
    }

    /// Replays the **oldest** pending check and folds its timing on the
    /// primary farm, then on every secondary domain — seal order is the
    /// invariant that keeps L2/DRAM traffic, delay recording and error
    /// ordering deterministic.
    fn fold_next_pending(&mut self, hier: &mut MemHier) {
        let Detector {
            cfg,
            program,
            checkers,
            class_paths,
            folds,
            domains,
            segs,
            checks,
            folded,
            track_recovery,
            trace,
            lie_miss,
            ..
        } = self;
        let program = &**program;
        let c = checks.get(*folded).expect("fold with no pending check");
        let inputs = &*c.inputs;
        let task = SegmentTask {
            program,
            start: &inputs.start,
            end: &inputs.end,
            instr_count: inputs.instr_count,
        };
        replay_segment(task, &mut SegmentReader::new(&inputs.log), trace);
        // The slot's I-fetches go through its speed class's own path
        // (per-class clock and hit latencies), misses landing in the shared
        // L2/DRAM at this seal-order fold point.
        let path = &mut class_paths[cfg.farm.class_of_slot(c.slot)];
        let ifetch = |core, line, cycle, period| {
            hier.checker_ifetch_cycle_on(path, core, line, cycle, period)
        };
        let failed = folds.fold(&mut checkers[c.slot], c, program, trace, *lie_miss, ifetch);
        // Secondary clock domains fold the same replay trace, in set order,
        // against their own checker cores and cache paths, on this thread
        // after the primary fold. Their I-fetch misses share L2/DRAM with
        // the primary's, observe-only (`checker_ifetch_cycle_via` takes
        // `&MemHier`) — exact whenever checker fetches resolve in the
        // private L0/L1I or hit L2 at its constant hit latency.
        for d in domains.iter_mut() {
            let DomainState { checkers, path, folds, .. } = d;
            let ifetch = |core, line, cycle, period| {
                hier.checker_ifetch_cycle_via(path, core, line, cycle, period)
            };
            folds.fold(&mut checkers[c.slot], c, program, trace, *lie_miss, ifetch);
        }
        trace.clear();
        // The segment's storage frees when its check finishes (the slot's
        // `free_at`). With recovery tracking on, the first failed check and
        // every check after it stay queued, each segment taking a new
        // buffer; otherwise the check leaves the queue and its entry buffer
        // comes home empty for the segment's next tour of the ring, unless
        // a snapshot still shares it. The trace buffer waits empty for the
        // next replay, so a clone copies neither.
        let seg = &mut segs[c.slot];
        seg.state = SegmentState::Busy;
        if *track_recovery && (failed || *folded > 0) {
            *folded += 1;
            seg.log.ensure_capacity(seg.capacity);
            return;
        }
        let c = checks.pop_front().expect("the folded check is at the front");
        match Arc::try_unwrap(c.inputs) {
            Ok(inputs) => {
                seg.log = inputs.log;
                seg.log.clear();
            }
            Err(_) => seg.log.ensure_capacity(seg.capacity),
        }
    }

    /// Folds checks (oldest first) until `slot`'s check is folded.
    fn resolve_slot(&mut self, slot: usize, hier: &mut MemHier) {
        while self.segs[slot].state == SegmentState::Checking {
            self.fold_next_pending(hier);
        }
    }

    /// Folds every pending check, in seal order.
    fn drain_pending(&mut self, hier: &mut MemHier) {
        while self.folded < self.checks.len() {
            self.fold_next_pending(hier);
        }
    }

    /// Seals the current segment at `at`, whose end state is `committed`
    /// after `instr_count` total retired instructions, and queues its check
    /// (replayed and folded at the lazy join).
    fn seal(
        &mut self,
        committed: &ArchState,
        instr_count: u64,
        at: Time,
        hier: &mut MemHier,
        kind: SealKind,
    ) {
        let seal_seq = self.stats.seals;
        self.stats.seals += 1;
        match kind {
            SealKind::Space => self.stats.space_seals += 1,
            SealKind::Timeout => self.stats.timeout_seals += 1,
            SealKind::Interrupt => self.stats.interrupt_seals += 1,
            SealKind::Final => self.stats.final_seals += 1,
        }
        if let Some(iv) = self.cfg.interrupt_interval {
            if kind == SealKind::Interrupt {
                self.next_interrupt = at + iv;
            }
        }

        let cur = self.cur;
        let seg = &mut self.segs[cur];
        // Only a filling segment holds entries. An entry-less timeout/final
        // seal may find the segment free or busy past its check: begin its
        // fill retroactively.
        debug_assert!(seg.state == SegmentState::Filling || seg.log.is_empty());
        if seg.state != SegmentState::Filling {
            seg.state = SegmentState::Filling;
            seg.base_instr = self.base_instr;
        }
        // Chain the checkpoint: the committed state starts the next segment.
        let start = std::mem::replace(&mut self.chain_ckpt, committed.clone());
        match self.cfg.mode {
            DetectionMode::Full => {
                // §IV-I over-detection: flip the armed bit just before the
                // check consumes the segment.
                if let Some((fseq, fentry, fbit)) = self.log_fault {
                    if fseq == seal_seq && !seg.log.is_empty() {
                        let idx = fentry % seg.log.len();
                        seg.log.flip_value_bit(idx, fbit);
                        self.log_fault = None;
                    }
                }
                // Move the check's inputs onto the check queue and let the
                // main loop run ahead — the replay and its fold run at the
                // lazy join.
                seg.state = SegmentState::Checking;
                self.checks.push_back(SealedCheck {
                    inputs: Arc::new(ReplayInputs {
                        start,
                        end: committed.clone(),
                        instr_count: instr_count - seg.base_instr,
                        log: std::mem::take(&mut seg.log),
                    }),
                    seal_seq,
                    slot: cur,
                    ready_at: at,
                    base_instr: seg.base_instr,
                });
            }
            DetectionMode::CheckpointOnly => {
                // Checkpoint costs are modelled; the segment frees at once.
                self.folds.finish(seal_seq, at);
                seg.reset();
            }
        }
        self.assignments.push(SealAssignment { seal_seq, slot: cur, capacity: seg.capacity });
        self.base_instr = instr_count;
        // A dynamic policy reads every slot's storage-busy window, so the
        // in-flight checks must fold first — the modelled scheduler sits
        // next to the log SRAM and *sees* which checkers are busy. The
        // drain is a deterministic simulation point; round-robin skips it
        // and keeps the fully lazy fold schedule.
        if self.cfg.sched_policy.needs_busy_windows() {
            self.drain_pending(hier);
        }
        self.cur = self.schedule_next(cur, at);
    }
}

impl DetectionSink for Detector {
    fn on_load_executed(
        &mut self,
        rob_slot: usize,
        addr: u64,
        value: u64,
        width: MemWidth,
        at: Time,
    ) {
        self.lfu.capture(rob_slot, addr, value, width, at);
    }

    fn on_commit(
        &mut self,
        ev: &CommitEvent,
        at: Time,
        committed: &ArchState,
        hier: &mut MemHier,
    ) -> CommitGate {
        // ---- Lazy join ----------------------------------------------------
        // The commit stream has wrapped around to a segment whose check is
        // still pending: replay and fold the pending checks (in seal order)
        // before any stall/seal decision below reads its finish time. A
        // deterministic simulation point.
        if self.segs[self.cur].state == SegmentState::Checking {
            self.resolve_slot(self.cur, hier);
        }

        // ---- Log capture --------------------------------------------------
        let entry = match (ev.mem, ev.nondet) {
            (Some(m), _) => {
                let (kind, value) = if m.is_store {
                    (EntryKind::Store, m.value)
                } else if self.cfg.lfu_enabled {
                    // Forward the execute-time duplicate (§IV-C); fall back
                    // to the commit-path value if the slot was reallocated.
                    let v =
                        self.lfu.forward(ev.rob_slot, m.addr).map(|e| e.value).unwrap_or(m.value);
                    (EntryKind::Load, v)
                } else {
                    // Naive design: forward the register-resident value at
                    // commit (the window of vulnerability of §IV-C).
                    (EntryKind::Load, m.value)
                };
                // A store's pre-image is the undo value checkpoint
                // recovery rolls it back with; loads have nothing to undo.
                let undo = if m.is_store { m.old } else { 0 };
                Some((kind, m.addr, value, m.width, undo))
            }
            (None, Some(v)) => Some((EntryKind::Nondet, 0, v, MemWidth::D, 0)),
            (None, None) => None,
        };
        if let Some((kind, addr, value, width, undo)) = entry {
            if self.segs[self.cur].state == SegmentState::Busy {
                let until = self.checkers[self.cur].free_at();
                // The wrap-around stall decision: record, per secondary
                // domain, whether a dedicated run at that clock would have
                // decided differently (its segment's check finishing at
                // another time).
                self.note_domain_stalls(self.cur, at, until);
                if at < until {
                    // Every segment in use: stall the main core.
                    self.stats.log_full_retries += 1;
                    return CommitGate::Retry(until);
                }
                self.segs[self.cur].reset();
            }
            let seg = &mut self.segs[self.cur];
            debug_assert!(seg.state != SegmentState::Checking, "resolved at the top of on_commit");
            if seg.state == SegmentState::Free {
                seg.state = SegmentState::Filling;
                seg.base_instr = self.base_instr;
            }
            debug_assert!(seg.log.len() < seg.capacity, "macro-op boundary rule violated");
            seg.log.push(kind, addr, value, width, at, undo);
            self.stats.entries_logged += 1;
        }

        // ---- Seal decision at macro-op boundaries --------------------------
        if !ev.last {
            return CommitGate::Accept;
        }
        let instr_count = ev.instr_index + 1;
        let is_halt = matches!(ev.insn, Instruction::Halt);
        let covered = instr_count - self.base_instr;

        let seg = &self.segs[self.cur];
        let space_seal = !seg.has_space_for_macro();
        let timeout_seal = self.cfg.log.timeout_insns.is_some_and(|t| covered >= t);
        let interrupt_seal = at >= self.next_interrupt;
        let pending = !seg.log.is_empty();
        // Timeout/interrupt seals of an entry-less segment whose storage is
        // still being checked are deferred to the next boundary; a halt must
        // wait for the storage instead.
        let seg_until = self.storage_busy_until(self.cur);
        let storage_busy_until = if at < seg_until { Some(seg_until) } else { None };
        let pause = self.cfg.checkpoint_pause_cycles;

        if is_halt {
            if covered == 0 && !pending {
                return CommitGate::Accept;
            }
            self.note_domain_stalls(self.cur, at, seg_until);
            if let Some(until) = storage_busy_until {
                self.stats.log_full_retries += 1;
                return CommitGate::Retry(until);
            }
            self.seal(committed, instr_count, at, hier, SealKind::Final);
            return CommitGate::AcceptWithPause(pause);
        }
        if space_seal {
            self.seal(committed, instr_count, at, hier, SealKind::Space);
            return CommitGate::AcceptWithPause(pause);
        }
        if (timeout_seal || interrupt_seal) && covered > 0 {
            // A dedicated run at another checker clock could find this
            // segment's storage (not) busy where the primary doesn't — a
            // deferral difference the divergence counter must see.
            self.note_domain_stalls(self.cur, at, seg_until);
            if storage_busy_until.is_none() {
                let kind = if interrupt_seal { SealKind::Interrupt } else { SealKind::Timeout };
                self.seal(committed, instr_count, at, hier, kind);
                return CommitGate::AcceptWithPause(pause);
            }
        }
        CommitGate::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_isa::{ProgramBuilder, Reg};

    #[test]
    fn detector_builds_with_paper_config() {
        let cfg = SystemConfig::paper_default();
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 1);
        b.halt();
        let det = Detector::new_shared(&cfg, Arc::new(b.build()), &mut SimScratch::new());
        assert_eq!(det.checkers.len(), 12);
        assert_eq!(det.segs.len(), 12);
        assert_eq!(det.segs[0].capacity, 170);
        assert_eq!(det.lfu.capacity(), 40);
        assert!(det.checks.is_empty());
    }
}
