//! The partitioned load-store log (§IV-D).
//!
//! An SRAM log captures, in commit order, every load value (for replay) and
//! every store address/value (for checking), plus non-deterministic results.
//! The log is *partitioned*: each segment maps one-to-one onto a checker
//! core. Segments are sealed — handed to their checker together with start
//! and end register checkpoints — when nearly full, on an instruction-count
//! timeout, at interrupt boundaries, or at program termination.

use paradet_checker::{ReplayError, ReplaySource};
use paradet_isa::MemWidth;
use paradet_mem::Time;

/// What one log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A committed load: address (checked) and value (replayed).
    Load,
    /// A committed store: address and value (both checked).
    Store,
    /// A non-deterministic result (`rdcycle`), replayed.
    Nondet,
}

/// One committed log entry, as a by-value view.
///
/// Storage is columnar (see [`SegmentLog`]); this struct is the row view
/// returned by [`SegmentLog::get`] for call sites that want one entry's
/// fields together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Entry kind.
    pub kind: EntryKind,
    /// Byte address (zero for `Nondet`).
    pub addr: u64,
    /// Value loaded / stored / produced.
    pub value: u64,
    /// Access width (`D` for `Nondet`).
    pub width: MemWidth,
    /// Commit time on the main core — the anchor for detection-delay
    /// measurement.
    pub commit_time: Time,
}

/// A log segment's entries in structure-of-arrays form.
///
/// The checker's replay consumes entries strictly in order, one field
/// stream at a time (kind tag, then address, then value), so columnar
/// storage walks dense arrays instead of striding through 40-byte
/// `LogEntry` rows. It also keeps the *modelled* SRAM separate from
/// simulation instrumentation: the hardware log stores kind, width,
/// address and value ([`SegmentLog::SRAM_BITS_PER_ENTRY`] — the measured
/// counterpart of [`LogConfig::entry_bytes`](crate::LogConfig)'s 18-byte
/// estimate), while `commit_times` exists only so the simulator can anchor
/// detection-delay measurement.
#[derive(Debug, Clone, Default)]
pub struct SegmentLog {
    kinds: Vec<EntryKind>,
    widths: Vec<MemWidth>,
    addrs: Vec<u64>,
    values: Vec<u64>,
    commit_times: Vec<Time>,
    undos: Vec<u64>,
}

impl SegmentLog {
    /// SRAM bits one entry actually occupies in the modelled hardware:
    /// 2-bit kind tag + 2-bit width + 48-bit physical address + 64-bit
    /// value. Commit times are simulator instrumentation, not SRAM, and
    /// the store-undo column models a separate store-undo FIFO (the
    /// recovery hardware's rollback buffer), not checker-SRAM capacity —
    /// neither enters this figure or the 18 B/entry capacity model.
    pub const SRAM_BITS_PER_ENTRY: u64 = 2 + 2 + 48 + 64;

    /// Creates an empty log.
    pub fn new() -> SegmentLog {
        SegmentLog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Empties the log, retaining allocations.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.widths.clear();
        self.addrs.clear();
        self.values.clear();
        self.commit_times.clear();
        self.undos.clear();
    }

    /// Appends every entry of `other`.
    pub(crate) fn extend_from(&mut self, other: &SegmentLog) {
        self.kinds.extend_from_slice(&other.kinds);
        self.widths.extend_from_slice(&other.widths);
        self.addrs.extend_from_slice(&other.addrs);
        self.values.extend_from_slice(&other.values);
        self.commit_times.extend_from_slice(&other.commit_times);
        self.undos.extend_from_slice(&other.undos);
    }

    /// Bytes the entries occupy, every column counted.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.len()
            * (size_of::<EntryKind>()
                + size_of::<MemWidth>()
                + 3 * size_of::<u64>()
                + size_of::<Time>())
    }

    /// Smallest per-column capacity (for pool diagnostics).
    pub fn capacity(&self) -> usize {
        self.kinds
            .capacity()
            .min(self.widths.capacity())
            .min(self.addrs.capacity())
            .min(self.values.capacity())
            .min(self.commit_times.capacity())
            .min(self.undos.capacity())
    }

    /// Grows every column to hold at least `capacity` entries.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        fn grow<T>(v: &mut Vec<T>, capacity: usize) {
            if v.capacity() < capacity {
                v.reserve(capacity - v.len());
            }
        }
        grow(&mut self.kinds, capacity);
        grow(&mut self.widths, capacity);
        grow(&mut self.addrs, capacity);
        grow(&mut self.values, capacity);
        grow(&mut self.commit_times, capacity);
        grow(&mut self.undos, capacity);
    }

    /// Appends one entry. `undo` is the pre-store memory value for `Store`
    /// entries (the recovery rollback writes it back) and zero otherwise.
    pub fn push(
        &mut self,
        kind: EntryKind,
        addr: u64,
        value: u64,
        width: MemWidth,
        at: Time,
        undo: u64,
    ) {
        self.kinds.push(kind);
        self.widths.push(width);
        self.addrs.push(addr);
        self.values.push(value);
        self.commit_times.push(at);
        self.undos.push(undo);
    }

    /// Entry `i`'s kind.
    pub fn kind(&self, i: usize) -> EntryKind {
        self.kinds[i]
    }

    /// Entry `i`'s commit time.
    pub fn commit_time(&self, i: usize) -> Time {
        self.commit_times[i]
    }

    /// The store-undo rows of this segment, in commit order: every `Store`
    /// entry's `(addr, width, pre-store value)`. Rolling a segment back
    /// means writing these back **in reverse order** (overlapping stores
    /// must unwind newest-first).
    pub fn undo_rows(&self) -> impl DoubleEndedIterator<Item = (u64, MemWidth, u64)> + '_ {
        (0..self.len())
            .filter(|&i| self.kinds[i] == EntryKind::Store)
            .map(|i| (self.addrs[i], self.widths[i], self.undos[i]))
    }

    /// Entry `i` as a row view.
    pub fn get(&self, i: usize) -> LogEntry {
        LogEntry {
            kind: self.kinds[i],
            addr: self.addrs[i],
            value: self.values[i],
            width: self.widths[i],
            commit_time: self.commit_times[i],
        }
    }

    /// Flips bit `bit & 63` of entry `i`'s value (the §IV-I over-detection
    /// fault: the detection SRAM itself is corrupted).
    pub fn flip_value_bit(&mut self, i: usize, bit: u8) {
        self.values[i] ^= 1u64 << (bit & 63);
    }
}

/// Lifecycle of one log segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// Empty and available.
    Free,
    /// Receiving committed entries from the main core.
    Filling,
    /// Sealed and queued for its checker; the check's finish time is not
    /// yet known (the detector replays and folds pending checks lazily, in
    /// seal order, at the first point the simulation needs one).
    Checking,
    /// Check timing folded; the storage frees when the check finishes, at
    /// its checker's `free_at`.
    Busy,
}

/// One partition of the load-store log.
///
/// Start/end register checkpoints are *not* stored here: at seal time the
/// detector's chained checkpoint (start) and the committed state (end) are
/// both live, and the sealed check takes ownership of them — storing
/// copies per segment was two redundant `ArchState` clones per seal.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Captured entries, in commit order (structure-of-arrays). Empty
    /// unless the segment is filling: a seal moves them into the check.
    pub log: SegmentLog,
    /// Entry capacity (3 KiB / 18 B ≈ 170 at Table I settings).
    pub capacity: usize,
    /// Lifecycle state.
    pub state: SegmentState,
    /// Dynamic index of the first instruction covered.
    pub base_instr: u64,
}

impl Segment {
    /// Creates an empty, free segment.
    pub fn new(capacity: usize) -> Segment {
        Segment::with_buffer(capacity, SegmentLog::new())
    }

    /// Creates an empty, free segment around a recycled entry buffer (see
    /// [`SimScratch`](crate::SimScratch)); the buffer is grown to `capacity`
    /// if it arrived smaller.
    pub fn with_buffer(capacity: usize, mut buffer: SegmentLog) -> Segment {
        buffer.clear();
        buffer.ensure_capacity(capacity);
        Segment { log: buffer, capacity, state: SegmentState::Free, base_instr: 0 }
    }

    /// Clears the segment back to `Free` for reuse (the entry buffer's
    /// allocation is retained).
    pub fn reset(&mut self) {
        self.log.clear();
        self.state = SegmentState::Free;
    }

    /// Whether another macro-op's worth of entries fits. The paper's
    /// boundary rule: a macro-op's accesses must never straddle segments,
    /// so sealing happens while `MAX_UOPS_PER_INSN` slots remain (§IV-D).
    pub fn has_space_for_macro(&self) -> bool {
        self.log.len() + crate::MAX_UOPS_PER_INSN <= self.capacity
    }
}

/// A checker core's sequential read view of a sealed segment.
///
/// Purely functional: detection-delay samples are recorded by the timing
/// fold (see [`Detector`](crate::Detector)), and only for entries whose
/// checks *passed* — an earlier revision recorded the delay before the
/// kind/address/value comparison, so a mismatching entry polluted the delay
/// statistics with a bogus sample at the very moment an error was raised.
#[derive(Debug)]
pub struct SegmentReader<'a> {
    log: &'a SegmentLog,
    pos: usize,
}

impl<'a> SegmentReader<'a> {
    /// Creates a reader over a sealed segment's entries.
    pub fn new(log: &'a SegmentLog) -> SegmentReader<'a> {
        SegmentReader { log, pos: 0 }
    }

    /// Entries consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Claims the next entry's index, or reports log exhaustion. Field
    /// columns are then read directly at the claimed index — the replay
    /// touches only the columns each check actually compares.
    fn next_index(&mut self) -> Result<usize, ReplayError> {
        if self.pos >= self.log.len() {
            return Err(ReplayError::LogExhausted);
        }
        let i = self.pos;
        self.pos += 1;
        Ok(i)
    }
}

impl ReplaySource for SegmentReader<'_> {
    fn replay_load(&mut self, addr: u64, _width: MemWidth) -> Result<u64, ReplayError> {
        let i = self.next_index()?;
        if self.log.kinds[i] != EntryKind::Load {
            return Err(ReplayError::KindMismatch);
        }
        if self.log.addrs[i] != addr {
            return Err(ReplayError::LoadAddrMismatch { got: addr, logged: self.log.addrs[i] });
        }
        Ok(self.log.values[i])
    }

    fn check_store(&mut self, addr: u64, value: u64, width: MemWidth) -> Result<(), ReplayError> {
        let i = self.next_index()?;
        if self.log.kinds[i] != EntryKind::Store {
            return Err(ReplayError::KindMismatch);
        }
        if self.log.addrs[i] != addr {
            return Err(ReplayError::StoreAddrMismatch { got: addr, logged: self.log.addrs[i] });
        }
        if self.log.values[i] != width.truncate(value) {
            return Err(ReplayError::StoreValueMismatch {
                got: width.truncate(value),
                logged: self.log.values[i],
            });
        }
        Ok(())
    }

    fn replay_nondet(&mut self) -> Result<u64, ReplayError> {
        let i = self.next_index()?;
        if self.log.kinds[i] != EntryKind::Nondet {
            return Err(ReplayError::KindMismatch);
        }
        Ok(self.log.values[i])
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.log.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(rows: &[(EntryKind, u64, u64, u64)]) -> SegmentLog {
        let mut log = SegmentLog::new();
        for &(kind, addr, value, t_ns) in rows {
            log.push(kind, addr, value, MemWidth::D, Time::from_ns(t_ns), 0);
        }
        log
    }

    #[test]
    fn reader_replays_in_order() {
        let entries = log_of(&[
            (EntryKind::Load, 0x100, 7, 10),
            (EntryKind::Store, 0x108, 8, 20),
            (EntryKind::Nondet, 0, 99, 30),
        ]);
        let mut r = SegmentReader::new(&entries);
        assert_eq!(r.replay_load(0x100, MemWidth::D), Ok(7));
        assert_eq!(r.consumed(), 1);
        assert_eq!(r.check_store(0x108, 8, MemWidth::D), Ok(()));
        assert_eq!(r.replay_nondet(), Ok(99));
        assert!(r.exhausted());
    }

    #[test]
    fn kind_mismatch_detected() {
        let entries = log_of(&[(EntryKind::Store, 0x100, 7, 0)]);
        let mut r = SegmentReader::new(&entries);
        assert_eq!(r.replay_load(0x100, MemWidth::D), Err(ReplayError::KindMismatch));
        // The mismatching entry is consumed — it is up to the timing fold
        // *not* to record a detection delay for it.
        assert_eq!(r.consumed(), 1);
    }

    #[test]
    fn store_value_width_truncation() {
        // A 4-byte store of a value with high garbage bits must compare
        // only the stored 4 bytes.
        let mut entries = SegmentLog::new();
        entries.push(EntryKind::Store, 0x100, 0x1234_5678, MemWidth::W, Time::ZERO, 0);
        let mut r = SegmentReader::new(&entries);
        assert_eq!(r.check_store(0x100, 0xFFFF_FFFF_1234_5678, MemWidth::W), Ok(()));
    }

    #[test]
    fn exhaustion_detected() {
        let entries = SegmentLog::new();
        let mut r = SegmentReader::new(&entries);
        assert_eq!(r.replay_load(0, MemWidth::D), Err(ReplayError::LogExhausted));
    }

    #[test]
    fn segment_space_rule() {
        let mut s = Segment::new(4);
        assert!(s.has_space_for_macro());
        s.log.push(EntryKind::Load, 0, 0, MemWidth::D, Time::ZERO, 0);
        s.log.push(EntryKind::Load, 0, 0, MemWidth::D, Time::ZERO, 0);
        assert!(s.has_space_for_macro()); // 2 + 2 <= 4
        s.log.push(EntryKind::Load, 0, 0, MemWidth::D, Time::ZERO, 0);
        assert!(!s.has_space_for_macro()); // 3 + 2 > 4
        s.reset();
        assert_eq!(s.state, SegmentState::Free);
        assert!(s.log.is_empty());
    }

    #[test]
    fn soa_round_trips_and_measures_sram() {
        let mut log = log_of(&[(EntryKind::Load, 0x40, 5, 1), (EntryKind::Store, 0x48, 9, 2)]);
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.get(1),
            LogEntry {
                kind: EntryKind::Store,
                addr: 0x48,
                value: 9,
                width: MemWidth::D,
                commit_time: Time::from_ns(2),
            }
        );
        assert_eq!(log.kind(0), EntryKind::Load);
        assert_eq!(log.commit_time(0), Time::from_ns(1));
        log.flip_value_bit(1, 3);
        assert_eq!(log.get(1).value, 9 ^ 8);
        // Measured SRAM cost: kind + width + 48-bit addr + 64-bit value —
        // 116 bits, comfortably under the 18 B/entry modelling estimate.
        assert_eq!(SegmentLog::SRAM_BITS_PER_ENTRY, 116);
        log.clear();
        assert!(log.is_empty());
        assert!(log.capacity() >= 2);
    }

    #[test]
    fn undo_rows_are_store_only_in_commit_order() {
        let mut log = SegmentLog::new();
        log.push(EntryKind::Load, 0x10, 1, MemWidth::D, Time::ZERO, 0);
        log.push(EntryKind::Store, 0x20, 2, MemWidth::W, Time::ZERO, 7);
        log.push(EntryKind::Nondet, 0, 3, MemWidth::D, Time::ZERO, 0);
        log.push(EntryKind::Store, 0x28, 4, MemWidth::D, Time::ZERO, 9);
        let rows: Vec<_> = log.undo_rows().collect();
        assert_eq!(rows, vec![(0x20, MemWidth::W, 7), (0x28, MemWidth::D, 9)]);
    }
}
