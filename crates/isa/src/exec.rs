//! Functional (golden-model) execution of programs.
//!
//! [`ArchState::step`] executes one architectural instruction with exact ISA
//! semantics and no timing. It is used by:
//!
//! * the in-order checker cores, whose architectural behaviour is this model
//!   driven by the pipeline timing in `paradet-checker`;
//! * the fault-injection oracle (golden run for silent-data-corruption
//!   classification);
//! * the test suite, as the reference the out-of-order core must match.

use crate::insn::{Instruction, MemWidth};
use crate::program::{DataImage, Program};
use crate::reg::{FReg, Reg};
use crate::uop::FMovKind;
use std::fmt;

/// Byte-addressed memory interface used by the functional executor.
pub trait MemoryIface {
    /// Loads `width` bytes (little-endian, zero-extended) from `addr`.
    fn load(&mut self, addr: u64, width: MemWidth) -> u64;
    /// Stores the low `width` bytes of `val` at `addr`.
    fn store(&mut self, addr: u64, width: MemWidth, val: u64);
    /// Stores like [`MemoryIface::store`] and returns the pre-image — the
    /// value at `addr` before the store, zero-extended from `width` — for
    /// implementations that can observe it. The executor records it as the
    /// store's undo value (checkpoint recovery rolls stores back with it).
    ///
    /// The default returns 0 *without reading*: `load` may have side
    /// effects (the checker's log-backed replay memory consumes a log
    /// entry per load), and validation-only consumers never use the
    /// pre-image. Plain memories like [`FlatMemory`] override this.
    fn store_with_undo(&mut self, addr: u64, width: MemWidth, val: u64) -> u64 {
        self.store(addr, width, val);
        0
    }
}

/// Source of non-deterministic instruction results (`rdcycle`).
///
/// During original execution this is the core's cycle counter. During
/// checking the value is replayed from the load-store log, so the checker
/// observes exactly what the main core observed (§IV-D).
pub trait NondetSource {
    /// Returns the next non-deterministic value.
    fn next_nondet(&mut self) -> u64;
}

/// A [`NondetSource`] that always returns zero — useful in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNondet;

impl NondetSource for NoNondet {
    fn next_nondet(&mut self) -> u64 {
        0
    }
}

/// A value supplied for the next `rdcycle` (the main core's cycle count,
/// or the checker's logged copy of it); zero once taken or when `None`.
impl NondetSource for Option<u64> {
    fn next_nondet(&mut self) -> u64 {
        self.take().unwrap_or(0)
    }
}

/// Sparse page table: an open-addressing hash map from page index to page
/// contents, specialized for the functional-memory hot path.
///
/// `ArchState::step` performs a page lookup per memory access (and the
/// paired simulator executes every instruction twice — oracle and replay),
/// so the general-purpose `HashMap`'s SipHash plus per-byte lookups were a
/// measurable slice of single-run wall time. This table hashes the page
/// index with a SplitMix64 finalizer (one multiply chain, no keying),
/// probes linearly, and never deletes, which keeps the lookup a handful of
/// instructions.
#[derive(Debug, Clone, Default)]
struct PageTable {
    /// Power-of-two slot array, load factor kept ≤ 1/2.
    slots: Vec<Option<(u64, Page)>>,
    len: usize,
}

/// Bytes past a page's contents in its allocation: one bit per 8-byte
/// word, set once the word is stored to (loading the data image does not
/// count), so [`FlatMemory::diff_from_image`] reads only written words of
/// pages no image covers.
const WRITTEN_BYTES: usize = FlatMemory::PAGE / 64;

/// A materialized page: its contents, then its written-word bitmap, in one
/// allocation.
#[derive(Debug, Clone)]
struct Page(Box<[u8]>);

impl Page {
    fn zeroed() -> Page {
        // Zeroed straight from the allocator (calloc): fresh OS pages
        // arrive zero already, so materializing a page is one allocation,
        // not a 4 KiB stack image plus a copy.
        Page(vec![0u8; FlatMemory::PAGE + WRITTEN_BYTES].into_boxed_slice())
    }

    fn bytes(&self) -> &[u8; FlatMemory::PAGE] {
        self.0[..FlatMemory::PAGE].try_into().expect("page-sized")
    }

    fn written(&self) -> &[u8; WRITTEN_BYTES] {
        self.0[FlatMemory::PAGE..].try_into().expect("bitmap-sized")
    }

    fn bytes_mut(&mut self) -> &mut [u8; FlatMemory::PAGE] {
        (&mut self.0[..FlatMemory::PAGE]).try_into().expect("page-sized")
    }

    /// Stores `src` at `off`, marking the words it touches written.
    fn write(&mut self, off: usize, src: &[u8]) {
        let (bytes, written) = self.0.split_at_mut(FlatMemory::PAGE);
        bytes[off..off + src.len()].copy_from_slice(src);
        for w in off / 8..=(off + src.len() - 1) / 8 {
            written[w / 8] |= 1 << (w % 8);
        }
    }
}

impl PageTable {
    fn hash(page: u64) -> u64 {
        // SplitMix64 finalizer: avalanches page indices so strided
        // footprints don't form probe chains.
        let mut z = page.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn get(&self, page: u64) -> Option<&Page> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(page) as usize) & mask;
        loop {
            match &self.slots[i] {
                Some((k, p)) if *k == page => return Some(p),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    fn get_or_insert(&mut self, page: u64) -> &mut Page {
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(page) as usize) & mask;
        loop {
            match self.slots[i].as_ref().map(|(k, _)| *k) {
                Some(k) if k == page => break,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some((page, Page::zeroed()));
                    self.len += 1;
                    break;
                }
            }
        }
        &mut self.slots[i].as_mut().expect("slot just matched or filled").1
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, {
            let mut v = Vec::new();
            v.resize_with(new_cap, || None);
            v
        });
        let mask = new_cap - 1;
        for slot in old.into_iter().flatten() {
            let mut i = (Self::hash(slot.0) as usize) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().map(|(k, _)| *k)
    }
}

/// A simple sparse paged memory with exact functional semantics.
///
/// This is the reference memory used in tests and in the golden model. The
/// timing-annotated memory hierarchy lives in `paradet-mem`; its functional
/// contents are also a `FlatMemory`.
#[derive(Debug, Clone, Default)]
pub struct FlatMemory {
    pages: PageTable,
}

impl FlatMemory {
    /// Page size in bytes.
    pub const PAGE: usize = 4096;
    /// log2 of the page size.
    const PAGE_SHIFT: u32 = Self::PAGE.trailing_zeros();

    /// Creates an empty memory; all bytes read as zero.
    pub fn new() -> FlatMemory {
        FlatMemory::default()
    }

    /// Copies every data image of `program` into memory.
    pub fn load_image(&mut self, program: &Program) {
        for img in program.data() {
            // Page-chunked copy: one table lookup per page, not per byte
            // (campaigns rebuild a system per trial, so this is warm-path).
            let mut addr = img.base;
            let mut rest: &[u8] = &img.bytes;
            while !rest.is_empty() {
                let off = (addr & (Self::PAGE as u64 - 1)) as usize;
                let n = rest.len().min(Self::PAGE - off);
                let page = self.pages.get_or_insert(addr >> Self::PAGE_SHIFT).bytes_mut();
                page[off..off + n].copy_from_slice(&rest[..n]);
                addr += n as u64;
                rest = &rest[n..];
            }
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u64) -> u8 {
        match self.pages.get(addr >> Self::PAGE_SHIFT) {
            Some(p) => p.bytes()[(addr & (Self::PAGE as u64 - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u64, val: u8) {
        let p = self.pages.get_or_insert(addr >> Self::PAGE_SHIFT);
        p.write((addr & (Self::PAGE as u64 - 1)) as usize, &[val]);
    }

    /// Compares the full contents of two memories.
    ///
    /// Returns the first differing byte address, if any.
    pub fn first_difference(&self, other: &FlatMemory) -> Option<u64> {
        let mut pages: Vec<u64> = self.pages.keys().chain(other.pages.keys()).collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            let a = self.pages.get(page).map_or(&ZERO_PAGE, Page::bytes);
            let b = other.pages.get(page).map_or(&ZERO_PAGE, Page::bytes);
            if let Some(off) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
                return Some((page << Self::PAGE_SHIFT) + off as u64);
            }
        }
        None
    }

    /// The aligned 8-byte words of this memory that differ from
    /// `program`'s data image (bytes outside the image count as zero).
    ///
    /// Pages an image touches are compared in full; on every other page
    /// only the words ever stored to can be nonzero, so only those are
    /// read. Two memories hold the same bytes exactly when their diffs
    /// against the same image are equal, so the fault campaign classifies
    /// silent data corruption by comparing a trial's diff with the golden
    /// run's.
    pub fn diff_from_image(&self, program: &Program) -> ImageDiff {
        let mut pages: Vec<u64> = self.pages.keys().collect();
        for img in program.data().iter().filter(|img| !img.bytes.is_empty()) {
            let last = img.base + img.bytes.len() as u64 - 1;
            pages.extend((img.base >> Self::PAGE_SHIFT)..=(last >> Self::PAGE_SHIFT));
        }
        pages.sort_unstable();
        pages.dedup();
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        let mut overlay = [0u8; Self::PAGE];
        let mut words = Vec::new();
        for page in pages {
            let (base, end) = (page << Self::PAGE_SHIFT, (page + 1) << Self::PAGE_SHIFT);
            let actual = self.pages.get(page);
            let touches =
                |img: &&DataImage| img.base < end && base < img.base + img.bytes.len() as u64;
            if !program.data().iter().any(|img| touches(&img)) {
                // No image here: the page reads zero but where stored to.
                let Some(p) = actual else { continue };
                for (byte, &bits) in p.written().iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let w = 8 * byte + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let value = word(&p.bytes()[8 * w..8 * w + 8]);
                        if value != 0 {
                            words.push((base + 8 * w as u64, value));
                        }
                    }
                }
                continue;
            }
            // The page's image bytes: borrowed when one image covers the
            // whole page, else overlaid on zeros.
            let covering = program
                .data()
                .iter()
                .find(|img| img.base <= base && end <= img.base + img.bytes.len() as u64);
            let expected: &[u8] = match covering {
                Some(img) => &img.bytes[(base - img.base) as usize..(end - img.base) as usize],
                None => {
                    overlay.fill(0);
                    for img in program.data().iter().filter(touches) {
                        let lo = img.base.max(base);
                        let hi = (img.base + img.bytes.len() as u64).min(end);
                        let src = (lo - img.base) as usize..(hi - img.base) as usize;
                        overlay[(lo - base) as usize..(hi - base) as usize]
                            .copy_from_slice(&img.bytes[src]);
                    }
                    &overlay
                }
            };
            let actual = actual.map_or(&ZERO_PAGE, Page::bytes);
            let pairs = actual.chunks_exact(8).zip(expected.chunks_exact(8));
            for (i, (a, e)) in pairs.enumerate() {
                if word(a) != word(e) {
                    words.push((base + 8 * i as u64, word(a)));
                }
            }
        }
        words.shrink_to_fit();
        ImageDiff { words }
    }

    /// Rebuilds the memory an [`ImageDiff`] was taken of: `program`'s data
    /// image with the diff's words written over it.
    pub fn from_image_diff(program: &Program, diff: &ImageDiff) -> FlatMemory {
        let mut mem = FlatMemory::new();
        mem.load_image(program);
        for &(addr, value) in &diff.words {
            mem.store(addr, MemWidth::D, value);
        }
        mem
    }
}

/// An all-zero page: what a page no table has materialized reads as.
const ZERO_PAGE: [u8; FlatMemory::PAGE] = [0; FlatMemory::PAGE];

/// A memory's contents as the aligned 8-byte words that differ from a
/// program's data image (see [`FlatMemory::diff_from_image`]): small when a
/// run has written little of a large image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageDiff {
    /// `(word address, value)`, ascending by address.
    words: Vec<(u64, u64)>,
}

impl ImageDiff {
    /// Bytes the diff's words occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.words.as_slice())
    }
}

impl MemoryIface for FlatMemory {
    fn load(&mut self, addr: u64, width: MemWidth) -> u64 {
        let n = width.bytes() as usize;
        let off = (addr & (Self::PAGE as u64 - 1)) as usize;
        if off + n <= Self::PAGE {
            // Within one page: a single lookup and a little-endian slice
            // read (the overwhelmingly common case).
            match self.pages.get(addr >> Self::PAGE_SHIFT) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&p.bytes()[off..off + n]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..width.bytes() {
                v |= (self.read_byte(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    fn store(&mut self, addr: u64, width: MemWidth, val: u64) {
        let n = width.bytes() as usize;
        let off = (addr & (Self::PAGE as u64 - 1)) as usize;
        if off + n <= Self::PAGE {
            let p = self.pages.get_or_insert(addr >> Self::PAGE_SHIFT);
            p.write(off, &val.to_le_bytes()[..n]);
        } else {
            for i in 0..width.bytes() {
                self.write_byte(addr.wrapping_add(i), (val >> (8 * i)) as u8);
            }
        }
    }

    fn store_with_undo(&mut self, addr: u64, width: MemWidth, val: u64) -> u64 {
        let n = width.bytes() as usize;
        let off = (addr & (Self::PAGE as u64 - 1)) as usize;
        if off + n <= Self::PAGE {
            // One page lookup covers both the pre-image read and the write.
            let p = self.pages.get_or_insert(addr >> Self::PAGE_SHIFT);
            let mut buf = [0u8; 8];
            buf[..n].copy_from_slice(&p.bytes()[off..off + n]);
            p.write(off, &val.to_le_bytes()[..n]);
            u64::from_le_bytes(buf)
        } else {
            let old = self.load(addr, width);
            self.store(addr, width, val);
            old
        }
    }
}

/// Execution error from the golden model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment (wild jump / fall-through past `halt`).
    BadPc {
        /// The offending PC value.
        pc: u64,
    },
    /// Stepped a state that had already halted.
    AlreadyHalted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadPc { pc } => write!(f, "pc {pc:#x} is outside the text segment"),
            ExecError::AlreadyHalted => write!(f, "stepped an already-halted state"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One memory access performed by a step, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// True for stores, false for loads.
    pub is_store: bool,
    /// Byte address.
    pub addr: u64,
    /// Value loaded (zero-extended) or stored (truncated to width).
    pub value: u64,
    /// Access width.
    pub width: MemWidth,
    /// For stores, the memory value at `addr` *before* the store (zero-
    /// extended from `width`); zero for loads. This is the undo value a
    /// checkpoint-recovery scheme needs to roll a committed store back.
    pub old: u64,
}

/// The memory accesses of one retired instruction, stored inline.
///
/// An instruction performs at most two accesses (`ldp`/`stp`), and
/// [`ArchState::step`] runs twice per simulated instruction (main-core
/// oracle + checker replay), so this list deliberately never touches the
/// heap. Dereferences to `&[MemAccess]`.
#[derive(Debug, Clone, Copy)]
pub struct MemAccessList {
    buf: [MemAccess; 2],
    len: u8,
}

impl MemAccessList {
    const EMPTY: MemAccess =
        MemAccess { is_store: false, addr: 0, value: 0, width: MemWidth::B, old: 0 };

    /// An empty list.
    pub fn new() -> MemAccessList {
        MemAccessList { buf: [Self::EMPTY; 2], len: 0 }
    }

    fn push(&mut self, a: MemAccess) {
        self.buf[self.len as usize] = a;
        self.len += 1;
    }

    /// The recorded accesses, in program order.
    pub fn as_slice(&self) -> &[MemAccess] {
        &self.buf[..self.len as usize]
    }

    /// The recorded accesses, in program order, for editing in place.
    pub fn as_mut_slice(&mut self) -> &mut [MemAccess] {
        &mut self.buf[..self.len as usize]
    }
}

impl Default for MemAccessList {
    fn default() -> MemAccessList {
        MemAccessList::new()
    }
}

impl std::ops::Deref for MemAccessList {
    type Target = [MemAccess];
    fn deref(&self) -> &[MemAccess] {
        self.as_slice()
    }
}

impl PartialEq for MemAccessList {
    fn eq(&self, other: &MemAccessList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MemAccessList {}

impl<'a> IntoIterator for &'a MemAccessList {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Information about one retired instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepInfo {
    /// PC of the retired instruction.
    pub pc: u64,
    /// PC of the next instruction.
    pub next_pc: u64,
    /// Memory accesses performed, in order (≤ 2: `ldp`/`stp`).
    pub mem: MemAccessList,
    /// Non-deterministic value consumed, if any.
    pub nondet: Option<u64>,
    /// Whether the instruction was a taken control-flow transfer.
    pub taken_branch: bool,
    /// Whether the instruction halted the program.
    pub halted: bool,
}

/// Complete architectural state: PC, 32 integer and 32 FP registers.
///
/// This is exactly the state captured by a register checkpoint in the paper
/// (§IV: "periodic register checkpoints", validated at segment boundaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer register file (index 0 is hardwired zero).
    x: [u64; Reg::COUNT],
    /// Floating-point register file (raw binary64 bits).
    f: [u64; FReg::COUNT],
    /// Whether the program has executed `halt`.
    pub halted: bool,
    /// Number of instructions retired by this state.
    pub retired: u64,
}

impl ArchState {
    /// A state positioned at `program`'s entry point with zeroed registers.
    pub fn at_entry(program: &Program) -> ArchState {
        ArchState::at_pc(program.entry())
    }

    /// A state positioned at an arbitrary PC with zeroed registers.
    pub fn at_pc(pc: u64) -> ArchState {
        ArchState { pc, x: [0; 32], f: [0; 32], halted: false, retired: 0 }
    }

    /// Reads an integer register (`x0` reads as zero).
    pub fn x(&self, r: Reg) -> u64 {
        if r == Reg::X0 {
            0
        } else {
            self.x[r.index()]
        }
    }

    /// Writes an integer register (writes to `x0` are discarded).
    pub fn set_x(&mut self, r: Reg, v: u64) {
        if r != Reg::X0 {
            self.x[r.index()] = v;
        }
    }

    /// Reads a floating-point register as raw bits.
    pub fn f_bits(&self, r: FReg) -> u64 {
        self.f[r.index()]
    }

    /// Writes a floating-point register from raw bits.
    pub fn set_f_bits(&mut self, r: FReg, v: u64) {
        self.f[r.index()] = v;
    }

    /// Reads a floating-point register as an `f64`.
    pub fn f(&self, r: FReg) -> f64 {
        f64::from_bits(self.f[r.index()])
    }

    /// Writes a floating-point register from an `f64`.
    pub fn set_f(&mut self, r: FReg, v: f64) {
        self.f[r.index()] = v.to_bits();
    }

    /// Executes one instruction, mutating the state and memory.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadPc`] if the PC is outside the text segment and
    /// [`ExecError::AlreadyHalted`] if the state has halted.
    pub fn step<M: MemoryIface + ?Sized, N: NondetSource + ?Sized>(
        &mut self,
        program: &Program,
        mem: &mut M,
        nondet: &mut N,
    ) -> Result<StepInfo, ExecError> {
        if self.halted {
            return Err(ExecError::AlreadyHalted);
        }
        let pc = self.pc;
        let insn = *program.instr_at(pc).ok_or(ExecError::BadPc { pc })?;
        Ok(self.step_decoded(insn, mem, nondet))
    }

    /// Executes one already-fetched instruction, mutating the state and
    /// memory: the fetch-free core of [`step`](Self::step), for callers
    /// (block walkers, the out-of-order oracle) that resolved `insn` from
    /// the current PC themselves. The caller must ensure the state has not
    /// halted and that `insn` is the instruction at `self.pc`.
    pub fn step_decoded<M: MemoryIface + ?Sized, N: NondetSource + ?Sized>(
        &mut self,
        insn: Instruction,
        mem: &mut M,
        nondet: &mut N,
    ) -> StepInfo {
        use Instruction as I;
        debug_assert!(!self.halted);
        let pc = self.pc;
        let mut next_pc = pc + 4;
        let mut accesses = MemAccessList::new();
        let mut nondet_val = None;
        let mut taken = false;
        let mut halted = false;

        match insn {
            I::Op { op, rd, rs1, rs2 } => {
                let v = op.eval(self.x(rs1), self.x(rs2));
                self.set_x(rd, v);
            }
            I::OpImm { op, rd, rs1, imm } => {
                let v = op.eval(self.x(rs1), imm as u64);
                self.set_x(rd, v);
            }
            I::Load { width, signed, rd, rs1, imm } => {
                let addr = self.x(rs1).wrapping_add(imm as u64);
                let raw = mem.load(addr, width);
                let v = if signed { width.sign_extend(raw) } else { raw };
                self.set_x(rd, v);
                accesses.push(MemAccess { is_store: false, addr, value: raw, width, old: 0 });
            }
            I::Store { width, rs2, rs1, imm } => {
                let addr = self.x(rs1).wrapping_add(imm as u64);
                let v = width.truncate(self.x(rs2));
                let old = mem.store_with_undo(addr, width, v);
                accesses.push(MemAccess { is_store: true, addr, value: v, width, old });
            }
            I::Ldp { rd1, rd2, rs1, imm } => {
                let base = self.x(rs1);
                let a0 = base.wrapping_add(imm as u64);
                let a1 = base.wrapping_add(imm as u64).wrapping_add(8);
                let v0 = mem.load(a0, MemWidth::D);
                let v1 = mem.load(a1, MemWidth::D);
                self.set_x(rd1, v0);
                self.set_x(rd2, v1);
                accesses.push(MemAccess {
                    is_store: false,
                    addr: a0,
                    value: v0,
                    width: MemWidth::D,
                    old: 0,
                });
                accesses.push(MemAccess {
                    is_store: false,
                    addr: a1,
                    value: v1,
                    width: MemWidth::D,
                    old: 0,
                });
            }
            I::Stp { rs2a, rs2b, rs1, imm } => {
                let base = self.x(rs1);
                let a0 = base.wrapping_add(imm as u64);
                let a1 = base.wrapping_add(imm as u64).wrapping_add(8);
                let v0 = self.x(rs2a);
                let v1 = self.x(rs2b);
                let old0 = mem.store_with_undo(a0, MemWidth::D, v0);
                let old1 = mem.store_with_undo(a1, MemWidth::D, v1);
                accesses.push(MemAccess {
                    is_store: true,
                    addr: a0,
                    value: v0,
                    width: MemWidth::D,
                    old: old0,
                });
                accesses.push(MemAccess {
                    is_store: true,
                    addr: a1,
                    value: v1,
                    width: MemWidth::D,
                    old: old1,
                });
            }
            I::FLoad { fd, rs1, imm } => {
                let addr = self.x(rs1).wrapping_add(imm as u64);
                let raw = mem.load(addr, MemWidth::D);
                self.set_f_bits(fd, raw);
                accesses.push(MemAccess {
                    is_store: false,
                    addr,
                    value: raw,
                    width: MemWidth::D,
                    old: 0,
                });
            }
            I::FStore { fs2, rs1, imm } => {
                let addr = self.x(rs1).wrapping_add(imm as u64);
                let v = self.f_bits(fs2);
                let old = mem.store_with_undo(addr, MemWidth::D, v);
                accesses.push(MemAccess {
                    is_store: true,
                    addr,
                    value: v,
                    width: MemWidth::D,
                    old,
                });
            }
            I::Branch { cond, rs1, rs2, offset } => {
                if cond.eval(self.x(rs1), self.x(rs2)) {
                    next_pc = pc.wrapping_add(offset as u64);
                    taken = true;
                }
            }
            I::Jal { rd, offset } => {
                self.set_x(rd, pc + 4);
                next_pc = pc.wrapping_add(offset as u64);
                taken = true;
            }
            I::Jalr { rd, rs1, imm } => {
                let target = self.x(rs1).wrapping_add(imm as u64) & !1;
                self.set_x(rd, pc + 4);
                next_pc = target;
                taken = true;
            }
            I::FOp { op, fd, fs1, fs2 } => {
                let v = op.eval_bits(self.f_bits(fs1), self.f_bits(fs2));
                self.set_f_bits(fd, v);
            }
            I::Fma { fd, fs1, fs2, fs3 } => {
                let v = self.f(fs1).mul_add(self.f(fs2), self.f(fs3));
                self.set_f(fd, v);
            }
            I::FSqrt { fd, fs1 } => {
                let v = self.f(fs1).sqrt();
                self.set_f(fd, v);
            }
            I::FMovFromInt { fd, rs1 } => {
                self.set_f_bits(fd, FMovKind::BitsToFp.apply(self.x(rs1)));
            }
            I::FMovToInt { rd, fs1 } => {
                self.set_x(rd, FMovKind::BitsToInt.apply(self.f_bits(fs1)));
            }
            I::FCvtFromInt { fd, rs1 } => {
                self.set_f_bits(fd, FMovKind::CvtToFp.apply(self.x(rs1)));
            }
            I::FCvtToInt { rd, fs1 } => {
                self.set_x(rd, FMovKind::CvtToInt.apply(self.f_bits(fs1)));
            }
            I::RdCycle { rd } => {
                let v = nondet.next_nondet();
                nondet_val = Some(v);
                self.set_x(rd, v);
            }
            I::Nop => {}
            I::Halt => {
                halted = true;
                next_pc = pc;
            }
        }

        self.pc = next_pc;
        self.halted = halted;
        self.retired += 1;
        StepInfo { pc, next_pc, mem: accesses, nondet: nondet_val, taken_branch: taken, halted }
    }

    /// Runs until halt or until `max_steps` instructions have retired,
    /// walking the pre-decoded basic-block stream: one block lookup (with
    /// successor hints) per block instead of one `instr_at` per
    /// instruction. Within a block only the last instruction can transfer
    /// control or halt, so the PC advances sequentially over the block's
    /// text slice.
    ///
    /// Returns the number of instructions retired by this call.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadPc`] if control reaches a PC outside the
    /// text segment.
    pub fn run_blocks<M: MemoryIface + ?Sized, N: NondetSource + ?Sized>(
        &mut self,
        program: &Program,
        mem: &mut M,
        nondet: &mut N,
        max_steps: u64,
    ) -> Result<u64, ExecError> {
        if self.halted || max_steps == 0 {
            return Ok(0);
        }
        let text = program.text();
        let mut n = 0;
        let mut cur = match program.block_at(self.pc) {
            Some(b) => b,
            None => return Err(ExecError::BadPc { pc: self.pc }),
        };
        loop {
            let (block, off) = cur;
            let first = (block.first + off) as usize;
            let end = (block.first + block.len) as usize;
            for (i, &insn) in text.iter().enumerate().take(end).skip(first) {
                debug_assert_eq!(self.pc, crate::TEXT_BASE + i as u64 * 4);
                self.step_decoded(insn, mem, nondet);
                n += 1;
                if self.halted || n >= max_steps {
                    return Ok(n);
                }
            }
            cur = match program.succ_block(block.exit, self.pc) {
                Some(b) => b,
                None => return Err(ExecError::BadPc { pc: self.pc }),
            };
        }
    }

    /// Compares the register file (and PC) with another state, returning the
    /// first mismatching register name, if any. This is exactly the
    /// end-of-segment checkpoint validation of §IV-B.
    pub fn first_register_mismatch(&self, other: &ArchState) -> Option<String> {
        if self.pc != other.pc {
            return Some("pc".to_string());
        }
        for r in Reg::all() {
            if self.x(r) != other.x(r) {
                return Some(r.to_string());
            }
        }
        for r in FReg::all() {
            if self.f_bits(r) != other.f_bits(r) {
                return Some(r.to_string());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::AluOp;

    /// [`FlatMemory::diff_from_image`] against a brute-force word-by-word
    /// comparison, and [`FlatMemory::from_image_diff`] as its inverse:
    /// images at unaligned bases sharing a page, stores of every width
    /// (some across page boundaries, some back to the image's value), on
    /// image pages and on pages no image covers.
    #[test]
    fn image_diff_is_exact_and_restores_the_memory() {
        let mut b = ProgramBuilder::new();
        b.data_at(0x10_0003, (0..5000u32).map(|i| (i * 7) as u8).collect());
        b.data_at(0x10_2000 - 5, vec![0xAB; 9]);
        b.halt();
        let program = b.build();
        let mut mem = FlatMemory::new();
        mem.load_image(&program);
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for k in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = match k % 3 {
                0 => 0x10_0000 + (x >> 40) % 0x3000,
                1 => 0x40_0FFC + (x >> 50) % 16,
                _ => 0x80_0000 + ((x >> 40) % 0x2000) * 8,
            };
            let width =
                [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D][(x >> 20) as usize % 4];
            let val = if k % 5 == 0 { mem.load(addr, width) } else { x };
            mem.store(addr, width, val);
        }
        mem.write_byte(0x90_0001, 0);
        mem.write_byte(0x90_1001, 7);

        let mut image = FlatMemory::new();
        image.load_image(&program);
        let mut brute = Vec::new();
        let mut pages: Vec<u64> = mem.pages.keys().chain(image.pages.keys()).collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            for w in 0..(FlatMemory::PAGE as u64 / 8) {
                let addr = (page << FlatMemory::PAGE_SHIFT) + 8 * w;
                let (m, i) = (mem.load(addr, MemWidth::D), image.load(addr, MemWidth::D));
                if m != i {
                    brute.push((addr, m));
                }
            }
        }
        let diff = mem.diff_from_image(&program);
        assert_eq!(diff.words, brute);
        assert!(!diff.words.is_empty() && diff.words.len() < 2000);
        let restored = FlatMemory::from_image_diff(&program, &diff);
        assert_eq!(restored.first_difference(&mem), None);
        assert_eq!(restored.diff_from_image(&program), diff);
    }

    fn run_to_halt(b: ProgramBuilder) -> (ArchState, FlatMemory) {
        let p = b.build();
        let mut st = ArchState::at_entry(&p);
        let mut mem = FlatMemory::new();
        mem.load_image(&p);
        st.run_blocks(&p, &mut mem, &mut NoNondet, 1_000_000).unwrap();
        assert!(st.halted, "program did not halt");
        (st, mem)
    }

    #[test]
    fn run_blocks_matches_stepping() {
        // A loop with a branch, memory traffic and a halt: x1 counts down
        // from 5 accumulating into x2, storing each partial sum.
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 5);
        b.li(Reg::X3, 0x4000);
        let top = b.label_here();
        b.op(AluOp::Add, Reg::X2, Reg::X2, Reg::X1);
        b.sd(Reg::X2, Reg::X3, 0);
        b.op_imm(AluOp::Add, Reg::X1, Reg::X1, -1);
        b.bne(Reg::X1, Reg::X0, top);
        b.halt();
        let p = b.build();

        let mut st_a = ArchState::at_entry(&p);
        let mut mem_a = FlatMemory::new();
        mem_a.load_image(&p);
        let mut n_a = 0;
        while !st_a.halted {
            st_a.step(&p, &mut mem_a, &mut NoNondet).unwrap();
            n_a += 1;
        }

        let mut st_b = ArchState::at_entry(&p);
        let mut mem_b = FlatMemory::new();
        mem_b.load_image(&p);
        // Drive in small chunks to exercise mid-block resumption.
        let mut n_b = 0;
        while !st_b.halted {
            n_b += st_b.run_blocks(&p, &mut mem_b, &mut NoNondet, 3).unwrap();
        }

        assert_eq!(n_a, n_b);
        assert_eq!(format!("{st_a:?}"), format!("{st_b:?}"));
        assert!(mem_a.first_difference(&mem_b).is_none());
    }

    #[test]
    fn run_blocks_bad_pc() {
        let mut b = ProgramBuilder::new();
        b.jalr(Reg::X0, Reg::X1, 0x9000); // wild indirect jump
        b.halt();
        let p = b.build();
        let mut st = ArchState::at_entry(&p);
        let mut mem = FlatMemory::new();
        mem.load_image(&p);
        let err = st.run_blocks(&p, &mut mem, &mut NoNondet, 10).unwrap_err();
        assert!(matches!(err, ExecError::BadPc { .. }));
    }

    #[test]
    fn arithmetic_program() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 10);
        b.li(Reg::X2, 3);
        b.op(AluOp::Mul, Reg::X3, Reg::X1, Reg::X2);
        b.op(AluOp::Sub, Reg::X4, Reg::X3, Reg::X2);
        b.halt();
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X3), 30);
        assert_eq!(st.x(Reg::X4), 27);
    }

    #[test]
    fn loads_and_stores() {
        let mut b = ProgramBuilder::new();
        let base = 0x10_0000;
        b.li(Reg::X1, base as i64);
        b.li(Reg::X2, 0x1122_3344_5566_7788);
        b.sd(Reg::X2, Reg::X1, 0);
        b.lw(Reg::X3, Reg::X1, 0, false);
        b.lw(Reg::X4, Reg::X1, 4, false);
        b.lb(Reg::X5, Reg::X1, 7, true);
        b.halt();
        let (st, mem) = run_to_halt(b);
        assert_eq!(st.x(Reg::X3), 0x5566_7788);
        assert_eq!(st.x(Reg::X4), 0x1122_3344);
        assert_eq!(st.x(Reg::X5), 0x11);
        let mut m = mem;
        assert_eq!(m.load(base, MemWidth::D), 0x1122_3344_5566_7788);
        // An access crossing the top of the address space wraps, like every
        // other address computation.
        m.store(u64::MAX - 3, MemWidth::D, 0x0102_0304_0506_0708);
        assert_eq!(m.load(u64::MAX - 3, MemWidth::D), 0x0102_0304_0506_0708);
        assert_eq!(m.read_byte(3), 0x01);
    }

    #[test]
    fn ldp_stp_pairs() {
        let mut b = ProgramBuilder::new();
        let base = 0x20_0000;
        b.li(Reg::X1, base as i64);
        b.li(Reg::X2, 111);
        b.li(Reg::X3, 222);
        b.stp(Reg::X2, Reg::X3, Reg::X1, 0);
        b.ldp(Reg::X4, Reg::X5, Reg::X1, 0);
        b.halt();
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X4), 111);
        assert_eq!(st.x(Reg::X5), 222);
    }

    #[test]
    fn branch_loop_sums() {
        // for (i = 0; i < 10; i++) acc += i;
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 0); // i
        b.li(Reg::X2, 0); // acc
        b.li(Reg::X3, 10);
        let top = b.label_here();
        b.op(AluOp::Add, Reg::X2, Reg::X2, Reg::X1);
        b.addi(Reg::X1, Reg::X1, 1);
        b.blt(Reg::X1, Reg::X3, top);
        b.halt();
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X2), 45);
    }

    #[test]
    fn jal_jalr_call_return() {
        let mut b = ProgramBuilder::new();
        let func = b.new_label();
        b.li(Reg::X10, 5);
        b.jal_to(Reg::X1, func); // call
        b.halt();
        b.bind(func);
        b.addi(Reg::X10, Reg::X10, 100);
        b.jalr(Reg::X0, Reg::X1, 0); // return
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X10), 105);
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 3);
        b.fcvt_from_int(FReg::F1, Reg::X1);
        b.fop(crate::insn::FpuOp::Mul, FReg::F2, FReg::F1, FReg::F1);
        b.fma(FReg::F3, FReg::F2, FReg::F1, FReg::F1); // 9*3+3 = 30
        b.fsqrt(FReg::F4, FReg::F2); // 3
        b.fcvt_to_int(Reg::X2, FReg::F3);
        b.halt();
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X2), 30);
        assert_eq!(st.f(FReg::F4), 3.0);
    }

    #[test]
    fn rdcycle_uses_nondet_source() {
        let mut b = ProgramBuilder::new();
        b.rdcycle(Reg::X1);
        b.rdcycle(Reg::X2);
        b.halt();
        let p = b.build();
        let mut st = ArchState::at_entry(&p);
        let mut mem = FlatMemory::new();
        st.run_blocks(&p, &mut mem, &mut Some(777), 10).unwrap();
        // A supplied value is read once.
        assert_eq!((st.x(Reg::X1), st.x(Reg::X2)), (777, 0));
    }

    #[test]
    fn bad_pc_is_reported() {
        let mut b = ProgramBuilder::new();
        b.jalr(Reg::X0, Reg::X0, 0x8000_0000); // wild jump
        let p = b.build();
        let mut st = ArchState::at_entry(&p);
        let mut mem = FlatMemory::new();
        st.step(&p, &mut mem, &mut NoNondet).unwrap();
        let err = st.step(&p, &mut mem, &mut NoNondet).unwrap_err();
        assert!(matches!(err, ExecError::BadPc { .. }));
    }

    #[test]
    fn register_mismatch_detection() {
        let p = {
            let mut b = ProgramBuilder::new();
            b.halt();
            b.build()
        };
        let a = ArchState::at_entry(&p);
        let mut c = a.clone();
        assert_eq!(a.first_register_mismatch(&c), None);
        c.set_x(Reg::X7, 1);
        assert_eq!(a.first_register_mismatch(&c), Some("x7".to_string()));
        let mut d = a.clone();
        d.set_f(FReg::F3, 1.5);
        assert_eq!(a.first_register_mismatch(&d), Some("f3".to_string()));
        let mut e = a.clone();
        e.pc += 4;
        assert_eq!(a.first_register_mismatch(&e), Some("pc".to_string()));
    }

    #[test]
    fn x0_stays_zero() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X0, 42);
        b.op(AluOp::Add, Reg::X1, Reg::X0, Reg::X0);
        b.halt();
        let (st, _) = run_to_halt(b);
        assert_eq!(st.x(Reg::X0), 0);
        assert_eq!(st.x(Reg::X1), 0);
    }

    #[test]
    fn flat_memory_first_difference() {
        let mut a = FlatMemory::new();
        let b = FlatMemory::new();
        assert_eq!(a.first_difference(&b), None);
        a.write_byte(0x5000, 1);
        assert_eq!(a.first_difference(&b), Some(0x5000));
    }
}
