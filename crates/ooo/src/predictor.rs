//! Tournament branch predictor, BTB and return-address stack.
//!
//! Models Table I of the paper: a 2048-entry local predictor, 8192-entry
//! global predictor, 2048-entry chooser, 2048-entry BTB and a 16-entry RAS
//! (an Alpha-21264-style tournament predictor, which is also what gem5's
//! `TournamentBP` implements).

use paradet_mem::Sparse;

/// Static predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Local history table entries (power of two).
    pub local_entries: usize,
    /// Bits of local history per entry.
    pub local_history_bits: u32,
    /// Global predictor entries (power of two).
    pub global_entries: usize,
    /// Chooser entries (power of two).
    pub chooser_entries: usize,
    /// Branch target buffer entries (power of two).
    pub btb_entries: usize,
    /// Return address stack depth.
    pub ras_depth: usize,
}

impl Default for PredictorConfig {
    /// Table I: "2048-Entry local, 8192-entry global, 2048-entry chooser,
    /// 2048-entry BTB, 16-entry RAS".
    fn default() -> PredictorConfig {
        PredictorConfig {
            local_entries: 2048,
            local_history_bits: 10,
            global_entries: 8192,
            chooser_entries: 2048,
            btb_entries: 2048,
            ras_depth: 16,
        }
    }
}

/// Running predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional-branch direction predictions made.
    pub predictions: u64,
    /// Conditional-branch direction mispredictions.
    pub mispredictions: u64,
    /// BTB lookups that found a target.
    pub btb_hits: u64,
    /// BTB lookups that missed.
    pub btb_misses: u64,
}

impl PredictorStats {
    /// Direction accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// Reset value of the 3-bit local counters (weakly not taken).
const LOCAL_RESET: u8 = 3;
/// Reset value of the 2-bit global and chooser counters.
const GLOBAL_RESET: u8 = 1;

#[inline]
fn counter_update(c: &mut u8, taken: bool, max: u8) {
    if taken {
        if *c < max {
            *c += 1;
        }
    } else if *c > 0 {
        *c -= 1;
    }
}

/// The tournament predictor with BTB and RAS.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    cfg: PredictorConfig,
    /// Per-PC local history registers.
    local_history: Vec<u16>,
    /// 3-bit saturating counters indexed by local history.
    local_counters: Vec<u8>,
    /// 2-bit saturating counters indexed by global history.
    global_counters: Vec<u8>,
    /// 2-bit chooser counters (0..=1 favour local, 2..=3 favour global),
    /// indexed by global history.
    chooser: Vec<u8>,
    /// Global history register.
    ghr: u64,
    /// Branch target buffer: (tag, target).
    btb: Vec<Option<(u64, u64)>>,
    /// Return-address stack (circular; overflow overwrites oldest).
    ras: Vec<u64>,
    ras_top: usize,
    ras_len: usize,
    /// Statistics (public for the experiment harness).
    pub stats: PredictorStats,
}

/// A [`TournamentPredictor`] in compact form (see
/// [`TournamentPredictor::snapshot`]).
#[derive(Debug, Clone)]
pub(crate) struct PredictorSnapshot {
    cfg: PredictorConfig,
    local_history: Sparse<u16>,
    local_counters: Sparse<u8>,
    global_counters: Sparse<u8>,
    chooser: Sparse<u8>,
    ghr: u64,
    btb: Sparse<Option<(u64, u64)>>,
    ras: Vec<u64>,
    ras_top: usize,
    ras_len: usize,
    stats: PredictorStats,
}

impl PredictorSnapshot {
    /// Bytes the snapshot's tables occupy.
    pub(crate) fn bytes(&self) -> usize {
        self.local_history.bytes()
            + self.local_counters.bytes()
            + self.global_counters.bytes()
            + self.chooser.bytes()
            + self.btb.bytes()
            + std::mem::size_of_val(self.ras.as_slice())
    }
}

/// A direction prediction together with the evidence used, so the update
/// path can train exactly the structures that were consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionPrediction {
    /// Predicted taken?
    pub taken: bool,
    /// What the local predictor said.
    pub local_said: bool,
    /// What the global predictor said.
    pub global_said: bool,
}

impl TournamentPredictor {
    /// Creates a predictor with weakly-not-taken initial state.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    pub fn new(cfg: PredictorConfig) -> TournamentPredictor {
        for (n, what) in [
            (cfg.local_entries, "local"),
            (cfg.global_entries, "global"),
            (cfg.chooser_entries, "chooser"),
            (cfg.btb_entries, "btb"),
        ] {
            assert!(n.is_power_of_two(), "{what} table size must be a power of two");
        }
        TournamentPredictor {
            local_history: vec![0; cfg.local_entries],
            local_counters: vec![LOCAL_RESET; 1 << cfg.local_history_bits],
            global_counters: vec![GLOBAL_RESET; cfg.global_entries],
            chooser: vec![GLOBAL_RESET; cfg.chooser_entries],
            ghr: 0,
            btb: vec![None; cfg.btb_entries],
            ras: vec![0; cfg.ras_depth],
            ras_top: 0,
            ras_len: 0,
            stats: PredictorStats::default(),
            cfg,
        }
    }

    /// A predictor with no tables, standing in inside a
    /// [`CoreSnapshot`](crate::CoreSnapshot) for the one whose tables the
    /// snapshot carries sparse. Never consulted: restoring the core
    /// replaces it.
    pub(crate) fn placeholder(cfg: PredictorConfig) -> TournamentPredictor {
        TournamentPredictor {
            cfg,
            local_history: Vec::new(),
            local_counters: Vec::new(),
            global_counters: Vec::new(),
            chooser: Vec::new(),
            ghr: 0,
            btb: Vec::new(),
            ras: Vec::new(),
            ras_top: 0,
            ras_len: 0,
            stats: PredictorStats::default(),
        }
    }

    /// A compact copy of the predictor: each table as the entries that
    /// differ from its reset value (see [`Sparse`]). Only control transfers
    /// train the PC-indexed local-history and BTB tables, so those are read
    /// at the indices of `control_pcs` — every PC a control transfer can
    /// retire at — instead of scanned; the history-indexed tables are.
    pub(crate) fn snapshot(&self, control_pcs: &[u64]) -> PredictorSnapshot {
        let indices = |idx: &dyn Fn(u64) -> usize| {
            let mut v: Vec<usize> = control_pcs.iter().map(|&pc| idx(pc)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let local = indices(&|pc| self.local_idx(pc));
        let btb = indices(&|pc| self.btb_idx(pc));
        PredictorSnapshot {
            cfg: self.cfg,
            local_history: Sparse::gather(local.len(), local.into_iter(), |i| {
                self.local_history[i]
            }),
            local_counters: Sparse::of(&self.local_counters, LOCAL_RESET),
            global_counters: Sparse::of(&self.global_counters, GLOBAL_RESET),
            chooser: Sparse::of(&self.chooser, GLOBAL_RESET),
            ghr: self.ghr,
            btb: Sparse::gather(btb.len(), btb.into_iter(), |i| self.btb[i]),
            ras: self.ras.clone(),
            ras_top: self.ras_top,
            ras_len: self.ras_len,
            stats: self.stats,
        }
    }

    /// Rebuilds the predictor a [`snapshot`](TournamentPredictor::snapshot)
    /// was taken of.
    pub(crate) fn from_snapshot(snap: &PredictorSnapshot) -> TournamentPredictor {
        let mut p = TournamentPredictor::new(snap.cfg);
        snap.local_history.restore(&mut p.local_history);
        snap.local_counters.restore(&mut p.local_counters);
        snap.global_counters.restore(&mut p.global_counters);
        snap.chooser.restore(&mut p.chooser);
        snap.btb.restore(&mut p.btb);
        p.ghr = snap.ghr;
        p.ras.clone_from(&snap.ras);
        p.ras_top = snap.ras_top;
        p.ras_len = snap.ras_len;
        p.stats = snap.stats;
        p
    }

    fn local_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.local_entries - 1)
    }

    fn btb_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.btb_entries - 1)
    }

    fn global_idx(&self) -> usize {
        (self.ghr as usize) & (self.cfg.global_entries - 1)
    }

    fn chooser_idx(&self) -> usize {
        (self.ghr as usize) & (self.cfg.chooser_entries - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_direction(&mut self, pc: u64) -> DirectionPrediction {
        self.stats.predictions += 1;
        let lh = self.local_history[self.local_idx(pc)] as usize
            & ((1usize << self.cfg.local_history_bits) - 1);
        let local_said = self.local_counters[lh] >= 4;
        let global_said = self.global_counters[self.global_idx()] >= 2;
        let use_global = self.chooser[self.chooser_idx()] >= 2;
        DirectionPrediction {
            taken: if use_global { global_said } else { local_said },
            local_said,
            global_said,
        }
    }

    /// Trains the predictor with the resolved outcome of the conditional
    /// branch at `pc`. `pred` must be the value returned by
    /// [`predict_direction`](Self::predict_direction) for this instance.
    pub fn update_direction(&mut self, pc: u64, pred: DirectionPrediction, taken: bool) {
        if pred.taken != taken {
            self.stats.mispredictions += 1;
        }
        // Train the chooser toward whichever component was right (only when
        // they disagree).
        if pred.local_said != pred.global_said {
            let idx = self.chooser_idx();
            counter_update(&mut self.chooser[idx], pred.global_said == taken, 3);
        }
        // Train both components.
        let lidx = self.local_idx(pc);
        let lh = self.local_history[lidx] as usize & ((1usize << self.cfg.local_history_bits) - 1);
        counter_update(&mut self.local_counters[lh], taken, 7);
        let gidx = self.global_idx();
        counter_update(&mut self.global_counters[gidx], taken, 3);
        // Update histories.
        self.local_history[lidx] = ((self.local_history[lidx] << 1) | taken as u16)
            & ((1 << self.cfg.local_history_bits) - 1);
        self.ghr = (self.ghr << 1) | taken as u64;
    }

    /// Looks up the BTB for the target of the (taken) control transfer at
    /// `pc`.
    pub fn btb_lookup(&mut self, pc: u64) -> Option<u64> {
        match self.btb[self.btb_idx(pc)] {
            Some((tag, target)) if tag == pc => {
                self.stats.btb_hits += 1;
                Some(target)
            }
            _ => {
                self.stats.btb_misses += 1;
                None
            }
        }
    }

    /// Installs or updates a BTB entry.
    pub fn btb_update(&mut self, pc: u64, target: u64) {
        let idx = self.btb_idx(pc);
        self.btb[idx] = Some((pc, target));
    }

    /// Pushes a return address (on a call).
    pub fn ras_push(&mut self, return_addr: u64) {
        self.ras[self.ras_top] = return_addr;
        self.ras_top = (self.ras_top + 1) % self.cfg.ras_depth;
        self.ras_len = (self.ras_len + 1).min(self.cfg.ras_depth);
    }

    /// Pops a predicted return address (on a return), if the stack is
    /// non-empty.
    pub fn ras_pop(&mut self) -> Option<u64> {
        if self.ras_len == 0 {
            return None;
        }
        self.ras_top = (self.ras_top + self.cfg.ras_depth - 1) % self.cfg.ras_depth;
        self.ras_len -= 1;
        Some(self.ras[self.ras_top])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> TournamentPredictor {
        TournamentPredictor::new(PredictorConfig::default())
    }

    #[test]
    fn snapshot_restores_an_identical_predictor() {
        let mut p = predictor();
        for i in 0..200u64 {
            let pc = 0x1000 + 4 * (i % 7);
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, i % 3 != 0);
            p.btb_update(pc, pc + 64);
            p.ras_push(pc + 4);
        }
        let snap = p.snapshot(&(0..7).map(|k| 0x1000 + 4 * k).collect::<Vec<_>>());
        assert!(snap.bytes() < 4096, "a short history stays sparse: {} B", snap.bytes());
        let q = TournamentPredictor::from_snapshot(&snap);
        assert_eq!(format!("{p:?}"), format!("{q:?}"));
    }

    #[test]
    fn learns_always_taken() {
        let mut p = predictor();
        let pc = 0x1000;
        for _ in 0..16 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, true);
        }
        let pred = p.predict_direction(pc);
        assert!(pred.taken, "should learn an always-taken branch");
    }

    #[test]
    fn learns_alternating_pattern_via_local_history() {
        let mut p = predictor();
        let pc = 0x2000;
        // Warm up with a strict T,N,T,N... pattern.
        let mut outcome = false;
        for _ in 0..200 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, outcome);
            outcome = !outcome;
        }
        // Measure accuracy over the next 100.
        let before = p.stats.mispredictions;
        for _ in 0..100 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, outcome);
            outcome = !outcome;
        }
        let miss = p.stats.mispredictions - before;
        assert!(miss < 5, "local history should capture T/N alternation, missed {miss}/100");
    }

    #[test]
    fn loop_branch_accuracy() {
        // A 10-iteration loop branch: taken 9 times, not-taken once.
        let mut p = predictor();
        let pc = 0x3000;
        let before_total = 500;
        for _ in 0..before_total {
            for i in 0..10 {
                let pred = p.predict_direction(pc);
                p.update_direction(pc, pred, i != 9);
            }
        }
        let before = p.stats.mispredictions;
        for _ in 0..100 {
            for i in 0..10 {
                let pred = p.predict_direction(pc);
                p.update_direction(pc, pred, i != 9);
            }
        }
        let miss = p.stats.mispredictions - before;
        // A tournament predictor gets close to 1 miss per loop exit at worst;
        // with 10-bit local history it should learn the exit too.
        assert!(miss <= 110, "loop branch mispredicted too often: {miss}/1000");
    }

    #[test]
    fn btb_roundtrip_and_alias() {
        let mut p = predictor();
        assert_eq!(p.btb_lookup(0x1000), None);
        p.btb_update(0x1000, 0x2000);
        assert_eq!(p.btb_lookup(0x1000), Some(0x2000));
        // An aliasing PC (same index, different tag) must miss, not alias.
        let alias = 0x1000 + (2048 << 2);
        assert_eq!(p.btb_lookup(alias), None);
        p.btb_update(alias, 0x3000);
        assert_eq!(p.btb_lookup(alias), Some(0x3000));
        assert_eq!(p.btb_lookup(0x1000), None, "direct-mapped BTB must evict");
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut p = predictor();
        for i in 0..16 {
            p.ras_push(0x1000 + i * 4);
        }
        assert_eq!(p.ras_pop(), Some(0x1000 + 15 * 4));
        assert_eq!(p.ras_pop(), Some(0x1000 + 14 * 4));
        // Overflow wraps: push 20 onto an empty-ish stack.
        let mut p2 = predictor();
        for i in 0..20 {
            p2.ras_push(i * 8);
        }
        // Only the most recent 16 survive.
        for i in (4..20).rev() {
            assert_eq!(p2.ras_pop(), Some(i * 8));
        }
        assert_eq!(p2.ras_pop(), None);
    }

    #[test]
    fn stats_track_accuracy() {
        let mut p = predictor();
        let pc = 0x4000;
        for _ in 0..100 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, true);
        }
        // Warm-up mispredictions while the local history saturates are
        // expected (~12 of 100); steady state is perfect.
        assert!(p.stats.accuracy() > 0.8);
        let before = p.stats.mispredictions;
        for _ in 0..100 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, true);
        }
        assert_eq!(p.stats.mispredictions, before, "steady state must be perfect");
    }
}
