//! Mixed-speed checker farms and checker-to-segment scheduling policies.
//!
//! The paper's farm is uniform: twelve identical checkers, segments
//! assigned round-robin (§IV-D's one-to-one segment↔checker mapping walks
//! the ring in seal order). MEEK (arXiv:2504.01347) and FlexStep
//! (arXiv:2503.13848) show the realistic regime is *mixed* — checker slots
//! of different speed classes, with assignment and segment sizing adapted
//! to each. Two pieces model that here:
//!
//! * [`FarmSpec`] gives each checker *slot* its own [`ClockDomain`] (speed
//!   class). This is orthogonal to [`DomainSet`](crate::DomainSet): a
//!   secondary domain re-clocks the *whole farm* uniformly for a
//!   one-run sweep, while a `FarmSpec` makes the primary farm itself
//!   heterogeneous.
//! * [`SchedPolicyKind`] decides, at each seal, which slot receives the
//!   next segment and how many log entries that slot's segment may hold
//!   before it seals. The scheduler sees exactly what the modelled
//!   hardware would: each slot's clock and storage-busy window
//!   ([`SlotView`]), the previously filled slot, and the current time —
//!   a pure function of those inputs, so every policy is bit-identical
//!   at any thread count.
//!
//! [`SchedPolicyKind::RoundRobin`] is the uniform-compatible reference: it
//! never reads the busy windows
//! ([`needs_busy_windows`](SchedPolicyKind::needs_busy_windows) is
//! `false`), so the detector keeps its lazy fold schedule and a uniform
//! farm under round-robin is bit-identical to the fixed-ring design it
//! replaces (invariant 11 in ARCHITECTURE.md).
//! [`FastestFirst`](SchedPolicyKind::FastestFirst) and
//! [`DeadlineAware`](SchedPolicyKind::DeadlineAware) are dynamic: they
//! pick the fastest free slot (earliest-release when none is free), and
//! deadline-aware additionally sizes segments in proportion to slot speed
//! under a fixed total SRAM budget — FlexStep's "fast checkers take long
//! segments" regime.

use crate::domain::ClockDomain;
use paradet_mem::Time;

/// Maximum number of distinct speed classes in a [`FarmSpec`] (fixed-size
/// `Copy` storage so `SystemConfig` stays `Copy`).
pub const MAX_SPEED_CLASSES: usize = 4;

/// Maximum length of a [`FarmSpec`] slot pattern. Farms may have more
/// slots than this — the pattern tiles (slot `i` takes class
/// `pattern[i % pattern_len]`).
pub const MAX_FARM_PATTERN: usize = 16;

/// Per-slot speed-class assignment for a checker farm.
///
/// The default ([`FarmSpec::uniform`]) is the paper's homogeneous farm:
/// one speed class, the system's primary checker configuration, run by
/// every slot. A mixed farm names up to [`MAX_SPEED_CLASSES`] classes
/// (each a [`ClockDomain`]) and a tiling pattern of class indices;
/// [`FarmSpec::striped`] is the common case — one class per clock,
/// striped across slots in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmSpec {
    /// Each class's clock domain; `None` is the primary checker.
    classes: [Option<ClockDomain>; MAX_SPEED_CLASSES],
    n_classes: usize,
    pattern: [u8; MAX_FARM_PATTERN],
    pattern_len: usize,
}

impl FarmSpec {
    /// The homogeneous farm: a single speed class, the system's primary
    /// checker configuration, which every slot runs.
    pub fn uniform() -> FarmSpec {
        FarmSpec {
            classes: [None; MAX_SPEED_CLASSES],
            n_classes: 1,
            pattern: [0; MAX_FARM_PATTERN],
            pattern_len: 1,
        }
    }

    /// A farm striped over paper-default checkers at the given clocks:
    /// slot `i` runs at `clocks[i % clocks.len()]` MHz.
    ///
    /// # Panics
    ///
    /// Panics if `clocks` is empty or longer than [`MAX_SPEED_CLASSES`].
    pub fn striped(clocks: &[u64]) -> FarmSpec {
        assert!(!clocks.is_empty(), "a striped farm needs at least one clock");
        assert!(
            clocks.len() <= MAX_SPEED_CLASSES,
            "a farm holds at most {MAX_SPEED_CLASSES} speed classes"
        );
        let mut spec = FarmSpec::uniform();
        for (i, &mhz) in clocks.iter().enumerate() {
            spec.classes[i] = Some(ClockDomain::at_mhz(mhz));
            spec.pattern[i] = i as u8;
        }
        spec.n_classes = clocks.len();
        spec.pattern_len = clocks.len();
        spec
    }

    /// Returns a copy with the tiling pattern replaced: slot `i` takes
    /// class `pattern[i % pattern.len()]`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty, longer than [`MAX_FARM_PATTERN`], or
    /// names a class index out of range.
    pub fn with_pattern(mut self, pattern: &[u8]) -> FarmSpec {
        assert!(!pattern.is_empty(), "a farm pattern needs at least one entry");
        assert!(
            pattern.len() <= MAX_FARM_PATTERN,
            "a farm pattern holds at most {MAX_FARM_PATTERN} entries"
        );
        for &c in pattern {
            assert!(
                (c as usize) < self.n_classes,
                "pattern names class {c} but the farm has {} classes",
                self.n_classes
            );
        }
        self.pattern = [0; MAX_FARM_PATTERN];
        self.pattern[..pattern.len()].copy_from_slice(pattern);
        self.pattern_len = pattern.len();
        self
    }

    /// Number of speed classes (1 on a uniform farm).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The [`ClockDomain`] speed class `class` runs, or `None` for a
    /// uniform farm's class, which runs the system's primary checker
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `class >= n_classes()`.
    pub fn class_domain(&self, class: usize) -> Option<ClockDomain> {
        self.classes[..self.n_classes][class]
    }

    /// The speed-class index slot `slot` belongs to (0 on a uniform farm).
    pub fn class_of_slot(&self, slot: usize) -> usize {
        self.pattern[slot % self.pattern_len] as usize
    }
}

impl Default for FarmSpec {
    fn default() -> FarmSpec {
        FarmSpec::uniform()
    }
}

/// What the scheduler sees of one checker slot: its clock and the time its
/// segment storage frees up (`Time::ZERO` when already free). This is the
/// modelled hardware's view — the scheduling logic sits next to the log
/// SRAM and observes each checker's busy line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// The slot's checker clock in MHz.
    pub mhz: u64,
    /// When the slot's segment storage frees (`Time::ZERO` if free now).
    pub busy_until: Time,
}

/// Everything a scheduling policy may consult. Deliberately small and
/// fully deterministic: slot views, the previously filled slot, the seal
/// time, and the capacity bounds.
#[derive(Debug)]
pub struct ScheduleCtx<'a> {
    /// One view per checker slot, in slot order.
    pub slots: &'a [SlotView],
    /// The slot whose segment was just sealed (the ring position).
    pub prev_slot: usize,
    /// Current simulation time (the seal time).
    pub now: Time,
    /// Entries per segment at the uniform even split (total log SRAM over
    /// `n` slots) — the reference capacity dynamic sizing redistributes.
    pub base_capacity: usize,
    /// Smallest capacity any segment may have (a macro-op's worth of
    /// entries — the §IV-D boundary rule needs that much headroom).
    pub min_capacity: usize,
}

/// A checker-to-segment scheduling policy: at each seal, picks the slot
/// that receives the next segment and sizes that slot's segment.
///
/// Every policy is a pure function of the [`ScheduleCtx`] — no state, no
/// randomness — so scheduling is a pure function of (kernel, config,
/// geometry) and results are bit-identical at any thread count.
/// `Copy` so it can live in `SystemConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicyKind {
    /// The paper's fixed ring: slot `(prev + 1) mod n`, every segment at
    /// the even-split capacity. Never reads busy windows, so a uniform
    /// farm under round-robin is bit-identical to the pre-policy design
    /// (invariant 11). The default.
    #[default]
    RoundRobin,
    /// Picks the fastest *free* slot (ties to the lowest index); when
    /// every slot is busy, the earliest-releasing one (ties to the faster,
    /// then the lower index). Segments stay at the even-split capacity.
    FastestFirst,
    /// FlexStep's regime: the slot choice of `FastestFirst`, plus segment
    /// sizing proportional to slot speed under the fixed total SRAM
    /// budget — a slot at clock `m` in a farm whose clocks sum to `Σ` gets
    /// `base · n · m / Σ` entries (exactly `base` when speeds are
    /// uniform), so fast checkers take long segments and slow checkers
    /// short ones, equalizing per-segment service time.
    DeadlineAware,
}

impl SchedPolicyKind {
    /// All shipped policies, in comparison order.
    pub const ALL: [SchedPolicyKind; 3] = [
        SchedPolicyKind::RoundRobin,
        SchedPolicyKind::FastestFirst,
        SchedPolicyKind::DeadlineAware,
    ];

    /// Stable policy name (a CSV cell of the mixed-farm experiment).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicyKind::RoundRobin => "round-robin",
            SchedPolicyKind::FastestFirst => "fastest-first",
            SchedPolicyKind::DeadlineAware => "deadline-aware",
        }
    }

    /// Whether [`next_slot`](SchedPolicyKind::next_slot) reads the slots'
    /// busy windows. Round-robin does not, letting the detector keep its
    /// lazy fold schedule; for the dynamic policies the detector folds
    /// in-flight checks at each seal so the windows it hands over are
    /// exact (see `Detector::seal` in `paradet-core`).
    pub fn needs_busy_windows(self) -> bool {
        match self {
            SchedPolicyKind::RoundRobin => false,
            SchedPolicyKind::FastestFirst | SchedPolicyKind::DeadlineAware => true,
        }
    }

    /// The slot that receives the segment now starting to fill.
    pub fn next_slot(self, ctx: &ScheduleCtx) -> usize {
        match self {
            SchedPolicyKind::RoundRobin => (ctx.prev_slot + 1) % ctx.slots.len(),
            SchedPolicyKind::FastestFirst | SchedPolicyKind::DeadlineAware => {
                fastest_free_slot(ctx)
            }
        }
    }

    /// Entry capacity for the chosen slot's new segment. The detector
    /// clamps the result to at least `ctx.min_capacity`.
    pub fn segment_capacity(self, slot: usize, ctx: &ScheduleCtx) -> usize {
        match self {
            SchedPolicyKind::RoundRobin | SchedPolicyKind::FastestFirst => ctx.base_capacity,
            SchedPolicyKind::DeadlineAware => {
                let sum: u128 = ctx.slots.iter().map(|s| s.mhz as u128).sum();
                if sum == 0 {
                    return ctx.base_capacity;
                }
                let total = ctx.base_capacity as u128 * ctx.slots.len() as u128;
                let share = (total * ctx.slots[slot].mhz as u128 / sum) as usize;
                share.max(ctx.min_capacity)
            }
        }
    }
}

/// The slot choice of the two dynamic policies: the fastest free slot
/// (ties to the lowest index), else the earliest-releasing one (ties to
/// the faster, then the lower index).
fn fastest_free_slot(ctx: &ScheduleCtx) -> usize {
    let free = ctx
        .slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.busy_until <= ctx.now)
        .max_by_key(|&(i, s)| (s.mhz, std::cmp::Reverse(i)));
    if let Some((i, _)) = free {
        return i;
    }
    ctx.slots
        .iter()
        .enumerate()
        .min_by_key(|&(i, s)| (s.busy_until, std::cmp::Reverse(s.mhz), i))
        .expect("a farm has at least one slot")
        .0
}

#[cfg(test)]
mod tests {
    use super::SchedPolicyKind::{DeadlineAware, FastestFirst, RoundRobin};
    use super::*;

    fn views(specs: &[(u64, u64)]) -> Vec<SlotView> {
        specs
            .iter()
            .map(|&(mhz, busy_ns)| SlotView { mhz, busy_until: Time::from_ns(busy_ns) })
            .collect()
    }

    fn ctx<'a>(slots: &'a [SlotView], prev: usize, now_ns: u64) -> ScheduleCtx<'a> {
        ScheduleCtx {
            slots,
            prev_slot: prev,
            now: Time::from_ns(now_ns),
            base_capacity: 170,
            min_capacity: 4,
        }
    }

    #[test]
    fn farm_spec_uniform_and_striped() {
        let u = FarmSpec::uniform();
        assert_eq!(u.n_classes(), 1);
        assert_eq!(u.class_of_slot(7), 0);
        assert_eq!(u.class_domain(0), None);
        assert_eq!(u, FarmSpec::default());

        let s = FarmSpec::striped(&[2000, 1000, 250]);
        assert_eq!(s.n_classes(), 3);
        let clocks: Vec<u64> = (0..3).map(|c| s.class_domain(c).unwrap().mhz()).collect();
        assert_eq!(clocks, vec![2000, 1000, 250]);
        // The pattern tiles: 0,1,2,0,1,2,...
        let assigned: Vec<u64> =
            (0..6).map(|i| s.class_domain(s.class_of_slot(i)).unwrap().mhz()).collect();
        assert_eq!(assigned, vec![2000, 1000, 250, 2000, 1000, 250]);
    }

    #[test]
    fn farm_spec_custom_pattern() {
        // One fast slot for every three slow ones.
        let s = FarmSpec::striped(&[2000, 125]).with_pattern(&[0, 1, 1, 1]);
        let assigned: Vec<u64> =
            (0..8).map(|i| s.class_domain(s.class_of_slot(i)).unwrap().mhz()).collect();
        assert_eq!(assigned, vec![2000, 125, 125, 125, 2000, 125, 125, 125]);
    }

    #[test]
    #[should_panic(expected = "names class")]
    fn pattern_class_out_of_range_panics() {
        let _ = FarmSpec::striped(&[2000]).with_pattern(&[0, 1]);
    }

    // Fixed-scenario assignment tables: a policy change shows up here as a
    // reviewable diff of who gets which segment at what size.
    //
    // Scenario: 4 slots at 2000/1000/250/250 MHz, seal at t=50 ns.

    #[test]
    fn round_robin_assignment_table() {
        let slots = views(&[(2000, 0), (1000, 100), (250, 0), (250, 0)]);
        let c = ctx(&slots, 1, 50);
        assert!(!RoundRobin.needs_busy_windows());
        // Fixed ring from each predecessor, capacity always the even split.
        for prev in 0..4 {
            let c = ScheduleCtx { prev_slot: prev, ..ctx(&slots, prev, 50) };
            assert_eq!(RoundRobin.next_slot(&c), (prev + 1) % 4);
        }
        assert_eq!(RoundRobin.segment_capacity(2, &c), 170);
    }

    #[test]
    fn fastest_first_assignment_table() {
        // All free: the fastest slot wins.
        let free = views(&[(2000, 0), (1000, 0), (250, 0), (250, 0)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&free, 0, 50)), 0);
        // Equal speeds tie to the lowest index.
        assert_eq!(FastestFirst.next_slot(&ctx(&views(&[(250, 0), (250, 0)]), 0, 50)), 0);
        // Fast slot busy: next-fastest free slot wins.
        let fast_busy = views(&[(2000, 100), (1000, 0), (250, 0), (250, 0)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&fast_busy, 0, 50)), 1);
        // All busy: earliest release wins...
        let all_busy = views(&[(2000, 900), (1000, 80), (250, 200), (250, 200)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&all_busy, 0, 50)), 1);
        // ...ties broken toward the faster slot, then the lower index.
        let tied = views(&[(250, 200), (1000, 200), (250, 200), (250, 900)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&tied, 0, 50)), 1);
        let tied_speed = views(&[(250, 200), (250, 200)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&tied_speed, 0, 50)), 0);
        // A slot releasing exactly now counts as free.
        let releasing = views(&[(2000, 50), (1000, 0)]);
        assert_eq!(FastestFirst.next_slot(&ctx(&releasing, 0, 50)), 0);
        // Capacity stays at the even split.
        assert_eq!(FastestFirst.segment_capacity(0, &ctx(&free, 0, 50)), 170);
    }

    #[test]
    fn deadline_aware_assignment_table() {
        let slots = views(&[(2000, 0), (1000, 0), (250, 0), (250, 0)]);
        let c = ctx(&slots, 0, 50);
        // Same slot choice as fastest-first.
        assert_eq!(DeadlineAware.next_slot(&c), FastestFirst.next_slot(&c));
        // Speed-proportional capacities under the fixed 4×170-entry budget:
        // Σmhz = 3500, total = 680 → 680·m/3500 per slot.
        assert_eq!(DeadlineAware.segment_capacity(0, &c), 388);
        assert_eq!(DeadlineAware.segment_capacity(1, &c), 194);
        assert_eq!(DeadlineAware.segment_capacity(2, &c), 48);
        assert_eq!(DeadlineAware.segment_capacity(3, &c), 48);
        // Rounding never exceeds the budget (388 + 194 + 48 + 48 = 678 ≤ 680).
        let total: usize = (0..4).map(|s| DeadlineAware.segment_capacity(s, &c)).sum();
        assert!(total <= 170 * 4);
        // Uniform speeds: exactly the even split — the invariant-11 anchor.
        let uni = views(&[(1000, 0); 4]);
        let cu = ctx(&uni, 0, 50);
        for slot in 0..4 {
            assert_eq!(DeadlineAware.segment_capacity(slot, &cu), 170);
        }
        // A very slow slot is floored at min_capacity.
        let skewed = views(&[(2000, 0), (2000, 0), (2000, 0), (1, 0)]);
        let cs = ctx(&skewed, 0, 50);
        assert_eq!(DeadlineAware.segment_capacity(3, &cs), cs.min_capacity);
    }

    #[test]
    fn no_slot_starves_under_sustained_load() {
        // Seals arrive every 200 ns — faster than any slot drains a
        // segment — so a dynamic policy must spread across the farm once
        // the fast slots saturate. (An idle farm under fastest-first
        // legitimately picks slot 0 forever; starvation-freedom is a
        // property of the loaded regime.)
        for policy in SchedPolicyKind::ALL {
            let mhz = [2000u64, 1000, 250, 250];
            let mut busy = [Time::ZERO; 4];
            let mut seen = [false; 4];
            let mut prev = 0usize;
            let mut now = Time::ZERO;
            for _ in 0..64 {
                now += Time::from_ns(200);
                let slots: Vec<SlotView> = (0..4)
                    .map(|i| SlotView {
                        mhz: mhz[i],
                        busy_until: if busy[i] > now { busy[i] } else { Time::ZERO },
                    })
                    .collect();
                let c = ScheduleCtx {
                    slots: &slots,
                    prev_slot: prev,
                    now,
                    base_capacity: 170,
                    min_capacity: 4,
                };
                let slot = policy.next_slot(&c);
                let cap = policy.segment_capacity(slot, &c).max(c.min_capacity);
                // Service time ∝ segment size over slot speed.
                let service = Time::from_ns(cap as u64 * 20_000 / mhz[slot]);
                busy[slot] = busy[slot].max(now) + service;
                seen[slot] = true;
                prev = slot;
            }
            assert!(
                seen.iter().all(|&s| s),
                "{}: a slot was never assigned work under sustained load: {seen:?}",
                policy.name()
            );
        }
    }

    #[test]
    fn kind_names_are_stable() {
        // The names are CSV cells of the mixed-farm experiment.
        let names: Vec<&str> = SchedPolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["round-robin", "fastest-first", "deadline-aware"]);
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::RoundRobin);
    }
}
