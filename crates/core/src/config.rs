//! System-level configuration (Table I plus the §VI-A sweeps).

use paradet_checker::{CheckerConfig, DomainSet, FarmSpec, SchedPolicyKind};
use paradet_mem::{Freq, MemConfig, Time};
use paradet_ooo::OooConfig;

/// What the detection hardware does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionMode {
    /// Full parallel error detection: log, checkpoints, checker cores.
    #[default]
    Full,
    /// Checkpointing only — segments seal and pause commit, but no checker
    /// ever runs and segments free instantly. This is exactly the
    /// configuration of Fig. 10 ("slowdown to the system from just
    /// checkpointing, without any checker core execution").
    CheckpointOnly,
}

/// Geometry of the partitioned load-store log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Total SRAM devoted to the log, in bytes (Table I: 36 KiB).
    pub total_bytes: usize,
    /// Bytes per entry: kind tag + 48-bit address + 64-bit value + width ≈
    /// 18 bytes, matching the paper's 3 KiB ≈ 170-entry segments.
    pub entry_bytes: usize,
    /// Instruction-count timeout per segment (Table I: 5 000); `None`
    /// disables the timeout (the `∞` configurations of Fig. 10/12).
    pub timeout_insns: Option<u64>,
}

impl LogConfig {
    /// Table I: 36 KiB total, 5 000-instruction timeout.
    pub fn paper_default() -> LogConfig {
        LogConfig { total_bytes: 36 * 1024, entry_bytes: 18, timeout_insns: Some(5_000) }
    }

    /// Entries available in each of `segments` per-checker partitions.
    pub fn entries_per_segment(&self, segments: usize) -> usize {
        assert!(segments > 0, "log needs at least one segment");
        (self.total_bytes / segments / self.entry_bytes).max(crate::MAX_UOPS_PER_INSN)
    }
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig::paper_default()
    }
}

/// Full configuration of a paired (main + checkers) system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// The out-of-order main core.
    pub main: OooConfig,
    /// One checker core configuration, replicated `n_checkers` times.
    pub checker: CheckerConfig,
    /// Number of checker cores and log segments (Table I: 12; one-to-one
    /// mapping, §IV-D).
    pub n_checkers: usize,
    /// Load-store log geometry.
    pub log: LogConfig,
    /// Commit pause when a register checkpoint is taken (Table I: 16
    /// cycles).
    pub checkpoint_pause_cycles: u64,
    /// Detection mode.
    pub mode: DetectionMode,
    /// Whether the load forwarding unit duplicates loads at execute (§IV-C).
    /// Disabling it models the naive design whose window of vulnerability
    /// the LFU closes — used by the fault-injection ablation.
    pub lfu_enabled: bool,
    /// If set, an "interrupt" fires this often and forces an early register
    /// checkpoint at the next instruction boundary (§IV-G).
    pub interrupt_interval: Option<Time>,
    /// Secondary checker clock domains swept *within* this run (Fig. 9/11
    /// from one simulation). The primary domain is [`checker`]
    /// (self-driving: its folds gate main-core stalls, so its results are
    /// bit-identical with or without secondary domains); each secondary
    /// domain folds the same replay traces against its own checker cores
    /// and checker-cache path, in seal order. Empty by default.
    ///
    /// Only meaningful in [`DetectionMode::Full`]: checkpoint-only runs
    /// fold no timing, so the set is ignored and `RunReport::domains`
    /// comes back empty.
    ///
    /// [`checker`]: SystemConfig::checker
    pub extra_domains: DomainSet,
    /// Per-slot speed classes for the primary farm (MEEK/FlexStep mixed
    /// farms). The default [`FarmSpec::uniform`] is one class at
    /// [`checker`](SystemConfig::checker) — the paper's homogeneous farm.
    /// A mixed farm's classes each carry their own
    /// [`ClockDomain`](paradet_checker::ClockDomain);
    /// [`checker`](SystemConfig::checker) remains
    /// the *primary clock* (main-core-facing memory latencies,
    /// [`mem_config`](SystemConfig::mem_config)), and
    /// [`class_checker`](SystemConfig::class_checker) resolves what each
    /// class actually runs. Orthogonal to
    /// [`extra_domains`](SystemConfig::extra_domains), which re-clocks the
    /// whole farm uniformly per secondary domain.
    pub farm: FarmSpec,
    /// Checker-to-segment scheduling policy (round-robin default — the
    /// uniform-compatible reference whose uniform-farm output is pinned
    /// bit-identical to the fixed-ring design, invariant 11).
    pub sched_policy: SchedPolicyKind,
}

impl SystemConfig {
    /// The paper's Table I configuration.
    pub fn paper_default() -> SystemConfig {
        SystemConfig {
            main: OooConfig::default(),
            checker: CheckerConfig::default(),
            n_checkers: 12,
            log: LogConfig::paper_default(),
            checkpoint_pause_cycles: 16,
            mode: DetectionMode::Full,
            lfu_enabled: true,
            interrupt_interval: None,
            extra_domains: DomainSet::new(),
            farm: FarmSpec::uniform(),
            sched_policy: SchedPolicyKind::RoundRobin,
        }
    }

    /// Returns a copy with the checker cores clocked at `mhz` (Fig. 9/11
    /// sweeps 125–2000 MHz).
    pub fn with_checker_mhz(mut self, mhz: u64) -> SystemConfig {
        self.checker = CheckerConfig::paper_default(Freq::from_mhz(mhz));
        self
    }

    /// Returns a copy with `n` checker cores / log segments (Fig. 13).
    pub fn with_checkers(mut self, n: usize) -> SystemConfig {
        self.n_checkers = n;
        self
    }

    /// Returns a copy with a different log size and timeout (Fig. 10/12).
    pub fn with_log(mut self, total_bytes: usize, timeout: Option<u64>) -> SystemConfig {
        self.log.total_bytes = total_bytes;
        self.log.timeout_insns = timeout;
        self
    }

    /// Returns a copy in the given detection mode.
    pub fn with_mode(mut self, mode: DetectionMode) -> SystemConfig {
        self.mode = mode;
        self
    }

    /// Returns a copy with event-driven cycle skipping switched on or off
    /// in the main core (on by default). `false` selects the exhaustive
    /// path — every resource structure evaluated at every micro-op — kept
    /// as the one timing reference; see `paradet_ooo::OooConfig::event_skip`
    /// for the exact semantics and the skip-vs-tick suite in
    /// `tests/parallel_determinism.rs` for the identity proof obligation.
    pub fn with_event_skip(mut self, on: bool) -> SystemConfig {
        self.main.event_skip = on;
        self
    }

    /// Returns a copy sweeping `domains` as secondary clock domains within
    /// the run (the primary stays [`checker`](SystemConfig::checker)).
    /// Takes effect only in [`DetectionMode::Full`] — see
    /// [`extra_domains`](SystemConfig::extra_domains).
    pub fn with_extra_domains(mut self, domains: DomainSet) -> SystemConfig {
        self.extra_domains = domains;
        self
    }

    /// Returns a copy with per-slot speed classes for the primary farm
    /// (see [`farm`](SystemConfig::farm)). `FarmSpec::uniform()` restores
    /// the homogeneous farm.
    pub fn with_farm(mut self, farm: FarmSpec) -> SystemConfig {
        self.farm = farm;
        self
    }

    /// Returns a copy with the given checker-to-segment scheduling policy
    /// (see [`sched_policy`](SystemConfig::sched_policy)).
    pub fn with_sched_policy(mut self, policy: SchedPolicyKind) -> SystemConfig {
        self.sched_policy = policy;
        self
    }

    /// The checker configuration speed class `class` of the primary farm
    /// runs: its clock domain's on a mixed farm, and
    /// [`checker`](SystemConfig::checker) for the one class of a uniform
    /// farm.
    pub fn class_checker(&self, class: usize) -> CheckerConfig {
        self.farm.class_domain(class).map_or(self.checker, |d| d.checker)
    }

    /// The checker configuration slot `slot` actually runs: its speed
    /// class's (see [`class_checker`](SystemConfig::class_checker)).
    pub fn checker_config_for_slot(&self, slot: usize) -> CheckerConfig {
        self.class_checker(self.farm.class_of_slot(slot))
    }

    /// The memory-system configuration implied by the core clocks.
    pub fn mem_config(&self) -> MemConfig {
        self.mem_config_for(self.checker.clock)
    }

    /// The memory-system configuration with the checker-facing caches
    /// clocked at `checker_clock` — the template every speed class and
    /// secondary clock domain builds its
    /// [`CheckerPath`](paradet_mem::CheckerPath) from.
    pub fn mem_config_for(&self, checker_clock: Freq) -> MemConfig {
        MemConfig::paper_default(self.main.clock, checker_clock)
    }

    /// Entries per log segment.
    pub fn entries_per_segment(&self) -> usize {
        self.log.entries_per_segment(self.n_checkers)
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.n_checkers, 12);
        assert_eq!(c.log.total_bytes, 36 * 1024);
        assert_eq!(c.log.timeout_insns, Some(5_000));
        assert_eq!(c.checkpoint_pause_cycles, 16);
        // 36 KiB / 12 segments / 18 B ≈ 170 entries, the paper's 3 KiB per
        // core.
        assert_eq!(c.entries_per_segment(), 170);
        assert!(c.lfu_enabled);
    }

    #[test]
    fn sweep_helpers() {
        let c = SystemConfig::paper_default()
            .with_checker_mhz(500)
            .with_checkers(6)
            .with_log(360 * 1024, None);
        assert_eq!(c.checker.clock.mhz(), 500);
        assert_eq!(c.n_checkers, 6);
        assert_eq!(c.log.timeout_insns, None);
        assert_eq!(c.entries_per_segment(), 360 * 1024 / 6 / 18);
    }

    #[test]
    fn slot_configs_follow_the_farm_spec() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.farm, FarmSpec::uniform());
        assert_eq!(c.sched_policy, SchedPolicyKind::RoundRobin);
        assert_eq!(c.checker_config_for_slot(5), c.checker);
        // A uniform farm is one class at the primary checker: the class a
        // one-clock striped farm at the primary clock derives too.
        let one_class = c.with_farm(FarmSpec::striped(&[1000]));
        assert_eq!(c.farm.n_classes(), 1);
        assert_eq!(c.class_checker(0), one_class.class_checker(0));

        let m = c.with_farm(FarmSpec::striped(&[2000, 250]));
        assert_eq!(m.checker_config_for_slot(0).clock.mhz(), 2000);
        assert_eq!(m.checker_config_for_slot(1).clock.mhz(), 250);
        assert_eq!(m.checker_config_for_slot(2).clock.mhz(), 2000);
        // The primary clock (main-facing memory latencies) is untouched.
        assert_eq!(m.checker.clock.mhz(), 1000);
    }

    #[test]
    fn tiny_log_still_fits_a_macro_op() {
        let log = LogConfig { total_bytes: 16, entry_bytes: 18, timeout_insns: None };
        assert_eq!(log.entries_per_segment(4), crate::MAX_UOPS_PER_INSN);
    }
}
