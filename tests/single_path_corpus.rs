//! Single-path fingerprint corpus: every execution layer — the main core's
//! block kernel, checker replay, the functional oracle, recovery and the
//! two baselines — must keep producing exactly the behaviour recorded in
//! `tests/fixtures/single_path_corpus.txt`.
//!
//! Each fixture line is one case: `index seed scenario fingerprint`. The
//! seed (a SplitMix64 state) picks a random loop kernel, a farm/log
//! geometry and the scenario's fault parameters; the fingerprint is a
//! 64-bit FNV-1a hash over behavioural fields only — run reports with
//! `cycles_skipped` zeroed (pure accounting), per-seal finish times,
//! checker statistics and per-domain rows keyed by clock, never a config's
//! `Debug`. The fixture was recorded from the per-instruction reference
//! paths, so it pins the single remaining path to their behaviour.
//!
//! A mismatch prints the case index, seed, expected and observed hash.

use paradet::baselines::{run_rmt, DclsSystem};
use paradet::detect::{
    run_recovery, run_unchecked_shared, DomainSet, PairedSystem, RecoveryPolicy, RunReport,
    SimScratch, SystemConfig, TrialFaults,
};
use paradet::isa::{
    AluOp, ArchState, FReg, FlatMemory, FpuOp, MemWidth, MemoryIface, NoNondet, Program,
    ProgramBuilder, Reg,
};
use paradet::mem::{MemConfig, MemHier};
use paradet::ooo::{ArmedFault, FaultKind, FaultTarget, NullSink, OooConfig, OooCore};
use paradet::par::with_threads;
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/single_path_corpus.txt");

/// Instruction budget for every non-recovery case.
const BUDGET: u64 = 2_000;

/// The scenarios, in the order case indices cycle through them.
const SCENARIOS: [&str; 17] = [
    "clean",
    "int-reg",
    "fp-reg",
    "store-value",
    "store-addr",
    "load-value",
    "load-capture",
    "pc",
    "alu-stuck-at",
    "log",
    "recover-transient",
    "recover-intermittent",
    "recover-permanent",
    "rmt",
    "dcls",
    "unchecked",
    "run-blocks",
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A random kernel of the shape the farm determinism suites use — a loop
/// of load/op/store triples over a small buffer, optionally led by
/// `rdcycle` — widened with optional paired accesses, an FP chain and a
/// call/return, so every micro-op class, both two-access forms and the
/// return-address stack take part. Returns the program and its buffer.
fn kernel(rng: &mut SplitMix64) -> (Arc<Program>, u64, usize) {
    let words = 4 + rng.below(5) as usize;
    let seeds: Vec<u64> = (0..words).map(|_| rng.next()).collect();
    let n_ops = 1 + rng.below(7) as usize;
    let iters = 8 + rng.below(52);
    let rdcycle = rng.coin();
    let pair = rng.below(3) == 0;
    let fp = rng.below(3) == 0;
    let call = rng.below(3) == 0;

    let mut b = ProgramBuilder::new();
    let buf = b.alloc_u64s(&seeds);
    let func = b.new_label();
    b.li(Reg::X21, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters as i64);
    let top = b.label_here();
    if rdcycle {
        b.rdcycle(Reg::X10);
    }
    for i in 0..n_ops {
        let op =
            rng.pick(&[AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Mul, AluOp::Div, AluOp::Sll]);
        let dst = Reg::from_index(4 + i % 4);
        b.ld(dst, Reg::X21, (rng.below(words as u64) * 8) as i64);
        b.op(op, Reg::X8, dst, Reg::X2);
        b.sd(Reg::X8, Reg::X21, (rng.below(words as u64) * 8) as i64);
    }
    if pair {
        b.ldp(Reg::X11, Reg::X12, Reg::X21, 0);
        b.op(AluOp::Add, Reg::X11, Reg::X11, Reg::X12);
        b.stp(Reg::X11, Reg::X8, Reg::X21, 16);
    }
    if fp {
        b.fcvt_from_int(FReg::F1, Reg::X8);
        b.fcvt_from_int(FReg::F2, Reg::X2);
        b.fop(rng.pick(&[FpuOp::Mul, FpuOp::Div]), FReg::F3, FReg::F1, FReg::F2);
        b.fsqrt(FReg::F4, FReg::F3);
        b.fma(FReg::F5, FReg::F4, FReg::F1, FReg::F2);
        b.fsd(FReg::F5, Reg::X21, 8);
        b.fld(FReg::F6, Reg::X21, 8);
        b.fmv_to_int(Reg::X13, FReg::F6);
        b.sd(Reg::X13, Reg::X21, 24);
    }
    if call {
        b.jal_to(Reg::X1, func);
    }
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    if call {
        b.bind(func);
        b.op(AluOp::Xor, Reg::X14, Reg::X14, Reg::X8);
        b.ret(Reg::X1);
    }
    (Arc::new(b.build()), buf, words)
}

/// A random farm/log geometry: checker count, log bytes, timeout and
/// checker clock, plus occasional secondary clock domains, the exhaustive
/// (non-skipping) timing reference and the naive no-LFU log capture.
fn geometry(rng: &mut SplitMix64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default()
        .with_checkers(rng.pick(&[1, 2, 3, 4, 12]))
        .with_log(
            rng.pick(&[512, 1024, 8192, 36 * 1024]),
            rng.pick(&[None, Some(48), Some(400), Some(5_000)]),
        )
        .with_checker_mhz(rng.pick(&[125, 250, 500, 1000, 2000]));
    if rng.below(3) == 0 {
        cfg = cfg.with_extra_domains(DomainSet::from_mhz(&[250, 2000]));
    }
    if rng.below(4) == 0 {
        cfg = cfg.with_event_skip(false);
    }
    cfg.lfu_enabled = rng.below(4) != 0;
    cfg
}

/// The fault target a fault scenario strikes with.
fn target(scenario: &str, rng: &mut SplitMix64) -> FaultTarget {
    let bit = rng.below(64) as u8;
    match scenario {
        "int-reg" => FaultTarget::IntRegBit {
            reg: rng.pick(&[Reg::X2, Reg::X4, Reg::X8, Reg::X10, Reg::X21, Reg::X1]),
            bit,
        },
        "fp-reg" => FaultTarget::FpRegBit { reg: rng.pick(&[FReg::F1, FReg::F3, FReg::F5]), bit },
        "store-value" => FaultTarget::StoreValueBit { bit },
        "store-addr" => FaultTarget::StoreAddrBit { bit: bit % 48 },
        "load-value" => FaultTarget::LoadValueBit { bit },
        "load-capture" => FaultTarget::LoadCaptureBit { bit },
        "pc" => FaultTarget::PcBit { bit: bit % 21 },
        "alu-stuck-at" => {
            FaultTarget::AluStuckAt { unit: rng.below(4) as u8, bit, value: rng.coin() }
        }
        _ => unreachable!("{scenario} is not a core-fault scenario"),
    }
}

/// A strike point inside the kernel's fault-free run (so the fault fires),
/// capped at the instruction budget.
fn strike_at(rng: &mut SplitMix64, program: &Program) -> u64 {
    let len = golden(program).0.retired.min(BUDGET);
    1 + rng.below(len.max(2) - 1)
}

/// A fault drawn from any core-fault scenario.
fn any_fault(rng: &mut SplitMix64, program: &Program) -> ArmedFault {
    let scenario = rng.pick(&SCENARIOS[1..9]);
    let at = strike_at(rng, program);
    ArmedFault::new(at, target(scenario, rng))
}

/// Renders a paired run: the report minus its domain rows, per-seal finish
/// times, per-checker statistics, each domain row keyed by its clock, and
/// the final committed state and buffer contents.
fn paired_fingerprint(sys: PairedSystem, mut report: RunReport, buf: u64, words: usize) -> String {
    report.core.cycles_skipped = 0;
    let domains = std::mem::take(&mut report.domains);
    let mut s = format!("{report:?}|finishes={:?}|checkers=", sys.detector().finish_times());
    for c in &sys.detector().checkers {
        write!(s, "{:?};", c.stats).unwrap();
    }
    for d in &domains {
        write!(
            s,
            "|domain {} MHz: delays={:?} store_delays={:?} errors={:?} finishes={:?} \
             checkers={:?} done={:?} divergences={}",
            d.domain.mhz(),
            d.delays,
            d.store_delays,
            d.errors,
            d.finishes,
            d.checkers,
            d.all_checks_done_at,
            d.stall_divergences
        )
        .unwrap();
    }
    write!(s, "|state={:?}", sys.core().committed_state()).unwrap();
    let mut mem = sys.dismantle(&mut SimScratch::new());
    write!(s, "|buffer={:?}", buffer(&mut mem, buf, words)).unwrap();
    s
}

/// The buffer's words, read back through the functional memory.
fn buffer(mem: &mut FlatMemory, buf: u64, words: usize) -> Vec<u64> {
    (0..words as u64).map(|i| mem.load(buf + i * 8, MemWidth::D)).collect()
}

/// The fault-free final state and memory, from the functional oracle.
fn golden(program: &Program) -> (ArchState, FlatMemory) {
    let mut state = ArchState::at_entry(program);
    let mut mem = FlatMemory::new();
    mem.load_image(program);
    state.run_blocks(program, &mut mem, &mut NoNondet, u64::MAX).expect("golden run crashed");
    (state, mem)
}

/// Runs case `seed` of `scenario` and renders its behaviour.
fn fingerprint(scenario: &str, seed: u64) -> String {
    let mut rng = SplitMix64(seed);
    let (program, buf, words) = kernel(&mut rng);
    let cfg = geometry(&mut rng);
    match scenario {
        "clean" | "int-reg" | "fp-reg" | "store-value" | "store-addr" | "load-value"
        | "load-capture" | "pc" | "alu-stuck-at" | "log" => {
            let mut sys = PairedSystem::new_shared(cfg, &program);
            match scenario {
                "clean" => {}
                "log" => {
                    sys.arm_log_fault(rng.below(6), rng.below(200) as usize, rng.below(64) as u8)
                }
                _ => {
                    let at = strike_at(&mut rng, &program);
                    sys.arm_fault(ArmedFault::new(at, target(scenario, &mut rng)));
                }
            }
            let report = sys.run(BUDGET);
            paired_fingerprint(sys, report, buf, words)
        }
        "recover-transient" | "recover-intermittent" | "recover-permanent" => {
            let kind = match scenario {
                "recover-transient" => FaultKind::Transient,
                "recover-intermittent" => FaultKind::Intermittent {
                    period: rng.pick(&[7, 40, 200]),
                    count: 2 + rng.below(3) as u32,
                },
                _ => FaultKind::Permanent,
            };
            let faults = TrialFaults {
                kind,
                core: vec![any_fault(&mut rng, &program)],
                ..TrialFaults::default()
            };
            let (_, gmem) = golden(&program);
            let mut scratch = SimScratch::new();
            let mut r = run_recovery(
                &cfg,
                &program,
                &mut scratch,
                60_000,
                &faults,
                &RecoveryPolicy::default(),
            );
            format!(
                "{:?} retries={} detected={} halted={} crashed={} detect_fs={} recovery_fs={} \
                 state={:?} mem_vs_golden={:?} buffer={:?}",
                r.disposition,
                r.retries,
                r.detected,
                r.halted,
                r.crashed,
                r.detect_fs,
                r.recovery_fs,
                r.final_state,
                r.final_mem.first_difference(&gmem),
                buffer(&mut r.final_mem, buf, words),
            )
        }
        "rmt" => {
            // The baseline's report, plus the duplicating core's own
            // statistics and memory traffic, which that report sums away.
            let main = OooConfig { rmt_duplicate: true, ..cfg.main };
            let mut hier = MemHier::new(&MemConfig::paper_default(main.clock, main.clock));
            hier.data.load_image(&program);
            let mut core = OooCore::new_shared(main, Arc::clone(&program));
            core.run(&mut hier, &mut NullSink, BUDGET);
            let report = run_rmt(cfg.main, &program, BUDGET);
            format!("{report:?}|{:?}|{:?}", core.stats, hier.stats())
        }
        "dcls" => {
            let mut sys = DclsSystem::new(cfg.main, &program);
            if rng.coin() {
                sys.arm_fault(any_fault(&mut rng, &program));
            }
            format!("{:?}", sys.run(BUDGET))
        }
        "unchecked" => {
            let mut r = run_unchecked_shared(&cfg, &program, BUDGET);
            r.core.cycles_skipped = 0;
            format!("{r:?}")
        }
        "run-blocks" => {
            let mut state = ArchState::at_entry(&program);
            let mut mem = FlatMemory::new();
            mem.load_image(&program);
            let mut n = 0;
            while !state.halted && n < BUDGET {
                let chunk = 1 + rng.below(50);
                n += state.run_blocks(&program, &mut mem, &mut NoNondet, chunk).unwrap();
            }
            format!("n={n} state={state:?} buffer={:?}", buffer(&mut mem, buf, words))
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// One fixture line.
struct Case {
    index: usize,
    seed: u64,
    scenario: String,
    expected: u64,
}

fn cases() -> Vec<Case> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "malformed fixture line: {l}");
            Case {
                index: f[0].parse().expect("case index"),
                seed: u64::from_str_radix(f[1], 16).expect("case seed"),
                scenario: f[2].to_string(),
                expected: u64::from_str_radix(f[3], 16).expect("case fingerprint"),
            }
        })
        .collect()
}

/// Checks every fixture case whose scenario is in `group`, reporting all
/// mismatches at once.
fn check(group: &[&str]) {
    let all = cases();
    let selected: Vec<&Case> =
        all.iter().filter(|c| group.contains(&c.scenario.as_str())).collect();
    assert!(!selected.is_empty(), "fixture has no cases for {group:?}");
    let mut failures = Vec::new();
    for c in selected {
        assert_eq!(
            c.scenario,
            SCENARIOS[c.index % SCENARIOS.len()],
            "case {} is filed under the wrong scenario",
            c.index
        );
        let observed = fnv1a(&with_threads(1, || fingerprint(&c.scenario, c.seed)));
        if observed != c.expected {
            failures.push(format!(
                "case {} (seed {:016x}, {}): expected {:016x}, observed {observed:016x}",
                c.index, c.seed, c.scenario, c.expected
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus case(s) changed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The fixture is whole: consecutive indices, every scenario equally
/// represented, no seed repeated.
#[test]
fn corpus_fixture_is_complete() {
    let all = cases();
    assert_eq!(all.len() % SCENARIOS.len(), 0, "every scenario gets the same number of cases");
    assert!(all.len() >= 10 * SCENARIOS.len());
    for (i, c) in all.iter().enumerate() {
        assert_eq!(c.index, i, "fixture indices must be consecutive");
    }
    let mut seeds: Vec<u64> = all.iter().map(|c| c.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), all.len(), "case seeds must be distinct");
}

#[test]
fn corpus_clean_and_log_faults() {
    check(&["clean", "log"]);
}

#[test]
fn corpus_register_and_pc_faults() {
    check(&["int-reg", "fp-reg", "pc", "alu-stuck-at"]);
}

#[test]
fn corpus_memory_faults() {
    check(&["store-value", "store-addr", "load-value", "load-capture"]);
}

#[test]
fn corpus_recovery() {
    check(&["recover-transient", "recover-intermittent", "recover-permanent"]);
}

#[test]
fn corpus_baselines_and_oracle() {
    check(&["rmt", "dcls", "unchecked", "run-blocks"]);
}
