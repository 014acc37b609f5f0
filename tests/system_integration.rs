//! Integration tests spanning the whole stack: workloads → paired system →
//! detection, plus cross-checks between the OoO core and the golden model.

use paradet::detect::{run_unchecked, DetectionMode, PairedSystem, RunReport, SystemConfig};
use paradet::isa::{ArchState, FlatMemory, NoNondet};
use paradet::mem::Time;
use paradet::ooo::{ArmedFault, FaultTarget};
use paradet::workloads::Workload;

const INSTRS: u64 = 30_000;

fn run_full(w: Workload, cfg: SystemConfig) -> RunReport {
    let program = w.build(w.iters_for_instrs(INSTRS));
    let mut sys = PairedSystem::new(cfg, &program);
    sys.run(INSTRS)
}

#[test]
fn every_workload_verifies_cleanly_at_paper_defaults() {
    for w in Workload::all() {
        let report = run_full(w, SystemConfig::paper_default());
        assert!(report.errors.is_empty(), "{w}: spurious errors {:?}", report.errors);
        assert_eq!(report.instrs, INSTRS, "{w}: wrong instruction count");
        assert_eq!(
            report.delays.count(),
            report.detector.entries_logged,
            "{w}: some logged entries were never checked"
        );
        assert!(report.wall_time >= report.main_time, "{w}: checks finished before commits");
    }
}

#[test]
fn ooo_core_execution_matches_golden_model_on_all_workloads() {
    // The timing model must never change architectural results: run each
    // workload to completion both ways and compare registers and memory.
    for w in Workload::all() {
        let program = w.build(300);
        let mut golden = ArchState::at_entry(&program);
        let mut gmem = FlatMemory::new();
        gmem.load_image(&program);
        golden.run_blocks(&program, &mut gmem, &mut NoNondet, 10_000_000).unwrap();
        assert!(golden.halted, "{w}: golden run did not halt");

        let cfg = SystemConfig::paper_default();
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.halted, "{w}: system run did not halt");
        assert_eq!(
            sys.core().committed_state().first_register_mismatch(&golden),
            None,
            "{w}: architectural divergence between OoO core and golden model"
        );
        assert_eq!(
            sys.hier().data.first_difference(&gmem),
            None,
            "{w}: memory divergence between OoO core and golden model"
        );
    }
}

#[test]
fn slowdown_is_bounded_at_paper_defaults() {
    // The headline claim: full detection costs only a few percent. Allow a
    // generous 12% bound per benchmark (paper max: 3.4%).
    let cfg = SystemConfig::paper_default();
    for w in Workload::all() {
        let program = w.build(w.iters_for_instrs(INSTRS));
        let base = run_unchecked(&cfg, &program, INSTRS).main_cycles.max(1);
        let full = {
            let mut sys = PairedSystem::new(cfg, &program);
            sys.run(INSTRS).main_cycles
        };
        let s = full as f64 / base as f64;
        assert!(s < 1.12, "{w}: slowdown {s:.3} exceeds bound");
        assert!(s >= 0.999, "{w}: checked run faster than baseline?!");
    }
}

#[test]
fn memory_bound_workloads_tolerate_slow_checkers_but_compute_bound_do_not() {
    // The Fig. 9 crossover, as an invariant.
    let slow = SystemConfig::paper_default().with_checker_mhz(125);
    let randacc = {
        let program = Workload::Randacc.build(Workload::Randacc.iters_for_instrs(INSTRS));
        let base = run_unchecked(&slow, &program, INSTRS).main_cycles.max(1);
        let mut sys = PairedSystem::new(slow, &program);
        sys.run(INSTRS).main_cycles as f64 / base as f64
    };
    let bitcount = {
        let program = Workload::Bitcount.build(Workload::Bitcount.iters_for_instrs(INSTRS));
        let base = run_unchecked(&slow, &program, INSTRS).main_cycles.max(1);
        let mut sys = PairedSystem::new(slow, &program);
        sys.run(INSTRS).main_cycles as f64 / base as f64
    };
    assert!(randacc < 1.1, "randacc should tolerate 125MHz checkers: {randacc:.2}");
    assert!(bitcount > 1.5, "bitcount should be throttled by 125MHz checkers: {bitcount:.2}");
}

#[test]
fn detection_delay_mean_is_in_the_papers_ballpark() {
    // Paper: mean 770 ns across benchmarks, 99.9% under 5 µs at defaults.
    let mut means = Vec::new();
    for w in Workload::all() {
        let report = run_full(w, SystemConfig::paper_default());
        if report.delays.count() > 0 {
            means.push(report.delays.mean_ns());
            assert!(
                report.delays.fraction_within(Time::from_us(15)) > 0.99,
                "{w}: too many slow checks"
            );
        }
    }
    let avg = means.iter().sum::<f64>() / means.len() as f64;
    assert!(
        (200.0..5_000.0).contains(&avg),
        "average mean detection delay {avg:.0} ns is outside the plausible band"
    );
}

#[test]
fn faults_detected_across_all_workloads() {
    // A register strike on the table/base pointer must be caught on every
    // workload (it redirects loads or corrupts stores).
    for w in Workload::all() {
        let program = w.build(w.iters_for_instrs(INSTRS));
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        sys.arm_fault(ArmedFault::new(
            INSTRS / 2,
            FaultTarget::IntRegBit { reg: paradet::isa::Reg::X1, bit: 13 },
        ));
        let report = sys.run(INSTRS);
        assert!(report.detected() || report.crashed, "{w}: base-pointer corruption escaped");
    }
}

#[test]
fn checkpoint_only_mode_brackets_full_detection_overhead() {
    // Checkpoint cost is a lower bound on full-detection cost; both must be
    // small at defaults.
    let w = Workload::Stream;
    let program = w.build(w.iters_for_instrs(INSTRS));
    let base = run_unchecked(&SystemConfig::paper_default(), &program, INSTRS).main_cycles;
    let ckpt = {
        let cfg = SystemConfig::paper_default().with_mode(DetectionMode::CheckpointOnly);
        PairedSystem::new(cfg, &program).run(INSTRS).main_cycles
    };
    let full = PairedSystem::new(SystemConfig::paper_default(), &program).run(INSTRS).main_cycles;
    assert!(ckpt >= base);
    assert!(full >= ckpt, "full detection can only add to checkpoint cost");
}

#[test]
fn smaller_logs_seal_more_and_delay_less() {
    let w = Workload::Freqmine;
    let program = w.build(w.iters_for_instrs(INSTRS));
    let small =
        PairedSystem::new(SystemConfig::paper_default().with_log(3686, Some(500)), &program)
            .run(INSTRS);
    let large = PairedSystem::new(
        SystemConfig::paper_default().with_log(360 * 1024, Some(50_000)),
        &program,
    )
    .run(INSTRS);
    assert!(small.detector.seals > large.detector.seals * 5);
    assert!(small.delays.mean_ns() < large.delays.mean_ns() / 5.0);
}

#[test]
fn reports_are_deterministic_across_runs() {
    let w = Workload::Bodytrack;
    let program = w.build(w.iters_for_instrs(10_000));
    let a = PairedSystem::new(SystemConfig::paper_default(), &program).run(10_000);
    let b = PairedSystem::new(SystemConfig::paper_default(), &program).run(10_000);
    assert_eq!(a.main_cycles, b.main_cycles);
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.detector, b.detector);
    assert_eq!(a.delays.samples_fs(), b.delays.samples_fs());
}
