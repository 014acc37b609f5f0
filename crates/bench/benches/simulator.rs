//! Criterion micro-benchmarks of the simulator itself (wall-clock
//! performance of this codebase, not simulated metrics — those come from
//! the `src/bin` experiment harness).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paradet_core::{PairedSystem, SystemConfig};
use paradet_isa::{ArchState, FlatMemory, NoNondet};
use paradet_mem::{Cache, CacheConfig, Dram, DramConfig, Freq, MemConfig, MemHier, Time};
use paradet_ooo::{NullSink, OooCore, PredictorConfig, TournamentPredictor};
use paradet_workloads::Workload;
use std::hint::black_box;

fn bench_golden_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("golden_model");
    let program = Workload::Bitcount.build(100_000);
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("step_50k_instrs", |b| {
        b.iter(|| {
            let mut st = ArchState::at_entry(&program);
            let mut mem = FlatMemory::new();
            mem.load_image(&program);
            st.run_blocks(&program, &mut mem, &mut NoNondet, 50_000).unwrap()
        })
    });
    g.finish();
}

fn bench_ooo_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("ooo_core");
    g.sample_size(10);
    for w in [Workload::Bitcount, Workload::Randacc] {
        let program = w.build(w.iters_for_instrs(30_000));
        g.throughput(Throughput::Elements(30_000));
        g.bench_with_input(BenchmarkId::new("unchecked_30k", w.name()), &program, |b, p| {
            b.iter(|| {
                let cfg = paradet_ooo::OooConfig::default();
                let mut hier =
                    MemHier::new(&MemConfig::paper_default(cfg.clock, Freq::from_mhz(1000)), 0);
                hier.data.load_image(p);
                let mut core = OooCore::new(cfg, p);
                core.run(&mut hier, &mut NullSink, 30_000)
            })
        });
    }
    g.finish();
}

fn bench_paired_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("paired_system");
    g.sample_size(10);
    for w in [Workload::Freqmine, Workload::Stream] {
        let program = w.build(w.iters_for_instrs(30_000));
        g.throughput(Throughput::Elements(30_000));
        g.bench_with_input(BenchmarkId::new("full_detection_30k", w.name()), &program, |b, p| {
            b.iter(|| {
                let mut sys = PairedSystem::new(SystemConfig::paper_default(), p);
                sys.run(30_000)
            })
        });
    }
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    // Cache hit path.
    g.bench_function("cache_hit", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: Time::from_ns(1),
            mshrs: 6,
        });
        cache.access(0x1000, false, Time::ZERO, &mut |_, _, t| t + Time::from_ns(20));
        let mut now = Time::ZERO;
        b.iter(|| {
            now += Time::from_fs(100);
            black_box(cache.access(0x1000, false, now, &mut |_, _, t| t + Time::from_ns(20)))
        })
    });
    // DRAM access path.
    g.bench_function("dram_access", |b| {
        let mut dram = Dram::new(DramConfig::ddr3_1600());
        let mut addr = 0u64;
        let mut now = Time::ZERO;
        b.iter(|| {
            addr = addr.wrapping_add(0x4240) & 0xff_ffff;
            now += Time::from_fs(500);
            black_box(dram.access(addr, now))
        })
    });
    // Predictor predict+update round trip.
    g.bench_function("predictor_roundtrip", |b| {
        let mut p = TournamentPredictor::new(PredictorConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let pc = 0x1000 + (i % 64) * 4;
            let pred = p.predict_direction(pc);
            p.update_direction(pc, pred, !i.is_multiple_of(3));
            black_box(pred)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_golden_model,
    bench_ooo_core,
    bench_paired_system,
    bench_components
);
criterion_main!(benches);
