//! Criterion: functional simulation throughput of the device kernel
//! variants (baseline, O0/O1/O2, iteration sync) and of the device
//! runtime's stream scheduling (1/2/4/8 streams over a fixed budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gsword_core::prelude::*;

fn bench_device(c: &mut Criterion) {
    let data = gsword_core::datasets::dataset("dblp");
    let query = QueryGraph::extract(&data, 8, 0xD1).expect("query");
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);

    const N: u64 = 2_000;
    let dev = DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    };
    let mut group = c.benchmark_group("device_kernels");
    group.throughput(Throughput::Elements(N));
    let configs = [
        ("baseline", EngineConfig::gpu_baseline(N)),
        ("o0", EngineConfig::o0(N)),
        ("o1", EngineConfig::o1(N)),
        ("o2", EngineConfig::o2(N)),
        ("itersync", EngineConfig::iteration_sync(N)),
    ];
    for (name, cfg) in configs {
        let cfg = EngineConfig { device: dev, ..cfg };
        group.bench_with_input(BenchmarkId::new("alley", name), &cfg, |b, cfg| {
            b.iter(|| run_engine(&ctx, &Alley, cfg).estimate.value())
        });
    }
    group.finish();
}

/// Stream scaling: the same fixed sample budget sharded over 1, 2, 4, and
/// 8 streams of one device (plus a 2×2 multi-device point). Estimates are
/// bit-identical across rows — only where the global grid's shards execute
/// changes — so the interesting number is wall-clock throughput.
fn bench_streams(c: &mut Criterion) {
    let data = gsword_core::datasets::dataset("dblp");
    let query = QueryGraph::extract(&data, 8, 0xD1).expect("query");
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);

    const N: u64 = 8_000;
    // The presets' single sim worker keeps each shard serial on its
    // stream: stream parallelism, not intra-launch block parallelism, is
    // what this group measures.
    let dev = DeviceConfig {
        num_blocks: 8,
        threads_per_block: 64,
    };
    let mut group = c.benchmark_group("stream_scaling");
    group.throughput(Throughput::Elements(N));
    for streams in [1usize, 2, 4, 8] {
        let cfg = EngineConfig {
            device: dev,
            ..EngineConfig::gsword(N)
        }
        .with_topology(1, streams);
        group.bench_with_input(BenchmarkId::new("1-device", streams), &cfg, |b, cfg| {
            b.iter(|| run_engine(&ctx, &Alley, cfg).estimate.value())
        });
    }
    let two_by_two = EngineConfig {
        device: dev,
        ..EngineConfig::gsword(N)
    }
    .with_topology(2, 2);
    group.bench_with_input(
        BenchmarkId::new("2-devices", 2usize),
        &two_by_two,
        |b, cfg| b.iter(|| run_engine(&ctx, &Alley, cfg).estimate.value()),
    );
    // Profiled twins of the 4-stream and 2×2 rows: comparing against the
    // rows above quantifies the profiler's overhead (the `Option<Arc>`
    // handle is designed to cost nothing when off and little when on).
    let profiled_4s = EngineConfig {
        device: dev,
        ..EngineConfig::gsword(N)
    }
    .with_topology(1, 4)
    .with_profile(true);
    group.bench_with_input(
        BenchmarkId::new("1-device-profiled", 4usize),
        &profiled_4s,
        |b, cfg| b.iter(|| run_engine(&ctx, &Alley, cfg).estimate.value()),
    );
    let profiled_2x2 = two_by_two.with_profile(true);
    group.bench_with_input(
        BenchmarkId::new("2-devices-profiled", 2usize),
        &profiled_2x2,
        |b, cfg| b.iter(|| run_engine(&ctx, &Alley, cfg).estimate.value()),
    );
    group.finish();
}

criterion_group!(benches, bench_device, bench_streams);
criterion_main!(benches);
