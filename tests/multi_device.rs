//! Multi-device determinism: the runtime topology (devices × streams) must
//! not change what a run computes, only where its shards execute.
//!
//! The design that makes this hold: per-block sample quotas come from
//! `split_budget` over the *global* grid, per-lane RNG streams key on
//! *global* block ids, and block results merge in ascending global block
//! order regardless of which device produced them.

use gsword::prelude::*;
use gsword_estimators::{Alley, WanderJoin};
use proptest::prelude::*;

fn fixture() -> (Graph, QueryGraph) {
    let data = gsword::datasets::dataset("yeast");
    let query = QueryGraph::extract(&data, 5, 0xBEEF).expect("query");
    (data, query)
}

fn device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 8,
        threads_per_block: 64,
    }
}

fn run_with_topology(est: EstimatorKind, devices: usize, streams: usize) -> EngineReport {
    let (data, query) = fixture();
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);
    let cfg = EngineConfig {
        device: device(),
        ..EngineConfig::gsword(10_000)
    }
    .with_seed(0xD15C)
    .with_topology(devices, streams);
    match est {
        EstimatorKind::WanderJoin => run_engine(&ctx, &WanderJoin, &cfg),
        EstimatorKind::Alley => run_engine(&ctx, &Alley, &cfg),
    }
}

#[test]
fn wj_estimate_is_bit_identical_across_topologies() {
    let single = run_with_topology(EstimatorKind::WanderJoin, 1, 1);
    let sharded = run_with_topology(EstimatorKind::WanderJoin, 2, 4);
    assert_eq!(
        single.estimate.value().to_bits(),
        sharded.estimate.value().to_bits(),
        "WJ estimate must be bit-identical: {} vs {}",
        single.estimate.value(),
        sharded.estimate.value()
    );
    assert_eq!(single.samples_collected, sharded.samples_collected);
    assert_eq!(single.counters, sharded.counters);
}

#[test]
fn alley_estimate_is_bit_identical_across_topologies() {
    let single = run_with_topology(EstimatorKind::Alley, 1, 1);
    let sharded = run_with_topology(EstimatorKind::Alley, 2, 4);
    assert_eq!(
        single.estimate.value().to_bits(),
        sharded.estimate.value().to_bits(),
        "Alley estimate must be bit-identical: {} vs {}",
        single.estimate.value(),
        sharded.estimate.value()
    );
    assert_eq!(single.samples_collected, sharded.samples_collected);
    assert_eq!(single.counters, sharded.counters);
}

#[test]
fn two_devices_report_per_device_times() {
    let rep = run_with_topology(EstimatorKind::Alley, 2, 2);
    assert_eq!(rep.per_device_modeled_ms.len(), 2);
    let max = rep
        .per_device_modeled_ms
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    assert_eq!(rep.modeled_ms.to_bits(), max.to_bits(), "makespan = max");
    assert!(rep.per_device_modeled_ms.iter().all(|&ms| ms > 0.0));
}

#[test]
fn profiled_run_attributes_counters_per_stream() {
    let (data, query) = fixture();
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);
    let cfg = EngineConfig {
        device: device(),
        ..EngineConfig::gsword(10_000)
    }
    .with_seed(0xD15C)
    .with_topology(2, 2)
    .with_profile(true);
    let report = run_engine(&ctx, &Alley, &cfg);
    let total = report.counters.snapshot();

    // Each shard's counters land on its own (device, stream) row, and the
    // rows sum to the run's counters.
    let prof = report
        .prof
        .as_ref()
        .expect("profiled run carries a profile");
    assert_eq!(prof.streams.len(), 4);
    let mut summed = CounterSnapshot::default();
    for s in &prof.streams {
        assert_ne!(
            s.counters,
            CounterSnapshot::default(),
            "d{}.s{} charged nothing",
            s.device,
            s.stream
        );
        summed.merge(&s.counters);
    }
    assert_eq!(summed, total);
    assert_eq!(prof.kernels.len(), 1);
    assert_eq!(prof.kernels[0].counters, total);
}

/// `EstimateRun::wait_report` merges the devices' shards: it sums their
/// collected samples and counters, takes the device makespan, and only then
/// normalizes per sample.
#[test]
fn merge_devices_normalizes_after_summing() {
    let single = run_with_topology(EstimatorKind::Alley, 1, 1);
    let report = run_with_topology(EstimatorKind::Alley, 2, 2);
    assert_eq!(report.samples_collected, single.samples_collected);
    assert_eq!(report.counters, single.counters);

    let max = report
        .per_device_modeled_ms
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    assert_eq!(report.modeled_ms.to_bits(), max.to_bits());
    let n = 10_000;
    let per_sample = report.modeled_ms * n as f64 / report.samples_collected as f64;
    assert_eq!(
        report.modeled_ms_for_samples(n).to_bits(),
        per_sample.to_bits()
    );
}

#[test]
fn merge_devices_handles_empty_reports() {
    // Zero collected samples: normalization falls back to the raw makespan.
    let empty = EngineReport {
        estimate: Estimate::default(),
        samples_collected: 0,
        counters: KernelCounters::default(),
        modeled_ms: 0.5,
        per_device_modeled_ms: vec![0.5],
        wall_ms: 0.1,
        sanitizer: None,
        prof: None,
    };
    assert_eq!(empty.modeled_ms_for_samples(1_000), 0.5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_budgets_sum_to_total(
        samples in 0u64..1_000_000,
        num_blocks in 1usize..64,
        devices in 1usize..5,
        streams in 1usize..5,
    ) {
        let specs = gsword_engine::plan_shards(num_blocks, devices, streams, samples, 7);
        let total: u64 = specs.iter().map(|s| s.samples).sum();
        prop_assert_eq!(total, samples, "shard budgets must sum to the request");
        let blocks: usize = specs.iter().map(|s| s.blocks.len()).sum();
        prop_assert_eq!(blocks, num_blocks, "shards must cover the grid");
    }

    #[test]
    fn split_budget_is_exact_and_balanced(total in 0u64..10_000_000, parts in 1usize..512) {
        let shares = split_budget(total, parts);
        prop_assert_eq!(shares.len(), parts);
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
        let lo = *shares.iter().min().unwrap();
        let hi = *shares.iter().max().unwrap();
        prop_assert!(hi - lo <= 1, "shares differ by at most one: {lo}..{hi}");
    }
}
