//! The full optimization matrix: every combination of inheritance ×
//! streaming × sync × pool must produce a consistent estimate — including
//! the off-diagonal combinations no preset covers (streaming without
//! inheritance, pool with iteration sync, …).

use gsword::prelude::*;

fn small_device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    }
}

fn fixture() -> (Graph, QueryGraph, f64) {
    let data = gsword::datasets::dataset("hprd");
    let query = QueryGraph::extract(&data, 5, 0xAA).expect("query");
    let truth = exact_count(&data, &query, 400_000_000, 0).expect("exact") as f64;
    (data, query, truth)
}

#[test]
fn every_flag_combination_is_consistent() {
    let (data, query, truth) = fixture();
    if truth == 0.0 {
        return;
    }
    let mut checked = 0;
    for inheritance in [false, true] {
        for streaming in [false, true] {
            for pool in [PoolMode::BlockPool, PoolMode::Static] {
                // Iteration sync does not compose with the warp-round
                // optimizations (lanes sit at different depths), matching
                // the system's design; test it separately below.
                let cfg = EngineConfig {
                    inheritance,
                    streaming,
                    pool,
                    sync: SyncMode::SampleSync,
                    ..EngineConfig::o0(0)
                };
                let r = Gsword::builder(&data, &query)
                    .samples(60_000)
                    .backend(Backend::Device(cfg))
                    .device(small_device())
                    .seed(0xC0)
                    .run()
                    .expect("run");
                assert_eq!(r.sampler.samples, 60_000);
                assert!(
                    r.q_error(truth) < 2.5,
                    "inh={inheritance} str={streaming} {pool:?}: {} vs {truth}",
                    r.estimate
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 8);
}

#[test]
fn iteration_sync_with_both_pools() {
    let (data, query, truth) = fixture();
    for pool in [PoolMode::BlockPool, PoolMode::Static] {
        let cfg = EngineConfig {
            pool,
            ..EngineConfig::iteration_sync(0)
        };
        let r = Gsword::builder(&data, &query)
            .samples(60_000)
            .backend(Backend::Device(cfg))
            .device(small_device())
            .seed(0xC1)
            .run()
            .expect("run");
        assert_eq!(r.sampler.samples, 60_000, "{pool:?}");
        if truth > 0.0 {
            assert!(
                r.q_error(truth) < 2.5,
                "{pool:?}: {} vs {truth}",
                r.estimate
            );
        }
    }
}

#[test]
fn streaming_without_inheritance_still_unbiased_on_skewed_graph() {
    // Streaming-only (no preset covers it): the reservoir invariant must
    // hold independently of inheritance.
    let data = gsword::datasets::dataset("eu2005");
    let query = QueryGraph::extract(&data, 4, 0x5E).expect("query");
    let Some(truth) = exact_count(&data, &query, 400_000_000, 0) else {
        return;
    };
    if truth == 0 {
        return;
    }
    let cfg = EngineConfig {
        streaming: true,
        inheritance: false,
        ..EngineConfig::o0(0)
    };
    let r = Gsword::builder(&data, &query)
        .samples(80_000)
        .estimator(EstimatorKind::Alley)
        .backend(Backend::Device(cfg))
        .device(small_device())
        .seed(0xC2)
        .run()
        .expect("run");
    assert!(
        r.q_error(truth as f64) < 2.0,
        "streaming-only: {} vs {truth}",
        r.estimate
    );
}

#[test]
fn tiny_budgets_and_odd_geometries() {
    let (data, query, _) = fixture();
    // Fewer samples than lanes; more blocks than samples; single warp.
    for (samples, blocks, tpb) in [(1u64, 4, 32), (7, 8, 64), (31, 1, 32), (33, 1, 32)] {
        for backend in [Backend::Gsword, Backend::GpuBaseline] {
            let r = Gsword::builder(&data, &query)
                .samples(samples)
                .backend(backend)
                .device(DeviceConfig {
                    num_blocks: blocks,
                    threads_per_block: tpb,
                })
                .run()
                .expect("run");
            assert_eq!(
                r.sampler.samples, samples,
                "samples={samples} blocks={blocks} tpb={tpb} {backend:?}"
            );
        }
    }
}

#[test]
fn adaptive_mode_respects_wall_budget() {
    let (data, query, _) = fixture();
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);
    let engine = EngineConfig::gsword(0).with_device(small_device());
    let r = run_adaptive(
        &ctx,
        &Alley,
        &engine,
        &AdaptiveConfig {
            target_rel_ci: 1e-9, // unreachable
            batch: 1_000,
            max_samples: 0,
            max_wall_ms: 50.0,
        },
    );
    assert!(!r.converged);
    assert!(r.wall_ms >= 50.0, "budget should be the binding constraint");
    assert!(r.batches >= 1);
}
