//! End-to-end integration tests spanning every crate: dataset generation →
//! query extraction → candidate graph → device sampling → enumeration →
//! trawling pipeline.

use gsword::prelude::*;

fn small_device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    }
}

#[test]
fn full_stack_on_every_dataset() {
    for name in gsword::datasets::dataset_names() {
        let data = gsword::datasets::dataset(name);
        let Some(query) = QueryGraph::extract(&data, 4, 0x1234) else {
            panic!("{name}: 4-vertex query extraction failed");
        };
        let report = Gsword::builder(&data, &query)
            .samples(5_000)
            .device(small_device())
            .seed(1)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.estimate.is_finite(), "{name}");
        assert_eq!(report.sampler.samples, 5_000, "{name}");
        assert!(report.candidate_stats.is_some(), "{name}");
    }
}

#[test]
fn estimators_converge_to_exact_counts() {
    let data = gsword::datasets::dataset("yeast");
    for seed in [7u64, 21, 35] {
        let Some(query) = QueryGraph::extract(&data, 4, seed) else {
            continue;
        };
        let truth = exact_count(&data, &query, 0, 2).expect("exact count") as f64;
        if truth == 0.0 {
            continue;
        }
        for kind in [EstimatorKind::WanderJoin, EstimatorKind::Alley] {
            let report = Gsword::builder(&data, &query)
                .samples(150_000)
                .estimator(kind)
                .device(small_device())
                .seed(seed)
                .run()
                .expect("run");
            assert!(
                report.q_error(truth) < 1.8,
                "seed {seed} {kind:?}: estimate {} vs truth {truth}",
                report.estimate
            );
        }
    }
}

#[test]
fn device_backends_match_cpu_statistically() {
    let data = gsword::datasets::dataset("hprd");
    let query = QueryGraph::extract(&data, 6, 0xABCD).expect("query");
    let cpu = Gsword::builder(&data, &query)
        .samples(60_000)
        .backend(Backend::Cpu { threads: 4 })
        .seed(9)
        .run()
        .expect("cpu");
    let dev = Gsword::builder(&data, &query)
        .samples(60_000)
        .backend(Backend::Gsword)
        .device(small_device())
        .seed(9)
        .run()
        .expect("device");
    // Same target, independent streams: estimates agree within sampling
    // noise (both unbiased).
    if cpu.estimate > 0.0 && dev.estimate > 0.0 {
        let ratio = cpu.estimate / dev.estimate;
        assert!(
            (0.4..2.5).contains(&ratio),
            "cpu {} vs device {}",
            cpu.estimate,
            dev.estimate
        );
    }
}

#[test]
fn trawling_beats_plain_sampling_in_the_underestimation_regime() {
    let data = gsword::datasets::dataset("wordnet");
    // 16-vertex queries on the lexical graph: the paper's severe
    // underestimation regime. Find one whose plain estimate collapses.
    let mut tested = 0;
    for seed in 0..10u64 {
        let Some(query) = QueryGraph::extract(&data, 16, seed) else {
            continue;
        };
        let Some(truth) = exact_count(&data, &query, 50_000_000, 0) else {
            continue;
        };
        if truth == 0 {
            continue;
        }
        let truth = truth as f64;
        let plain = Gsword::builder(&data, &query)
            .samples(20_000)
            .backend(Backend::GpuBaseline)
            .device(small_device())
            .seed(seed)
            .run()
            .expect("plain");
        if plain.q_error(truth) <= 5.0 {
            continue;
        }
        let trawled = Gsword::builder(&data, &query)
            .samples(20_000)
            .device(small_device())
            .trawling(TrawlConfig {
                batches: 3,
                cpu_threads: 2,
                per_batch: 32,
                ..TrawlConfig::default()
            })
            .seed(seed)
            .run()
            .expect("trawled");
        tested += 1;
        // Worst case the pipeline falls back to the sampler estimate, so
        // trawling can only help (a small tolerance covers trawl variance).
        assert!(
            trawled.q_error(truth) <= plain.q_error(truth) * 2.0,
            "seed {seed}: trawling {} (q {:.1}) vs plain {} (q {:.1}), truth {truth}",
            trawled.estimate,
            trawled.q_error(truth),
            plain.estimate,
            plain.q_error(truth)
        );
        if tested >= 2 {
            break;
        }
    }
    assert!(tested > 0, "no underestimating query found to test against");
}

#[test]
fn ablation_ladder_is_ordered_on_skewed_data() {
    // O2 should never be slower than O0 per collected sample on a
    // refine-heavy workload (eu2005-like skew + Alley).
    let data = gsword::datasets::dataset("eu2005");
    let query = QueryGraph::extract(&data, 8, 0x77).expect("query");
    let run = |cfg: EngineConfig| {
        Gsword::builder(&data, &query)
            .samples(10_000)
            .backend(Backend::Device(cfg))
            .device(small_device())
            .seed(5)
            .run()
            .expect("run")
    };
    let o0 = run(EngineConfig::o0(0));
    let o2 = run(EngineConfig::o2(0));
    let per = |r: &Report| r.modeled_ms.unwrap() / r.samples_collected as f64;
    assert!(
        per(&o2) <= per(&o0) * 1.05,
        "O2 {:.3e} ms/sample vs O0 {:.3e}",
        per(&o2),
        per(&o0)
    );
}

/// `run()` and `run_custom` share one path: a built-in estimator passed to
/// `run_custom` reproduces `run()` bit for bit, trawling included, and the
/// CPU backend refuses trawling through either entry point.
#[test]
fn run_custom_matches_run_with_and_without_trawling() {
    let data = gsword::datasets::dataset("yeast");
    let query = QueryGraph::extract(&data, 4, 0xFEED).expect("query");
    let builder = |trawling: Option<TrawlConfig>| {
        let b = Gsword::builder(&data, &query)
            .samples(6_000)
            .device(small_device());
        match trawling {
            Some(t) => b.trawling(t),
            None => b,
        }
    };
    let trawl = TrawlConfig {
        batches: 2,
        cpu_threads: 2,
        per_batch: 16,
        ..TrawlConfig::default()
    };
    for trawling in [None, Some(trawl)] {
        let built_in = builder(trawling).run().expect("run");
        let custom = builder(trawling).run_custom(&Alley).expect("run_custom");
        assert_eq!(custom.sampler, built_in.sampler, "trawling {trawling:?}");
        assert_eq!(custom.counters, built_in.counters, "trawling {trawling:?}");
        assert_eq!(
            custom.modeled_ms.map(f64::to_bits),
            built_in.modeled_ms.map(f64::to_bits)
        );
        assert!(custom.candidate_stats.is_some());
        assert!(custom.wall_ms > 0.0);
        if trawling.is_some() {
            assert!(built_in.trawl_completed > 0, "run() trawled");
            assert!(custom.trawl_completed > 0, "run_custom trawled");
            assert!(custom.trawl.is_some());
        } else {
            assert_eq!(custom.trawl_completed, 0);
        }
    }
    let cpu_trawl = builder(Some(trawl))
        .backend(Backend::Cpu { threads: 1 })
        .run_custom(&Alley)
        .unwrap_err();
    assert_eq!(cpu_trawl, Error::TrawlingNeedsDevice);
}
