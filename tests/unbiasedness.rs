//! Statistical unbiasedness harness for the HT estimators.
//!
//! The paper's correctness claim (Theorem 1 for RSV, Section 4.1) is that
//! every configuration of the engine produces an *unbiased* Horvitz-
//! Thompson estimate of the embedding count. These tests check the claim
//! end to end against the independent naive oracle
//! (`gsword-enumeration::naive`): run R independent seeded engine
//! estimates, form the sample mean, and assert the exact count lies
//! inside the 99% confidence interval of that mean. Seeds are fixed, so
//! each test is deterministic — it either passes forever or flags a real
//! bias/regression.
//!
//! The quick variants run in the default suite; `#[ignore]`-gated long
//! variants (more runs, bigger budgets, tighter CIs) are for nightly
//! `cargo test -- --ignored`.

use gsword::prelude::*;

/// z-score of the two-sided 99% confidence interval.
const Z99: f64 = 2.576;

fn triangle() -> QueryGraph {
    QueryGraph::new(vec![0; 3], &[(0, 1), (1, 2), (0, 2)]).expect("triangle query")
}

fn clique4() -> QueryGraph {
    QueryGraph::new(
        vec![0; 4],
        &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )
    .expect("4-clique query")
}

/// Dense-ish uniform-label synthetic graph: small enough for the naive
/// oracle, dense enough that triangles and 4-cliques are plentiful.
fn synthetic(n: usize, m: usize, seed: u64) -> Graph {
    gsword::graph::gen::erdos_renyi(n, m, vec![0; n], seed)
}

fn small_device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    }
}

/// R independent seeded estimates of `query` on `data` under `cfg`'s
/// engine configuration (seed is overridden per run).
fn seeded_estimates<E: Estimator + ?Sized>(
    data: &Graph,
    query: &QueryGraph,
    est: &E,
    base_cfg: EngineConfig,
    runs: u64,
) -> Vec<f64> {
    let (cg, _) = build_candidate_graph(data, query, &BuildConfig::default());
    let order = quicksi_order(query, data);
    let ctx = QueryCtx::new(&cg, &order);
    (0..runs)
        .map(|r| {
            let cfg = base_cfg.with_seed(0xB1A5_0000 + r * 7919);
            run_engine(&ctx, est, &cfg).value()
        })
        .collect()
}

/// Assert `truth` falls inside the 99% CI of the sample mean of
/// `estimates` (normal approximation over R independent runs).
fn assert_truth_in_ci99(estimates: &[f64], truth: f64, label: &str) {
    let n = estimates.len() as f64;
    assert!(n >= 2.0, "need at least two runs");
    let mean = estimates.iter().sum::<f64>() / n;
    let var = estimates.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    let dev = (mean - truth).abs();
    // With zero sample variance the estimator collapsed to a constant —
    // only exact equality is unbiased then.
    let half_width = Z99 * se + truth * 1e-9;
    assert!(
        dev <= half_width,
        "{label}: truth {truth} outside 99% CI — mean {mean:.2} ± {half_width:.2} \
         (se {se:.2}, {} runs)",
        estimates.len()
    );
    // A CI wider than the count itself would make the check vacuous.
    assert!(
        truth == 0.0 || half_width < truth,
        "{label}: CI half-width {half_width:.2} swamps truth {truth} — raise the budget"
    );
}

fn check(query: QueryGraph, est_kind: &str, samples: u64, runs: u64, data_seed: u64) {
    let data = synthetic(24, 130, data_seed);
    let truth = gsword::enumeration::naive::count_embeddings(&data, &query) as f64;
    assert!(truth > 0.0, "fixture must contain the pattern");
    let cfg = EngineConfig::gsword(samples).with_device(small_device());
    let estimates = match est_kind {
        "wj" => seeded_estimates(&data, &query, &WanderJoin, cfg, runs),
        "alley" => seeded_estimates(&data, &query, &Alley, cfg, runs),
        other => panic!("unknown estimator {other}"),
    };
    let label = format!("{est_kind} / {}-vertex query", query.num_vertices());
    assert_truth_in_ci99(&estimates, truth, &label);
}

#[test]
fn wj_triangle_is_unbiased() {
    check(triangle(), "wj", 8_000, 24, 0xD5EA);
}

#[test]
fn wj_clique4_is_unbiased() {
    check(clique4(), "wj", 6_000, 20, 0xD5EA);
}

#[test]
fn alley_triangle_is_unbiased() {
    check(triangle(), "alley", 4_000, 20, 0xD5EA);
}

#[test]
fn alley_clique4_is_unbiased() {
    check(clique4(), "alley", 6_000, 20, 0xD5EA);
}

/// The baseline configuration (static assignment, iteration sync) must be
/// just as unbiased — the optimizations change scheduling, not weights.
#[test]
fn baseline_kernel_is_unbiased_too() {
    let data = synthetic(24, 130, 0xD5EA);
    let query = triangle();
    let truth = gsword::enumeration::naive::count_embeddings(&data, &query) as f64;
    let cfg = EngineConfig::gpu_baseline(4_000).with_device(small_device());
    let estimates = seeded_estimates(&data, &query, &Alley, cfg, 20);
    assert_truth_in_ci99(&estimates, truth, "baseline alley / triangle");
}

/// Nightly: more runs and samples on a bigger graph (`--ignored`).
#[test]
#[ignore = "long nightly variant"]
fn wj_triangle_is_unbiased_long() {
    let data = synthetic(40, 360, 0xFEED);
    let query = triangle();
    let truth = gsword::enumeration::naive::count_embeddings(&data, &query) as f64;
    let cfg = EngineConfig::gsword(20_000).with_device(small_device());
    let estimates = seeded_estimates(&data, &query, &WanderJoin, cfg, 64);
    assert_truth_in_ci99(&estimates, truth, "wj / triangle (long)");
}

/// Nightly: 4-clique at a budget that tightens the CI well below truth.
#[test]
#[ignore = "long nightly variant"]
fn alley_clique4_is_unbiased_long() {
    let data = synthetic(40, 360, 0xFEED);
    let query = clique4();
    let truth = gsword::enumeration::naive::count_embeddings(&data, &query) as f64;
    let cfg = EngineConfig::gsword(30_000).with_device(small_device());
    let estimates = seeded_estimates(&data, &query, &Alley, cfg, 64);
    assert_truth_in_ci99(&estimates, truth, "alley / 4-clique (long)");
}
