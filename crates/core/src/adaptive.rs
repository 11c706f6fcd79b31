//! Adaptive sampling: run device batches until a target confidence is
//! reached or a budget is exhausted.
//!
//! The paper's system model is "gather more samples within a given time
//! budget" (Section 3.1). This extension closes the loop: batches of
//! samples run until the normal-approximation 95% confidence interval of
//! the HT estimate is tighter than `target_rel_ci`, or the sample/time
//! budget runs out. The CI is exact for independent samples and a
//! heuristic under sample inheritance (leaf contributions within a warp
//! round are correlated).

use std::time::Instant;

use gsword_engine::{runtime_for, spawn_estimate, EngineConfig};
use gsword_estimators::{Estimate, Estimator, QueryCtx};
use gsword_simt::{KernelCounters, ProfReport};

/// Stopping rules for [`run_adaptive`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Target relative half-width of the 95% CI (e.g. 0.05 = ±5%).
    pub target_rel_ci: f64,
    /// Samples per batch.
    pub batch: u64,
    /// Hard cap on total samples (0 = unlimited).
    pub max_samples: u64,
    /// Hard cap on wall-clock milliseconds (0 = unlimited).
    pub max_wall_ms: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_rel_ci: 0.05,
            batch: 50_000,
            max_samples: 10_000_000,
            max_wall_ms: 0.0,
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Merged estimate across batches.
    pub estimate: Estimate,
    /// Whether the CI target was met (false ⇒ a budget stopped the run).
    pub converged: bool,
    /// Batches executed.
    pub batches: u32,
    /// Merged device counters.
    pub counters: KernelCounters,
    /// Total modeled device milliseconds.
    pub modeled_ms: f64,
    /// Total wall-clock milliseconds.
    pub wall_ms: f64,
    /// Profiler output across every batch, when the engine configuration
    /// ran with `profile` (the shared runtime records all batches on one
    /// timeline).
    pub prof: Option<ProfReport>,
}

/// Run sampling batches until the estimate's relative 95% CI falls below
/// the target or a budget trips. Each batch derives its seed from the
/// batch index, so the run is deterministic — and invariant in the device
/// runtime topology, which only changes where batches execute.
///
/// All batches run inside one [`Runtime::scope`](gsword_simt::Runtime::scope),
/// so the stream threads are spawned once per run, not once per batch.
pub fn run_adaptive<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    engine: &EngineConfig,
    cfg: &AdaptiveConfig,
) -> AdaptiveReport {
    assert!(cfg.target_rel_ci > 0.0, "CI target must be positive");
    assert!(cfg.batch > 0, "batch size must be positive");
    let t0 = Instant::now();
    let mut estimate = Estimate::default();
    let mut counters = KernelCounters::default();
    let mut modeled_ms = 0.0;
    let mut batches = 0u32;
    let mut converged = false;
    let runtime = runtime_for(engine);
    runtime.scope(|rs| loop {
        let batch_cfg = EngineConfig {
            samples: cfg.batch,
            seed: engine.seed.wrapping_add(0xADA0 + batches as u64),
            ..*engine
        };
        let r = spawn_estimate(rs, ctx, est, &batch_cfg).wait_report(&batch_cfg);
        estimate.merge(&r.estimate);
        counters.merge(&r.counters);
        modeled_ms += r.modeled_ms;
        batches += 1;

        if estimate.valid > 0 && estimate.rel_ci95() <= cfg.target_rel_ci {
            converged = true;
            break;
        }
        if cfg.max_samples > 0 && estimate.samples >= cfg.max_samples {
            break;
        }
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        if cfg.max_wall_ms > 0.0 && wall >= cfg.max_wall_ms {
            break;
        }
    });
    AdaptiveReport {
        estimate,
        converged,
        batches,
        counters,
        modeled_ms,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        prof: runtime
            .profiler()
            .enabled()
            .then(|| runtime.profiler().report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_candidate::{build_candidate_graph, BuildConfig};
    use gsword_estimators::Alley;
    use gsword_query::{quicksi_order, QueryGraph};
    use gsword_simt::DeviceConfig;

    fn small_engine() -> EngineConfig {
        EngineConfig::gsword(0).with_device(DeviceConfig {
            num_blocks: 2,
            threads_per_block: 64,
        })
    }

    #[test]
    fn converges_on_easy_queries() {
        let data = gsword_graph::datasets::dataset("yeast");
        let query = QueryGraph::extract(&data, 4, 5).expect("query");
        let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
        let order = quicksi_order(&query, &data);
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        let r = run_adaptive(
            &ctx,
            &Alley,
            &small_engine(),
            &AdaptiveConfig {
                target_rel_ci: 0.2,
                batch: 10_000,
                max_samples: 500_000,
                max_wall_ms: 0.0,
            },
        );
        assert!(
            r.converged,
            "4-vertex yeast query should converge: {:?}",
            r.estimate
        );
        assert!(r.estimate.rel_ci95() <= 0.2);
        assert!(r.batches >= 1);
    }

    #[test]
    fn sample_budget_stops_hard_queries() {
        let data = gsword_graph::datasets::dataset("wordnet");
        let query = QueryGraph::extract(&data, 16, 0).expect("query");
        let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
        let order = quicksi_order(&query, &data);
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        let r = run_adaptive(
            &ctx,
            &Alley,
            &small_engine(),
            &AdaptiveConfig {
                target_rel_ci: 0.001, // unreachable at this budget
                batch: 2_000,
                max_samples: 6_000,
                max_wall_ms: 0.0,
            },
        );
        assert!(!r.converged);
        assert_eq!(r.estimate.samples, 6_000);
        assert_eq!(r.batches, 3);
    }

    #[test]
    #[should_panic(expected = "CI target must be positive")]
    fn rejects_zero_target() {
        let data = gsword_graph::datasets::dataset("yeast");
        let query = QueryGraph::extract(&data, 4, 5).expect("query");
        let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
        let order = quicksi_order(&query, &data);
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        run_adaptive(
            &ctx,
            &Alley,
            &small_engine(),
            &AdaptiveConfig {
                target_rel_ci: 0.0,
                ..AdaptiveConfig::default()
            },
        );
    }
}
