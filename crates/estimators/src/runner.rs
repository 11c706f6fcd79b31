//! Sequential and multi-threaded CPU sampling drivers.
//!
//! The parallel driver is the reproduction's stand-in for the paper's
//! CPU baseline (G-CARE with dynamic scheduling): every sample is a task
//! unit; workers grab fixed-size batches off an atomic counter so skewed
//! samples don't imbalance threads. Results are deterministic in the seed
//! because each batch derives its RNG from the batch index, not the worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gsword_graph::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ctx::QueryCtx;
use crate::estimate::Estimate;
use crate::estimators::Estimator;
use crate::sample::SampleState;

/// Samples per scheduling batch in the parallel driver.
const BATCH: u64 = 512;

/// Outcome of a CPU sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRunReport {
    /// Aggregated HT estimate.
    pub estimate: Estimate,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
}

/// Execute one full RSV sample (the inner loop of Algorithm 1), returning
/// `Some(ht_weight)` for a valid full instance and `None` otherwise.
pub fn run_one_sample<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    rng: &mut SmallRng,
    scratch: &mut Vec<VertexId>,
) -> Option<f64> {
    run_partial_sample(ctx, est, rng, scratch, ctx.len()).map(|s| s.ht_weight())
}

/// Execute an RSV sample truncated at `depth` matched vertices, returning
/// the partial instance with its inclusion probability — the GPU-side half
/// of the trawling strategy (Algorithm 4 line 4).
pub fn run_partial_sample<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    rng: &mut SmallRng,
    scratch: &mut Vec<VertexId>,
    depth: usize,
) -> Option<SampleState> {
    let mut s = SampleState::new();
    let mut segs = Vec::with_capacity(8);
    for d in 0..depth.min(ctx.len()) {
        segs.clear();
        ctx.backward_segments(s.prefix(), d, &mut segs);
        let (cand, _) = if d == 0 {
            ctx.root_candidates()
        } else {
            segs[QueryCtx::min_segment_index(&segs)]
        };
        if cand.is_empty() {
            return None;
        }
        let (v, rlen) = if est.needs_refine() && !segs.is_empty() {
            scratch.clear();
            est.refine_into(&segs, cand, scratch);
            if scratch.is_empty() {
                return None;
            }
            (scratch[rng.gen_range(0..scratch.len())], scratch.len())
        } else {
            (cand[rng.gen_range(0..cand.len())], cand.len())
        };
        if !est.validate(&segs, &s, v) {
            return None;
        }
        s.push(v, 1.0 / rlen as f64);
    }
    Some(s)
}

/// Run `n` samples sequentially with the given seed.
pub fn run_sequential<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    n: u64,
    seed: u64,
) -> CpuRunReport {
    let t0 = Instant::now();
    let mut estimate = Estimate::default();
    let mut scratch = Vec::new();
    let batches = n.div_ceil(BATCH);
    for b in 0..batches {
        let count = BATCH.min(n - b * BATCH);
        run_batch(ctx, est, b, count, seed, &mut scratch, &mut estimate);
    }
    CpuRunReport {
        estimate,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run `n` samples across `threads` workers with dynamic batch scheduling.
///
/// Deterministic: produces the same estimate as [`run_sequential`] for the
/// same `(n, seed)` regardless of thread count.
pub fn run_parallel_cpu<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    n: u64,
    seed: u64,
    threads: usize,
) -> CpuRunReport {
    let threads = threads.max(1);
    if threads == 1 {
        return run_sequential(ctx, est, n, seed);
    }
    let t0 = Instant::now();
    let batches = n.div_ceil(BATCH);
    let next = AtomicU64::new(0);
    let partials: Vec<Estimate> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Estimate::default();
                    let mut scratch = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= batches {
                            break;
                        }
                        let count = BATCH.min(n - b * BATCH);
                        run_batch(ctx, est, b, count, seed, &mut scratch, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut estimate = Estimate::default();
    for p in &partials {
        estimate.merge(p);
    }
    CpuRunReport {
        estimate,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn run_batch<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    batch: u64,
    count: u64,
    seed: u64,
    scratch: &mut Vec<VertexId>,
    out: &mut Estimate,
) {
    // Per-batch RNG keyed by batch index → thread-count independence.
    let mut rng = SmallRng::seed_from_u64(seed ^ batch.wrapping_mul(0x9E3779B97F4A7C15));
    for _ in 0..count {
        match run_one_sample(ctx, est, &mut rng, scratch) {
            Some(w) => out.record_valid(w),
            None => out.record_invalid(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{Alley, WanderJoin};
    use gsword_candidate::{build_candidate_graph, BuildConfig, CandidateGraph};
    use gsword_graph::GraphBuilder;
    use gsword_query::{MatchingOrder, QueryGraph};

    /// Double triangle (0-1-2, 1-2-3). A triangle query has exactly 12
    /// embeddings (2 triangles × 3! orderings).
    fn fixture() -> (CandidateGraph, QueryGraph) {
        let mut b = GraphBuilder::with_vertices(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        (cg, q)
    }

    #[test]
    fn estimators_are_unbiased_on_triangles() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        for (name, r) in [
            ("WJ", run_sequential(&ctx, &WanderJoin, 40_000, 7)),
            ("AL", run_sequential(&ctx, &Alley, 40_000, 7)),
        ] {
            let v = r.estimate.value();
            assert!(
                (10.0..14.0).contains(&v),
                "{name}: estimate {v} should be near 12"
            );
        }
    }

    #[test]
    fn alley_success_ratio_at_least_wj() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let wj = run_sequential(&ctx, &WanderJoin, 10_000, 3).estimate;
        let al = run_sequential(&ctx, &Alley, 10_000, 3).estimate;
        assert!(
            al.success_ratio() >= wj.success_ratio(),
            "Alley ({}) should not trail WanderJoin ({})",
            al.success_ratio(),
            wj.success_ratio()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let a = run_sequential(&ctx, &Alley, 5_000, 11).estimate;
        let b = run_sequential(&ctx, &Alley, 5_000, 11).estimate;
        assert_eq!(a, b);
        let c = run_sequential(&ctx, &Alley, 5_000, 12).estimate;
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn parallel_matches_sequential() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let seq = run_sequential(&ctx, &Alley, 13_000, 5).estimate;
        for threads in [2, 4, 8] {
            let par = run_parallel_cpu(&ctx, &Alley, 13_000, 5, threads).estimate;
            assert_eq!(seq.weight_sum, par.weight_sum, "threads={threads}");
            assert_eq!(seq.samples, par.samples);
            assert_eq!(seq.valid, par.valid);
        }
    }

    #[test]
    fn sample_count_is_exact() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        // Non-multiple of the batch size exercises the tail batch.
        let r = run_parallel_cpu(&ctx, &WanderJoin, 1_234, 9, 4);
        assert_eq!(r.estimate.samples, 1_234);
    }
}
