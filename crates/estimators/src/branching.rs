//! Alley's *branching* optimization — CPU-side.
//!
//! The paper's Section 2.2 describes branching: "given a branching factor
//! b, branching samples b vertices at each step, and therefore a sample
//! generates a tree consisting of multiple paths … candidate sets
//! generated in a tree can be shared by multiple paths". gSWORD excludes
//! it from the GPU kernels ("complex control flows and frequent random
//! accesses, making it unsuitable for SIMT"); this module implements it on
//! the CPU, both as the natural companion baseline and as a working
//! demonstration of the dynamic tree bookkeeping that motivated the
//! exclusion.
//!
//! ## Estimator
//!
//! At a tree node with refined candidate set of size `n`, branching draws
//! `min(b, n)` distinct candidates and recurses into each. Drawing `c` of
//! `n` uniformly without replacement and averaging with multiplier `n/c`
//! keeps the Horvitz–Thompson recursion unbiased:
//!
//! ```text
//! R(s) = (n/c) · Σ_{chosen v} R(s ∪ {v})        E[R(s)] = Σ_all R(s ∪ v)
//! ```
//!
//! One tree = one sample in the denominator; its value is the sum of leaf
//! contributions with the per-level `n/c` factors folded into the leaf
//! weights (the same push-down evaluation as Algorithm 2's recursive
//! estimator).

use gsword_graph::VertexId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ctx::QueryCtx;
use crate::estimate::Estimate;
use crate::estimators::Estimator;
use crate::sample::SampleState;

/// Configuration of the branching sampler.
#[derive(Debug, Clone, Copy)]
pub struct BranchingConfig {
    /// Branching factor `b` (Alley's default expands when the candidate
    /// set exceeds 8; we branch whenever the refined set allows it).
    pub factor: usize,
    /// Only branch when the refined set has at least this many candidates
    /// (Alley's threshold of 8).
    pub min_set_for_branch: usize,
    /// Hard cap on terminated paths per tree, bounding the per-sample work
    /// and memory the paper's SIMT discussion worries about.
    pub max_leaves: usize,
}

impl Default for BranchingConfig {
    fn default() -> Self {
        BranchingConfig {
            factor: 4,
            min_set_for_branch: 8,
            max_leaves: 4_096,
        }
    }
}

/// Statistics of one branching run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchingStats {
    /// Tree samples executed.
    pub trees: u64,
    /// Total root-to-leaf paths explored.
    pub paths: u64,
    /// Refine-set computations performed (shared across sibling paths —
    /// compare with `paths × depth` for the flat sampler).
    pub refines: u64,
}

/// Run `trees` branching tree-samples and aggregate the HT estimate.
pub fn run_branching<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    cfg: &BranchingConfig,
    trees: u64,
    seed: u64,
) -> (Estimate, BranchingStats) {
    assert!(cfg.factor >= 1, "branching factor must be at least 1");
    let mut estimate = Estimate::default();
    let mut stats = BranchingStats::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = Vec::new();
    for _ in 0..trees {
        stats.trees += 1;
        let mut tree = TreeWalk {
            ctx,
            est,
            cfg,
            rng: &mut rng,
            scratch: &mut scratch,
            leaves_left: cfg.max_leaves,
            value: 0.0,
            paths: 0,
            refines: 0,
        };
        let s = SampleState::new();
        tree.descend(s, 0);
        if tree.value > 0.0 {
            estimate.record_valid(tree.value);
        } else {
            estimate.record_invalid();
        }
        stats.paths += tree.paths;
        stats.refines += tree.refines;
    }
    (estimate, stats)
}

struct TreeWalk<'a, 'c, E: ?Sized> {
    ctx: &'a QueryCtx<'c>,
    est: &'a E,
    cfg: &'a BranchingConfig,
    rng: &'a mut SmallRng,
    scratch: &'a mut Vec<VertexId>,
    leaves_left: usize,
    value: f64,
    paths: u64,
    refines: u64,
}

impl<'a, 'c, E: Estimator + ?Sized> TreeWalk<'a, 'c, E> {
    /// Extend `s` from depth `d`; accumulates leaf contributions into
    /// `self.value` (with `1/ℙ` weights carried inside `s.prob`).
    fn descend(&mut self, s: SampleState, d: usize) {
        if self.leaves_left == 0 {
            return;
        }
        if d == self.ctx.len() {
            self.leaves_left -= 1;
            self.paths += 1;
            self.value += s.ht_weight();
            return;
        }
        let mut segs = Vec::with_capacity(8);
        self.ctx.backward_segments(s.prefix(), d, &mut segs);
        let (cand, _) = if d == 0 {
            self.ctx.root_candidates()
        } else {
            segs[QueryCtx::min_segment_index(&segs)]
        };
        if cand.is_empty() {
            self.leaves_left = self.leaves_left.saturating_sub(1);
            self.paths += 1;
            return;
        }
        // Refine once; shared by all branches below this node — the
        // sharing that motivates branching.
        let refined: Vec<VertexId> = if self.est.needs_refine() && !segs.is_empty() {
            self.refines += 1;
            self.scratch.clear();
            self.est.refine_into(&segs, cand, self.scratch);
            self.scratch.clone()
        } else {
            cand.to_vec()
        };
        let n = refined.len();
        if n == 0 {
            self.leaves_left = self.leaves_left.saturating_sub(1);
            self.paths += 1;
            return;
        }
        let branch = if n >= self.cfg.min_set_for_branch {
            self.cfg.factor.min(n)
        } else {
            1
        };
        // Draw `branch` distinct indices (partial Fisher–Yates).
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..branch {
            let j = self.rng.gen_range(i..n);
            pool.swap(i, j);
        }
        for &idx in pool.iter().take(branch) {
            let v = refined[idx];
            if !self.est.validate(&segs, &s, v) {
                self.leaves_left = self.leaves_left.saturating_sub(1);
                self.paths += 1;
                continue;
            }
            let mut child = s;
            // Probability of v continuing through this node: c/n, so the
            // HT weight gains n/c (see the module docs).
            child.push(v, branch as f64 / n as f64);
            self.descend(child, d + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{Alley, WanderJoin};
    use crate::runner::run_sequential;
    use gsword_candidate::{build_candidate_graph, BuildConfig};
    use gsword_graph::gen;
    use gsword_query::{quicksi_order, QueryGraph};

    fn fixture() -> (
        gsword_candidate::CandidateGraph,
        QueryGraph,
        gsword_graph::Graph,
    ) {
        let g = gen::erdos_renyi(80, 600, vec![0; 80], 13);
        let q = QueryGraph::new(vec![0; 4], &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        (cg, q, g)
    }

    #[test]
    fn branching_is_unbiased() {
        let (cg, q, g) = fixture();
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let truth = gsword_enumeration_stub::exact(&ctx);
        assert!(truth > 0.0);
        let (est, _) = run_branching(&ctx, &Alley, &BranchingConfig::default(), 8_000, 3);
        let rel = (est.value() - truth).abs() / truth;
        assert!(
            rel < 0.2,
            "branching estimate {} vs truth {truth}",
            est.value()
        );
    }

    #[test]
    fn factor_one_matches_flat_sampler_distribution() {
        let (cg, q, g) = fixture();
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let cfg = BranchingConfig {
            factor: 1,
            ..BranchingConfig::default()
        };
        let (branched, stats) = run_branching(&ctx, &Alley, &cfg, 20_000, 9);
        let flat = run_sequential(&ctx, &Alley, 20_000, 9).estimate;
        // Same estimator, independent streams: estimates agree statistically.
        let ratio = branched.value() / flat.value();
        assert!(
            (0.8..1.25).contains(&ratio),
            "b=1 {} vs flat {}",
            branched.value(),
            flat.value()
        );
        assert_eq!(stats.paths, 20_000, "b=1 trees are single paths");
    }

    #[test]
    fn branching_shares_refines_across_paths() {
        let (cg, q, g) = fixture();
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let cfg = BranchingConfig {
            factor: 4,
            min_set_for_branch: 2,
            max_leaves: 1_000,
        };
        let (_, stats) = run_branching(&ctx, &Alley, &cfg, 2_000, 5);
        assert!(stats.paths > stats.trees, "trees must branch on this graph");
        // The efficiency claim: refine computations per path are below the
        // flat sampler's one-refine-per-path-per-level.
        let refines_per_path = stats.refines as f64 / stats.paths as f64;
        assert!(
            refines_per_path < (ctx.len() - 1) as f64,
            "sharing should cut refines/path below depth: {refines_per_path}"
        );
    }

    #[test]
    fn leaf_cap_bounds_tree_size() {
        let (cg, q, g) = fixture();
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let cfg = BranchingConfig {
            factor: 8,
            min_set_for_branch: 2,
            max_leaves: 16,
        };
        let (_, stats) = run_branching(&ctx, &WanderJoin, &cfg, 100, 1);
        // Each tree stops within factor slack of the cap (siblings already
        // scheduled when the cap trips still terminate).
        assert!(
            stats.paths <= 100 * (16 + 8 * 4),
            "cap keeps trees bounded: {}",
            stats.paths
        );
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn zero_factor_rejected() {
        let (cg, q, g) = fixture();
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let cfg = BranchingConfig {
            factor: 0,
            ..BranchingConfig::default()
        };
        run_branching(&ctx, &Alley, &cfg, 1, 1);
    }

    /// Tiny local exact counter so this crate's tests stay independent of
    /// the enumeration crate (which depends on this one).
    mod gsword_enumeration_stub {
        use super::*;

        pub fn exact(ctx: &QueryCtx<'_>) -> f64 {
            let mut prefix = Vec::new();
            let mut count = 0u64;
            rec(ctx, &mut prefix, 0, &mut count);
            count as f64
        }

        fn rec(ctx: &QueryCtx<'_>, prefix: &mut Vec<VertexId>, d: usize, count: &mut u64) {
            if d == ctx.len() {
                *count += 1;
                return;
            }
            let (cand, _, _) = ctx.min_candidate_prefix(prefix, d);
            for &v in cand {
                if prefix.contains(&v) {
                    continue;
                }
                let ok = ctx.backward(d).iter().all(|be| {
                    ctx.cg
                        .local(be.edge as usize, prefix[be.pos as usize])
                        .binary_search(&v)
                        .is_ok()
                });
                if ok {
                    prefix.push(v);
                    rec(ctx, prefix, d + 1, count);
                    prefix.pop();
                }
            }
        }
    }
}
