//! Exact subgraph enumeration over candidate graphs.
//!
//! The reproduction's stand-in for the CPU enumeration method the paper
//! borrows from the in-depth study (Sun & Luo, ref. 36): backtracking along the matching
//! order, drawing extension candidates from the minimum local candidate
//! set and checking every backward edge. Three roles:
//!
//! * **Ground truth** — exact counts for q-error evaluation,
//! * **Trawling** — counting the completions of a sampled partial instance
//!   (Algorithm 4's `Enumeration(cg, s)`), and
//! * **Preemption** — the co-processing pipeline aborts CPU enumeration
//!   when the GPU batch completes, so every entry point honors a stop flag
//!   and a node budget.
//!
//! The [`naive`] module provides an independent brute-force oracle used by
//! tests across the workspace.

pub mod listing;
pub mod naive;

pub use listing::{collect_embeddings, for_each_embedding};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gsword_estimators::{QueryCtx, Segment};
use gsword_graph::intersect::member;
use gsword_graph::VertexId;

/// Resource limits for an enumeration call.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumLimits<'a> {
    /// Abort after visiting this many search-tree nodes (0 = unlimited).
    pub node_budget: u64,
    /// Cooperative stop flag checked throughout the search (the
    /// co-processing batch timeout).
    pub stop: Option<&'a AtomicBool>,
}

impl<'a> EnumLimits<'a> {
    /// Unlimited enumeration.
    pub fn unlimited() -> Self {
        EnumLimits::default()
    }

    /// Limit only the node budget.
    pub fn budget(nodes: u64) -> Self {
        EnumLimits {
            node_budget: nodes,
            stop: None,
        }
    }
}

/// Result of an enumeration call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOutcome {
    /// Embeddings counted before completion or abort.
    pub count: u64,
    /// Whether the search space was exhausted (false ⇒ `count` is a lower
    /// bound).
    pub complete: bool,
    /// Search-tree nodes visited.
    pub nodes: u64,
}

struct Search<'a, 'b> {
    ctx: &'a QueryCtx<'b>,
    limits: EnumLimits<'a>,
    nodes: u64,
    count: u64,
    aborted: bool,
    /// The resolved backward segments of each depth's search node.
    segs: Vec<Vec<Segment<'b>>>,
}

impl<'a, 'b> Search<'a, 'b> {
    fn should_stop(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        if self.limits.node_budget != 0 && self.nodes >= self.limits.node_budget {
            self.aborted = true;
            return true;
        }
        // Poll the flag periodically, not per node.
        if self.nodes.is_multiple_of(1024) {
            if let Some(stop) = self.limits.stop {
                if stop.load(Ordering::Relaxed) {
                    self.aborted = true;
                    return true;
                }
            }
        }
        false
    }

    fn recurse(&mut self, prefix: &mut Vec<VertexId>, d: usize) {
        if self.should_stop() {
            return;
        }
        if d == self.ctx.len() {
            self.count += 1;
            return;
        }
        let mut segs = std::mem::take(&mut self.segs[d]);
        let (cand, min) = resolve_node(self.ctx, prefix, d, &mut segs);
        for &v in cand {
            self.nodes += 1;
            if self.should_stop() {
                break;
            }
            if prefix.contains(&v) {
                continue;
            }
            if in_other_segments(&segs, min, v) {
                prefix.push(v);
                self.recurse(prefix, d + 1);
                prefix.pop();
            }
        }
        self.segs[d] = segs;
    }
}

/// Resolve the search node at depth `d` once: its backward segments into
/// `segs`, and the candidates to draw from, with the index of the segment
/// they are (`usize::MAX` at the root, whose candidates are `C(φ[0])`).
fn resolve_node<'b>(
    ctx: &QueryCtx<'b>,
    prefix: &[VertexId],
    d: usize,
    segs: &mut Vec<Segment<'b>>,
) -> (&'b [VertexId], usize) {
    segs.clear();
    if d == 0 {
        return (ctx.root_candidates().0, usize::MAX);
    }
    ctx.backward_segments(prefix, d, segs);
    let min = QueryCtx::min_segment_index(segs);
    (segs[min].0, min)
}

/// Whether `v`, drawn from segment `min`, lies in every other backward
/// segment of its node: the candidate-graph edges to all matched
/// neighbors.
fn in_other_segments(segs: &[Segment<'_>], min: usize, v: VertexId) -> bool {
    segs.iter()
        .enumerate()
        .all(|(i, (seg, _))| i == min || member(seg, v))
}

/// Count all embeddings of the query in the candidate graph.
pub fn count_instances(ctx: &QueryCtx<'_>, limits: EnumLimits<'_>) -> EnumOutcome {
    count_extensions(ctx, &[], limits)
}

/// Count the embeddings extending a (valid) partial instance covering the
/// first `prefix.len()` matching-order positions — Algorithm 4's
/// `Enumeration(cg, s)`.
pub fn count_extensions(
    ctx: &QueryCtx<'_>,
    prefix: &[VertexId],
    limits: EnumLimits<'_>,
) -> EnumOutcome {
    let mut search = Search {
        ctx,
        limits,
        nodes: 0,
        count: 0,
        aborted: false,
        segs: vec![Vec::new(); ctx.len()],
    };
    let mut p = prefix.to_vec();
    p.reserve(ctx.len());
    search.recurse(&mut p, prefix.len());
    EnumOutcome {
        count: search.count,
        complete: !search.aborted,
        nodes: search.nodes,
    }
}

/// Count all embeddings, splitting the root-level candidates over
/// `threads` workers. Node budget applies per worker; the stop flag is
/// shared.
pub fn count_instances_parallel(
    ctx: &QueryCtx<'_>,
    limits: EnumLimits<'_>,
    threads: usize,
) -> EnumOutcome {
    let threads = threads.max(1);
    let (roots, _, _) = ctx.min_candidate_prefix(&[], 0);
    if threads == 1 || roots.len() < 2 {
        return count_instances(ctx, limits);
    }
    let next = AtomicU64::new(0);
    let outcomes: Vec<EnumOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut total = EnumOutcome {
                        count: 0,
                        complete: true,
                        nodes: 0,
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= roots.len() {
                            break;
                        }
                        let sub = count_extensions(ctx, &roots[i..=i], limits);
                        total.count += sub.count;
                        total.nodes += sub.nodes + 1;
                        total.complete &= sub.complete;
                    }
                    total
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enum worker panicked"))
            .collect()
    });

    let mut total = EnumOutcome {
        count: 0,
        complete: true,
        nodes: 0,
    };
    for o in outcomes {
        total.count += o.count;
        total.nodes += o.nodes;
        total.complete &= o.complete;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_candidate::{build_candidate_graph, BuildConfig};
    use gsword_graph::{gen, GraphBuilder};
    use gsword_query::{quicksi_order, MatchingOrder, QueryGraph};

    #[test]
    fn triangle_count_on_double_triangle() {
        let mut b = GraphBuilder::with_vertices(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let out = count_instances(&ctx, EnumLimits::unlimited());
        assert_eq!(out.count, 12);
        assert!(out.complete);
    }

    #[test]
    fn matches_naive_oracle_on_random_graphs() {
        for seed in 0..6u64 {
            let g = gen::erdos_renyi(40, 120, gen::zipf_labels(40, 3, 0.7, seed), seed);
            let Some(q) = QueryGraph::extract(&g, 4, seed ^ 99) else {
                continue;
            };
            let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
            let order = quicksi_order(&q, &g);
            let ctx = QueryCtx::new(&cg, &order);
            let fast = count_instances(&ctx, EnumLimits::unlimited()).count;
            let slow = naive::count_embeddings(&g, &q);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn extension_counts_sum_to_total() {
        let g = gen::erdos_renyi(30, 90, vec![0; 30], 5);
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let total = count_instances(&ctx, EnumLimits::unlimited()).count;
        let (roots, _, _) = ctx.min_candidate_prefix(&[], 0);
        let sum: u64 = roots
            .iter()
            .map(|&v| count_extensions(&ctx, &[v], EnumLimits::unlimited()).count)
            .sum();
        assert_eq!(total, sum);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = gen::barabasi_albert(200, 5, gen::zipf_labels(200, 4, 0.8, 2), 2);
        let q = QueryGraph::extract(&g, 5, 3).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let seq = count_instances(&ctx, EnumLimits::unlimited());
        let par = count_instances_parallel(&ctx, EnumLimits::unlimited(), 4);
        assert_eq!(seq.count, par.count);
        assert!(par.complete);
    }

    #[test]
    fn node_budget_aborts_with_lower_bound() {
        let g = gen::erdos_renyi(100, 800, vec![0; 100], 7);
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let full = count_instances(&ctx, EnumLimits::unlimited());
        let cut = count_instances(&ctx, EnumLimits::budget(50));
        assert!(!cut.complete);
        assert!(cut.count <= full.count);
        // Each recursion level may add one node before observing the abort.
        assert!(cut.nodes <= 50 + ctx.len() as u64);
    }

    #[test]
    fn stop_flag_preempts() {
        let g = gen::erdos_renyi(100, 800, vec![0; 100], 7);
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let stop = AtomicBool::new(true); // already signaled
        let out = count_instances(
            &ctx,
            EnumLimits {
                node_budget: 0,
                stop: Some(&stop),
            },
        );
        assert!(!out.complete);
        assert_eq!(out.count, 0);
    }
}
