//! Embedding *listing*: enumerate actual instances, not just the count.
//!
//! The paper's downstream applications (graph kernels, probabilistic
//! models) consume instances. The listing walker shares the counting
//! search's pruning but hands each embedding to a visitor, which can stop
//! the search early (top-k retrieval, reservoir sampling of instances, …).

use std::ops::ControlFlow;

use gsword_estimators::{QueryCtx, Segment};
use gsword_graph::VertexId;

use crate::{in_other_segments, resolve_node};

/// Visit every embedding of the query (as data vertices ordered by
/// matching-order position). The visitor returns
/// [`ControlFlow::Break`] to stop the search. Returns the number of
/// embeddings visited.
pub fn for_each_embedding<F>(ctx: &QueryCtx<'_>, mut visitor: F) -> u64
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    let mut prefix = Vec::with_capacity(ctx.len());
    let mut segs = vec![Vec::new(); ctx.len()];
    let mut visited = 0u64;
    let _ = walk(ctx, &mut prefix, &mut segs, &mut visitor, &mut visited);
    visited
}

/// Extend `prefix` at depth `d = prefix.len()`; `segs[0]` takes the
/// resolved backward segments of the depth-`d` node, and the rest those of
/// the nodes below it.
fn walk<'b, F>(
    ctx: &QueryCtx<'b>,
    prefix: &mut Vec<VertexId>,
    segs: &mut [Vec<Segment<'b>>],
    visitor: &mut F,
    visited: &mut u64,
) -> ControlFlow<()>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    let d = prefix.len();
    if d == ctx.len() {
        *visited += 1;
        return visitor(prefix);
    }
    let (node, deeper) = segs.split_first_mut().expect("one buffer per depth");
    let (cand, min) = resolve_node(ctx, prefix, d, node);
    for &v in cand {
        if prefix.contains(&v) {
            continue;
        }
        if in_other_segments(node, min, v) {
            prefix.push(v);
            let flow = walk(ctx, prefix, deeper, visitor, visited);
            prefix.pop();
            flow?;
        }
    }
    ControlFlow::Continue(())
}

/// Collect up to `limit` embeddings (in search order). `limit == 0`
/// collects everything — only do that when the count is known to be small.
pub fn collect_embeddings(ctx: &QueryCtx<'_>, limit: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    for_each_embedding(ctx, |emb| {
        out.push(emb.to_vec());
        if limit != 0 && out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_instances, EnumLimits};
    use gsword_candidate::{build_candidate_graph, BuildConfig};
    use gsword_graph::GraphBuilder;
    use gsword_query::{MatchingOrder, QueryGraph};

    fn fixture() -> (gsword_candidate::CandidateGraph, QueryGraph) {
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
    fn listing_agrees_with_counting() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        let count = count_instances(&ctx, EnumLimits::unlimited()).count;
        let listed = collect_embeddings(&ctx, 0);
        assert_eq!(listed.len() as u64, count);
        // Every listed embedding is a valid triangle of distinct vertices.
        for emb in &listed {
            assert_eq!(emb.len(), 3);
            assert_ne!(emb[0], emb[1]);
            assert_ne!(emb[1], emb[2]);
            assert_ne!(emb[0], emb[2]);
        }
        // All embeddings distinct.
        let mut sorted = listed.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), listed.len());
    }

    #[test]
    fn limit_stops_early() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        let some = collect_embeddings(&ctx, 5);
        assert_eq!(some.len(), 5);
    }

    #[test]
    fn visitor_break_is_respected() {
        let (cg, q) = fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = gsword_estimators::QueryCtx::new(&cg, &order);
        let mut seen = 0;
        let visited = for_each_embedding(&ctx, |_| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 3);
    }
}
