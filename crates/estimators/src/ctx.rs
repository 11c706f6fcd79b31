//! Per-query execution context: candidate graph + matching order with
//! precomputed backward-edge tables and rank indexes over the candidate
//! sets backward edges start from, and `GetMinCandidate`.

use gsword_candidate::CandidateGraph;
use gsword_graph::VertexId;
use gsword_query::{MatchingOrder, QueryVertex};

use crate::sample::SampleState;

/// A backward constraint of an order position: the earlier position `pos`
/// and the directed candidate-graph edge index `edge` from that position's
/// query vertex to the current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackwardEdge {
    /// Earlier matching-order position.
    pub pos: u8,
    /// Directed edge index `φ[pos] → φ[i]` in the candidate graph.
    pub edge: u32,
}

/// A resolved backward constraint at sampling time: the local candidate
/// set (`C(u', u, v')`) plus its element offset inside the backing array
/// (for the SIMT memory model).
pub type Segment<'a> = (&'a [VertexId], usize);

/// The fewest candidates a [`RankIndex`] bucket holds on average: the
/// index then takes at most a byte per candidate, and a lookup searches a
/// few ids that usually share one cache line.
const CANDIDATES_PER_BUCKET: u64 = 4;

/// Ranks of data vertices in one sorted candidate set `C(u)`, found in
/// constant expected time. The ids from the smallest candidate `lo` up are
/// cut into buckets of `2^shift` ids, the narrowest that make no more than
/// `|C(u)| / CANDIDATES_PER_BUCKET` buckets (and at least one), and
/// `starts[b]` is the rank of the first candidate in bucket `b` or later; a
/// lookup searches only its bucket. No table is sized by `|V|`.
#[derive(Debug, Clone, Default)]
struct RankIndex<'a> {
    set: &'a [VertexId],
    lo: VertexId,
    shift: u32,
    starts: Vec<u32>,
}

impl<'a> RankIndex<'a> {
    /// Index `set` (sorted, distinct) in one pass over it and one over the
    /// buckets, with no data-dependent branch.
    fn new(set: &'a [VertexId]) -> Self {
        let (Some(&lo), Some(&hi)) = (set.first(), set.last()) else {
            return RankIndex::default();
        };
        let span = u64::from(hi - lo);
        let most = (set.len() as u64 / CANDIDATES_PER_BUCKET).max(1);
        let mut shift = 0;
        while span >> shift >= most {
            shift += 1;
        }
        let buckets = (span >> shift) as usize + 1;
        // `starts[b + 1]` first takes the end of bucket `b`'s ranks (0 while
        // empty); a running maximum then turns ends into starts.
        let mut starts = vec![0u32; buckets + 1];
        for (rank, &v) in set.iter().enumerate() {
            starts[(u64::from(v - lo) >> shift) as usize + 1] = rank as u32 + 1;
        }
        let mut end = 0;
        for s in &mut starts {
            end = end.max(*s);
            *s = end;
        }
        RankIndex {
            set,
            lo,
            shift,
            starts,
        }
    }

    /// The rank of `v` in the set, or `None` when `v` is no member.
    #[inline]
    fn rank(&self, v: VertexId) -> Option<usize> {
        let b = (u64::from(v.checked_sub(self.lo)?) >> self.shift) as usize;
        let (&s, &e) = (self.starts.get(b)?, self.starts.get(b + 1)?);
        let (s, e) = (s as usize, e as usize);
        self.set[s..e].binary_search(&v).ok().map(|p| s + p)
    }
}

/// Everything a sampler needs to execute one query: the candidate graph,
/// the matching order, and per-position backward edges resolved to
/// candidate-graph edge indices.
#[derive(Debug, Clone)]
pub struct QueryCtx<'a> {
    /// The candidate graph being sampled.
    pub cg: &'a CandidateGraph,
    /// The matching order `φ`.
    pub order: &'a MatchingOrder,
    backward: Vec<Vec<BackwardEdge>>,
    /// Per order position, the rank index of its `C(u)`; empty at
    /// positions no backward edge starts from.
    ranks: Vec<RankIndex<'a>>,
}

impl<'a> QueryCtx<'a> {
    /// Build the context. Panics if `order` and `cg` disagree on the query
    /// (an edge of the order's query is missing from the candidate graph).
    pub fn new(cg: &'a CandidateGraph, order: &'a MatchingOrder) -> Self {
        assert_eq!(cg.num_query_vertices(), order.len());
        let backward: Vec<Vec<BackwardEdge>> = (0..order.len())
            .map(|i| {
                order
                    .backward_positions(i)
                    .iter()
                    .map(|&j| {
                        let u_from = order.vertex_at(j as usize);
                        let u_to = order.vertex_at(i);
                        let edge = cg
                            .edge_index(u_from, u_to)
                            .expect("order edge must exist in candidate graph")
                            as u32;
                        BackwardEdge { pos: j, edge }
                    })
                    .collect()
            })
            .collect();
        let mut ranks = vec![RankIndex::default(); order.len()];
        for be in backward.iter().flatten() {
            let pos = be.pos as usize;
            if ranks[pos].set.is_empty() {
                ranks[pos] = RankIndex::new(cg.global(order.vertex_at(pos)));
            }
        }
        QueryCtx {
            cg,
            order,
            backward,
            ranks,
        }
    }

    /// Number of matching-order positions (query vertices).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the query is empty (never for valid queries).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Query vertex at position `i`.
    #[inline]
    pub fn vertex_at(&self, i: usize) -> QueryVertex {
        self.order.vertex_at(i)
    }

    /// The backward constraints of position `i`.
    #[inline]
    pub fn backward(&self, i: usize) -> &[BackwardEdge] {
        &self.backward[i]
    }

    /// Resolve the backward constraints of position `d` against a matched
    /// prefix into local candidate segments, appended to `out` in
    /// [`QueryCtx::backward`] order. Empty for `d == 0`.
    #[inline]
    pub fn backward_segments(&self, prefix: &[VertexId], d: usize, out: &mut Vec<Segment<'a>>) {
        for be in &self.backward[d] {
            out.push(self.resolve(be, prefix));
        }
    }

    /// The local candidate segment of one backward edge for the vertex the
    /// prefix matched at its source position: what
    /// [`CandidateGraph::local_with_addr`] returns, found through the rank
    /// index instead of a binary search of `C(u)`.
    #[inline]
    fn resolve(&self, be: &BackwardEdge, prefix: &[VertexId]) -> Segment<'a> {
        let pos = be.pos as usize;
        match self.ranks[pos].rank(prefix[pos]) {
            Some(rank) => self.cg.local_by_rank(be.edge as usize, rank),
            None => (&[], 0),
        }
    }

    /// The global candidate segment of the root position (`d == 0`).
    #[inline]
    pub fn root_candidates(&self) -> Segment<'a> {
        self.cg.global_with_addr(self.vertex_at(0))
    }

    /// `GetMinCandidate` (Algorithm 1, line 8): the smallest candidate set
    /// for extending `s` at position `d`, together with the element offset
    /// of the set inside its backing array and whether it is a global set
    /// (`d == 0`) or a local one.
    ///
    /// Returns an empty slice when some backward constraint has no
    /// compatible neighbors — the sample is then invalid.
    pub fn min_candidate(&self, s: &SampleState, d: usize) -> (&'a [VertexId], usize, bool) {
        self.min_candidate_prefix(s.prefix(), d)
    }

    /// [`QueryCtx::min_candidate`] over a bare matched prefix (used by the
    /// exact enumerator, which carries no probability state).
    pub fn min_candidate_prefix(
        &self,
        prefix: &[VertexId],
        d: usize,
    ) -> (&'a [VertexId], usize, bool) {
        if d == 0 {
            let (set, addr) = self.root_candidates();
            return (set, addr, true);
        }
        let mut best: Option<Segment<'a>> = None;
        for be in &self.backward[d] {
            let (set, addr) = self.resolve(be, prefix);
            match best {
                Some((b, _)) if b.len() <= set.len() => {}
                _ => best = Some((set, addr)),
            }
            if set.is_empty() {
                break; // cannot do better than empty
            }
        }
        let (set, addr) = best.expect("every position d ≥ 1 has a backward edge");
        (set, addr, false)
    }

    /// Index of the first minimal-length segment among resolved backward
    /// segments: the one a position's candidates are drawn from. Every
    /// sampler picks it through this function, so the device engine can
    /// skip exactly this segment when it searches the others in Refine.
    pub fn min_segment_index(segs: &[Segment<'_>]) -> usize {
        segs.iter()
            .enumerate()
            .min_by_key(|(_, (seg, _))| seg.len())
            .expect("positions d ≥ 1 always have a backward segment")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_candidate::{build_candidate_graph, BuildConfig};
    use gsword_graph::{Graph, GraphBuilder};
    use gsword_query::QueryGraph;

    fn setup() -> (Graph, QueryGraph) {
        // Two triangles sharing an edge: 0-1-2, 1-2-3; labels all 0.
        let mut b = GraphBuilder::with_vertices(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        (g, q)
    }

    #[test]
    fn backward_edges_resolve() {
        let (g, q) = setup();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        assert_eq!(ctx.backward(0).len(), 0);
        assert_eq!(ctx.backward(1).len(), 1);
        assert_eq!(ctx.backward(2).len(), 2);
        assert_eq!(ctx.backward(1)[0].pos, 0);
    }

    #[test]
    fn min_candidate_global_at_root() {
        let (g, q) = setup();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let s = SampleState::new();
        let (set, _, is_global) = ctx.min_candidate(&s, 0);
        assert!(is_global);
        assert_eq!(set, cg.global(0));
    }

    #[test]
    fn min_candidate_picks_smallest_local() {
        let (g, q) = setup();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let mut s = SampleState::new();
        s.push(0, 1.0); // match φ[0]=u0 → v0
        s.push(1, 1.0); // match φ[1]=u1 → v1
        let (set, _, is_global) = ctx.min_candidate(&s, 2);
        assert!(!is_global);
        assert!(set.len() <= 2, "min candidate should pick the smaller set");
        assert!(!set.is_empty());
    }

    #[test]
    fn segments_match_min_candidate() {
        let (g, q) = setup();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let mut s = SampleState::new();
        s.push(0, 1.0);
        s.push(1, 1.0);
        let mut segs = Vec::new();
        ctx.backward_segments(s.prefix(), 2, &mut segs);
        assert_eq!(segs.len(), 2);
        let (min_seg, _) = segs[QueryCtx::min_segment_index(&segs)];
        let (direct, _, _) = ctx.min_candidate(&s, 2);
        assert_eq!(min_seg.len(), direct.len());
    }

    /// Every member's rank, and no rank for any other id, over sets that
    /// fill one bucket, span all ids (the widest buckets), cluster in a
    /// few buckets, or sit far from zero.
    #[test]
    fn rank_index_ranks_members_only() {
        let sets: [Vec<VertexId>; 7] = [
            vec![],
            vec![7],
            vec![0, VertexId::MAX],
            (0..100).collect(),
            (0..40).map(|i| i * 1_000).chain(50_000..50_040).collect(),
            (0..9).map(|i| VertexId::MAX - 8 + i).collect(),
            vec![3, 4, 5, 1 << 31, (1 << 31) + 1],
        ];
        for set in &sets {
            let index = RankIndex::new(set);
            assert!(index.starts.len() <= set.len() / 4 + 2, "{set:?}");
            let near = set
                .iter()
                .flat_map(|&v| [v.wrapping_sub(1), v, v.wrapping_add(1)]);
            for v in near.chain([0, 1, 999, 1 << 31, VertexId::MAX]) {
                assert_eq!(index.rank(v), set.binary_search(&v).ok(), "{v} in {set:?}");
            }
        }
    }

    #[test]
    fn min_segment_index_picks_the_first_minimum() {
        let (a, b, c): (&[VertexId], &[VertexId], &[VertexId]) = (&[1, 2, 3], &[4, 5], &[6, 7]);
        assert_eq!(QueryCtx::min_segment_index(&[(a, 0), (b, 10), (c, 20)]), 1);
        assert_eq!(QueryCtx::min_segment_index(&[(c, 0), (b, 10), (a, 20)]), 0);
        assert_eq!(QueryCtx::min_segment_index(&[(a, 0)]), 0);
    }
}
