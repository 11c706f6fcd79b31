//! The triple-CSR candidate graph structure and its lookup API.

use gsword_graph::VertexId;
use gsword_query::QueryVertex;

/// Candidate graph in the paper's triple-CSR format (Fig. 4).
///
/// All arrays are immutable after construction; segments are sorted so
/// membership probes are `O(log n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateGraph {
    pub(crate) num_query_vertices: usize,
    /// Global candidate sets: `global[global_off[u]..global_off[u+1]]`,
    /// sorted.
    pub(crate) global_off: Vec<usize>,
    pub(crate) global: Vec<VertexId>,
    /// First CSR — directed query edges: the out-edges of query vertex `u`
    /// are `edge_dst[edge_off[u]..edge_off[u+1]]`.
    pub(crate) edge_off: Vec<usize>,
    pub(crate) edge_dst: Vec<QueryVertex>,
    /// Second CSR — offsets only: directed edge `k = (u→u')` owns tuples
    /// `cand_off[k]..cand_off[k+1]`, one per candidate of `C(u)`, and tuple
    /// `cand_off[k] + rank` belongs to `global(u)[rank]`.
    pub(crate) cand_off: Vec<usize>,
    /// Third CSR — local candidate list per `(edge, candidate)` tuple `t`:
    /// `local[local_off[t]..local_off[t+1]]`, sorted.
    pub(crate) local_off: Vec<usize>,
    pub(crate) local: Vec<VertexId>,
}

impl CandidateGraph {
    /// Number of query vertices.
    #[inline]
    pub fn num_query_vertices(&self) -> usize {
        self.num_query_vertices
    }

    /// Number of directed query edges stored (2× the undirected count).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.edge_dst.len()
    }

    /// The global candidate set `C(u)`, sorted by data-vertex id.
    #[inline]
    pub fn global(&self, u: QueryVertex) -> &[VertexId] {
        &self.global[self.global_off[u as usize]..self.global_off[u as usize + 1]]
    }

    /// Like [`CandidateGraph::global`], also returning the segment's element
    /// offset within the backing array (for the SIMT memory model).
    #[inline]
    pub fn global_with_addr(&self, u: QueryVertex) -> (&[VertexId], usize) {
        let s = self.global_off[u as usize];
        (&self.global[s..self.global_off[u as usize + 1]], s)
    }

    /// Index of the directed query edge `u → u'`, if it exists.
    #[inline]
    pub fn edge_index(&self, u: QueryVertex, u2: QueryVertex) -> Option<usize> {
        let s = self.edge_off[u as usize];
        let e = self.edge_off[u as usize + 1];
        self.edge_dst[s..e]
            .iter()
            .position(|&d| d == u2)
            .map(|p| s + p)
    }

    /// Destination query vertex of directed edge `k`.
    #[inline]
    pub fn edge_dst(&self, k: usize) -> QueryVertex {
        self.edge_dst[k]
    }

    /// The local candidate set `C(u, u', v)` for directed edge `k = (u→u')`
    /// and candidate `v ∈ C(u)`. Empty when `v` is not a stored candidate or
    /// has no compatible neighbors.
    #[inline]
    pub fn local(&self, k: usize, v: VertexId) -> &[VertexId] {
        self.local_with_addr(k, v).0
    }

    /// Like [`CandidateGraph::local`], also returning the element offset of
    /// the segment within the backing `local` array: `v` is ranked in the
    /// source's `C(u)` and read through [`CandidateGraph::local_by_rank`].
    pub fn local_with_addr(&self, k: usize, v: VertexId) -> (&[VertexId], usize) {
        let u = self.edge_off.partition_point(|&o| o <= k) - 1;
        match self.global(u as QueryVertex).binary_search(&v) {
            Ok(rank) => self.local_by_rank(k, rank),
            Err(_) => (&[], 0),
        }
    }

    /// The local candidate list of the `rank`-th candidate of `C(u)` for
    /// directed edge `k = (u→u')`, with its element offset in the backing
    /// `local` array: tuple `cand_off[k] + rank`, found with no search.
    #[inline]
    pub fn local_by_rank(&self, k: usize, rank: usize) -> (&[VertexId], usize) {
        let t = self.cand_off[k] + rank;
        debug_assert!(
            t < self.cand_off[k + 1],
            "rank {rank} past C(u) of edge {k}"
        );
        let s = self.local_off[t];
        (&self.local[s..self.local_off[t + 1]], s)
    }

    /// Total byte footprint of the structure — the quantity the paper's
    /// Table 3 "CPU-GPU transfer" column is driven by.
    pub fn byte_size(&self) -> usize {
        use std::mem::size_of;
        (self.global_off.len() + self.edge_off.len() + self.cand_off.len() + self.local_off.len())
            * size_of::<usize>()
            + (self.global.len() + self.local.len()) * size_of::<VertexId>()
            + self.edge_dst.len() * size_of::<QueryVertex>()
    }

    /// Sum of all local candidate list lengths (a proxy for candidate-graph
    /// edge count).
    pub fn num_local_entries(&self) -> usize {
        self.local.len()
    }

    /// Check internal invariants (sorted segments, consistent offsets, and
    /// one tuple per candidate of its source's `C(u)` on each edge, which
    /// [`CandidateGraph::local_by_rank`] relies on). Used by tests and debug
    /// assertions.
    pub fn validate_invariants(&self) -> Result<(), String> {
        let n = self.num_query_vertices;
        if self.global_off.len() != n + 1 || self.edge_off.len() != n + 1 {
            return Err("offset arrays must have n+1 entries".into());
        }
        if *self.global_off.last().unwrap() != self.global.len() {
            return Err("global offsets do not cover the global array".into());
        }
        if *self.edge_off.last().unwrap() != self.edge_dst.len() {
            return Err("edge offsets do not cover the edge array".into());
        }
        if self.cand_off.len() != self.edge_dst.len() + 1 || self.cand_off[0] != 0 {
            return Err("cand CSR inconsistent".into());
        }
        let tuples = *self.cand_off.last().unwrap();
        if self.local_off.len() != tuples + 1 || *self.local_off.last().unwrap() != self.local.len()
        {
            return Err("local CSR inconsistent".into());
        }
        for u in 0..n {
            let seg = &self.global[self.global_off[u]..self.global_off[u + 1]];
            if !seg.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("global segment of u{u} not strictly sorted"));
            }
            for k in self.edge_off[u]..self.edge_off[u + 1] {
                let (s, e) = (self.cand_off[k], self.cand_off[k + 1]);
                if s > e || e - s != seg.len() {
                    return Err(format!(
                        "edge {k} holds tuples {s}..{e}, C(u{u}) has {}",
                        seg.len()
                    ));
                }
            }
        }
        for t in 0..tuples {
            let seg = &self.local[self.local_off[t]..self.local_off[t + 1]];
            if !seg.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("local segment of tuple {t} not strictly sorted"));
            }
        }
        Ok(())
    }
}
