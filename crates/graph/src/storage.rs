//! The storage abstraction over data-graph backends.
//!
//! Every consumer of the data graph — candidate-graph construction, query
//! extraction, matching-order heuristics, the exact enumerator — goes
//! through [`GraphStorage`] instead of the concrete CSR type, so the same
//! pipeline runs over the in-memory [`Graph`] and the succinct
//! [`CompressedGraph`](crate::compressed::CompressedGraph) without code
//! changes. Two invariants make backends interchangeable *bit for bit*:
//!
//! 1. Neighbor lists are strictly ascending and identical across backends
//!    (the compressed backend is a lossless re-encoding of the CSR).
//! 2. Every membership entry point produces output that depends only on
//!    the *sets*, never on the storage strategy — the same contract the
//!    `intersect` searches already honor (DESIGN.md §11).
//!
//! Together these guarantee that the candidate graph, and therefore every
//! downstream estimate and device counter, is identical whichever backend
//! built it — the property the storage-equivalence regression tests pin.

use crate::compressed::CompressedGraph;
use crate::{Graph, Label, VertexId};

/// Borrow-or-decode view of one sorted neighbor list.
///
/// CSR storage hands out a borrowed slice (zero copy); compressed storage
/// borrows from its decoded adjacency when it holds one and decodes into
/// an owned buffer when it streams. Both deref to `&[VertexId]`, so
/// callers that need random access stay backend-agnostic. Hot paths that
/// only stream should prefer [`GraphStorage::for_each_neighbor`], which
/// never materializes on the compressed backend.
#[derive(Debug, Clone)]
pub enum NeighborsRef<'a> {
    /// A zero-copy slice into backend storage.
    Borrowed(&'a [VertexId]),
    /// A list decoded on demand.
    Owned(Vec<VertexId>),
}

impl std::ops::Deref for NeighborsRef<'_> {
    type Target = [VertexId];

    #[inline]
    fn deref(&self) -> &[VertexId] {
        match self {
            NeighborsRef::Borrowed(s) => s,
            NeighborsRef::Owned(v) => v,
        }
    }
}

impl AsRef<[VertexId]> for NeighborsRef<'_> {
    #[inline]
    fn as_ref(&self) -> &[VertexId] {
        self
    }
}

impl<'a> From<&'a [VertexId]> for NeighborsRef<'a> {
    fn from(s: &'a [VertexId]) -> Self {
        NeighborsRef::Borrowed(s)
    }
}

impl From<Vec<VertexId>> for NeighborsRef<'_> {
    fn from(v: Vec<VertexId>) -> Self {
        NeighborsRef::Owned(v)
    }
}

/// Abstract read-only storage of an undirected, vertex-labeled data graph.
///
/// All adjacency lists are strictly ascending. Implementations must return
/// exactly the same vertex/edge/label/neighbor data for graphs with the
/// same logical content — only the cost profile and [`mem_bytes`]
/// (`Self::mem_bytes`) may differ.
pub trait GraphStorage: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges (each counted once).
    fn num_edges(&self) -> usize;

    /// Number of distinct label values the graph can hold (max label + 1).
    fn label_count(&self) -> usize;

    /// The label of vertex `v`.
    fn label(&self, v: VertexId) -> Label;

    /// Degree of vertex `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// The sorted neighbor list of `v` — borrowed when the backend stores
    /// it verbatim, decoded into an owned buffer otherwise.
    fn neighbors_ref(&self, v: VertexId) -> NeighborsRef<'_>;

    /// Whether the undirected edge `(u, v)` exists.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Vertices carrying label `l`, sorted by id.
    fn vertices_with_label(&self, l: Label) -> &[VertexId];

    /// Resident footprint of the backend in bytes, counting allocated
    /// capacity (not just used length) for heap-backed sections and the
    /// mapped extent for mmap-backed ones.
    fn mem_bytes(&self) -> usize;

    /// Replace `out` with the sorted neighbor list of `v`.
    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend_from_slice(&self.neighbors_ref(v));
    }

    /// Stream the neighbors of `v` in ascending order, stopping early when
    /// `f` returns `false`. Backends that decode on the fly override this
    /// to avoid materializing the list.
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId) -> bool)
    where
        Self: Sized,
    {
        for &w in self.neighbors_ref(v).iter() {
            if !f(w) {
                break;
            }
        }
    }

    /// Maximum vertex degree.
    fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (`2|E|/|V|`), as reported in Table 1.
    fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / self.num_vertices() as f64
    }

    /// Number of distinct labels that actually occur.
    fn distinct_labels(&self) -> usize {
        (0..self.label_count())
            .filter(|&l| !self.vertices_with_label(l as Label).is_empty())
            .count()
    }
}

/// Runtime-selected storage backend — what the CLI loads so one code path
/// serves `--storage csr` and `--storage compressed`.
#[derive(Debug, Clone)]
pub enum AnyGraph {
    /// In-memory CSR.
    Csr(Graph),
    /// Succinct gap-coded storage (owned or mmap-backed).
    Compressed(CompressedGraph),
}

impl AnyGraph {
    /// Short backend name for logs.
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyGraph::Csr(_) => "csr",
            AnyGraph::Compressed(_) => "compressed",
        }
    }

    /// The CSR graph, when that is the active backend.
    pub fn as_csr(&self) -> Option<&Graph> {
        match self {
            AnyGraph::Csr(g) => Some(g),
            AnyGraph::Compressed(_) => None,
        }
    }
}

impl From<Graph> for AnyGraph {
    fn from(g: Graph) -> Self {
        AnyGraph::Csr(g)
    }
}

impl From<CompressedGraph> for AnyGraph {
    fn from(g: CompressedGraph) -> Self {
        AnyGraph::Compressed(g)
    }
}

macro_rules! delegate {
    ($self:ident, $g:ident => $body:expr) => {
        match $self {
            AnyGraph::Csr($g) => $body,
            AnyGraph::Compressed($g) => $body,
        }
    };
}

impl GraphStorage for AnyGraph {
    fn num_vertices(&self) -> usize {
        delegate!(self, g => g.num_vertices())
    }

    fn num_edges(&self) -> usize {
        delegate!(self, g => g.num_edges())
    }

    fn label_count(&self) -> usize {
        delegate!(self, g => g.label_count())
    }

    fn label(&self, v: VertexId) -> Label {
        delegate!(self, g => g.label(v))
    }

    fn degree(&self, v: VertexId) -> usize {
        delegate!(self, g => g.degree(v))
    }

    fn neighbors_ref(&self, v: VertexId) -> NeighborsRef<'_> {
        delegate!(self, g => g.neighbors_ref(v))
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        delegate!(self, g => GraphStorage::has_edge(g, u, v))
    }

    fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        delegate!(self, g => GraphStorage::vertices_with_label(g, l))
    }

    fn mem_bytes(&self) -> usize {
        delegate!(self, g => g.mem_bytes())
    }

    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId) -> bool) {
        delegate!(self, g => g.for_each_neighbor(v, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        for l in [0, 1, 1, 2] {
            b.add_vertex(l);
        }
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn neighbors_ref_derefs_both_variants() {
        let owned = NeighborsRef::Owned(vec![1, 2, 3]);
        let data = [1, 2, 3];
        let borrowed = NeighborsRef::Borrowed(&data);
        assert_eq!(&*owned, &*borrowed);
        assert_eq!(owned.as_ref(), &[1, 2, 3]);
        assert_eq!(owned.len(), 3);
    }

    #[test]
    fn trait_defaults_match_inherent_csr_methods() {
        let g = diamond();
        let s: &dyn Fn(&Graph) = &|g| {
            assert_eq!(GraphStorage::max_degree(g), g.max_degree());
            assert_eq!(GraphStorage::avg_degree(g), g.avg_degree());
            assert_eq!(GraphStorage::distinct_labels(g), g.distinct_labels());
        };
        s(&g);
        let mut buf = Vec::new();
        g.neighbors_into(1, &mut buf);
        assert_eq!(buf, g.neighbors(1));
        let mut seen = Vec::new();
        g.for_each_neighbor(1, |w| {
            seen.push(w);
            w < 2 // stop after first element ≥ 2
        });
        assert_eq!(seen, &[0, 2]);
    }

    #[test]
    fn any_graph_delegates_to_csr() {
        let g = diamond();
        let any = AnyGraph::from(g.clone());
        assert_eq!(any.backend_name(), "csr");
        assert!(any.as_csr().is_some());
        assert_eq!(any.num_vertices(), 4);
        assert_eq!(any.num_edges(), 5);
        assert_eq!(&*any.neighbors_ref(1), g.neighbors(1));
        assert!(GraphStorage::has_edge(&any, 0, 1));
        assert_eq!(GraphStorage::vertices_with_label(&any, 1), &[1, 2]);
        assert!(any.mem_bytes() > 0);
    }
}
