//! Labeled-graph substrate for the gSWORD reproduction.
//!
//! This crate provides the data-graph foundation that every other layer of
//! the system builds on:
//!
//! * [`Graph`] — an undirected, vertex-labeled graph stored in compressed
//!   sparse row (CSR) form with sorted adjacency lists, supporting `O(log d)`
//!   edge probes and `O(1)` neighbor-slice access.
//! * [`GraphBuilder`] — incremental construction with duplicate-edge and
//!   self-loop elimination.
//! * [`io`] — readers/writers for the text format used throughout the
//!   subgraph-matching literature (`t/v/e` records).
//! * [`gen`] — seeded synthetic generators (Erdős–Rényi, Barabási–Albert
//!   power-law, sparse lexical-style graphs) plus a Zipf label assigner.
//! * [`datasets`] — the eight-dataset suite mirroring Table 1 of the paper
//!   at reduced scale.
//! * [`stats`] — the statistics reported in Table 1.
//! * [`intersect`] — sorted-set membership (binary search, monotone
//!   gallop) and the batched probe filter, shared by the candidate
//!   builder's pruning, the estimators' Refine step, and the SIMT kernels'
//!   memory charging.
//! * [`storage`] — the [`GraphStorage`] trait every data-graph consumer is
//!   generic over, plus [`AnyGraph`] for runtime backend selection.
//! * [`compressed`] — [`CompressedGraph`]: gap-coded varint adjacency with
//!   Elias-Fano indexing, packed into an mmap-able on-disk image
//!   ([`mmap`]), with decode-on-the-fly streaming and block-skip
//!   membership probes.

pub mod compressed;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod intersect;
pub mod io;
pub mod mmap;
pub mod ops;
pub mod stats;
pub mod storage;

pub use compressed::CompressedGraph;
pub use csr::{Graph, GraphBuilder};
pub use datasets::{dataset, dataset_names, DatasetSpec};
pub use stats::GraphStats;
pub use storage::{AnyGraph, GraphStorage, NeighborsRef};

/// Identifier of a data vertex. `u32` keeps hot structures compact (the
/// largest suite graph has far fewer than 2^32 vertices, as do the paper's).
pub type VertexId = u32;

/// Vertex label. The paper's datasets have 5..=307 labels, so `u16` suffices.
pub type Label = u16;

/// Errors produced while constructing or loading graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The graph's declared vertex count.
        num_vertices: u64,
    },
    /// The input file/stream was malformed.
    Parse {
        /// 1-based line number of the offending record (0 when unknown).
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// An I/O failure while reading or writing a graph file.
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(message) => write!(f, "i/o error: {message}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}
