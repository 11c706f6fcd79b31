//! Candidate graph construction and the triple-CSR format of gSWORD Fig. 4.
//!
//! A candidate graph (Definition 5) stores, for every query vertex `u`, the
//! global candidate set `C(u)`, and for every query edge `e(u, u')` and
//! candidate `v ∈ C(u)`, the local candidate set
//! `C(u, u', v) = N(v) ∩ C(u')`. The samplers draw exclusively from these
//! sets, which shrinks the sample space versus walking the data graph
//! directly (evaluated in the paper's appendix, Figures 26–28).
//!
//! The storage layout follows the paper's three CSRs: a first CSR over query
//! edges, a second CSR giving each edge one `(edge, candidate)` tuple per
//! candidate of its source vertex, and a third CSR holding each tuple's
//! local candidate list. The second CSR holds offsets only: the paper's copy
//! of the source's candidates per edge is not stored, since tuple
//! `cand_off[k] + rank` belongs to the candidate of that rank in `C(u)`.

pub mod build;
pub mod format;

pub use build::{build_candidate_graph, BuildConfig, BuildStats};
pub use format::CandidateGraph;
