//! Candidate graph construction: label/degree/NLF filters, fixpoint pruning,
//! and assembly of the triple-CSR structure.

use std::time::Instant;

use gsword_graph::intersect;
use gsword_graph::{GraphStorage, VertexId};
use gsword_query::{QueryGraph, QueryVertex};

use crate::format::CandidateGraph;

/// Configuration of the candidate filters.
///
/// The default is the paper-faithful label + degree filter: the candidate
/// graph deliberately keeps vertices that participate in no instance
/// (Fig. 2's example keeps `v2` and `e(v2, v6)`), which is what leaves RW
/// samples exposed to dead ends — the underestimation regime Section 5
/// exists for. [`BuildConfig::strong`] adds NLF filtering and fixpoint
/// pruning (a CECI-style near-exact candidate graph) as an extension;
/// [`BuildConfig::unfiltered`] drops everything but the label filter — the
/// stand-in for "sampling directly on the data graph" in the appendix
/// comparison (Figures 26–28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Require `deg_G(v) ≥ deg_q(u)`.
    pub degree_filter: bool,
    /// Neighbor-label-frequency filter: for every label `l`, `v` must have
    /// at least as many `l`-labeled neighbors as `u` does in the query.
    pub nlf_filter: bool,
    /// Fixpoint pruning rounds: drop `v` from `C(u)` when some query edge
    /// `(u, u')` leaves it without any compatible neighbor.
    pub prune_rounds: u32,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            degree_filter: true,
            nlf_filter: false,
            prune_rounds: 0,
        }
    }
}

impl BuildConfig {
    /// The "no candidate graph" configuration used by the appendix
    /// comparison: label filter only, no pruning.
    pub fn unfiltered() -> Self {
        BuildConfig {
            degree_filter: false,
            nlf_filter: false,
            prune_rounds: 0,
        }
    }

    /// Aggressive filtering: NLF plus fixpoint pruning to a near-exact
    /// candidate graph. Not what the paper evaluates (it hides the
    /// underestimation regime), but a useful extension when accuracy per
    /// sample matters more than build time.
    pub fn strong() -> Self {
        BuildConfig {
            degree_filter: true,
            nlf_filter: true,
            prune_rounds: 2,
        }
    }
}

/// Timing and size observations from one construction — the raw material of
/// the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildStats {
    /// Wall-clock construction time in milliseconds.
    pub construction_ms: f64,
    /// Structure footprint in bytes.
    pub bytes: usize,
    /// Modeled CPU→GPU transfer time in milliseconds assuming a PCIe 3.0
    /// x16 effective bandwidth of 12 GB/s (the paper's RTX 2080 Ti setup).
    pub transfer_ms: f64,
}

const PCIE_BYTES_PER_MS: f64 = 12.0e9 / 1e3;

/// Build the candidate graph for `query` on `data` under `config`.
///
/// The result is *sound*: every embedding of the query in the data graph is
/// contained in the candidate graph (tested by exhaustive comparison against
/// a naive matcher).
pub fn build_candidate_graph<S: GraphStorage>(
    data: &S,
    query: &QueryGraph,
    config: &BuildConfig,
) -> (CandidateGraph, BuildStats) {
    let t0 = Instant::now();
    let n = query.num_vertices();

    // Per-query-vertex neighbor label frequency (NLF) signatures.
    let label_count = data.label_count().max(
        (0..n as QueryVertex)
            .map(|u| query.label(u) as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let nlf: Vec<Vec<u16>> = (0..n as QueryVertex)
        .map(|u| {
            let mut f = vec![0u16; label_count];
            for w in query.neighbors(u) {
                f[query.label(w) as usize] += 1;
            }
            f
        })
        .collect();

    // Global candidates with label (+degree, +NLF) filters. Query vertices
    // sharing a label share one pass of degree reads. Before pruning, C(u)
    // depends only on u's filter key: its label, plus deg_q(u) and its NLF
    // signature when those filters are on. A vertex whose key an earlier
    // vertex already had copies that vertex's set.
    let mut global_sets: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut degrees: Vec<usize> = Vec::new();
    for first in 0..n as QueryVertex {
        let label = query.label(first);
        if (0..first).any(|p| query.label(p) == label) {
            continue;
        }
        let pool = data.vertices_with_label(label);
        degrees.clear();
        if config.degree_filter {
            degrees.extend(pool.iter().map(|&v| data.degree(v)));
        }
        for u in (first..n as QueryVertex).filter(|&u| query.label(u) == label) {
            let same_key = |p: QueryVertex| {
                query.label(p) == label
                    && (!config.degree_filter || query.degree(p) == query.degree(u))
                    && (!config.nlf_filter || nlf[p as usize] == nlf[u as usize])
            };
            if let Some(p) = (first..u).find(|&p| same_key(p)) {
                global_sets[u as usize] = global_sets[p as usize].clone();
                continue;
            }
            global_sets[u as usize] = pool
                .iter()
                .enumerate()
                .filter(|&(i, _)| !config.degree_filter || degrees[i] >= query.degree(u))
                .map(|(_, &v)| v)
                .filter(|&v| !config.nlf_filter || nlf_pass(data, v, &nlf[u as usize]))
                .collect();
        }
    }

    // Fixpoint pruning: v survives in C(u) iff every query edge (u,u') gives
    // it at least one neighbor in C(u').
    let mut nv: Vec<VertexId> = Vec::new();
    for _ in 0..config.prune_rounds {
        let mut changed = false;
        for u in 0..n as QueryVertex {
            let mut kept = Vec::with_capacity(global_sets[u as usize].len());
            for &v in &global_sets[u as usize] {
                // N(v) is invariant across the query-neighbor loop below:
                // decode it once into a reused buffer instead of streaming
                // (and re-decoding) the adjacency once per query edge.
                nv.clear();
                data.neighbors_into(v, &mut nv);
                let ok = query.neighbors(u).all(|u2| {
                    let cu2 = &global_sets[u2 as usize];
                    nv.iter().any(|&w| intersect::member(cu2, w))
                });
                if ok {
                    kept.push(v);
                }
            }
            if kept.len() != global_sets[u as usize].len() {
                changed = true;
                global_sets[u as usize] = kept;
            }
        }
        if !changed {
            break;
        }
    }

    // Assemble the triple CSR.
    let mut global_off = Vec::with_capacity(n + 1);
    global_off.push(0);
    let mut global = Vec::new();
    for set in &global_sets {
        global.extend_from_slice(set);
        global_off.push(global.len());
    }

    // Classes: query vertices whose final candidate sets are equal, at most
    // 32. Pruning and NLF can split vertices that share a filter key, so
    // the classes come from the sets themselves.
    let mut reps: Vec<usize> = Vec::new();
    let mut class = vec![0usize; n];
    for u in 0..n {
        class[u] = match reps.iter().position(|&r| global_sets[r] == global_sets[u]) {
            Some(a) => a,
            None => {
                reps.push(u);
                reps.len() - 1
            }
        };
    }
    // Bit b of `cadj[a]` is set when some query edge u → u' has class(u) =
    // a and class(u') = b. Class edge a → b sits at `cedge_off[a]` plus the
    // rank of b among a's target classes.
    let mut cadj = vec![0u32; reps.len()];
    for u in 0..n as QueryVertex {
        for u2 in query.neighbors(u) {
            cadj[class[u as usize]] |= 1 << class[u2 as usize];
        }
    }
    let mut cedge_off = vec![0];
    for m in &cadj {
        cedge_off.push(cedge_off[cedge_off.len() - 1] + m.count_ones() as usize);
    }
    let cedge =
        |a: usize, b: usize| cedge_off[a] + (cadj[a] & ((1 << b) - 1)).count_ones() as usize;

    // Local sets C(u, u', v) = N(v) ∩ C(u') depend only on C(u) and C(u'),
    // so each class edge is routed once. Bit a of `holds[v]` is set when v
    // is in class a's set. Candidates are visited in ascending id order,
    // each in two passes in which no branch depends on a neighbor: stream
    // N(v) once and compact the neighbors that some target class holds,
    // with their class bits, into `hw`/`hh`; then, for each class a of v
    // and each class edge k = a → b, append the kept neighbors with bit b
    // to k's buffer. The buffers fill in C(u) order with sorted segments;
    // `ends[k]` holds each segment's end.
    let mut holds = vec![0u32; data.num_vertices()];
    for (a, &r) in reps.iter().enumerate() {
        for &v in &global_sets[r] {
            holds[v as usize] |= 1 << a;
        }
    }
    let num_cedges = cedge_off[reps.len()];
    let mut class_local: Vec<Vec<VertexId>> = vec![Vec::new(); num_cedges];
    let mut ends: Vec<Vec<usize>> = vec![Vec::new(); num_cedges];
    let (mut hw, mut hh) = (Vec::new(), Vec::new());
    for (v, &src) in holds.iter().enumerate() {
        if src == 0 {
            continue;
        }
        let want = bits(src).fold(0, |m, a| m | cadj[a]);
        let mut n = 0;
        if want != 0 {
            let deg = data.degree(v as VertexId);
            if hw.len() < deg {
                hw.resize(deg, 0);
                hh.resize(deg, 0);
            }
            let (hw, hh) = (&mut hw[..deg], &mut hh[..deg]);
            data.for_each_neighbor(v as VertexId, |w| {
                let h = holds[w as usize] & want;
                hw[n] = w;
                hh[n] = h;
                n += (h != 0) as usize;
                true
            });
        }
        for a in bits(src) {
            for (k, b) in (cedge_off[a]..).zip(bits(cadj[a])) {
                let dst = &mut class_local[k];
                let mut m = dst.len();
                dst.resize(m + n, 0);
                for (&w, &h) in hw[..n].iter().zip(&hh[..n]) {
                    dst[m] = w;
                    m += ((h >> b) & 1) as usize;
                }
                dst.truncate(m);
                ends[k].push(m);
            }
        }
    }

    // Lay out the directed edges u → u' in (u, u') order. Each takes one
    // tuple per candidate of C(u) and copies its class edge's buffer, with
    // segment ends rebased to where the copy starts.
    let edge_class = |u: QueryVertex, u2: QueryVertex| cedge(class[u as usize], class[u2 as usize]);
    let tuples: usize = (0..n as QueryVertex)
        .map(|u| global_sets[u as usize].len() * query.degree(u))
        .sum();
    let local_len: usize = (0..n as QueryVertex)
        .flat_map(|u| query.neighbors(u).map(move |u2| (u, u2)))
        .map(|(u, u2)| class_local[edge_class(u, u2)].len())
        .sum();
    let mut edge_off = Vec::with_capacity(n + 1);
    edge_off.push(0);
    let mut edge_dst: Vec<QueryVertex> = Vec::new();
    let mut cand_off = vec![0];
    let mut local_off = Vec::with_capacity(tuples + 1);
    local_off.push(0);
    let mut local: Vec<VertexId> = Vec::with_capacity(local_len);
    for u in 0..n as QueryVertex {
        for u2 in query.neighbors(u) {
            edge_dst.push(u2);
            cand_off.push(cand_off[cand_off.len() - 1] + global_sets[u as usize].len());
            let k = edge_class(u, u2);
            let base = local.len();
            local_off.extend(ends[k].iter().map(|&end| base + end));
            local.extend_from_slice(&class_local[k]);
        }
        edge_off.push(edge_dst.len());
    }

    let cg = CandidateGraph {
        num_query_vertices: n,
        global_off,
        global,
        edge_off,
        edge_dst,
        cand_off,
        local_off,
        local,
    };
    debug_assert_eq!(cg.validate_invariants(), Ok(()));
    let construction_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bytes = cg.byte_size();
    let stats = BuildStats {
        construction_ms,
        bytes,
        transfer_ms: bytes as f64 / PCIE_BYTES_PER_MS,
    };
    (cg, stats)
}

fn nlf_pass<S: GraphStorage>(data: &S, v: VertexId, required: &[u16]) -> bool {
    let mut have = vec![0u16; required.len()];
    data.for_each_neighbor(v, |w| {
        let l = data.label(w) as usize;
        if l < have.len() {
            have[l] += 1;
        }
        true
    });
    required.iter().zip(&have).all(|(r, h)| h >= r)
}

/// The set bit positions of `mask`, ascending.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_graph::{Graph, GraphBuilder};

    /// The running example of the paper (Figure 2): query q with 5 vertices
    /// labeled A,B,A,C,B and the data graph with 9 vertices. We reconstruct
    /// a consistent instance: labels A=0, B=1, C=2.
    fn paper_like() -> (Graph, QueryGraph) {
        let mut b = GraphBuilder::new();
        // v1..v9 -> ids 0..8; labels from Figure 2 reading: v1,v2: A; v3..v6: B; v7: C; v8: B? …
        // The figure is partially specified; we use a graph with one known
        // embedding and extra near-miss structure.
        for l in [0, 0, 1, 1, 1, 1, 2, 1, 2] {
            b.add_vertex(l);
        }
        for (u, v) in [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 6),
            (2, 8),
            (3, 6),
            (6, 7),
            (3, 7),
        ] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        // Query: u1(A)-u2(B), u1-u3(B), u2-u3, u2-u4(C), u4-u5(B)
        let q = QueryGraph::new(
            vec![0, 1, 1, 2, 1],
            &[(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)],
        )
        .unwrap();
        (g, q)
    }

    /// Exhaustive embedding enumeration straight on the data graph — the
    /// independent oracle for soundness tests.
    fn naive_embeddings(data: &Graph, query: &QueryGraph) -> Vec<Vec<VertexId>> {
        let n = query.num_vertices();
        let mut out = Vec::new();
        let mut partial: Vec<VertexId> = Vec::with_capacity(n);
        fn rec(
            data: &Graph,
            query: &QueryGraph,
            partial: &mut Vec<VertexId>,
            out: &mut Vec<Vec<VertexId>>,
        ) {
            let d = partial.len();
            if d == query.num_vertices() {
                out.push(partial.clone());
                return;
            }
            for v in 0..data.num_vertices() as VertexId {
                if partial.contains(&v) || data.label(v) != query.label(d as QueryVertex) {
                    continue;
                }
                let ok = (0..d).all(|j| {
                    !query.has_edge(j as QueryVertex, d as QueryVertex)
                        || data.has_edge(partial[j], v)
                });
                if ok {
                    partial.push(v);
                    rec(data, query, partial, out);
                    partial.pop();
                }
            }
        }
        rec(data, query, &mut partial, &mut out);
        out
    }

    #[test]
    fn invariants_hold() {
        let (g, q) = paper_like();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        cg.validate_invariants().unwrap();
    }

    /// `local_by_rank` reads tuple `cand_off[k] + rank` as the list of
    /// `global(u)[rank]`, so every edge must hold one tuple per candidate of
    /// its source, and an edge whose range is one tuple off breaks the
    /// invariants.
    #[test]
    fn invariants_tie_each_edge_segment_to_its_source_set() {
        let (g, q) = paper_like();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        for u in 0..q.num_vertices() as QueryVertex {
            for u2 in q.neighbors(u) {
                let k = cg.edge_index(u, u2).unwrap();
                for (rank, &v) in cg.global(u).iter().enumerate() {
                    assert_eq!(cg.local_by_rank(k, rank), cg.local_with_addr(k, v));
                }
            }
        }
        let k = (0..cg.num_directed_edges() - 1)
            .find(|&k| cg.cand_off[k + 1] > cg.cand_off[k])
            .expect("an edge before the last has candidates");
        let mut broken = cg.clone();
        broken.cand_off[k + 1] -= 1;
        let err = broken.validate_invariants().unwrap_err();
        assert!(err.contains(&format!("edge {k} ")), "{err}");
    }

    #[test]
    fn soundness_every_embedding_is_covered() {
        let (g, q) = paper_like();
        for cfg in [BuildConfig::default(), BuildConfig::unfiltered()] {
            let (cg, _) = build_candidate_graph(&g, &q, &cfg);
            let embeddings = naive_embeddings(&g, &q);
            assert!(!embeddings.is_empty(), "test graph must contain instances");
            for emb in &embeddings {
                for u in 0..q.num_vertices() as QueryVertex {
                    assert!(
                        cg.global(u).binary_search(&emb[u as usize]).is_ok(),
                        "embedding vertex {} missing from C({u}) under {cfg:?}",
                        emb[u as usize]
                    );
                }
                for (u, u2) in q.edges() {
                    let k = cg.edge_index(u, u2).unwrap();
                    assert!(
                        cg.local(k, emb[u as usize])
                            .binary_search(&emb[u2 as usize])
                            .is_ok(),
                        "embedding edge missing from local set under {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn local_sets_are_neighbor_subsets() {
        let (g, q) = paper_like();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        for (u, u2) in q.edges() {
            let k = cg.edge_index(u, u2).unwrap();
            for &v in cg.global(u) {
                for &v2 in cg.local(k, v) {
                    assert!(g.has_edge(v, v2));
                    assert!(cg.global(u2).binary_search(&v2).is_ok());
                }
            }
        }
    }

    #[test]
    fn pruning_shrinks_or_preserves() {
        let (g, q) = paper_like();
        let (unpruned, _) = build_candidate_graph(
            &g,
            &q,
            &BuildConfig {
                prune_rounds: 0,
                ..BuildConfig::default()
            },
        );
        let (pruned, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        for u in 0..q.num_vertices() as QueryVertex {
            assert!(pruned.global(u).len() <= unpruned.global(u).len());
        }
    }

    #[test]
    fn unfiltered_is_superset() {
        let (g, q) = paper_like();
        let (filt, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let (unfilt, _) = build_candidate_graph(&g, &q, &BuildConfig::unfiltered());
        for u in 0..q.num_vertices() as QueryVertex {
            for &v in filt.global(u) {
                assert!(unfilt.global(u).binary_search(&v).is_ok());
            }
        }
        assert!(unfilt.byte_size() >= filt.byte_size());
    }

    #[test]
    fn missing_edge_index_and_local() {
        let (g, q) = paper_like();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        assert!(cg.edge_index(0, 3).is_none(), "u1-u4 is not a query edge");
        let k = cg.edge_index(0, 1).unwrap();
        assert!(cg.local(k, 9999).is_empty(), "unknown candidate → empty");
    }

    #[test]
    fn build_stats_populated() {
        let (g, q) = paper_like();
        let (cg, stats) = build_candidate_graph(&g, &q, &BuildConfig::default());
        assert_eq!(stats.bytes, cg.byte_size());
        assert!(stats.construction_ms >= 0.0);
        assert!(stats.transfer_ms > 0.0);
    }
}
