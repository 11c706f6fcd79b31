//! Property-based tests for the storage-generic graph layer: the packed
//! on-disk image round-trips byte-identically through mmap, and the
//! compressed backend is observationally equivalent to CSR through every
//! `GraphStorage` method — on small random graphs and on sparse graphs
//! over a large id space, whose long gaps reach the Rice decoder's edge
//! cases. The byte offsets membership probes report, which the coalescing
//! model charges, are pinned.

use gsword::graph::compressed::CompressedGraph;
use gsword::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small labeled graph strategy spanning the regimes the suite
/// covers: near-uniform, skewed, and near-empty.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..60, 0usize..5, any::<u64>()).prop_map(|(n, density, seed)| {
        let labels = gsword::graph::gen::zipf_labels(n, 5, 0.9, seed);
        gsword::graph::gen::erdos_renyi(n, n * density, labels, seed ^ 0x57)
    })
}

/// Sparse graphs over 2^14–2^20 ids with a few hundred edges and one
/// multi-block hub. Their lists reach what small graphs do not: per-block
/// Rice parameters `k` ≥ 16 (a few neighbors spread over the id space), a
/// dense run plus far outliers in one block (the outlier's unary quotient
/// runs past a 64-bit read window), and an edge on the last vertex, whose
/// region ends the adjacency section and whose last codes are read through
/// the zero-padded tail window.
fn sparse_wide_strategy() -> impl Strategy<Value = Graph> {
    (14u32..21, any::<u64>()).prop_map(|(bits, seed)| {
        let n = 1u32 << bits;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_vertices(n as usize);
        for _ in 0..64 {
            b.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        for _ in 0..4 {
            let v = rng.gen_range(0..n);
            for _ in 0..rng.gen_range(2..12u32) {
                b.add_edge(v, rng.gen_range(0..n));
            }
        }
        let v = rng.gen_range(0..n);
        let run = rng.gen_range(0..n / 2);
        for i in 0..60 {
            b.add_edge(v, run + 2 * i);
        }
        for _ in 0..3 {
            b.add_edge(v, rng.gen_range(0..n));
        }
        let hub = rng.gen_range(0..n);
        for _ in 0..rng.gen_range(65..400u32) {
            b.add_edge(hub, rng.gen_range(0..n));
        }
        for _ in 0..rng.gen_range(2..8u32) {
            b.add_edge(n - 1, rng.gen_range(0..n - 1));
        }
        b.build().expect("edges are in range")
    })
}

/// The vertices an equivalence check visits, and the ids it probes each
/// one with. Small graphs: every vertex against every id. Large sparse
/// ones: the first, middle and last vertex plus every vertex with edges,
/// each probed with its neighbors, their adjacent ids, and both ends of
/// the id space.
fn checked_ids(g: &Graph) -> Vec<(VertexId, Vec<VertexId>)> {
    let n = g.num_vertices() as VertexId;
    if n <= 256 {
        return (0..n).map(|v| (v, (0..n).collect())).collect();
    }
    (0..n)
        .filter(|&v| g.degree(v) > 0 || [0, n / 2, n - 1].contains(&v))
        .map(|v| {
            let mut probes = vec![0, n - 1];
            for &w in g.neighbors(v) {
                probes.extend([w.saturating_sub(1), w, (w + 1).min(n - 1)]);
            }
            probes.sort_unstable();
            probes.dedup();
            (v, probes)
        })
        .collect()
}

/// Every `GraphStorage` method of the compressed backend agrees with CSR.
fn check_equivalent_to_csr(g: &Graph) -> Result<(), TestCaseError> {
    let c = CompressedGraph::from_graph(g);
    prop_assert_eq!(GraphStorage::num_vertices(&c), g.num_vertices());
    prop_assert_eq!(GraphStorage::num_edges(&c), g.num_edges());
    prop_assert_eq!(GraphStorage::label_count(&c), g.label_count());

    for (v, probes) in &checked_ids(g) {
        let v = *v;
        prop_assert_eq!(GraphStorage::label(&c, v), g.label(v));
        prop_assert_eq!(GraphStorage::degree(&c, v), g.degree(v));
        prop_assert_eq!(&*GraphStorage::neighbors_ref(&c, v), g.neighbors(v));

        let mut streamed = Vec::new();
        c.for_each_neighbor(v, |w| {
            streamed.push(w);
            true
        });
        prop_assert_eq!(streamed.as_slice(), g.neighbors(v));

        for &w in probes {
            prop_assert_eq!(GraphStorage::has_edge(&c, v, w), g.has_edge(v, w));
        }
    }

    for l in 0..g.label_count() {
        prop_assert_eq!(
            GraphStorage::vertices_with_label(&c, l as Label),
            g.vertices_with_label(l as Label)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_round_trips_through_mmap_byte_identically(g in graph_strategy(), tag in any::<u32>()) {
        let c = CompressedGraph::from_graph(&g);
        let path = std::env::temp_dir().join(format!(
            "gsword-prop-{}-{tag:08x}.gsw",
            std::process::id()
        ));
        c.save(&path).expect("save packed image");
        let loaded = CompressedGraph::load(&path).expect("load packed image");
        std::fs::remove_file(&path).ok();

        // Image bytes are the canonical representation: the mapped file must
        // be bit-for-bit what was written, and unpacking must restore the
        // original CSR graph exactly.
        prop_assert_eq!(c.as_bytes(), loaded.as_bytes());
        prop_assert_eq!(&loaded.to_csr(), &g);
    }

    #[test]
    fn compressed_backend_is_observationally_equivalent_to_csr(g in graph_strategy()) {
        check_equivalent_to_csr(&g)?;
    }

    #[test]
    fn any_graph_backends_agree(g in graph_strategy()) {
        let compressed = AnyGraph::Compressed(CompressedGraph::from_graph(&g));
        let csr = AnyGraph::Csr(g);
        prop_assert_eq!(GraphStats::of(&csr).num_edges, GraphStats::of(&compressed).num_edges);
        prop_assert_eq!(
            GraphStats::of(&csr).max_degree,
            GraphStats::of(&compressed).max_degree
        );
        for v in 0..csr.num_vertices() as VertexId {
            prop_assert_eq!(&*csr.neighbors_ref(v), &*compressed.neighbors_ref(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compressed_backend_is_equivalent_to_csr_on_sparse_wide_graphs(g in sparse_wide_strategy()) {
        check_equivalent_to_csr(&g)?;
    }
}

/// A sparse graph over 2^20 ids with hand-placed decoder edge cases:
/// vertex 0 is a five-block hub; vertex 1 holds a run of 62 neighbors two
/// apart then jumps to 1 000 000 in the same block (`k` = 13, so that gap's
/// unary quotient is 122 ones, past any 64-bit window) and ends with a
/// one-entry block on the last vertex; vertex 3's neighbors sit 140 001
/// apart (`k` = 16); the last vertex's eleven neighbors end the adjacency
/// section, so its last codes are read through the zero-padded tail.
fn wide_gap_graph() -> Graph {
    let n = 1u32 << 20;
    let mut b = GraphBuilder::with_vertices(n as usize);
    for i in 1..300u32 {
        b.add_edge(0, i * 3001 + (i * i) % 97);
    }
    for i in 0..62u32 {
        b.add_edge(1, 5 + 2 * i);
    }
    for w in [1_000_000, 1_000_002, n - 1] {
        b.add_edge(1, w);
    }
    for i in 0..7u32 {
        b.add_edge(3, 7 + i * 140_001);
    }
    for i in 0..10u32 {
        b.add_edge(n - 1, 900_000 + 3 * i);
    }
    b.build().expect("edges are in range")
}

/// `(hit, offsets)` of a membership probe, from the streaming decoder and
/// from the decode cache (a miss that fills it, then a hit); all three
/// must agree.
fn probe_trace(
    streaming: &CompressedGraph,
    cached: &CompressedGraph,
    v: VertexId,
    x: VertexId,
) -> (bool, Vec<usize>) {
    let mut want = Vec::new();
    let hit = streaming
        .neighbors(v)
        .contains_with_probes(x, |p| want.push(p));
    for round in 0..2 {
        let mut got = Vec::new();
        assert_eq!(cached.contains_with_probes(v, x, |p| got.push(p)), hit);
        assert_eq!(got, want, "cached probes v={v} x={x} round={round}");
    }
    (hit, want)
}

#[test]
fn probe_offsets_are_pinned() {
    // Captured from the byte-wise Rice decoder the word-level one
    // replaced: the coalescing model charges these offsets, so modeled
    // traffic depends on every one of them.
    let g = wide_gap_graph();
    let cached = CompressedGraph::from_graph(&g);
    let streaming = cached.clone().with_decode_cache(0);
    let last = g.num_vertices() as VertexId - 1;
    let trace = |v, x| probe_trace(&streaming, &cached, v, x);

    assert_eq!(g.neighbors(0)[150], 453_157);
    assert_eq!(
        trace(0, 453_157),
        (
            true,
            vec![
                8, 233, 12, 340, 233, 237, 238, 240, 241, 243, 245, 246, 248, 250, 251, 253, 254,
                256, 258, 259, 261, 263, 264, 266, 267, 269, 271
            ]
        )
    );
    // 62 run entries of 1.5–2 bytes each, then the outlier at byte 636
    // whose 136-bit code puts the next entry at 653.
    let run: Vec<usize> = vec![
        524, 656, 528, 530, 531, 533, 535, 537, 538, 540, 542, 544, 545, 547, 549, 551, 552, 554,
        556, 558, 559, 561, 563, 565, 566, 568, 570, 572, 573, 575, 577, 579, 580, 582, 584, 586,
        587, 589, 591, 593, 594, 596, 598, 600, 601, 603, 605, 607, 608, 610, 612, 614, 615, 617,
        619, 621, 622, 624, 626, 628, 629, 631, 633, 635, 636, 653,
    ];
    assert_eq!(trace(1, 1_000_002), (true, run));
    assert_eq!(trace(1, last), (true, vec![524, 656, 656]));
    assert_eq!(trace(last, 1), (true, vec![1077]));
    assert_eq!(
        trace(last, 900_027),
        (
            true,
            vec![1077, 1079, 1082, 1084, 1087, 1089, 1091, 1093, 1095, 1097, 1099]
        )
    );

    // Every neighbor, its adjacent ids, and both ends of the id space,
    // folded into an FNV-1a digest with the total probe count.
    for (v, digest, count) in [
        (0, 13_782_787_745_559_921_212u64, 32_626usize),
        (1, 2_787_643_864_349_160_092, 6_765),
        (3, 11_585_614_584_078_305_644, 98),
        (last, 14_503_917_075_931_995_579, 220),
    ] {
        let mut targets = vec![0, last];
        for &w in g.neighbors(v) {
            targets.extend([w.saturating_sub(1), w, w + 1]);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut probes = 0;
        for x in targets {
            let (hit, offsets) = trace(v, x);
            probes += offsets.len();
            for word in std::iter::once(u64::from(hit)).chain(offsets.iter().map(|&o| o as u64)) {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!((h, probes), (digest, count), "probe digest of vertex {v}");
    }
}
