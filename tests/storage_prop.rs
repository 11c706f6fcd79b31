//! Property-based tests for the storage-generic graph layer: the packed
//! on-disk image round-trips byte-identically through mmap, and the
//! compressed backend is observationally equivalent to CSR through every
//! `GraphStorage` method, both streaming and from its decoded adjacency —
//! on small random graphs and on sparse graphs over a large id space,
//! whose long gaps reach the Rice decoder's edge cases. On those edge
//! cases the streaming decoder's membership probe, the decoded adjacency
//! and CSR agree on every target. The decoded adjacency is built only
//! when the budget holds all of it, charges exactly its arrays to
//! `mem_bytes`, is decoded once when two threads touch it first, and is
//! never shared with a clone given its own budget.

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

/// Every `GraphStorage` method of the compressed backend agrees with CSR,
/// on a graph that streams every access (budget 0) and on one that reads
/// its decoded adjacency (the default budget).
fn check_equivalent_to_csr(g: &Graph) -> Result<(), TestCaseError> {
    let streaming = CompressedGraph::from_graph(g).with_decode_cache(0);
    check_backend_equivalent_to_csr(g, &streaming)?;
    prop_assert_eq!(streaming.decode_cache_bytes(), 0);
    let decoded = CompressedGraph::from_graph(g);
    check_backend_equivalent_to_csr(g, &decoded)?;
    prop_assert!(decoded.decode_cache_bytes() > 0);
    Ok(())
}

fn check_backend_equivalent_to_csr(g: &Graph, c: &CompressedGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(GraphStorage::num_vertices(c), g.num_vertices());
    prop_assert_eq!(GraphStorage::num_edges(c), g.num_edges());
    prop_assert_eq!(GraphStorage::label_count(c), g.label_count());

    for (v, probes) in &checked_ids(g) {
        let v = *v;
        prop_assert_eq!(GraphStorage::label(c, v), g.label(v));
        prop_assert_eq!(GraphStorage::degree(c, v), g.degree(v));
        prop_assert_eq!(&*GraphStorage::neighbors_ref(c, v), g.neighbors(v));

        let mut streamed = Vec::new();
        c.for_each_neighbor(v, |w| {
            streamed.push(w);
            true
        });
        prop_assert_eq!(streamed.as_slice(), g.neighbors(v));

        for &w in probes {
            prop_assert_eq!(GraphStorage::has_edge(c, v, w), g.has_edge(v, w));
        }
    }

    for l in 0..g.label_count() {
        prop_assert_eq!(
            GraphStorage::vertices_with_label(c, l as Label),
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

/// Membership of `x` in `v`'s list from the streaming decoder, from the
/// decoded adjacency (twice: the first touch decodes it) and from CSR; all
/// must agree. Returns the verdict.
fn membership(
    g: &Graph,
    streaming: &CompressedGraph,
    cached: &CompressedGraph,
    v: VertexId,
    x: VertexId,
) -> bool {
    let want = g.neighbors(v).binary_search(&x).is_ok();
    assert_eq!(
        streaming.neighbors(v).contains(x),
        want,
        "streaming v={v} x={x}"
    );
    for round in 0..2 {
        let list = GraphStorage::neighbors_ref(cached, v);
        let hit = list.binary_search(&x).is_ok();
        assert_eq!(hit, want, "cached list v={v} x={x} round={round}");
        if (x as usize) < g.num_vertices() {
            let hit = GraphStorage::has_edge(cached, v, x);
            assert_eq!(hit, want, "cached has_edge v={v} x={x} round={round}");
        }
    }
    want
}

#[test]
fn probe_offsets_are_pinned() {
    // Membership verdicts on the wide-gap graph's decoder edge cases: the
    // hub's restart-table search, the run plus the far outlier in one
    // block, the one-entry block, and the zero-padded tail.
    let g = wide_gap_graph();
    let cached = CompressedGraph::from_graph(&g);
    let streaming = cached.clone().with_decode_cache(0);
    let last = g.num_vertices() as VertexId - 1;
    let probe = |v, x| membership(&g, &streaming, &cached, v, x);

    assert_eq!(g.neighbors(0)[150], 453_157);
    assert!(probe(0, 453_157));
    assert!(probe(1, 1_000_002));
    assert!(probe(1, last));
    assert!(probe(last, 1));
    assert!(probe(last, 900_027));
    assert!(!probe(1, 1_000_001));
    assert!(!probe(3, 140_007));

    // Every neighbor, its adjacent ids, and both ends of the id space.
    for v in [0, 1, 3, last] {
        let mut targets = vec![0, last];
        for &w in g.neighbors(v) {
            targets.extend([w.saturating_sub(1), w, w + 1]);
        }
        for x in targets {
            probe(v, x);
        }
    }
}

/// A hub graph whose vertex 0 spans several blocks — the shape that
/// exercises the restart-table binary search — and is adjacent to every
/// id not divisible by 3.
fn hub_graph(n: u32) -> Graph {
    let mut b = GraphBuilder::with_vertices(n as usize);
    for v in 1..n {
        if v % 3 != 0 {
            b.add_edge(0, v);
        }
    }
    b.build().expect("edges are in range")
}

/// Bytes of a graph's decoded adjacency: `n + 1` offsets and `2|E|` ids.
fn decoded_bytes(g: &Graph) -> usize {
    (g.num_vertices() + 1) * std::mem::size_of::<usize>()
        + 2 * g.num_edges() * std::mem::size_of::<VertexId>()
}

#[test]
fn cache_respects_its_budget_and_accounts_in_mem_bytes() {
    let g = hub_graph(4000);
    let n = g.num_vertices() as VertexId;
    let decoded = decoded_bytes(&g);
    assert_eq!(decoded, 4001 * 8 + 2 * 2666 * 4);

    // One byte short of the copy: every access streams and nothing is held.
    let short = CompressedGraph::from_graph(&g).with_decode_cache(decoded - 1);
    let base = short.mem_bytes();
    for _ in 0..3 {
        for v in 0..n {
            assert_eq!(&*short.neighbors_ref(v), g.neighbors(v), "v={v}");
        }
    }
    assert_eq!(
        short.decode_cache_bytes(),
        0,
        "a short budget holds nothing"
    );
    assert_eq!(short.mem_bytes(), base, "a short budget never grows");

    // Exactly the copy: a degree scan decodes nothing, the first
    // adjacency access decodes all of it, and mem_bytes counts it.
    let whole = CompressedGraph::from_graph(&g).with_decode_cache(decoded);
    let base = whole.mem_bytes();
    assert_eq!(
        GraphStats::of(&whole).mem_bytes,
        base,
        "degrees decode nothing"
    );
    assert_eq!(
        whole.decode_cache_bytes(),
        0,
        "nothing before the first adjacency access"
    );
    assert_eq!(&*whole.neighbors_ref(0), g.neighbors(0));
    assert_eq!(whole.decode_cache_bytes(), decoded);
    assert_eq!(
        whole.mem_bytes(),
        base + decoded,
        "mem_bytes counts the copy"
    );

    // A zero budget: no growth, identical answers.
    let off = CompressedGraph::from_graph(&g).with_decode_cache(0);
    let before = off.mem_bytes();
    for v in 0..n {
        assert_eq!(&*off.neighbors_ref(v), &*whole.neighbors_ref(v), "v={v}");
        assert_eq!(off.degree(v), whole.degree(v), "v={v}");
    }
    assert_eq!(off.decode_cache_bytes(), 0);
    assert_eq!(off.mem_bytes(), before, "a zero budget never grows");
}

/// Every `GraphStorage` answer for `c`, vertex by vertex, with
/// `neighbors_ref`, `neighbors_into` and `for_each_neighbor` compared
/// against each other on the way.
fn storage_answers(c: &CompressedGraph) -> Vec<(usize, Label, Vec<VertexId>, Vec<bool>)> {
    let n = c.num_vertices() as VertexId;
    let mut buf = Vec::new();
    (0..n)
        .map(|v| {
            let mut seen = Vec::new();
            c.for_each_neighbor(v, |w| {
                seen.push(w);
                true
            });
            assert_eq!(&*c.neighbors_ref(v), seen.as_slice(), "neighbors_ref({v})");
            c.neighbors_into(v, &mut buf);
            assert_eq!(buf, seen, "neighbors_into({v})");
            let probes = [0, v, (v * 7 + 3) % n, n - 1];
            let edges = probes
                .iter()
                .map(|&w| GraphStorage::has_edge(c, v, w))
                .collect();
            (
                GraphStorage::degree(c, v),
                GraphStorage::label(c, v),
                seen,
                edges,
            )
        })
        .collect()
}

#[test]
fn first_touch_from_two_threads_decodes_once() {
    // Both threads reach their first access together: one through
    // `degree` (served by the index until the copy exists), one through
    // `for_each_neighbor`. The cell decodes once, and the decode pass must
    // not read the cell it is filling (that hangs).
    let g = gsword::datasets::dataset("yeast");
    let c = CompressedGraph::from_graph(&g);
    assert_eq!(c.decode_cache_bytes(), 0);
    let start = std::sync::Barrier::new(2);
    let [first, second] = std::thread::scope(|s| {
        let threads = [0, 1].map(|t| {
            let (c, start) = (&c, &start);
            s.spawn(move || {
                start.wait();
                if t == 0 {
                    let _ = c.degree(0);
                } else {
                    c.for_each_neighbor(0, |_| true);
                }
                storage_answers(c)
            })
        });
        threads.map(|t| t.join().expect("storage thread"))
    });
    assert!(first == second, "threads disagree");
    let streaming = CompressedGraph::from_graph(&g).with_decode_cache(0);
    assert!(
        first == storage_answers(&streaming),
        "decoded and streaming disagree"
    );
    for (v, (degree, _, list, _)) in first.iter().enumerate() {
        assert_eq!(*degree, g.degree(v as VertexId));
        assert_eq!(list.as_slice(), g.neighbors(v as VertexId));
    }
    assert_eq!(c.decode_cache_bytes(), decoded_bytes(&g), "one copy");
}

#[test]
fn rebudgeted_clone_keeps_the_originals_copy() {
    let g = hub_graph(4000);
    let c = CompressedGraph::from_graph(&g);
    for v in 0..2000 {
        assert_eq!(&*c.neighbors_ref(v), g.neighbors(v), "v={v}");
    }
    let held = c.decode_cache_bytes();
    assert!(held > 0, "the default budget decoded the graph");
    let small = c.clone().with_decode_cache(4096);
    for v in 2000..4000 {
        assert_eq!(&*small.neighbors_ref(v), g.neighbors(v), "v={v}");
    }
    assert_eq!(
        c.decode_cache_bytes(),
        held,
        "the clone left the copy alone"
    );
    assert_eq!(small.decode_cache_bytes(), 0, "4 KiB holds no copy");
}
