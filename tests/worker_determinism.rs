//! Block-parallel launches are bit-deterministic: fanning a grid's blocks
//! over any number of sim workers, on any device × stream topology, must
//! not change a single observable — estimates, kernel counters, or
//! sanitizer verdicts. Likewise the
//! decoded adjacency inside the compressed backend is a pure
//! memoization: every `GraphStorage` method answers identically whether
//! the graph reads its decoded copy, streams with the budget at 0, or
//! streams because its budget cannot hold the copy.

use gsword::graph::compressed::CompressedGraph;
use gsword::prelude::*;
use proptest::prelude::*;

/// One run on `devices` × `streams` with `workers` sim workers per launch.
fn run_with_workers(
    data: &Graph,
    query: &QueryGraph,
    kind: EstimatorKind,
    seed: u64,
    (devices, streams, workers): (usize, usize, usize),
) -> Report {
    Gsword::builder(data, query)
        .samples(2_000)
        .estimator(kind)
        .seed(seed)
        .backend(Backend::Gsword)
        .num_devices(devices)
        .streams_per_device(streams)
        .sim_workers(workers)
        .sanitize(true)
        .run()
        .expect("estimate runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 2 and 8 sim workers on one stream, and 3 workers on each of
    /// 2 devices × 2 streams: same estimate bits, same counter snapshot,
    /// same sanitizer violation set as 1 worker on 1 × 1 — on both a small
    /// and a larger dataset, for both estimators.
    #[test]
    fn estimates_are_bit_identical_across_worker_counts(seed in any::<u64>()) {
        let dataset = if seed & 1 == 0 { "yeast" } else { "eu2005" };
        let kind = if seed & 2 == 0 { EstimatorKind::WanderJoin } else { EstimatorKind::Alley };
        let data = gsword::datasets::dataset(dataset);
        let query = QueryGraph::extract(&data, 4, seed ^ 0xA5A5).expect("query");
        let serial = run_with_workers(&data, &query, kind, seed, (1, 1, 1));
        for setup in [(1usize, 1usize, 2usize), (1, 1, 8), (2, 2, 3)] {
            let parallel = run_with_workers(&data, &query, kind, seed, setup);
            prop_assert_eq!(
                serial.estimate.to_bits(),
                parallel.estimate.to_bits(),
                "{}/{:?}: estimate diverges at (devices, streams, workers) = {:?}",
                dataset, kind, setup
            );
            prop_assert_eq!(
                serial.counters.as_ref().expect("counters").snapshot(),
                parallel.counters.as_ref().expect("counters").snapshot(),
                "{}/{:?}: counters diverge at (devices, streams, workers) = {:?}",
                dataset, kind, setup
            );
            prop_assert_eq!(
                serial.sanitizer.as_ref().expect("sanitizer report"),
                parallel.sanitizer.as_ref().expect("sanitizer report"),
                "{}/{:?}: sanitizer verdicts diverge at (devices, streams, workers) = {:?}",
                dataset, kind, setup
            );
        }
    }
}

/// Every `GraphStorage` method, compared element-for-element between a
/// compressed graph that decodes its adjacency (default budget), one with
/// a zero budget, and one whose 1-byte budget cannot hold the copy (both
/// stream).
#[test]
fn decode_cache_is_invisible_to_every_storage_method() {
    let g = gsword::datasets::dataset("yeast");
    let cached = CompressedGraph::from_graph(&g); // default budget: decodes
    let uncached = CompressedGraph::from_graph(&g).with_decode_cache(0);
    let starved = CompressedGraph::from_graph(&g).with_decode_cache(1);

    assert!(cached.decode_cache_capacity() > 0);
    assert_eq!(uncached.decode_cache_capacity(), 0);

    let n = g.num_vertices();
    assert_eq!(cached.num_vertices(), n);
    assert_eq!(uncached.num_vertices(), n);
    assert_eq!(cached.num_edges(), uncached.num_edges());
    assert_eq!(cached.label_count(), uncached.label_count());
    assert_eq!(cached.max_degree(), uncached.max_degree());

    let mut buf_c = Vec::new();
    let mut buf_u = Vec::new();
    for v in 0..n as VertexId {
        // Twice per vertex: a repeated read answers the same.
        for pass in 0..2 {
            assert_eq!(
                &*cached.neighbors_ref(v),
                &*uncached.neighbors_ref(v),
                "neighbors_ref({v}) pass {pass}"
            );
            assert_eq!(
                &*starved.neighbors_ref(v),
                &*uncached.neighbors_ref(v),
                "starved neighbors_ref({v}) pass {pass}"
            );

            buf_c.clear();
            buf_u.clear();
            cached.neighbors_into(v, &mut buf_c);
            uncached.neighbors_into(v, &mut buf_u);
            assert_eq!(buf_c, buf_u, "neighbors_into({v})");

            let mut seen_c = Vec::new();
            cached.for_each_neighbor(v, |w| {
                seen_c.push(w);
                true
            });
            assert_eq!(seen_c, buf_u, "for_each_neighbor({v})");

            // Early-exit streaming must stop at the same place.
            let mut first_c = None;
            let mut first_u = None;
            cached.for_each_neighbor(v, |w| {
                first_c = Some(w);
                false
            });
            uncached.for_each_neighbor(v, |w| {
                first_u = Some(w);
                false
            });
            assert_eq!(first_c, first_u, "for_each_neighbor({v}) early exit");
        }

        assert_eq!(cached.degree(v), uncached.degree(v), "degree({v})");
        assert_eq!(cached.label(v), uncached.label(v), "label({v})");

        let probe = [(v * 7 + 3) % n as VertexId, (v + 1) % n as VertexId];
        for &w in &probe {
            assert_eq!(
                cached.has_edge(v, w),
                uncached.has_edge(v, w),
                "has_edge({v}, {w})"
            );
        }
    }

    for l in 0..cached.label_count() as Label {
        assert_eq!(
            cached.vertices_with_label(l),
            uncached.vertices_with_label(l),
            "vertices_with_label({l})"
        );
    }

    // The default budget holds exactly one decoded copy, `n + 1` offsets
    // and `2|E|` ids, and mem_bytes reports it; a 1-byte budget holds
    // nothing.
    let decoded = (n + 1) * std::mem::size_of::<usize>()
        + 2 * g.num_edges() * std::mem::size_of::<VertexId>();
    assert_eq!(cached.decode_cache_bytes(), decoded);
    assert_eq!(cached.mem_bytes(), uncached.mem_bytes() + decoded);
    assert_eq!(
        starved.decode_cache_bytes(),
        0,
        "nothing fits a 1-byte budget"
    );
}
