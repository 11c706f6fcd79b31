//! Property-based tests on the core data structures and estimator
//! invariants, using random graphs and queries.

use gsword::prelude::*;
use gsword::query::QueryVertex;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Random small labeled graph strategy: (n, edge pairs, labels).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let labels = gsword::graph::gen::zipf_labels(n, 4, 0.8, seed);
        gsword::graph::gen::erdos_renyi(n, n * 3, labels, seed ^ 0xE)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_adjacency_is_symmetric_and_sorted(g in graph_strategy()) {
        for u in 0..g.num_vertices() as VertexId {
            let nbrs = g.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for &v in nbrs {
                prop_assert!(g.has_edge(v, u));
            }
        }
        let degree_sum: usize = (0..g.num_vertices() as VertexId).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn graph_io_round_trips(g in graph_strategy()) {
        let mut buf = Vec::new();
        gsword::graph::io::write_graph(&g, &mut buf).unwrap();
        let g2 = gsword::graph::io::read_graph(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn candidate_graph_is_sound(g in graph_strategy(), qseed in any::<u64>()) {
        // Every embedding found by the naive oracle must be representable
        // in the candidate graph.
        let Some(q) = QueryGraph::extract(&g, 3, qseed) else { return Ok(()); };
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        cg.validate_invariants().map_err(TestCaseError::fail)?;
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let exact = count_instances(&ctx, EnumLimits::unlimited()).count;
        let naive = gsword::enumeration::naive::count_embeddings(&g, &q);
        prop_assert_eq!(exact, naive, "candidate-graph enumeration vs naive oracle");
    }

    #[test]
    fn matching_orders_have_connected_prefixes(g in graph_strategy(), qseed in any::<u64>()) {
        let Some(q) = QueryGraph::extract(&g, 4, qseed) else { return Ok(()); };
        for kind in [OrderKind::QuickSi, OrderKind::GCare] {
            let order = gsword::query::make_order(kind, &q, &g);
            prop_assert_eq!(order.len(), q.num_vertices());
            for i in 1..order.len() {
                prop_assert!(!order.backward_positions(i).is_empty(), "{:?} position {}", kind, i);
            }
            // The backward table must agree with the query's edges.
            for i in 0..order.len() {
                for &j in order.backward_positions(i) {
                    prop_assert!(q.has_edge(order.vertex_at(j as usize), order.vertex_at(i)));
                }
            }
        }
    }

    #[test]
    fn cpu_estimators_are_unbiased(g in graph_strategy(), qseed in any::<u64>()) {
        let Some(q) = QueryGraph::extract(&g, 3, qseed) else { return Ok(()); };
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let truth = count_instances(&ctx, EnumLimits::unlimited()).count as f64;
        for kind in [EstimatorKind::WanderJoin, EstimatorKind::Alley] {
            let est = gsword::estimators::with_estimator(kind, |e| {
                gsword::estimators::run_sequential(&ctx, e, 30_000, qseed ^ 0x5A).estimate
            });
            // Generous tolerance: 30k samples on tiny graphs.
            let err = (est.value() - truth).abs();
            let tol = (truth * 0.35).max(3.0);
            prop_assert!(err <= tol, "{:?}: {} vs {}", kind, est.value(), truth);
        }
    }

    #[test]
    fn trawling_is_unbiased_for_any_depth_distribution(
        g in graph_strategy(),
        qseed in any::<u64>(),
        min_depth in 1usize..4,
    ) {
        let Some(q) = QueryGraph::extract(&g, 4, qseed) else { return Ok(()); };
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        let order = quicksi_order(&q, &g);
        let ctx = QueryCtx::new(&cg, &order);
        let truth = count_instances(&ctx, EnumLimits::unlimited()).count as f64;
        let dist = DepthDist::new(min_depth, ctx.len());
        let mut rng = SmallRng::seed_from_u64(qseed);
        let n = 3_000;
        let mean: f64 = (0..n)
            .map(|_| gsword::pipeline::trawl_once(&ctx, &Alley, &dist, &mut rng))
            .sum::<f64>() / n as f64;
        let tol = (truth * 0.4).max(3.0);
        prop_assert!((mean - truth).abs() <= tol, "trawl mean {} vs truth {}", mean, truth);
    }

    #[test]
    fn q_error_properties(est in 0.0f64..1e9, truth in 0.0f64..1e9) {
        let q = q_error(est, truth);
        prop_assert!(q >= 1.0);
        prop_assert!((q_error(truth, est) - q).abs() < 1e-9, "symmetric");
        let s = signed_q_error(est, truth);
        prop_assert!((s.abs() - q).abs() < 1e-9);
    }

    #[test]
    fn depth_dist_stays_in_support(min_depth in 1usize..6, qlen in 1usize..16, seed in any::<u64>()) {
        let dist = DepthDist::new(min_depth, qlen);
        let lo = min_depth.min(qlen).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let d = dist.sample(&mut rng);
            prop_assert!(d >= lo && d <= qlen);
        }
    }
}

/// A graph on 1–3 labels with a power-law hub: vertex 0 links to about
/// half of the others, so query vertices share labels (and often whole
/// candidate sets) and some candidates have far larger adjacencies than
/// the rest.
fn shared_label_hub_strategy() -> impl Strategy<Value = Graph> {
    (8usize..72, 1usize..4, any::<u64>()).prop_map(|(n, labels, seed)| {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_vertices(n);
        for (v, l) in gsword::graph::gen::zipf_labels(n, labels, 0.6, seed)
            .into_iter()
            .enumerate()
        {
            b.set_label(v as VertexId, l);
        }
        for v in 1..n as VertexId {
            if rng.gen_bool(0.5) {
                b.add_edge(0, v);
            }
        }
        for _ in 0..2 * n {
            b.add_edge(
                rng.gen_range(0..n as VertexId),
                rng.gen_range(0..n as VertexId),
            );
        }
        b.build().expect("edges are in range")
    })
}

/// `C(u)` for every query vertex, straight from the filter definitions:
/// label, degree, neighbor-label frequency, then `prune_rounds` in-place
/// passes that drop `v` from `C(u)` when some query edge `(u, u')` leaves
/// `N(v) ∩ C(u')` empty.
fn reference_candidates(g: &Graph, q: &QueryGraph, cfg: &BuildConfig) -> Vec<Vec<VertexId>> {
    let n = q.num_vertices() as QueryVertex;
    let label_freq =
        |labels: &mut dyn Iterator<Item = Label>, l: Label| labels.filter(|&x| x == l).count();
    let mut sets: Vec<Vec<VertexId>> = (0..n)
        .map(|u| {
            (0..g.num_vertices() as VertexId)
                .filter(|&v| g.label(v) == q.label(u))
                .filter(|&v| !cfg.degree_filter || g.degree(v) >= q.degree(u))
                .filter(|&v| {
                    !cfg.nlf_filter
                        || q.neighbors(u).all(|u2| {
                            let l = q.label(u2);
                            let need = label_freq(&mut q.neighbors(u).map(|x| q.label(x)), l);
                            let have =
                                label_freq(&mut g.neighbors(v).iter().map(|&w| g.label(w)), l);
                            have >= need
                        })
                })
                .collect()
        })
        .collect();
    for _ in 0..cfg.prune_rounds {
        for u in 0..n {
            let kept: Vec<VertexId> = sets[u as usize]
                .iter()
                .copied()
                .filter(|&v| {
                    q.neighbors(u)
                        .all(|u2| g.neighbors(v).iter().any(|w| sets[u2 as usize].contains(w)))
                })
                .collect();
            sets[u as usize] = kept;
        }
    }
    sets
}

/// Check every array of `cg` against the definition: the global sets
/// `C(u)`, the directed query edges in `(u, u')` order, and
/// `local(e, v) = N(v) ∩ C(dst(e))` laid out edge after edge.
fn check_definition(
    g: &Graph,
    q: &QueryGraph,
    cfg: &BuildConfig,
    cg: &CandidateGraph,
) -> Result<(), TestCaseError> {
    let sets = reference_candidates(g, q, cfg);
    let n = q.num_vertices();
    let mut global_at = 0;
    for (u, set) in sets.iter().enumerate() {
        prop_assert_eq!(cg.global_with_addr(u as QueryVertex), (&set[..], global_at));
        global_at += set.len();
    }
    let (mut k, mut tuples, mut local_at) = (0, 0, 0);
    for u in 0..n as QueryVertex {
        for u2 in q.neighbors(u) {
            prop_assert_eq!(cg.edge_dst(k), u2);
            prop_assert_eq!(cg.edge_index(u, u2), Some(k));
            for v in 0..g.num_vertices() as VertexId {
                if sets[u as usize].contains(&v) {
                    let want: Vec<VertexId> = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|w| sets[u2 as usize].contains(w))
                        .collect();
                    prop_assert_eq!(cg.local_with_addr(k, v), (&want[..], local_at));
                    local_at += want.len();
                    tuples += 1;
                } else {
                    prop_assert!(
                        cg.local(k, v).is_empty(),
                        "v{} is no candidate of u{}",
                        v,
                        u
                    );
                }
            }
            k += 1;
        }
    }
    prop_assert_eq!(cg.num_directed_edges(), k);
    prop_assert_eq!(cg.num_local_entries(), local_at);
    // Array lengths, which the lookups above cannot see: offsets are
    // `usize`, vertex ids `u32`, edge destinations one byte. Tuples are
    // counted by offsets alone; no vertex id is stored per tuple.
    let offsets = (n + 1) + (n + 1) + (k + 1) + (tuples + 1);
    let ids = global_at + local_at;
    prop_assert_eq!(cg.byte_size(), offsets * 8 + ids * 4 + k);
    Ok(())
}

/// Alley's batched Refine keeps exactly the candidates that per-element
/// `refine_one` keeps, on the shape Alley sees: for every directed query
/// edge `u → u'`, `C(u')` filtered through the local lists of three source
/// candidates at a time, heaviest lists first, down to the empty ones.
fn check_alley_refine(q: &QueryGraph, cg: &CandidateGraph) -> Result<(), TestCaseError> {
    for u in 0..q.num_vertices() as QueryVertex {
        for u2 in q.neighbors(u) {
            let k = cg
                .edge_index(u, u2)
                .expect("every query edge has a CSR edge");
            let cand = cg.global(u2);
            let mut sources = cg.global(u).to_vec();
            sources.sort_by_key(|&v| std::cmp::Reverse(cg.local(k, v).len()));
            for chunk in sources.chunks(3) {
                let segs: Vec<Segment<'_>> = chunk.iter().map(|&v| (cg.local(k, v), 0)).collect();
                let mut batched = Vec::new();
                Alley.refine_into(&segs, cand, &mut batched);
                let per_element: Vec<VertexId> = cand
                    .iter()
                    .copied()
                    .filter(|&v| Alley.refine_one(&segs, v))
                    .collect();
                prop_assert_eq!(batched, per_element, "edge u{} -> u{}", u, u2);
            }
        }
    }
    Ok(())
}

/// `QueryCtx`'s rank lookup resolves exactly what `local_with_addr`'s
/// search of the edge's source set `C(u)` finds, under the QuickSI and
/// G-CARE orders: `backward_segments` and `min_candidate_prefix` at every
/// position, with every earlier position matched to one id, for every
/// vertex id of `g` (every source candidate and the ids absent from `C(u)`)
/// and ids past the largest candidate.
fn check_backward_lookup(
    g: &Graph,
    q: &QueryGraph,
    cg: &CandidateGraph,
) -> Result<(), TestCaseError> {
    let n = g.num_vertices() as VertexId;
    let ids: Vec<VertexId> = (0..n + 2)
        .chain([n + 31, n + 32, 1 << 31, VertexId::MAX])
        .collect();
    for kind in [OrderKind::QuickSi, OrderKind::GCare] {
        let order = gsword::query::make_order(kind, q, g);
        let ctx = QueryCtx::new(cg, &order);
        let mut segs = Vec::new();
        for d in 1..ctx.len() {
            for &v in &ids {
                let prefix = vec![v; d];
                let want: Vec<Segment<'_>> = ctx
                    .backward(d)
                    .iter()
                    .map(|be| cg.local_with_addr(be.edge as usize, v))
                    .collect();
                segs.clear();
                ctx.backward_segments(&prefix, d, &mut segs);
                prop_assert_eq!(&segs, &want, "{:?} position {} id {}", kind, d, v);
                let (set, addr) = *want
                    .iter()
                    .min_by_key(|(set, _)| set.len())
                    .expect("positions past the root have a backward edge");
                prop_assert_eq!(
                    ctx.min_candidate_prefix(&prefix, d),
                    (set, addr, false),
                    "{:?} position {} id {}",
                    kind,
                    d,
                    v
                );
            }
        }
    }
    Ok(())
}

/// Queries of 3–12 vertices extracted from `g`, a 32-vertex query (the
/// widest the membership masks allow), a query with one label the data
/// graph lacks, whose candidate set is empty, and two queries whose
/// vertices share filter keys: a path labeled 0–1–2–0, whose ends share a
/// key but are pruned against different neighbors, and a one-label cycle,
/// whose every directed edge maps to the one class edge `a → a`.
fn definition_queries(g: &Graph, seed: u64) -> Vec<QueryGraph> {
    let mut queries: Vec<QueryGraph> = (3..=12)
        .filter_map(|k| QueryGraph::extract(g, k, seed ^ k as u64))
        .collect();
    let labels = g.label_count().max(1);
    let wide_edges: Vec<(QueryVertex, QueryVertex)> = (1..32)
        .map(|i| (i - 1, i))
        .chain((3..32).step_by(3).map(|i| (0, i)))
        .collect();
    queries.push(
        QueryGraph::new(
            (0..32).map(|i| (i % labels) as Label).collect(),
            &wide_edges,
        )
        .expect("connected 32-vertex query"),
    );
    queries.push(QueryGraph::new(vec![0, 7, 0], &[(0, 1), (1, 2), (0, 2)]).expect("triangle"));
    queries.push(
        QueryGraph::new(
            [0, 1, 2, 0].map(|l| (l % labels) as Label).to_vec(),
            &[(0, 1), (1, 2), (2, 3)],
        )
        .expect("labeled path"),
    );
    queries.push(
        QueryGraph::new(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
            .expect("one-label cycle"),
    );
    queries
}

/// The configurations the definition is checked under: the three presets
/// and pruning without NLF, under which vertices with one filter key can
/// end with different sets.
fn definition_configs() -> [BuildConfig; 4] {
    [
        BuildConfig::default(),
        BuildConfig::strong(),
        BuildConfig::unfiltered(),
        BuildConfig {
            degree_filter: true,
            nlf_filter: false,
            prune_rounds: 2,
        },
    ]
}

/// Builds each of `queries` on `g` under every `definition_configs` entry
/// and checks the CSR build's invariants, its definition, its Alley Refine
/// and its backward lookup, and that budget-0 streaming and decoded
/// compressed storage build the same graph.
fn check_all_storages(g: &Graph, queries: &[QueryGraph]) -> Result<(), TestCaseError> {
    let streaming = CompressedGraph::from_graph(g).with_decode_cache(0);
    let decoded = CompressedGraph::from_graph(g);
    for q in queries {
        for cfg in definition_configs() {
            let (cg, _) = build_candidate_graph(g, q, &cfg);
            cg.validate_invariants().map_err(TestCaseError::fail)?;
            check_definition(g, q, &cfg, &cg)?;
            check_alley_refine(q, &cg)?;
            check_backward_lookup(g, q, &cg)?;
            prop_assert_eq!(&build_candidate_graph(&streaming, q, &cfg).0, &cg);
            prop_assert_eq!(&build_candidate_graph(&decoded, q, &cfg).0, &cg);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidate_graph_equals_its_definition(g in shared_label_hub_strategy(), seed in any::<u64>()) {
        check_all_storages(&g, &definition_queries(&g, seed))?;
    }
}

/// A 32-vertex query with pairwise-distinct labels on a graph with 32
/// labels: every query vertex is a class of its own, so the class masks use
/// bit 31.
#[test]
fn thirty_two_classes_equal_the_definition() {
    use rand::Rng;
    let copies = 3;
    let mut rng = SmallRng::seed_from_u64(32);
    let mut b = GraphBuilder::with_vertices(32 * copies);
    for v in 0..32 * copies {
        b.set_label(v as VertexId, (v % 32) as Label);
    }
    let edges: Vec<(QueryVertex, QueryVertex)> = (1..32)
        .map(|i| (i - 1, i))
        .chain((4..32).step_by(4).map(|i| (i - 4, i)))
        .collect();
    // Copy 0 embeds the query, so every set keeps a vertex under every
    // config. Each query edge also gets a few data edges between random
    // copies of its labels, so sets and local lists differ in size.
    for &(i, j) in &edges {
        b.add_edge(i as VertexId, j as VertexId);
        for _ in 0..copies {
            let (ci, cj) = (rng.gen_range(0..copies), rng.gen_range(0..copies));
            b.add_edge(
                (i as usize + 32 * ci) as VertexId,
                (j as usize + 32 * cj) as VertexId,
            );
        }
    }
    let g = b.build().expect("edges are in range");
    let q = QueryGraph::new((0..32).collect(), &edges).expect("connected 32-vertex query");
    let streaming = CompressedGraph::from_graph(&g).with_decode_cache(0);
    let decoded = CompressedGraph::from_graph(&g);
    for cfg in definition_configs() {
        let (cg, _) = build_candidate_graph(&g, &q, &cfg);
        assert!(
            (0..32).all(|u| !cg.global(u).is_empty()),
            "32 non-empty sets of distinct labels are 32 classes under {cfg:?}"
        );
        check_definition(&g, &q, &cfg, &cg).expect("CSR build equals the definition");
        for (name, storage) in [("streaming", &streaming), ("decoded", &decoded)] {
            let (other, _) = build_candidate_graph(storage, &q, &cfg);
            check_definition(&g, &q, &cfg, &other)
                .unwrap_or_else(|e| panic!("{name} build under {cfg:?}: {e}"));
        }
    }
}

/// One label and a hub adjacent to most of 260 vertices: the hub's list
/// spans at least four Rice blocks behind a restart table, and a second
/// hub's spans more than one. Under the degree filter one label nests the
/// candidate sets, so high-degree vertices are candidates of several
/// classes. Besides `definition_queries`, whose extracted queries mostly
/// pass the hub and whose one-label cycle maps every directed edge to the
/// class edge `a → a`, a star routes leaf class → center class, whose set
/// the low-degree leaves miss.
#[test]
fn multi_block_lists_equal_the_definition() {
    use gsword::graph::compressed::BLOCK;
    use rand::Rng;
    let n = 260;
    let mut rng = SmallRng::seed_from_u64(200);
    let mut b = GraphBuilder::with_vertices(n);
    for v in 1..n as VertexId {
        if rng.gen_bool(0.9) {
            b.add_edge(0, v);
        }
        if v > 1 && rng.gen_bool(0.4) {
            b.add_edge(1, v);
        }
    }
    for _ in 0..2 * n {
        b.add_edge(
            rng.gen_range(2..n as VertexId),
            rng.gen_range(2..n as VertexId),
        );
    }
    let g = b.build().expect("edges are in range");
    assert!(
        g.degree(0) >= 200 && g.degree(1) > BLOCK,
        "multi-block hubs"
    );
    let mut queries = definition_queries(&g, 200);
    queries.push(
        QueryGraph::new(vec![0; 6], &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).expect("star"),
    );
    check_all_storages(&g, &queries).unwrap_or_else(|e| panic!("{e}"));
    let hub_in_several_classes = queries.iter().any(|q| {
        definition_configs().iter().any(|cfg| {
            let (cg, _) = build_candidate_graph(&g, q, cfg);
            let mut sets: Vec<&[VertexId]> = (0..q.num_vertices() as QueryVertex)
                .map(|u| cg.global(u))
                .filter(|set| set.contains(&0))
                .collect();
            sets.dedup();
            sets.len() > 1
        })
    });
    assert!(hub_in_several_classes, "the hub is a multi-class candidate");
}
