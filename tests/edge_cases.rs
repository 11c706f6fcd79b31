//! Boundary and failure-injection tests across the stack: degenerate
//! queries, absent labels, pathological pipeline configurations.

use gsword::prelude::*;

fn small_device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 1,
        threads_per_block: 32,
    }
}

#[test]
fn single_vertex_query_counts_label_occurrences() {
    // The smallest legal query: one labeled vertex, no edges. Every
    // backend must return exactly the label-class size (the sample space
    // is the global candidate set and every sample is valid).
    let data = gsword::datasets::dataset("yeast");
    let label = 3;
    let query = QueryGraph::new(vec![label], &[]).expect("single vertex is connected");
    let expected = data.vertices_with_label(label).len() as f64;
    for backend in [
        Backend::Cpu { threads: 1 },
        Backend::Gsword,
        Backend::GpuBaseline,
    ] {
        let r = Gsword::builder(&data, &query)
            .samples(2_000)
            .backend(backend)
            .device(small_device())
            .run()
            .expect("run");
        assert_eq!(r.estimate, expected, "{backend:?}");
        assert_eq!(r.sampler.success_ratio(), 1.0, "{backend:?}");
    }
    assert_eq!(exact_count(&data, &query, 0, 1), Some(expected as u64));
}

#[test]
fn absent_label_yields_exact_zero() {
    // A query label that does not occur: the candidate graph is empty,
    // every sample dies at the root, and the estimate is exactly 0.
    let data = gsword::datasets::dataset("yeast");
    let absent = data.label_count() as Label; // one past the max used label
    let query = QueryGraph::new(vec![absent, absent], &[(0, 1)]).expect("edge query");
    let r = Gsword::builder(&data, &query)
        .samples(1_000)
        .device(small_device())
        .run()
        .expect("run");
    assert_eq!(r.estimate, 0.0);
    assert_eq!(r.sampler.valid, 0);
    assert_eq!(exact_count(&data, &query, 0, 1), Some(0));
}

#[test]
fn impossible_structure_yields_zero_everywhere() {
    // A 5-clique on a triangle-only graph: candidates exist but no
    // instance does. Estimators must converge to 0, enumeration to 0, and
    // trawling must not invent mass.
    let mut b = GraphBuilder::with_vertices(3);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let data = b.build().unwrap();
    let query = gsword::query::motifs::clique(&[0; 5]);
    let r = Gsword::builder(&data, &query)
        .samples(5_000)
        .device(small_device())
        .trawling(TrawlConfig {
            batches: 2,
            cpu_threads: 1,
            per_batch: 8,
            ..TrawlConfig::default()
        })
        .run()
        .expect("run");
    assert_eq!(r.estimate, 0.0);
    assert_eq!(exact_count(&data, &query, 0, 1), Some(0));
}

#[test]
fn max_size_query_is_accepted_and_larger_rejected() {
    let ring32: Vec<(u8, u8)> = (0..32u8).map(|i| (i, (i + 1) % 32)).collect();
    assert!(QueryGraph::new(vec![0; 32], &ring32).is_some());
    let ring33: Vec<(u8, u8)> = (0..33u8).map(|i| (i, (i + 1) % 33)).collect();
    assert!(QueryGraph::new(vec![0; 33], &ring33).is_none());
}

#[test]
fn pipeline_survives_pathological_configs() {
    let data = gsword::datasets::dataset("yeast");
    let query = QueryGraph::extract(&data, 4, 3).expect("query");
    // Zero trawl samples per batch: pure sampling through the pipeline.
    let r = Gsword::builder(&data, &query)
        .samples(2_000)
        .device(small_device())
        .trawling(TrawlConfig {
            batches: 4,
            cpu_threads: 1,
            per_batch: 0,
            ..TrawlConfig::default()
        })
        .run()
        .expect("run");
    assert!(r.trawl.is_none());
    assert!(r.estimate.is_finite());

    // More batches than samples.
    let r = Gsword::builder(&data, &query)
        .samples(3)
        .device(small_device())
        .trawling(TrawlConfig {
            batches: 10,
            cpu_threads: 1,
            per_batch: 2,
            ..TrawlConfig::default()
        })
        .run()
        .expect("run");
    assert!(r.sampler.samples >= 3, "every batch samples at least once");
}

#[test]
fn trawl_node_budget_drops_heavy_tasks() {
    // With a 1-node budget, only trivially-failing prefixes complete; the
    // pipeline must degrade to (near-)pure sampling, not hang or panic.
    let data = gsword::datasets::dataset("yeast");
    let query = QueryGraph::extract(&data, 6, 9).expect("query");
    let r = Gsword::builder(&data, &query)
        .samples(2_000)
        .device(small_device())
        .trawling(TrawlConfig {
            batches: 2,
            cpu_threads: 1,
            per_batch: 16,
            node_budget: 1,
            ..TrawlConfig::default()
        })
        .run()
        .expect("run");
    assert!(r.estimate.is_finite());
}

#[test]
fn disconnected_data_graph_is_handled() {
    // Two components; queries extracted in one must not see the other.
    let mut b = GraphBuilder::with_vertices(6);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(u, v);
    }
    let data = b.build().unwrap();
    let query = gsword::query::motifs::triangle(0);
    let r = Gsword::builder(&data, &query)
        .samples(20_000)
        .device(small_device())
        .run()
        .expect("run");
    // 2 triangles × 6 automorphism-order embeddings.
    assert_eq!(exact_count(&data, &query, 0, 1), Some(12));
    assert!((r.estimate - 12.0).abs() < 2.0, "estimate {}", r.estimate);
}
