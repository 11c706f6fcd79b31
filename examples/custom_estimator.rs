//! Implementing a custom RW estimator against the RSV abstraction — the
//! extensibility story of Fig. 19: "users can create their custom RW
//! estimators by adjusting the number of elements to be refined,
//! effectively balancing the trade-off between efficiency and accuracy."
//!
//! `HybridK` refines against the first `K` backward constraints (cheap,
//! partial pruning) and defers the remaining checks to Validate — a point
//! between WanderJoin (K = 0) and Alley (K = all).
//!
//! ```sh
//! cargo run --release --example custom_estimator
//! ```

use gsword::prelude::*;

/// Refine against at most `K` backward segments; validate the rest.
struct HybridK<const K: usize>;

impl<const K: usize> Estimator for HybridK<K> {
    fn needs_refine(&self) -> bool {
        K > 0
    }

    fn refine_one(&self, segs: &[Segment<'_>], v: VertexId) -> bool {
        segs.iter()
            .take(K)
            .all(|(seg, _)| seg.binary_search(&v).is_ok())
    }

    fn validate(&self, segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool {
        !s.contains(v)
            && segs
                .iter()
                .skip(K)
                .all(|(seg, _)| seg.binary_search(&v).is_ok())
    }

    fn kind(&self) -> EstimatorKind {
        // Reported as Alley-like (it has a refine stage).
        EstimatorKind::Alley
    }
}

fn main() {
    let data = gsword::datasets::dataset("dblp");
    // Pick a query with a non-trivial count so the estimators have
    // something to disagree about. On dblp the first 64 plain 8-vertex
    // draws are all trees, so draw dense queries (max degree ≥ 3), which
    // include cyclic ones.
    let (query, truth) = (0..64u64)
        .filter_map(|s| QueryGraph::extract_class(&data, 8, 0xAB ^ s, Some(QueryClass::Dense)))
        // A cyclic query (edges ≥ vertices) gives positions with several
        // backward constraints, where the Refine/Validate split matters.
        .filter(|q| q.num_edges() >= q.num_vertices())
        .find_map(|q| {
            let t = exact_count(&data, &q, 100_000_000, 0)?;
            (t >= 100).then_some((q, Some(t)))
        })
        .expect("dblp hosts countable 8-vertex queries");
    println!(
        "query: {} vertices / {} edges; exact = {:?}",
        query.num_vertices(),
        query.num_edges(),
        truth
    );
    println!(
        "{:<12} {:>14} {:>10} {:>14}",
        "estimator", "estimate", "q-error", "success ratio"
    );

    let run_builtin = |kind: EstimatorKind| {
        Gsword::builder(&data, &query)
            .samples(100_000)
            .estimator(kind)
            .seed(11)
            .run()
            .expect("run")
    };
    let print_row = |name: &str, r: &Report| {
        let q = truth.map_or(f64::NAN, |c| r.q_error(c as f64));
        println!(
            "{name:<12} {:>14.1} {:>10.3} {:>14.2e}",
            r.estimate,
            q,
            r.sampler.success_ratio()
        );
    };

    print_row("WanderJoin", &run_builtin(EstimatorKind::WanderJoin));
    print_row("Alley", &run_builtin(EstimatorKind::Alley));

    // The custom middle points, run through the same device engine.
    let hybrid1 = Gsword::builder(&data, &query)
        .samples(100_000)
        .seed(11)
        .run_custom(&HybridK::<1>)
        .expect("custom estimator runs");
    print_row("Hybrid<1>", &hybrid1);

    let hybrid2 = Gsword::builder(&data, &query)
        .samples(100_000)
        .seed(11)
        .run_custom(&HybridK::<2>)
        .expect("custom estimator runs");
    print_row("Hybrid<2>", &hybrid2);
}
