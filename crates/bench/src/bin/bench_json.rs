//! Quick-mode bench rail: times the sampling, candidate-build, Alley
//! Refine and storage groups, and writes `BENCH_sampling.json` (median ns
//! per op keyed by bench id, with the git rev and dirty flag) at the
//! workspace root. Run via `cargo xtask bench --json`.
//!
//! The storage group runs per dataset (yeast and eu2005) and prices the
//! compressed backend three ways: CSR slices, cold Rice-block decode
//! (`/compressed`, budget 0), and the decoded adjacency (`/cached`,
//! default budget).

use std::time::Instant;

use gsword_core::prelude::*;

/// Median wall nanoseconds of `samples` timed calls (after one warmup).
fn median_ns(samples: usize, mut op: impl FnMut()) -> f64 {
    op();
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

/// One timed row of the artifact.
struct Row {
    id: String,
    median_ns: f64,
    /// Units processed per call, when the row has a natural throughput
    /// (samples for sampling rows); reported as `samples_per_sec`.
    units_per_call: Option<f64>,
}

impl Row {
    fn new(id: impl Into<String>, median_ns: f64) -> Self {
        Row {
            id: id.into(),
            median_ns,
            units_per_call: None,
        }
    }

    fn with_rate(id: impl Into<String>, median_ns: f64, units_per_call: f64) -> Self {
        Row {
            id: id.into(),
            median_ns,
            units_per_call: Some(units_per_call),
        }
    }

    fn per_sec(&self) -> Option<f64> {
        self.units_per_call.map(|u| u * 1e9 / self.median_ns)
    }
}

/// Refine scenarios drawn from the candidate graph: for each query edge,
/// the destination's global set filtered through the local sets of a few
/// source candidates — the shape Alley sees every iteration.
fn refine_scenarios<'a>(
    query: &QueryGraph,
    cg: &'a CandidateGraph,
) -> Vec<(&'a [VertexId], Vec<Segment<'a>>)> {
    let mut out = Vec::new();
    for (u, u2) in query.edges() {
        let Some(k) = cg.edge_index(u, u2) else {
            continue;
        };
        let cand = cg.global(u2);
        if cand.is_empty() {
            continue;
        }
        // Refine cost concentrates on hub candidates: their local sets are
        // the big backward segments. Take the heaviest ones per edge.
        let mut by_weight: Vec<&VertexId> = cg
            .global(u)
            .iter()
            .filter(|&&v| !cg.local(k, v).is_empty())
            .collect();
        by_weight.sort_by_key(|&&v| std::cmp::Reverse(cg.local(k, v).len()));
        for chunk in by_weight.chunks(3).take(8) {
            let segs: Vec<Segment<'a>> = chunk.iter().map(|&&v| (cg.local(k, v), 0usize)).collect();
            out.push((cand, segs));
        }
    }
    out
}

/// Storage group for one dataset: CSR vs cold compressed decode vs the
/// decoded adjacency on the same operations.
fn storage_rows(dsname: &str, samples: usize, rows: &mut Vec<Row>) {
    let data = gsword_core::datasets::dataset(dsname);
    let query = QueryGraph::extract(&data, 8, 0xBE).expect("storage query");
    // `packed` has a zero budget, so the `/compressed` rows measure the raw
    // Rice stream; `cached` keeps the default budget, which holds both
    // datasets' decoded adjacency.
    let packed = CompressedGraph::from_graph(&data).with_decode_cache(0);
    let cached = CompressedGraph::from_graph(&data);
    let n = data.num_vertices() as VertexId;

    // Full neighbor scan: CSR reads slices, compressed decodes Rice
    // blocks, cached reads the decoded adjacency its warmup pass builds.
    let ns = median_ns(samples, || {
        let mut acc = 0usize;
        for v in 0..n {
            acc += data.neighbors(v).len();
        }
        std::hint::black_box(acc);
    });
    rows.push(Row::new(format!("storage/neighbor_scan/csr/{dsname}"), ns));
    let ns = median_ns(samples, || {
        let mut acc = 0usize;
        for v in 0..n {
            packed.for_each_neighbor(v, |_| {
                acc += 1;
                true
            });
        }
        std::hint::black_box(acc);
    });
    rows.push(Row::new(
        format!("storage/neighbor_scan/compressed/{dsname}"),
        ns,
    ));
    let ns = median_ns(samples, || {
        let mut acc = 0usize;
        for v in 0..n {
            cached.for_each_neighbor(v, |_| {
                acc += 1;
                true
            });
        }
        std::hint::black_box(acc);
    });
    rows.push(Row::new(
        format!("storage/neighbor_scan/cached/{dsname}"),
        ns,
    ));

    // Membership probes: binary search vs restart-table block decode.
    let ns = median_ns(samples, || {
        let mut hits = 0usize;
        for v in 0..n {
            hits += usize::from(data.has_edge(v, (v * 17) % n));
        }
        std::hint::black_box(hits);
    });
    rows.push(Row::new(format!("storage/member_probe/csr/{dsname}"), ns));
    let ns = median_ns(samples, || {
        let mut hits = 0usize;
        for v in 0..n {
            hits += usize::from(packed.neighbors(v).contains((v * 17) % n));
        }
        std::hint::black_box(hits);
    });
    rows.push(Row::new(
        format!("storage/member_probe/compressed/{dsname}"),
        ns,
    ));

    // Candidate build end-to-end over each backend (identical output by
    // the storage-equivalence tests; this row prices the decode overhead).
    let ns = median_ns(samples, || {
        std::hint::black_box(
            build_candidate_graph(&data, &query, &BuildConfig::default())
                .0
                .byte_size(),
        );
    });
    rows.push(Row::new(
        format!("storage/candidate_build/csr/{dsname}"),
        ns,
    ));
    let ns = median_ns(samples, || {
        std::hint::black_box(
            build_candidate_graph(&packed, &query, &BuildConfig::default())
                .0
                .byte_size(),
        );
    });
    rows.push(Row::new(
        format!("storage/candidate_build/compressed/{dsname}"),
        ns,
    ));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || std::env::var("GSWORD_FAST").is_ok();
    let samples = if quick { 9 } else { 25 };
    let budget: u64 = if quick { 2_000 } else { 10_000 };

    let mut rows: Vec<Row> = Vec::new();
    let data = gsword_core::datasets::dataset("yeast");
    let query = QueryGraph::extract(&data, 8, 0xBE).expect("yeast query");
    let (cg, _) = build_candidate_graph(&data, &query, &BuildConfig::default());
    let order = quicksi_order(&query, &data);
    let ctx = QueryCtx::new(&cg, &order);

    // --- sampling group (the cpu_sampling bench, quick-mode) ---
    for kind in [EstimatorKind::WanderJoin, EstimatorKind::Alley] {
        let ns = median_ns(samples, || {
            gsword_core::estimators::with_estimator(kind, |est| {
                std::hint::black_box(
                    gsword_core::estimators::run_sequential(&ctx, est, budget, 7)
                        .estimate
                        .value(),
                );
            })
        });
        rows.push(Row::with_rate(
            format!("cpu_sampling/{}/yeast", kind.short()),
            ns,
            budget as f64,
        ));
    }

    // --- candidate group ---
    let ns = median_ns(samples, || {
        std::hint::black_box(
            build_candidate_graph(&data, &query, &BuildConfig::default())
                .0
                .byte_size(),
        );
    });
    rows.push(Row::new("candidate_build/full/yeast", ns));

    // --- Alley Refine group: the batched k-way Refine ---
    let scenarios = refine_scenarios(&query, &cg);
    assert!(!scenarios.is_empty(), "yeast query yields refine scenarios");
    for (cand, segs) in &scenarios {
        let mut batched = Vec::new();
        Alley.refine_into(segs, cand, &mut batched);
        let per_element: Vec<VertexId> = cand
            .iter()
            .copied()
            .filter(|&v| Alley.refine_one(segs, v))
            .collect();
        assert_eq!(
            batched, per_element,
            "batched Refine must match the per-element path"
        );
    }
    let mut out = Vec::new();
    let ns = median_ns(samples, || {
        for (cand, segs) in &scenarios {
            out.clear();
            Alley.refine_into(segs, cand, &mut out);
            std::hint::black_box(out.len());
        }
    });
    rows.push(Row::new("alley_refine/adaptive/yeast", ns));

    // --- storage group, per dataset ---
    for dsname in ["yeast", "eu2005"] {
        storage_rows(dsname, samples, &mut rows);
    }

    // --- artifact ---
    let root = std::fs::canonicalize(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .expect("workspace root exists");
    let root = root.to_str().expect("utf-8 workspace path");
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty =
        git(&["status", "--porcelain"]).map_or("null".into(), |s| (!s.is_empty()).to_string());

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    json.push_str(&format!("  \"git_dirty\": {dirty},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        match row.per_sec() {
            Some(rate) => json.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"samples_per_sec\": {rate:.1}}}{comma}\n",
                row.id, row.median_ns
            )),
            None => json.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}}}{comma}\n",
                row.id, row.median_ns
            )),
        }
    }
    json.push_str("  ]\n}\n");

    let path = format!("{root}/BENCH_sampling.json");
    std::fs::write(&path, &json).expect("write BENCH_sampling.json");

    for row in &rows {
        match row.per_sec() {
            Some(rate) => println!(
                "{}: {:.1} ns ({:.0} samples/s)",
                row.id, row.median_ns, rate
            ),
            None => println!("{}: {:.1} ns", row.id, row.median_ns),
        }
    }
    println!("wrote {path}");
}
