//! Integration tests for the sanitizer — the compute-sanitizer analogue's
//! synccheck.
//!
//! Two directions, mirroring how the real tool is validated:
//!  * *injected bugs are caught*: a deliberately divergent `shfl`, a
//!    `shfl` from a non-participating or out-of-range source lane, and an
//!    empty participation mask each produce the expected violation;
//!  * *correct code runs clean*: every engine preset (baseline, O0, O1,
//!    O2/gSWORD, iteration sync × both estimators) completes under the
//!    sanitizer with zero findings, on a triangle and on a power-law input
//!    that reaches warp streaming's collaborative phase.

use gsword_candidate::{build_candidate_graph, BuildConfig};
use gsword_engine::{run_engine, EngineConfig};
use gsword_estimators::{Alley, QueryCtx, WanderJoin};
use gsword_graph::{gen, GraphBuilder};
use gsword_query::{quicksi_order, MatchingOrder, QueryGraph};
use gsword_simt::{warp, DeviceConfig, KernelCounters, Lanes, Sanitizer, ViolationKind, WARP_SIZE};

// ---------------------------------------------------------------------------
// synccheck
// ---------------------------------------------------------------------------

/// A lane participates in a `*_sync` primitive while the executor knows it
/// has diverged off — the canonical synccheck hit.
#[test]
fn divergent_shfl_is_caught() {
    let sz = Sanitizer::new("divergent-shfl");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();
    let vals: Lanes<u64> = [7; WARP_SIZE];

    // The executor has converged only lanes 0..16...
    ws.set_active(0x0000_FFFF);
    // ...but the kernel declares the full mask. On hardware this is UB.
    warp::shfl(&mut ctr, &ws, u32::MAX, &vals, 3);

    let rep = sz.report();
    assert_eq!(rep.violations.len(), 1, "{rep}");
    assert!(matches!(
        rep.violations[0].kind,
        ViolationKind::SyncMaskMismatch {
            declared: 0xFFFF_FFFF,
            active: 0x0000_FFFF,
            ..
        }
    ));
    assert_eq!(rep.violations[0].kernel, "divergent-shfl");
}

/// `shfl` from a source lane outside the participating mask: the shuffled
/// value is undefined on hardware even though the mask itself is valid.
#[test]
fn shfl_from_inactive_source_is_caught() {
    let sz = Sanitizer::new("shfl-src");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();
    let vals: Lanes<u64> = [7; WARP_SIZE];

    let mask = 0x0000_00FF; // lanes 0..8 participate
    ws.set_active(mask);
    warp::shfl(&mut ctr, &ws, mask, &vals, 20); // lane 20 is not in the mask

    let rep = sz.report();
    assert_eq!(rep.violations.len(), 1, "{rep}");
    assert!(matches!(
        rep.violations[0].kind,
        ViolationKind::ShflInvalidSource {
            src: 20,
            mask: 0x0000_00FF
        }
    ));
}

/// Out-of-range source: hardware wraps `src % 32` and the result is still
/// the wrapped lane's value, but synccheck flags the wrap.
#[test]
fn shfl_out_of_range_source_wraps_and_is_flagged() {
    let sz = Sanitizer::new("shfl-wrap");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();
    let mut vals: Lanes<u64> = [0; WARP_SIZE];
    vals[5] = 99;

    ws.set_active(u32::MAX);
    let got = warp::shfl(&mut ctr, &ws, u32::MAX, &vals, 5 + WARP_SIZE);
    assert_eq!(got, 99, "hardware semantics: srcLane % 32");
    assert_eq!(sz.report().violations.len(), 1);
}

/// An empty participation mask is degenerate for every `*_sync` primitive.
#[test]
fn empty_mask_sync_op_is_caught() {
    let sz = Sanitizer::new("empty-mask");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();

    ws.set_active(u32::MAX);
    warp::ballot(&mut ctr, &ws, 0, &[false; WARP_SIZE]);

    let rep = sz.report();
    assert_eq!(rep.violations.len(), 1, "{rep}");
    assert!(matches!(
        rep.violations[0].kind,
        ViolationKind::SyncEmptyMask { .. }
    ));
}

/// Partial masks that are subsets of the converged lanes are exactly how
/// divergent code is supposed to call the primitives — no findings.
#[test]
fn subset_masks_run_clean() {
    let sz = Sanitizer::new("subset-mask");
    let ws = sz.warp(0, 0);
    let mut ctr = KernelCounters::default();
    let mut pred = [false; WARP_SIZE];
    pred[2] = true;

    ws.set_active(0x0000_FFFF);
    assert!(warp::any(&mut ctr, &ws, 0x0000_000F, &pred));
    let b = warp::ballot(&mut ctr, &ws, 0x0000_FFFF, &pred);
    assert_eq!(warp::first_lane(b), Some(2));
    assert_eq!(warp::first_lane(0), None, "empty ballot elects no leader");
    warp::reduce_count(&mut ctr, &ws, 0x0000_00FF, &pred);

    assert!(sz.report().is_clean(), "{}", sz.report());
}

// ---------------------------------------------------------------------------
// The engine runs clean under the sanitizer
// ---------------------------------------------------------------------------

fn triangle_ctx() -> (gsword_candidate::CandidateGraph, QueryGraph) {
    let mut b = GraphBuilder::with_vertices(4);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
        b.add_edge(u, v);
    }
    let g = b.build().unwrap();
    let q = QueryGraph::new(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
    (cg, q)
}

/// The power-law input of `tests/refine_fusion.rs`: local candidate sets
/// pass 32, so the streaming kernel reaches its collaborative phase, and
/// the 4-clique's last vertex in the order refines against three
/// backward segments.
fn power_law_ctx() -> (gsword_candidate::CandidateGraph, MatchingOrder) {
    let g = gen::barabasi_albert(1_500, 16, gen::zipf_labels(1_500, 3, 0.4, 7), 7);
    let edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 4),
    ];
    let q = QueryGraph::new(vec![0, 1, 0, 0, 0], &edges).unwrap();
    let order = quicksi_order(&q, &g);
    let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
    (cg, order)
}

/// Every preset × both estimators on two inputs: sanitized, zero
/// findings, and the estimate and counters are unchanged by sanitizing
/// (the hooks are observers). The triangle is the smallest input; the
/// power-law one drives the streaming kernel's collaborative phase and
/// multi-segment Refine.
#[test]
fn all_engine_presets_run_clean_under_full_sanitizer() {
    let (tri_cg, tri_q) = triangle_ctx();
    let tri_order = MatchingOrder::new(&tri_q, vec![0, 1, 2]).unwrap();
    let (pl_cg, pl_order) = power_law_ctx();
    let device = DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    };
    for (input, ctx, samples) in [
        ("triangle", QueryCtx::new(&tri_cg, &tri_order), 6_000),
        ("power-law", QueryCtx::new(&pl_cg, &pl_order), 1_000),
    ] {
        for (name, cfg) in [
            ("baseline", EngineConfig::gpu_baseline(samples)),
            ("o0", EngineConfig::o0(samples)),
            ("o1", EngineConfig::o1(samples)),
            ("o2", EngineConfig::o2(samples)),
            ("itersync", EngineConfig::iteration_sync(samples)),
        ] {
            for alley in [false, true] {
                let plain = EngineConfig { device, ..cfg };
                let sanitized = plain.with_sanitize(true);
                let (p, s) = if alley {
                    (
                        run_engine(&ctx, &Alley, &plain),
                        run_engine(&ctx, &Alley, &sanitized),
                    )
                } else {
                    (
                        run_engine(&ctx, &WanderJoin, &plain),
                        run_engine(&ctx, &WanderJoin, &sanitized),
                    )
                };
                let run = format!("{input}/{name}/alley={alley}");
                let rep = s
                    .sanitizer
                    .as_ref()
                    .unwrap_or_else(|| panic!("{run}: sanitized run must carry a report"));
                assert!(rep.is_clean(), "{run}:\n{rep}");
                assert!(
                    p.sanitizer.is_none(),
                    "unsanitized run must not pay for a report"
                );
                assert_eq!(
                    p.estimate.weight_sum, s.estimate.weight_sum,
                    "{run}: sanitizing must not perturb the estimate"
                );
                assert_eq!(
                    p.counters, s.counters,
                    "{run}: sanitizing must not perturb the counters"
                );
            }
        }
    }
}

/// The sanitizer names the kernel it checked after the configured
/// discipline and optimizations.
#[test]
fn report_names_the_kernel() {
    let (cg, q) = triangle_ctx();
    let order = MatchingOrder::new(&q, vec![0, 1, 2]).unwrap();
    let ctx = QueryCtx::new(&cg, &order);
    let cfg = EngineConfig {
        device: DeviceConfig {
            num_blocks: 1,
            threads_per_block: 32,
        },
        ..EngineConfig::gsword(500)
    }
    .with_sanitize(true);
    let rep = run_engine(&ctx, &Alley, &cfg).sanitizer.unwrap();
    assert_eq!(rep.kernel, "rsv_sample-sync+inherit+stream");
}
