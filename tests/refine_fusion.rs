//! The device engine takes Alley's Refine verdict from the search it
//! charges to the memory model (`Estimator::refine_is_membership`) instead
//! of searching each candidate again through `refine_one`. The fusion must
//! be invisible:
//!
//! * an estimator with Alley's semantics that does not declare it, and so
//!   goes through `refine_one`, gives Alley's estimate, counters, modeled
//!   time and collected samples bit for bit, under every kernel preset,
//!   sim worker count and storage backend;
//! * both match the values pinned in [`PINNED`], recorded before the
//!   fusion, so a change to the charge itself (which moves both alike)
//!   fails too. Every `KernelCounters` field is pinned, so a charge that
//!   keeps the totals but moves a load between transaction counts or
//!   lanes fails as well;
//! * the fusion is keyed on the declaration, not on `kind()`: an estimator
//!   that reports itself as Alley but refines against one segment keeps
//!   its own Refine.

use gsword::graph::{gen, CompressedGraph};
use gsword::prelude::*;

/// Alley's Refine and Validate, without declaring `refine_is_membership`.
struct UnfusedAlley;

impl Estimator for UnfusedAlley {
    fn needs_refine(&self) -> bool {
        true
    }

    fn refine_one(&self, segs: &[Segment<'_>], v: VertexId) -> bool {
        segs.iter().all(|(seg, _)| seg.binary_search(&v).is_ok())
    }

    fn validate(&self, _segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool {
        !s.contains(v)
    }

    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Alley
    }
}

/// Shaped like `HybridK<1>` of the `custom_estimator` example: reports
/// itself as Alley, refines against the first backward segment only and
/// validates the others.
struct RefineFirstOnly;

impl Estimator for RefineFirstOnly {
    fn needs_refine(&self) -> bool {
        true
    }

    fn refine_one(&self, segs: &[Segment<'_>], v: VertexId) -> bool {
        segs.iter()
            .take(1)
            .all(|(seg, _)| seg.binary_search(&v).is_ok())
    }

    fn validate(&self, segs: &[Segment<'_>], s: &SampleState, v: VertexId) -> bool {
        !s.contains(v)
            && segs
                .iter()
                .skip(1)
                .all(|(seg, _)| seg.binary_search(&v).is_ok())
    }

    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Alley
    }
}

/// A skewed power-law graph with three labels, so local candidate sets
/// reach past 32 (the streaming kernel's collaborative phase), and a
/// 4-clique query with a fifth vertex on two of its corners. The clique's
/// last vertex in the matching order has three backward constraints: Refine
/// there searches two segments besides the minimum one, which need not be
/// the first.
fn fixture() -> (Graph, QueryGraph) {
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
    let q = QueryGraph::new(vec![0, 1, 0, 0, 0], &edges).expect("query");
    let order = quicksi_order(&q, &g);
    assert!((0..q.num_vertices()).any(|i| order.backward_positions(i).len() == 3));
    (g, q)
}

fn small_device() -> DeviceConfig {
    DeviceConfig {
        num_blocks: 2,
        threads_per_block: 64,
    }
}

/// The kernel presets, by name.
fn presets() -> [(&'static str, EngineConfig); 5] {
    const SAMPLES: u64 = 1_000;
    [
        ("gpu_baseline", EngineConfig::gpu_baseline(SAMPLES)),
        ("o0", EngineConfig::o0(SAMPLES)),
        ("o1", EngineConfig::o1(SAMPLES)),
        ("o2", EngineConfig::o2(SAMPLES)),
        ("iteration_sync", EngineConfig::iteration_sync(SAMPLES)),
    ]
}

fn run<S: GraphStorage, E: Estimator>(
    data: &S,
    query: &QueryGraph,
    cfg: EngineConfig,
    workers: usize,
    est: &E,
) -> Report {
    Gsword::builder(data, query)
        .samples(cfg.samples)
        .seed(0xF05E)
        .backend(Backend::Device(cfg))
        .device(small_device())
        .sim_workers(workers)
        .run_custom(est)
        .expect("device run")
}

/// Everything a run must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Outcome {
    estimate_bits: [u64; 2],
    samples: u64,
    valid: u64,
    counters: KernelCounters,
    modeled_ms_bits: u64,
    samples_collected: u64,
}

fn outcome(r: &Report) -> Outcome {
    Outcome {
        estimate_bits: [
            r.sampler.weight_sum.to_bits(),
            r.sampler.weight_sq_sum.to_bits(),
        ],
        samples: r.sampler.samples,
        valid: r.sampler.valid,
        counters: r.counters.expect("device counters"),
        modeled_ms_bits: r.modeled_ms.expect("modeled time").to_bits(),
        samples_collected: r.samples_collected,
    }
}

/// A run's values as pinned in [`PINNED`]: the estimate, the modeled
/// time, the collected samples and every kernel counter, the transaction
/// histogram included.
#[derive(Debug, PartialEq)]
struct Pinned {
    weight_sum: f64,
    modeled_ms: f64,
    samples_collected: u64,
    counters: KernelCounters,
}

fn pinned(r: &Report) -> Pinned {
    Pinned {
        weight_sum: r.sampler.weight_sum,
        modeled_ms: r.modeled_ms.expect("modeled time"),
        samples_collected: r.samples_collected,
        counters: r.counters.expect("device counters"),
    }
}

/// Alley on [`fixture`] per preset. The estimate, modeled time, collected
/// samples and the first three counters were recorded with the engine that
/// called `refine_one` for every candidate; the other counters were added
/// from the engine that scanned the streaming independent phase step by
/// step. The floats are `{:?}` prints, which round-trip exactly.
const PINNED: [(&str, Pinned); 5] = [
    (
        "gpu_baseline",
        Pinned {
            weight_sum: 37711035.0,
            modeled_ms: 0.05251366233766234,
            samples_collected: 1000,
            counters: KernelCounters {
                alu_instructions: 256,
                mem_instructions: 30197,
                mem_transactions: 108347,
                active_lane_ops: 117521,
                issued_lane_slots: 974496,
                divergent_replays: 0,
                mem_active_lanes: 110523,
                tx_histogram: [
                    0, 14353, 4981, 2425, 1566, 1209, 937, 789, 612, 510, 416, 356, 308, 251, 220,
                    144, 146, 113, 85, 97, 112, 135, 102, 65, 61, 52, 33, 13, 36, 17, 26, 20, 7,
                ],
            },
        },
    ),
    (
        "o0",
        Pinned {
            weight_sum: 36601080.0,
            modeled_ms: 0.05234431168831169,
            samples_collected: 1000,
            counters: KernelCounters {
                alu_instructions: 378,
                mem_instructions: 25168,
                mem_transactions: 107532,
                active_lane_ops: 121479,
                issued_lane_slots: 817472,
                divergent_replays: 0,
                mem_active_lanes: 112465,
                tx_histogram: [
                    0, 11536, 3860, 1989, 1320, 889, 701, 602, 543, 451, 423, 347, 342, 351, 224,
                    203, 125, 134, 101, 95, 52, 55, 43, 50, 55, 50, 57, 75, 117, 139, 144, 70, 25,
                ],
            },
        },
    ),
    (
        "o1",
        Pinned {
            weight_sum: 119675227.35852905,
            modeled_ms: 0.051648623376623376,
            samples_collected: 2349,
            counters: KernelCounters {
                alu_instructions: 455,
                mem_instructions: 23321,
                mem_transactions: 104184,
                active_lane_ops: 303717,
                issued_lane_slots: 760832,
                divergent_replays: 0,
                mem_active_lanes: 289517,
                tx_histogram: [
                    0, 10330, 3768, 1646, 1116, 907, 720, 580, 518, 434, 470, 432, 335, 265, 233,
                    198, 121, 104, 94, 82, 84, 58, 38, 42, 55, 45, 42, 90, 119, 143, 154, 54, 44,
                ],
            },
        },
    ),
    (
        "o2",
        Pinned {
            weight_sum: 182082850.72353715,
            modeled_ms: 0.05250285714285714,
            samples_collected: 2365,
            counters: KernelCounters {
                alu_instructions: 5441,
                mem_instructions: 25061,
                mem_transactions: 108295,
                active_lane_ops: 596816,
                issued_lane_slots: 976064,
                divergent_replays: 0,
                mem_active_lanes: 425128,
                tx_histogram: [
                    0, 7719, 6983, 2895, 1358, 898, 681, 581, 475, 433, 398, 390, 321, 290, 229,
                    109, 116, 86, 94, 79, 58, 55, 45, 52, 35, 52, 60, 78, 92, 131, 134, 81, 53,
                ],
            },
        },
    ),
    (
        "iteration_sync",
        Pinned {
            weight_sum: 36221640.0,
            modeled_ms: 0.05297953246753247,
            samples_collected: 1000,
            counters: KernelCounters {
                alu_instructions: 228,
                mem_instructions: 30376,
                mem_transactions: 110589,
                active_lane_ops: 119686,
                issued_lane_slots: 979328,
                divergent_replays: 0,
                mem_active_lanes: 112670,
                tx_histogram: [
                    0, 14142, 4864, 2586, 1693, 1253, 952, 813, 665, 566, 419, 357, 314, 240, 217,
                    160, 142, 104, 85, 109, 99, 140, 127, 83, 74, 56, 35, 19, 31, 9, 12, 8, 2,
                ],
            },
        },
    ),
];

/// Alley and [`UnfusedAlley`] agree bit for bit with each other and with
/// [`PINNED`] on every preset and on 1 and 2 sim workers.
fn assert_fusion_is_invisible<S: GraphStorage>(data: &S, query: &QueryGraph, storage: &str) {
    for ((name, cfg), (pinned_name, want)) in presets().into_iter().zip(&PINNED) {
        assert_eq!(name, *pinned_name);
        for workers in [1, 2] {
            let fused = run(data, query, cfg, workers, &Alley);
            let unfused = run(data, query, cfg, workers, &UnfusedAlley);
            assert_eq!(
                outcome(&fused),
                outcome(&unfused),
                "{storage}/{name}/{workers} workers: fused and unfused Refine differ"
            );
            assert_eq!(
                &pinned(&fused),
                want,
                "{storage}/{name}/{workers} workers: the modeled run moved"
            );
        }
    }
}

#[test]
fn alley_fusion_is_bit_identical_on_csr() {
    let (g, q) = fixture();
    assert_fusion_is_invisible(&g, &q, "csr");
}

#[test]
fn alley_fusion_is_bit_identical_on_compressed() {
    let (g, q) = fixture();
    assert_fusion_is_invisible(&CompressedGraph::from_graph(&g), &q, "compressed");
}

/// An estimator that reports `EstimatorKind::Alley` without declaring
/// membership Refine keeps its own `refine_one`: refining against one
/// segment of three changes the estimate on this cyclic query.
#[test]
fn fusion_is_keyed_on_the_declaration_not_the_kind() {
    let (g, q) = fixture();
    for (name, cfg) in presets() {
        let alley = run(&g, &q, cfg, 1, &Alley);
        let first_only = run(&g, &q, cfg, 1, &RefineFirstOnly);
        assert_eq!(first_only.sampler.samples, alley.sampler.samples);
        assert_ne!(
            first_only.estimate.to_bits(),
            alley.estimate.to_bits(),
            "{name}: a one-segment Refine gave Alley's estimate"
        );
    }
}
