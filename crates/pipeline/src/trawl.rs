//! Trawling (Algorithm 4) and the batched co-processing driver (Figure 9).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use gsword_enumeration::{count_extensions, EnumLimits};
use gsword_estimators::{run_partial_sample, Estimate, Estimator, QueryCtx, SampleState};
use gsword_simt::{KernelCounters, SpanKind, Track};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gsword_engine::{runtime_for, spawn_estimate, split_budget, EngineConfig};

use crate::report::PipelineReport;

/// Truncated geometric distribution over trawling depths:
/// `P(d=j) ∝ 2⁻ʲ` for `j ∈ [min_depth, max_depth]` (Section 5's
/// "Selection of d").
#[derive(Debug, Clone)]
pub struct DepthDist {
    depths: Vec<usize>,
    cdf: Vec<f64>,
}

impl DepthDist {
    /// Build the distribution for a query with `query_len` vertices,
    /// starting enumeration from vertex `min_depth` onwards (3 in the
    /// paper; clamped to the query size).
    pub fn new(min_depth: usize, query_len: usize) -> Self {
        let lo = min_depth.min(query_len).max(1);
        let depths: Vec<usize> = (lo..=query_len).collect();
        let mut cdf = Vec::with_capacity(depths.len());
        let mut acc = 0.0;
        for &j in &depths {
            acc += 0.5f64.powi(j as i32);
            cdf.push(acc);
        }
        DepthDist { depths, cdf }
    }

    /// Draw a depth.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cdf.last().expect("non-empty support");
        let x = rng.gen::<f64>() * total;
        let idx = self.cdf.partition_point(|&c| c < x);
        self.depths[idx.min(self.depths.len() - 1)]
    }

    /// The support of the distribution.
    pub fn support(&self) -> &[usize] {
        &self.depths
    }
}

/// Configuration of the trawling side of the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct TrawlConfig {
    /// Number of sampling batches (the paper tunes this to 6).
    pub batches: usize,
    /// CPU enumeration worker threads.
    pub cpu_threads: usize,
    /// Trawl samples transferred per batch (the paper sets this to the
    /// number of GPU cores; scaled down with the suite).
    pub per_batch: usize,
    /// First depth from which enumeration may start (3 in the paper).
    pub min_depth: usize,
    /// Per-task search-node safety valve (0 = unlimited); the batch
    /// timeout is the primary preemption mechanism.
    pub node_budget: u64,
    /// Seed for depth selection and partial sampling.
    pub seed: u64,
}

impl Default for TrawlConfig {
    fn default() -> Self {
        TrawlConfig {
            batches: 6,
            cpu_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            per_batch: 64,
            min_depth: 3,
            node_budget: 0,
            seed: 0x7EAF,
        }
    }
}

/// One trawl sample end to end, without batching or preemption: sample a
/// `d`-vertex partial instance and enumerate its completions.
///
/// Returns the unbiased contribution `T = ℂ(s(d)) / ℙ(s(d))` (0 when the
/// prefix sampling fails). Exposed for tests and for the unbiasedness
/// property check.
pub fn trawl_once<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    dist: &DepthDist,
    rng: &mut SmallRng,
) -> f64 {
    let d = dist.sample(rng);
    let mut scratch = Vec::new();
    match run_partial_sample(ctx, est, rng, &mut scratch, d) {
        Some(s) => {
            let out = count_extensions(ctx, s.prefix(), EnumLimits::unlimited());
            out.count as f64 / s.prob
        }
        None => 0.0,
    }
}

/// A trawl task produced on the sampling side: the partial instance (or
/// `None` when the prefix sampling failed — a zero contribution that
/// completes instantly).
type TrawlTask = Option<SampleState>;

/// Run the full CPU–GPU co-processing pipeline for one query.
///
/// The engine configuration's sample budget is split across
/// `trawl.batches` batches via [`split_budget`]. Each batch is launched
/// asynchronously on the device runtime's streams ([`spawn_estimate`]);
/// batch `b`'s trawl tasks are enumerated by the CPU pool *while* batch
/// `b+1` samples on the device. Blocking on the batch's results
/// ([`EstimateRun::wait_report`](gsword_engine::EstimateRun::wait_report)) —
/// not a busy poll — ends the overlap window: the pool is preempted and
/// unfinished tasks are dropped (the paper's timeout mechanism). The last
/// batch's tasks get a grace window equal to the mean batch duration.
pub fn run_coprocessing<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    engine_cfg: &EngineConfig,
    trawl: &TrawlConfig,
) -> PipelineReport {
    let t0 = Instant::now();
    let batches = trawl.batches.max(1);
    let batch_budgets = split_budget(engine_cfg.samples, batches);
    // With `sim_workers` on auto, partition host cores between the
    // functional device simulation and the CPU enumeration pool: on real
    // hardware the GPU is independent silicon, so the enumeration threads
    // must not starve the simulated device.
    let mut engine_cfg = *engine_cfg;
    if engine_cfg.sim_workers == 0 {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        engine_cfg.sim_workers = cores.saturating_sub(trawl.cpu_threads).max(1);
    }
    let engine_cfg = &engine_cfg;
    let dist = DepthDist::new(trawl.min_depth, ctx.len());

    let mut sampler = Estimate::default();
    let mut counters = KernelCounters::default();
    let mut gpu_modeled_ms = 0.0;
    let mut gpu_wall_ms = 0.0;

    let contributions: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let mut attempted = 0u64;

    let mut pending: Vec<TrawlTask> = Vec::new();
    let mut rng = SmallRng::seed_from_u64(trawl.seed);

    // One runtime for the whole pipeline: its streams carry every batch,
    // and its per-device sanitizers accumulate across batches (fetched once
    // at the end, like a single rig-wide compute-sanitizer session).
    let runtime = runtime_for(engine_cfg);

    runtime.scope(|rs| {
        for (b, &batch_samples) in batch_budgets.iter().enumerate() {
            let phase_start = runtime.profiler().now_us();
            // Produce this batch's trawl tasks (the "uniformly selected t
            // samples" transferred to the CPU — O(t·|V_q|) traffic).
            let tasks: Vec<TrawlTask> = (0..trawl.per_batch)
                .map(|_| {
                    let d = dist.sample(&mut rng);
                    let mut scratch = Vec::new();
                    run_partial_sample(ctx, est, &mut rng, &mut scratch, d)
                })
                .collect();
            attempted += tasks.len() as u64;

            // Overlap: launch this batch asynchronously on the runtime's
            // streams, enumerate the *previous* batch's tasks on the CPU
            // pool meanwhile, and preempt the pool once every shard of
            // the batch is back.
            let stop = AtomicBool::new(false);
            let batch_cfg = EngineConfig {
                samples: batch_samples,
                seed: engine_cfg.seed.wrapping_add(b as u64),
                ..*engine_cfg
            };
            let run = spawn_estimate(rs, ctx, est, &batch_cfg);
            let prev = std::mem::take(&mut pending);
            let next = AtomicUsize::new(0);
            let report = std::thread::scope(|scope| {
                let stop_ref = &stop;
                let contributions_ref = &contributions;
                let next_ref = &next;
                let prev_ref = &prev;
                let workers: Vec<_> = (0..trawl.cpu_threads.max(1))
                    .map(|_| {
                        scope.spawn(move || {
                            enumerate_tasks(
                                ctx,
                                prev_ref,
                                next_ref,
                                stop_ref,
                                trawl.node_budget,
                                contributions_ref,
                            )
                        })
                    })
                    .collect();
                let report = run.wait_report(&batch_cfg);
                stop.store(true, Ordering::Relaxed);
                for w in workers {
                    w.join().expect("enumeration worker panicked");
                }
                report
            });

            sampler.merge(&report.estimate);
            counters.merge(&report.counters);
            gpu_modeled_ms += report.modeled_ms;
            gpu_wall_ms += report.wall_ms;
            pending = tasks;
            runtime.profiler().record_span(
                Track::Host,
                SpanKind::Phase,
                &format!("batch {b}"),
                phase_start,
            );
        }
    });
    let sanitizer = runtime.sanitizing().then(|| runtime.sanitizer_report());

    // Grace window for the final batch's tasks: one mean batch duration,
    // ended early once every task has been claimed and finished.
    if !pending.is_empty() {
        let grace_start = runtime.profiler().now_us();
        let grace_ms = (gpu_wall_ms / batches as f64).min(2_000.0);
        let stop = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let stop_ref = &stop;
            let contributions_ref = &contributions;
            let pending_ref = &pending;
            let next_ref = &next;
            let finished_ref = &finished;
            let workers: Vec<_> = (0..trawl.cpu_threads.max(1))
                .map(|_| {
                    scope.spawn(move || loop {
                        if stop_ref.load(Ordering::Relaxed) {
                            return;
                        }
                        let i = next_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= pending_ref.len() {
                            return;
                        }
                        enumerate_one(
                            ctx,
                            &pending_ref[i],
                            stop_ref,
                            trawl.node_budget,
                            contributions_ref,
                        );
                        finished_ref.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            let deadline = Instant::now() + std::time::Duration::from_secs_f64(grace_ms / 1e3);
            while finished.load(Ordering::Relaxed) < pending.len() && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            stop.store(true, Ordering::Relaxed);
            for w in workers {
                w.join().expect("enumeration worker panicked");
            }
        });
        runtime
            .profiler()
            .record_span(Track::Host, SpanKind::Phase, "grace window", grace_start);
    }

    let contributions = contributions
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let trawl_completed = contributions.len() as u64;
    let trawl_mean = if contributions.is_empty() {
        None
    } else {
        Some(contributions.iter().sum::<f64>() / contributions.len() as f64)
    };

    PipelineReport {
        sampler,
        trawl: trawl_mean,
        trawl_completed,
        trawl_attempted: attempted,
        counters,
        gpu_modeled_ms,
        gpu_wall_ms,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        sanitizer,
        prof: runtime
            .profiler()
            .enabled()
            .then(|| runtime.profiler().report()),
    }
}

/// Worker loop: claim tasks off the shared index, enumerate with the stop
/// flag, and record only contributions whose enumeration completed.
fn enumerate_tasks(
    ctx: &QueryCtx<'_>,
    tasks: &[TrawlTask],
    next: &AtomicUsize,
    stop: &AtomicBool,
    node_budget: u64,
    out: &Mutex<Vec<f64>>,
) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.len() {
            return;
        }
        enumerate_one(ctx, &tasks[i], stop, node_budget, out);
    }
}

/// Enumerate a single trawl task, recording its contribution only when the
/// enumeration ran to completion (the paper's timeout rule).
fn enumerate_one(
    ctx: &QueryCtx<'_>,
    task: &TrawlTask,
    stop: &AtomicBool,
    node_budget: u64,
    out: &Mutex<Vec<f64>>,
) {
    match task {
        // A failed prefix completes instantly.
        None => out.lock().unwrap_or_else(PoisonError::into_inner).push(0.0),
        Some(s) => {
            let outcome = count_extensions(
                ctx,
                s.prefix(),
                EnumLimits {
                    node_budget,
                    stop: Some(stop),
                },
            );
            if outcome.complete {
                out.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(outcome.count as f64 / s.prob);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_candidate::{build_candidate_graph, BuildConfig, CandidateGraph};
    use gsword_enumeration::count_instances;
    use gsword_estimators::{Alley, WanderJoin};
    use gsword_graph::gen;
    use gsword_query::{MatchingOrder, QueryGraph};
    use gsword_simt::DeviceConfig;

    fn small_device() -> DeviceConfig {
        DeviceConfig {
            num_blocks: 2,
            threads_per_block: 64,
        }
    }

    #[test]
    fn depth_dist_support_and_skew() {
        let d = DepthDist::new(3, 8);
        assert_eq!(d.support(), &[3, 4, 5, 6, 7, 8]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 9];
        for _ in 0..20_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!(
            counts[3] > counts[4] && counts[4] > counts[5],
            "geometric decay: {counts:?}"
        );
        assert_eq!(counts[0] + counts[1] + counts[2], 0);
    }

    #[test]
    fn depth_dist_clamps_to_small_queries() {
        let d = DepthDist::new(3, 2);
        assert_eq!(d.support(), &[2]);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(d.sample(&mut rng), 2);
    }

    fn five_cycle_fixture() -> (CandidateGraph, QueryGraph) {
        // 5-cycle query on a graph with a known embedding count.
        let g = gen::erdos_renyi(60, 420, vec![0; 60], 11);
        let q = QueryGraph::new(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let (cg, _) = build_candidate_graph(&g, &q, &BuildConfig::default());
        (cg, q)
    }

    #[test]
    fn trawl_once_is_unbiased() {
        let (cg, q) = five_cycle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2, 3, 4]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let truth = count_instances(&ctx, EnumLimits::unlimited()).count as f64;
        assert!(truth > 0.0, "fixture must contain instances");
        let dist = DepthDist::new(3, ctx.len());
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 4_000;
        let mean: f64 = (0..n)
            .map(|_| trawl_once(&ctx, &Alley, &dist, &mut rng))
            .sum::<f64>()
            / n as f64;
        let rel = (mean - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "trawl mean {mean} vs truth {truth} (rel {rel:.3})"
        );
    }

    #[test]
    fn trawl_once_handles_wj_too() {
        let (cg, q) = five_cycle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2, 3, 4]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let truth = count_instances(&ctx, EnumLimits::unlimited()).count as f64;
        let dist = DepthDist::new(3, ctx.len());
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 4_000;
        let mean: f64 = (0..n)
            .map(|_| trawl_once(&ctx, &WanderJoin, &dist, &mut rng))
            .sum::<f64>()
            / n as f64;
        let rel = (mean - truth).abs() / truth;
        assert!(
            rel < 0.2,
            "trawl mean {mean} vs truth {truth} (rel {rel:.3})"
        );
    }

    #[test]
    fn coprocessing_produces_both_estimates() {
        let (cg, q) = five_cycle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2, 3, 4]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let truth = count_instances(&ctx, EnumLimits::unlimited()).count as f64;
        let engine = EngineConfig {
            device: small_device(),
            ..EngineConfig::gsword(12_000)
        };
        let trawl = TrawlConfig {
            batches: 3,
            cpu_threads: 2,
            per_batch: 40,
            ..TrawlConfig::default()
        };
        let rep = run_coprocessing(&ctx, &Alley, &engine, &trawl);
        assert_eq!(rep.sampler.samples, 12_000);
        assert!(rep.trawl_attempted == 120);
        assert!(
            rep.trawl_completed > 0,
            "small fixture tasks should finish in time"
        );
        let v = rep.value();
        let rel = (v - truth).abs() / truth;
        assert!(rel < 0.5, "pipeline estimate {v} vs truth {truth}");
        assert!(rep.total_wall_ms >= rep.gpu_wall_ms * 0.5);
    }

    #[test]
    fn coprocessing_profile_records_batch_phases() {
        let (cg, q) = five_cycle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2, 3, 4]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let engine = EngineConfig {
            device: small_device(),
            profile: true,
            ..EngineConfig::gsword(3_000)
        };
        let trawl = TrawlConfig {
            batches: 3,
            cpu_threads: 1,
            per_batch: 10,
            ..TrawlConfig::default()
        };
        let rep = run_coprocessing(&ctx, &Alley, &engine, &trawl);
        let prof = rep.prof.expect("profiled run attaches a report");
        prof.validate().expect("pipeline profile is well-formed");
        let phases: Vec<&str> = prof
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Phase)
            .map(|s| s.name.as_str())
            .collect();
        for b in 0..3 {
            let name = format!("batch {b}");
            assert!(
                phases.contains(&name.as_str()),
                "missing {name}: {phases:?}"
            );
        }
        assert!(
            prof.spans.iter().any(|s| s.kind == SpanKind::Launch),
            "batches must produce launch spans"
        );
        assert_eq!(prof.kernels.len(), 1, "one kernel row across batches");
        assert_eq!(prof.kernels[0].launches, 3);
    }

    #[test]
    fn coprocessing_single_batch_still_works() {
        let (cg, q) = five_cycle_fixture();
        let order = MatchingOrder::new(&q, vec![0, 1, 2, 3, 4]).unwrap();
        let ctx = QueryCtx::new(&cg, &order);
        let engine = EngineConfig {
            device: small_device(),
            ..EngineConfig::gsword(2_000)
        };
        let trawl = TrawlConfig {
            batches: 1,
            cpu_threads: 1,
            per_batch: 10,
            ..TrawlConfig::default()
        };
        let rep = run_coprocessing(&ctx, &Alley, &engine, &trawl);
        assert_eq!(rep.trawl_attempted, 10);
        assert_eq!(rep.sampler.samples, 2_000);
    }
}
