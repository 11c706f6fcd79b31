//! The engine's execution layer: launch descriptors, sharding over
//! devices and streams, and the one launch path every caller shares.
//!
//! A [`LaunchSpec`] is *where and when* one shard of the RSV kernel runs
//! (device, stream, block range, shard budget, seed). [`spawn_estimate`]
//! plans the global grid into shards — contiguous global-block ranges
//! spread over every `(device, stream)` pair — and launches them
//! asynchronously on the [`Runtime`]'s streams; [`EstimateRun::wait_report`]
//! collects them into one [`EngineReport`], attributing each shard's
//! counters to its device and stream as the shard's results come back.
//!
//! Determinism across topologies is load-bearing: per-block sample quotas
//! come from [`split_budget`] over the *global* grid, per-lane RNG streams
//! are keyed on *global* block ids, and results merge in ascending global
//! block order. A budget run on 2 devices × 4 streams therefore produces
//! bit-identical estimates to the same budget on 1 device × 1 stream.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use gsword_estimators::{Estimate, Estimator, QueryCtx};
use gsword_simt::{
    Device, KernelCounters, LaunchHandle, Profiler, Runtime, RuntimeConfig, RuntimeScope,
    Sanitizer, SpanKind, Track,
};

use crate::config::{EngineConfig, EngineReport};
use crate::kernel::{kernel_name, run_block, BlockOut};

/// Split `total` into `parts` near-equal shares: the first `total % parts`
/// shares get one extra. The single source of truth for every
/// budget-splitting site in the workspace (blocks, warps, lanes, batches).
pub fn split_budget(total: u64, parts: usize) -> Vec<u64> {
    assert!(parts > 0, "cannot split a budget into zero parts");
    let per = total / parts as u64;
    let rem = (total % parts as u64) as usize;
    (0..parts).map(|i| per + u64::from(i < rem)).collect()
}

/// Launch descriptor: one shard of a kernel's global grid, bound to a
/// device and stream with its sample budget and base seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Target device index.
    pub device: usize,
    /// Target stream on that device.
    pub stream: usize,
    /// Global block ids this shard executes.
    pub blocks: Range<usize>,
    /// Samples this shard draws (the sum of its blocks' quotas).
    pub samples: u64,
    /// Base RNG seed; per-lane streams derive from it and the *global*
    /// block id, so the seed is deterministic per shard by construction.
    pub seed: u64,
}

/// Plan a global grid of `num_blocks` into contiguous shards over
/// `num_devices × streams_per_device` (device-major, so each device owns
/// one contiguous span of the grid). Shard sample budgets are the sums of
/// the global per-block quotas, so they always total `samples`.
pub fn plan_shards(
    num_blocks: usize,
    num_devices: usize,
    streams_per_device: usize,
    samples: u64,
    seed: u64,
) -> Vec<LaunchSpec> {
    assert!(num_blocks > 0 && num_devices > 0 && streams_per_device > 0);
    let quotas = split_budget(samples, num_blocks);
    let shard_count = (num_devices * streams_per_device).min(num_blocks);
    let shard_sizes = split_budget(num_blocks as u64, shard_count);
    // Device-major: each device owns one contiguous span of the grid, its
    // streams contiguous sub-spans of that. When the grid has fewer blocks
    // than streams, shards still spread across as many devices as possible.
    let shards_per_device = split_budget(shard_count as u64, num_devices);
    let mut specs = Vec::with_capacity(shard_count);
    let mut start = 0usize;
    let mut shard = 0usize;
    for (device, &n) in shards_per_device.iter().enumerate() {
        for stream in 0..n as usize {
            let size = shard_sizes[shard] as usize;
            let blocks = start..start + size;
            specs.push(LaunchSpec {
                device,
                stream,
                samples: quotas[blocks.clone()].iter().sum(),
                seed,
                blocks,
            });
            start += size;
            shard += 1;
        }
    }
    specs
}

/// An in-flight estimate run: one launch handle per shard, plus the
/// bookkeeping to assemble an [`EngineReport`] on completion.
pub struct EstimateRun<'env> {
    runtime: &'env Runtime,
    name: String,
    shards: Vec<(LaunchSpec, LaunchHandle<BlockOut>)>,
    t0: Instant,
}

impl EstimateRun<'_> {
    /// Block until every shard is back and assemble the report. Each
    /// shard's block counters are summed and charged to its device — and,
    /// when profiling, to its `(device, stream)` row — as it returns; the
    /// host-side block shows up as an event-wait span on the timeline's
    /// host track. The estimate merges in ascending global block order
    /// (bit-stable across topologies), totals are summed before anything
    /// is normalized, and modeled time is the max over devices —
    /// concurrent silicon, one clock. The report's `sanitizer` is left
    /// `None`: per-run attribution belongs to whoever owns the runtime
    /// (see [`run_engine`]), since device sanitizers accumulate across
    /// launches.
    pub fn wait_report(self, cfg: &EngineConfig) -> EngineReport {
        let profiler = self.runtime.profiler();
        let wait_start = profiler.now_us();
        let mut per_device = vec![KernelCounters::default(); self.runtime.num_devices()];
        let mut shards: Vec<(LaunchSpec, Vec<BlockOut>)> = self
            .shards
            .into_iter()
            .map(|(spec, handle)| {
                let blocks = handle.wait();
                let mut counters = KernelCounters::default();
                for (_, c, _) in &blocks {
                    counters.merge(c);
                }
                per_device[spec.device].merge(&counters);
                profiler.on_charge(spec.device, spec.stream, &counters.snapshot());
                (spec, blocks)
            })
            .collect();
        let wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        profiler.record_span(
            Track::Host,
            SpanKind::EventWait,
            &format!("wait {}", self.name),
            wait_start,
        );
        shards.sort_by_key(|(spec, _)| spec.blocks.start);
        let mut estimate = Estimate::default();
        let mut inherited = 0u64;
        for (e, _, inh) in shards.iter().flat_map(|(_, blocks)| blocks) {
            estimate.merge(e);
            inherited += inh;
        }
        let mut counters = KernelCounters::default();
        for c in &per_device {
            counters.merge(c);
        }
        let per_device_modeled_ms: Vec<f64> =
            per_device.iter().map(|c| cfg.model.modeled_ms(c)).collect();
        let modeled_ms = per_device_modeled_ms.iter().copied().fold(0.0, f64::max);
        profiler.on_kernel(
            &self.name,
            &counters.snapshot(),
            modeled_ms,
            wall_ms,
            estimate.samples,
            inherited,
        );
        EngineReport {
            samples_collected: estimate.samples + inherited,
            estimate,
            counters,
            modeled_ms,
            per_device_modeled_ms,
            wall_ms,
            sanitizer: None,
            prof: None,
        }
    }
}

/// Launch the RSV kernel `cfg` describes (the NextDoor-style baseline is
/// one of its flag shapes) over its full grid, sharded across every device
/// and stream of the runtime, without blocking. `cfg.samples` is the
/// *global* budget; `cfg.seed` the base seed shared by all shards.
pub fn spawn_estimate<'env, 'e: 'env, 'c: 'e, E: Estimator + ?Sized>(
    rs: &RuntimeScope<'env>,
    ctx: &'e QueryCtx<'c>,
    est: &'e E,
    cfg: &EngineConfig,
) -> EstimateRun<'env> {
    let runtime = rs.runtime();
    let num_blocks = cfg.device.num_blocks;
    let name = kernel_name(cfg);
    let specs = plan_shards(
        num_blocks,
        runtime.num_devices(),
        runtime.streams_per_device(),
        cfg.samples,
        cfg.seed,
    );
    let quota = Arc::new(split_budget(cfg.samples, num_blocks));
    let cfg = *cfg;
    let t0 = Instant::now();
    let shards = specs
        .into_iter()
        .map(|spec| {
            let quota = Arc::clone(&quota);
            let dev: &'env Device = runtime.device(spec.device);
            let seed = spec.seed;
            // `run_block` only reaches `WarpExec::run`, which never drains
            // a stream; the analyzer's name-keyed summaries conflate it
            // with `GswordBuilder::run`, which does block.
            // gsword: allow(scope-blocking)
            let handle = rs.launch_named(
                spec.device,
                spec.stream,
                spec.blocks.clone(),
                &name,
                move |b| run_block(ctx, est, &cfg, dev, b, quota[b], seed),
            );
            (spec, handle)
        })
        .collect();
    EstimateRun {
        runtime,
        name,
        shards,
        t0,
    }
}

/// Build the runtime an [`EngineConfig`] asks for: `num_devices` devices ×
/// `streams_per_device` streams, each device carrying its own sanitizer
/// instance (attributed to the configuration's kernel name, as one
/// rig-wide `compute-sanitizer` session would).
pub fn runtime_for(cfg: &EngineConfig) -> Runtime {
    let num_devices = cfg.num_devices.max(1);
    let streams_per_device = cfg.streams_per_device.max(1);
    let profiler = if cfg.profile {
        Profiler::new(num_devices, streams_per_device)
    } else {
        Profiler::off()
    };
    let name = kernel_name(cfg);
    Runtime::with_instrumentation(
        RuntimeConfig {
            num_devices,
            streams_per_device,
            device: cfg.device,
            sim_workers: cfg.sim_workers,
        },
        |_| {
            if cfg.sanitize {
                Sanitizer::new(&name)
            } else {
                Sanitizer::off()
            }
        },
        profiler,
    )
}

/// Run the configured kernel for one query and return the aggregated
/// report. Deterministic in `(cfg.seed, cfg.device, cfg.samples)` — and
/// invariant in `(cfg.num_devices, cfg.streams_per_device)`, which only
/// change where the global grid's shards execute.
pub fn run_engine<E: Estimator + ?Sized>(
    ctx: &QueryCtx<'_>,
    est: &E,
    cfg: &EngineConfig,
) -> EngineReport {
    let t0 = Instant::now();
    let runtime = runtime_for(cfg);
    let mut report = runtime.scope(|rs| spawn_estimate(rs, ctx, est, cfg).wait_report(cfg));
    report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if runtime.sanitizing() {
        report.sanitizer = Some(runtime.sanitizer_report());
    }
    if runtime.profiler().enabled() {
        report.prof = Some(runtime.profiler().report());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_budget_exact_division() {
        assert_eq!(split_budget(12, 4), vec![3, 3, 3, 3]);
    }

    #[test]
    fn split_budget_spreads_remainder_to_leading_parts() {
        assert_eq!(split_budget(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_budget(7, 3), vec![3, 2, 2]);
    }

    #[test]
    fn split_budget_off_by_one_edges() {
        // total < parts: exactly `total` parts get one.
        assert_eq!(split_budget(2, 5), vec![1, 1, 0, 0, 0]);
        // total == parts - 1 and total == parts + 1.
        assert_eq!(split_budget(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(split_budget(5, 4), vec![2, 1, 1, 1]);
        // Zero total, single part.
        assert_eq!(split_budget(0, 3), vec![0, 0, 0]);
        assert_eq!(split_budget(9, 1), vec![9]);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_budget_rejects_zero_parts() {
        split_budget(1, 0);
    }

    #[test]
    fn shards_cover_the_grid_exactly_once() {
        for (nb, nd, spd) in [(46, 2, 4), (8, 1, 1), (3, 2, 4), (5, 2, 2), (1, 3, 3)] {
            let specs = plan_shards(nb, nd, spd, 10_001, 7);
            let mut covered = vec![false; nb];
            for s in &specs {
                for b in s.blocks.clone() {
                    assert!(!covered[b], "block {b} double-covered");
                    covered[b] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "grid not fully covered");
            assert_eq!(
                specs.iter().map(|s| s.samples).sum::<u64>(),
                10_001,
                "shard budgets must sum to the request ({nb}/{nd}/{spd})"
            );
        }
    }

    #[test]
    fn shards_are_device_major_and_contiguous() {
        let specs = plan_shards(8, 2, 2, 800, 0);
        assert_eq!(specs.len(), 4);
        // Each device owns a contiguous span, ascending in block order.
        for w in specs.windows(2) {
            assert_eq!(w[0].blocks.end, w[1].blocks.start);
            assert!(w[0].device <= w[1].device);
        }
        assert_eq!(specs[0].device, 0);
        assert_eq!(specs.last().unwrap().device, 1);
    }

    #[test]
    fn fewer_blocks_than_shards_degrades_gracefully() {
        let specs = plan_shards(3, 2, 4, 99, 0);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs.iter().map(|s| s.blocks.len()).sum::<usize>(), 3);
        assert_eq!(specs.iter().map(|s| s.samples).sum::<u64>(), 99);
    }
}
