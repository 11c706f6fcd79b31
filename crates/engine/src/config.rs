//! Engine configuration, presets, and run reports.

use gsword_estimators::Estimate;
use gsword_simt::{DeviceConfig, DeviceModel, KernelCounters, ProfReport, SanitizerReport};

/// Thread synchronization discipline (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Warp lanes refill together after all current samples finish — the
    /// discipline gSWORD adopts (better memory locality).
    SampleSync,
    /// A lane starts a new sample the moment its current one dies — better
    /// lane utilization, scattered memory accesses. 1.3× slower on average
    /// in the paper.
    IterationSync,
}

/// How sample tasks are distributed to lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Block-shared atomic pool (Algorithm 1, lines 4–5).
    BlockPool,
    /// Static per-thread quotas — the NextDoor-style baseline.
    Static,
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Launch geometry and host parallelism.
    pub device: DeviceConfig,
    /// Device-time model used to convert counters into milliseconds.
    pub model: DeviceModel,
    /// Total samples across the launch.
    pub samples: u64,
    /// Base RNG seed (runs are deterministic in the seed and geometry).
    pub seed: u64,
    /// Synchronization discipline.
    pub sync: SyncMode,
    /// Sample distribution mode.
    pub pool: PoolMode,
    /// Enable sample inheritance (Algorithm 2) — the O1 optimization.
    pub inheritance: bool,
    /// Enable warp streaming (Algorithm 3) — the O2 optimization.
    pub streaming: bool,
    /// Run the kernel under the sanitizer's synccheck (the
    /// `compute-sanitizer` analogue; off by default — the disabled handle
    /// is one branch per hook).
    pub sanitize: bool,
    /// Attach the profiler (the Nsight analogue): record a launch timeline
    /// and per-kernel metrics into `EngineReport::prof`. Off by default —
    /// the disabled handle is one branch per hook.
    pub profile: bool,
    /// Software devices the launch is sharded over (the paper's testbed has
    /// two RTX 2080 Ti cards). Results are seed-deterministic regardless of
    /// the topology: blocks keep their global ids and per-block quotas.
    pub num_devices: usize,
    /// Ordered async launch queues per device (CUDA-stream analogue).
    pub streams_per_device: usize,
    /// Intra-kernel simulation workers: how many host threads one launch
    /// fans its blocks over. `0` = auto (the host's available
    /// parallelism), `1` = serial in-stream execution, `n` = the stream's
    /// thread plus `n − 1` helpers spawned per launch. Results are
    /// bit-identical for every value — blocks merge in fixed ascending
    /// order regardless of which worker simulated them.
    pub sim_workers: usize,
}

impl EngineConfig {
    fn base(samples: u64) -> Self {
        EngineConfig {
            device: DeviceConfig::default(),
            model: DeviceModel::default(),
            samples,
            seed: 0x5D0D,
            sync: SyncMode::SampleSync,
            pool: PoolMode::BlockPool,
            inheritance: false,
            streaming: false,
            sanitize: false,
            profile: false,
            num_devices: 1,
            streams_per_device: 1,
            sim_workers: 1,
        }
    }

    /// Full gSWORD: block pool + sample sync + inheritance + streaming.
    pub fn gsword(samples: u64) -> Self {
        EngineConfig {
            inheritance: true,
            streaming: true,
            ..Self::base(samples)
        }
    }

    /// The NextDoor-style GPU baseline: static assignment, iteration
    /// synchronization (the discipline common to GPU sampling frameworks —
    /// a thread starts its next sample the moment the current one ends;
    /// Section 3.2), and no warp optimizations.
    pub fn gpu_baseline(samples: u64) -> Self {
        EngineConfig {
            pool: PoolMode::Static,
            sync: SyncMode::IterationSync,
            ..Self::base(samples)
        }
    }

    /// Ablation O0: gSWORD framework with both warp optimizations off.
    pub fn o0(samples: u64) -> Self {
        Self::base(samples)
    }

    /// Ablation O1: sample inheritance only.
    pub fn o1(samples: u64) -> Self {
        EngineConfig {
            inheritance: true,
            ..Self::base(samples)
        }
    }

    /// Ablation O2: sample inheritance + warp streaming (= full gSWORD).
    pub fn o2(samples: u64) -> Self {
        Self::gsword(samples)
    }

    /// The iteration-synchronization variant of the micro-benchmark
    /// (Figure 5).
    pub fn iteration_sync(samples: u64) -> Self {
        EngineConfig {
            sync: SyncMode::IterationSync,
            ..Self::base(samples)
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style device override.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Builder-style sanitizer override.
    pub fn with_sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Builder-style profiler override.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Builder-style runtime topology override: devices × streams.
    pub fn with_topology(mut self, num_devices: usize, streams_per_device: usize) -> Self {
        self.num_devices = num_devices;
        self.streams_per_device = streams_per_device;
        self
    }
}

/// Outcome of one engine launch.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Aggregated HT estimate (denominator = fetched initial samples).
    pub estimate: Estimate,
    /// Samples collected in the paper's accounting: fetched initial samples
    /// plus inherited continuations (Algorithm 2 keeps idle lanes
    /// productive, so a launch "collects more samples while executing the
    /// same number of iterations").
    pub samples_collected: u64,
    /// Merged execution counters of all blocks.
    pub counters: KernelCounters,
    /// Modeled device milliseconds (see `DeviceModel`). For a multi-device
    /// launch this is the *makespan*: the max over the per-device modeled
    /// times, since devices run concurrently.
    pub modeled_ms: f64,
    /// Modeled milliseconds charged to each device of the launch (one entry
    /// per device; a single-device run has one entry equal to `modeled_ms`).
    pub per_device_modeled_ms: Vec<f64>,
    /// Host wall-clock milliseconds of the functional simulation (not the
    /// reproduction target; reported for transparency).
    pub wall_ms: f64,
    /// Sanitizer findings when the launch ran with `sanitize`; `None` when
    /// sanitizing was disabled.
    pub sanitizer: Option<SanitizerReport>,
    /// Profiler output (timeline + per-kernel metrics) when the launch ran
    /// with `profile`; `None` when profiling was disabled.
    pub prof: Option<ProfReport>,
}

impl EngineReport {
    /// Convenience: the estimated subgraph count.
    pub fn value(&self) -> f64 {
        self.estimate.value()
    }

    /// Modeled device milliseconds normalized to a per-collected-sample
    /// budget of `n` samples — the runtime metric of Table 2 and Figure 12
    /// (a kernel that inherits aggressively completes a fixed sample budget
    /// in proportionally fewer launches).
    pub fn modeled_ms_for_samples(&self, n: u64) -> f64 {
        if self.samples_collected == 0 {
            return self.modeled_ms;
        }
        self.modeled_ms * n as f64 / self.samples_collected as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_wire_flags() {
        let g = EngineConfig::gsword(100);
        assert!(g.inheritance && g.streaming);
        assert_eq!(g.pool, PoolMode::BlockPool);
        assert_eq!(g.sync, SyncMode::SampleSync);

        let b = EngineConfig::gpu_baseline(100);
        assert!(!b.inheritance && !b.streaming);
        assert_eq!(b.pool, PoolMode::Static);
        assert_eq!(b.sync, SyncMode::IterationSync);

        let o1 = EngineConfig::o1(100);
        assert!(o1.inheritance && !o1.streaming);

        let it = EngineConfig::iteration_sync(100);
        assert_eq!(it.sync, SyncMode::IterationSync);
    }

    #[test]
    fn builder_overrides() {
        let c = EngineConfig::gsword(10).with_seed(99);
        assert_eq!(c.seed, 99);
    }
}
