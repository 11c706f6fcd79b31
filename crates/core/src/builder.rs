//! The `Gsword` builder: configure and run one subgraph-counting query.

use std::time::Instant;

use gsword_candidate::{build_candidate_graph, BuildConfig, BuildStats};
use gsword_engine::{run_engine, EngineConfig};
use gsword_estimators::{
    q_error, run_parallel_cpu, with_estimator, Estimate, Estimator, EstimatorKind, QueryCtx,
};
use gsword_graph::GraphStorage;
use gsword_pipeline::{run_coprocessing, TrawlConfig};
use gsword_query::{make_order, OrderKind, QueryGraph};
use gsword_simt::{DeviceConfig, KernelCounters, ProfReport, SanitizerReport};

/// Execution backend for a query.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// Multi-threaded CPU sampling with dynamic scheduling (the G-CARE
    /// baseline). `threads = 0` uses all cores; `threads = 1` is the
    /// sequential reference.
    Cpu {
        /// Worker threads (0 = all cores).
        threads: usize,
    },
    /// The NextDoor-style GPU baseline on the SIMT device.
    GpuBaseline,
    /// Full gSWORD: block pools, sample inheritance, warp streaming.
    Gsword,
    /// Any custom engine configuration (ablations, iteration sync, …).
    /// The configuration contributes its discipline flags (`sync`, `pool`,
    /// `inheritance`, `streaming`), its
    /// [`DeviceModel`](gsword_simt::DeviceModel), and its launch geometry
    /// unless [`GswordBuilder::device`] was called. The builder overwrites
    /// the rest with its own settings — `samples`, `seed`, `sanitize`,
    /// `profile`, `num_devices`, `streams_per_device` and `sim_workers` —
    /// so `Backend::Device(cfg.with_topology(2, 2))` runs on the builder's
    /// topology (1×1 unless set on the builder).
    Device(EngineConfig),
}

/// Errors surfaced by [`GswordBuilder::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The query has no vertices or exceeds the supported size.
    BadQuery(String),
    /// Trawling requires a device backend.
    TrawlingNeedsDevice,
    /// Zero samples requested.
    NoSamples,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadQuery(m) => write!(f, "bad query: {m}"),
            Error::TrawlingNeedsDevice => {
                write!(
                    f,
                    "trawling runs on the co-processing pipeline; pick a device backend"
                )
            }
            Error::NoSamples => write!(f, "sample budget must be positive"),
        }
    }
}

impl std::error::Error for Error {}

/// Entry point type: see [`Gsword::builder`].
pub struct Gsword;

impl Gsword {
    /// Start configuring a run of `query` against `data` (any storage
    /// backend — CSR or compressed).
    pub fn builder<'a, S: GraphStorage>(
        data: &'a S,
        query: &'a QueryGraph,
    ) -> GswordBuilder<'a, S> {
        GswordBuilder {
            data,
            query,
            samples: 100_000,
            seed: 0x5D0D,
            estimator: EstimatorKind::Alley,
            order: OrderKind::QuickSi,
            backend: Backend::Gsword,
            build: BuildConfig::default(),
            device: None,
            trawling: None,
            sanitize: false,
            profile: false,
            num_devices: 1,
            streams_per_device: 1,
            sim_workers: 1,
        }
    }
}

/// Configuration builder for one query execution.
#[derive(Debug, Clone)]
pub struct GswordBuilder<'a, S: GraphStorage> {
    data: &'a S,
    query: &'a QueryGraph,
    samples: u64,
    seed: u64,
    estimator: EstimatorKind,
    order: OrderKind,
    backend: Backend,
    build: BuildConfig,
    device: Option<DeviceConfig>,
    trawling: Option<TrawlConfig>,
    sanitize: bool,
    profile: bool,
    num_devices: usize,
    streams_per_device: usize,
    sim_workers: usize,
}

impl<'a, S: GraphStorage> GswordBuilder<'a, S> {
    /// Total sample budget (default 100 000).
    pub fn samples(mut self, n: u64) -> Self {
        self.samples = n;
        self
    }

    /// RNG seed — runs are deterministic in the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Which RW estimator to run (default Alley).
    pub fn estimator(mut self, kind: EstimatorKind) -> Self {
        self.estimator = kind;
        self
    }

    /// Matching-order heuristic (default QuickSI).
    pub fn order(mut self, kind: OrderKind) -> Self {
        self.order = kind;
        self
    }

    /// Execution backend (default full gSWORD).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Candidate-graph construction configuration (filters, pruning).
    pub fn candidate_config(mut self, cfg: BuildConfig) -> Self {
        self.build = cfg;
        self
    }

    /// Override the device launch geometry.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = Some(device);
        self
    }

    /// Enable the trawling co-processing pipeline (device backends only).
    pub fn trawling(mut self, cfg: TrawlConfig) -> Self {
        self.trawling = Some(cfg);
        self
    }

    /// Shard device launches over `n` software devices (default 1, the
    /// paper's testbed has 2). Estimates are invariant in the topology.
    pub fn num_devices(mut self, n: usize) -> Self {
        self.num_devices = n.max(1);
        self
    }

    /// Streams (ordered async launch queues) per device, default 1.
    pub fn streams_per_device(mut self, n: usize) -> Self {
        self.streams_per_device = n.max(1);
        self
    }

    /// Intra-kernel simulation workers per launch: `0` = auto (the
    /// host's available parallelism), `1` = serial (default), `n` = the
    /// stream's thread plus `n − 1` helpers spawned per launch. A
    /// wall-clock knob only — estimates, counters, and sanitizer verdicts
    /// are bit-identical for every value.
    pub fn sim_workers(mut self, n: usize) -> Self {
        self.sim_workers = n;
        self
    }

    /// Run the device kernels under the sanitizer's synccheck (the
    /// `compute-sanitizer` analogue). Findings land in
    /// [`Report::sanitizer`]. No effect on CPU backends.
    pub fn sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Profile the device run (the Nsight analogue): record a launch
    /// timeline and per-kernel metrics into [`Report::prof`], exportable
    /// as Chrome `chrome://tracing` JSON. Zero cost when off; no effect on
    /// CPU backends.
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Execute the configured run with the built-in estimator.
    pub fn run(self) -> Result<Report, Error> {
        with_estimator(self.estimator, |est| self.run_custom(est))
    }

    /// Run a custom user-defined RSV estimator (Fig. 19's extension point)
    /// instead of a built-in one. Every other setting, trawling included,
    /// applies as in [`GswordBuilder::run`].
    pub fn run_custom<E: Estimator + ?Sized>(self, est: &E) -> Result<Report, Error> {
        if self.samples == 0 {
            return Err(Error::NoSamples);
        }
        if self.query.num_vertices() == 0 {
            return Err(Error::BadQuery("empty query".into()));
        }
        if matches!(self.backend, Backend::Cpu { .. }) && self.trawling.is_some() {
            return Err(Error::TrawlingNeedsDevice);
        }
        let t0 = Instant::now();
        let (cg, candidate_stats) = build_candidate_graph(self.data, self.query, &self.build);
        let order = make_order(self.order, self.query, self.data);
        let ctx = QueryCtx::new(&cg, &order);

        let device_run = |mut cfg: EngineConfig| {
            cfg.samples = self.samples;
            cfg.seed = self.seed;
            if let Some(d) = self.device {
                cfg.device = d;
            }
            cfg.sanitize = self.sanitize;
            cfg.profile = self.profile;
            cfg.num_devices = self.num_devices;
            cfg.streams_per_device = self.streams_per_device;
            cfg.sim_workers = self.sim_workers;
            match &self.trawling {
                None => Report::from_device(run_engine(&ctx, est, &cfg)),
                Some(trawl) => Report::from_pipeline(run_coprocessing(&ctx, est, &cfg, trawl)),
            }
        };
        let mut report = match self.backend {
            Backend::Cpu { threads } => {
                let threads = if threads == 0 {
                    std::thread::available_parallelism().map_or(4, |n| n.get())
                } else {
                    threads
                };
                let r = run_parallel_cpu(&ctx, est, self.samples, self.seed, threads);
                Report::from_cpu(r.estimate, r.wall_ms)
            }
            Backend::GpuBaseline => device_run(EngineConfig::gpu_baseline(self.samples)),
            Backend::Gsword => device_run(EngineConfig::gsword(self.samples)),
            Backend::Device(c) => device_run(c),
        };
        report.candidate_stats = Some(candidate_stats);
        report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(report)
    }
}

/// Result of one query execution.
#[derive(Debug, Clone)]
pub struct Report {
    /// The final estimate of the subgraph count (the trawling estimate
    /// when the pipeline ran, otherwise the sampler's HT estimate).
    pub estimate: f64,
    /// The raw sampler-side HT estimate.
    pub sampler: Estimate,
    /// The trawling estimate, when the pipeline ran and completed samples.
    pub trawl: Option<f64>,
    /// Trawl samples whose enumeration completed before the batch timeout
    /// (0 when the pipeline did not run).
    pub trawl_completed: u64,
    /// Candidate graph construction/transfer statistics (Table 3).
    pub candidate_stats: Option<BuildStats>,
    /// Device counters (device backends only).
    pub counters: Option<KernelCounters>,
    /// Modeled device milliseconds (device backends only).
    pub modeled_ms: Option<f64>,
    /// Samples collected including inherited continuations (device
    /// backends; equals `sampler.samples` otherwise).
    pub samples_collected: u64,
    /// Host wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Sanitizer findings (device backends built with
    /// [`GswordBuilder::sanitize`] only).
    pub sanitizer: Option<SanitizerReport>,
    /// Profiler output — timeline and per-kernel metrics — when the run
    /// was built with [`GswordBuilder::profile`] (device backends only).
    pub prof: Option<ProfReport>,
}

impl Report {
    fn from_cpu(estimate: Estimate, wall_ms: f64) -> Self {
        Report {
            estimate: estimate.value(),
            samples_collected: estimate.samples,
            sampler: estimate,
            trawl: None,
            trawl_completed: 0,
            candidate_stats: None,
            counters: None,
            modeled_ms: None,
            wall_ms,
            sanitizer: None,
            prof: None,
        }
    }

    fn from_device(r: gsword_engine::EngineReport) -> Self {
        Report {
            estimate: r.estimate.value(),
            sampler: r.estimate,
            trawl: None,
            trawl_completed: 0,
            candidate_stats: None,
            counters: Some(r.counters),
            modeled_ms: Some(r.modeled_ms),
            samples_collected: r.samples_collected,
            wall_ms: r.wall_ms,
            sanitizer: r.sanitizer,
            prof: r.prof,
        }
    }

    fn from_pipeline(r: gsword_pipeline::PipelineReport) -> Self {
        Report {
            estimate: r.value(),
            sampler: r.sampler,
            trawl: r.trawl,
            trawl_completed: r.trawl_completed,
            candidate_stats: None,
            counters: Some(r.counters),
            modeled_ms: Some(r.gpu_modeled_ms),
            samples_collected: r.sampler.samples,
            wall_ms: r.total_wall_ms,
            sanitizer: r.sanitizer,
            prof: r.prof,
        }
    }

    /// q-error of this report's estimate against a known ground truth.
    pub fn q_error(&self, truth: f64) -> f64 {
        q_error(self.estimate, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsword_graph::{datasets, Graph};
    use gsword_simt::DeviceConfig;

    fn fixture() -> (Graph, QueryGraph) {
        let data = datasets::dataset("yeast");
        let query = QueryGraph::extract(&data, 4, 0xFEED).expect("query");
        (data, query)
    }

    fn small_device() -> DeviceConfig {
        DeviceConfig {
            num_blocks: 2,
            threads_per_block: 64,
        }
    }

    #[test]
    fn backends_agree_on_estimate_scale() {
        let (data, query) = fixture();
        let truth = crate::exact_count(&data, &query, 0, 2).expect("exact") as f64;
        let mut estimates = Vec::new();
        for backend in [
            Backend::Cpu { threads: 2 },
            Backend::GpuBaseline,
            Backend::Gsword,
        ] {
            let r = Gsword::builder(&data, &query)
                .samples(40_000)
                .backend(backend)
                .device(small_device())
                .seed(3)
                .run()
                .expect("run");
            estimates.push(r.estimate);
            if truth > 0.0 {
                assert!(
                    r.q_error(truth) < 3.0,
                    "{backend:?}: estimate {} vs truth {truth}",
                    r.estimate
                );
            }
        }
    }

    #[test]
    fn device_reports_carry_counters() {
        let (data, query) = fixture();
        let r = Gsword::builder(&data, &query)
            .samples(5_000)
            .backend(Backend::Gsword)
            .device(small_device())
            .run()
            .expect("run");
        assert!(r.counters.is_some());
        assert!(r.modeled_ms.unwrap() > 0.0);
        assert!(r.samples_collected >= r.sampler.samples);
        assert!(r.candidate_stats.is_some());
    }

    #[test]
    fn cpu_backend_has_no_device_fields() {
        let (data, query) = fixture();
        let r = Gsword::builder(&data, &query)
            .samples(2_000)
            .backend(Backend::Cpu { threads: 1 })
            .run()
            .expect("run");
        assert!(r.counters.is_none());
        assert!(r.modeled_ms.is_none());
        assert_eq!(r.sampler.samples, 2_000);
    }

    #[test]
    fn trawling_requires_device() {
        let (data, query) = fixture();
        let err = Gsword::builder(&data, &query)
            .backend(Backend::Cpu { threads: 1 })
            .trawling(TrawlConfig::default())
            .run()
            .unwrap_err();
        assert_eq!(err, Error::TrawlingNeedsDevice);
    }

    #[test]
    fn trawling_pipeline_runs() {
        let (data, query) = fixture();
        let r = Gsword::builder(&data, &query)
            .samples(6_000)
            .backend(Backend::Gsword)
            .device(small_device())
            .trawling(TrawlConfig {
                batches: 2,
                cpu_threads: 2,
                per_batch: 16,
                ..TrawlConfig::default()
            })
            .run()
            .expect("run");
        assert!(r.trawl.is_some() || r.sampler.samples > 0);
    }

    #[test]
    fn profile_attaches_a_validated_report() {
        let (data, query) = fixture();
        let r = Gsword::builder(&data, &query)
            .samples(4_000)
            .backend(Backend::Gsword)
            .device(small_device())
            .num_devices(2)
            .streams_per_device(2)
            .profile(true)
            .run()
            .expect("run");
        let prof = r.prof.expect("profiled run attaches a report");
        prof.validate().expect("profile is well-formed");
        assert_eq!(prof.num_devices, 2);
        assert_eq!(prof.streams_per_device, 2);
        assert_eq!(prof.kernels.len(), 1);
        assert!(!prof.spans.is_empty());
        // Off by default — and the estimate is identical either way.
        let off = Gsword::builder(&data, &query)
            .samples(4_000)
            .backend(Backend::Gsword)
            .device(small_device())
            .num_devices(2)
            .streams_per_device(2)
            .run()
            .expect("run");
        assert!(off.prof.is_none());
        assert_eq!(off.estimate, r.estimate);
    }

    #[test]
    fn zero_samples_rejected() {
        let (data, query) = fixture();
        let err = Gsword::builder(&data, &query).samples(0).run().unwrap_err();
        assert_eq!(err, Error::NoSamples);
    }

    #[test]
    fn deterministic_in_seed() {
        let (data, query) = fixture();
        let go = |seed| {
            Gsword::builder(&data, &query)
                .samples(4_000)
                .seed(seed)
                .device(small_device())
                .run()
                .unwrap()
                .estimate
        };
        assert_eq!(go(5), go(5));
    }
}
