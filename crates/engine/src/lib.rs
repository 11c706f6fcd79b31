//! The gSWORD device engine: RW-estimator kernels on the software SIMT
//! device.
//!
//! This crate is the paper's primary contribution:
//!
//! * **Algorithm 1** — the Refine–Sample–Validate kernel with block-shared
//!   sample pools and *sample synchronization* ([`kernel`]).
//! * **Algorithm 2** — *sample inheritance*: lanes whose samples are
//!   invalidated inherit a valid partial sample from a warp sibling, with
//!   the recursive-estimator probability adjustment that keeps the estimate
//!   unbiased (Theorem 1).
//! * **Algorithm 3** — *warp streaming*: large Refine workloads are
//!   streamed across the warp, one candidate per lane, feeding an A-Res
//!   weighted reservoir so the sampled vertex keeps the exact distribution
//!   (Theorem 2).
//! * The *iteration synchronization* alternative (Section 3.2's
//!   micro-benchmark) and the NextDoor-style GPU baseline (static per-lane
//!   sample assignment, no pool, no warp optimizations).
//!
//! Run any configuration through [`run_engine`]; ablation presets
//! ([`EngineConfig::o0`] / [`EngineConfig::o1`] / [`EngineConfig::o2`])
//! reproduce Figure 12.
//!
//! Execution is layered: [`kernel`] defines *what* runs — the RSV and
//! baseline kernels as first-class [`Kernel`] values — while [`runtime`]
//! decides *where and when*: it shards a fixed sample budget over the
//! devices and streams of a [`gsword_simt::Runtime`] via [`LaunchSpec`]
//! descriptors and merges per-device results back into one
//! [`EngineReport`]. All device launches go through the runtime module:
//! a [`gsword_simt::RuntimeScope`] launch is the only way to run a
//! kernel's blocks.

pub mod config;
pub mod kernel;
pub mod runtime;

pub use config::{EngineConfig, EngineReport, PoolMode, SyncMode};
pub use kernel::{kernel_for_config, BaselineKernel, EstimateKernel, RsvKernel};
pub use runtime::{
    plan_shards, run_engine, runtime_for, spawn_estimate, spawn_kernel, split_budget, EstimateRun,
    Kernel, KernelRun, LaunchSpec,
};
