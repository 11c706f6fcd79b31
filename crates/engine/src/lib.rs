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
//! Execution is layered: [`kernel`] defines *what* runs — one block of the
//! RSV kernel, a plain function of the configuration's flags — while
//! [`runtime`] decides *where and when*: it shards a fixed sample budget
//! over the devices and streams of a [`gsword_simt::Runtime`] via
//! [`LaunchSpec`] descriptors and collects the shards back into one
//! [`EngineReport`]. [`spawn_estimate`] → [`EstimateRun::wait_report`] is
//! the only launch path; [`run_engine`] wraps it for one query.

pub mod config;
pub mod kernel;
pub mod runtime;

pub use config::{EngineConfig, EngineReport, PoolMode, SyncMode};
pub use runtime::{
    plan_shards, run_engine, runtime_for, spawn_estimate, split_budget, EstimateRun, LaunchSpec,
};
