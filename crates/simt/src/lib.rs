//! A software SIMT device: the GPU substitute substrate of this
//! reproduction.
//!
//! The paper's contributions — sample inheritance, warp streaming,
//! sample-vs-iteration synchronization, block-shared sample pools — are
//! algorithms over the *SIMT execution model*: 32-lane warps executing in
//! lockstep, warp-level register exchange primitives, and a memory system
//! whose throughput depends on how well a warp's 32 concurrent addresses
//! coalesce into cache lines.
//!
//! This crate implements that model in software:
//!
//! * [`warp`] — lockstep lane arrays and the warp primitives used by
//!   Algorithms 2 and 3 (`_any`, `_ballot`, `_shfl`, `_reduce_sum`,
//!   `_reduce_max`), each charging execution counters.
//! * [`memory`] — a coalescing model: one warp-wide load is split into
//!   128-byte line transactions; scattered accesses cost more transactions
//!   (the mechanism behind the paper's Figure 5/6 observation).
//! * [`counters`] — per-kernel counters including the `StallLong` /
//!   `StallWait` proxies profiled in the paper's micro-benchmark.
//! * [`pool`] — the per-block atomic sample pool of Algorithm 1.
//! * [`device`] — launch geometry, the device handle kernels take their
//!   sanitizer from, and a [`device::DeviceModel`] that converts counters
//!   into modeled device milliseconds.
//! * [`runtime`] — the CUDA-runtime analogue: N devices (the paper's
//!   two-GPU testbed shape), per-device streams (ordered async launch
//!   queues), and launch handles that carry each launch's per-block
//!   results back to the caller. Its streams and block workers
//!   are scoped host threads, spawned per [`Runtime::scope`] and per
//!   launch; a `Runtime` owns none.
//!
//! Functional behaviour (the estimates) is exact; device time is *modeled*
//! from the counters. DESIGN.md §1 documents the substitution.
//!
//! An opt-in checking layer (re-exported from [`gsword_sanitizer`], the
//! `compute-sanitizer` analogue) validates the one invariant real hardware
//! makes undefined that these kernels can break: warp primitives'
//! participation masks. See DESIGN.md §7.

pub mod counters;
pub mod device;
pub mod memory;
pub mod pool;
pub mod runtime;
pub mod warp;

/// Re-export: the profiler layer (Chrome-trace export, JSON validation).
pub use gsword_prof as prof;

pub use counters::KernelCounters;
pub use device::{ConfigError, Device, DeviceConfig, DeviceModel};
pub use gsword_prof::{
    CounterSnapshot, KernelMetrics, ProfReport, Profiler, Span, SpanKind, StreamCounters, Track,
};
pub use gsword_sanitizer::{Sanitizer, SanitizerReport, Violation, ViolationKind, WarpSanitizer};
pub use memory::Region;
pub use pool::SamplePool;
pub use runtime::{LaunchHandle, Runtime, RuntimeConfig, RuntimeScope};
pub use warp::{Lanes, WarpMask, WARP_SIZE};
