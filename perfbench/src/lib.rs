//! End-to-end and per-layer benchmark of the gSWORD reproduction.
//!
//! The binary (`src/main.rs`) runs one named workload from a seed and
//! prints its metrics; `README.md` in this directory defines every metric
//! and workload. The library holds what the binary and the contract tests
//! share: workload set-up and the two ways of running a query.

pub mod calibrate;
pub mod measure;
pub mod stats;
pub mod workload;
