//! One-line import for applications: `use gsword_core::prelude::*;`.

pub use crate::adaptive::{run_adaptive, AdaptiveConfig, AdaptiveReport};
pub use crate::builder::{Backend, Error, Gsword, GswordBuilder, Report};
pub use crate::exact_count;

pub use gsword_candidate::{build_candidate_graph, BuildConfig, CandidateGraph};
pub use gsword_engine::{
    run_engine, split_budget, EngineConfig, EngineReport, LaunchSpec, PoolMode, SyncMode,
};
pub use gsword_enumeration::{count_instances, count_instances_parallel, EnumLimits};
pub use gsword_estimators::{
    q_error, signed_q_error, Alley, Estimate, Estimator, EstimatorKind, QueryCtx, SampleState,
    Segment, WanderJoin,
};
pub use gsword_graph::{
    AnyGraph, CompressedGraph, Graph, GraphBuilder, GraphStats, GraphStorage, Label, NeighborsRef,
    VertexId,
};
pub use gsword_pipeline::{run_coprocessing, DepthDist, TrawlConfig};
pub use gsword_query::{
    gcare_order, quicksi_order, MatchingOrder, OrderKind, QueryClass, QueryGraph,
};
pub use gsword_simt::{
    CounterSnapshot, DeviceConfig, DeviceModel, KernelCounters, KernelMetrics, ProfReport,
    Profiler, Runtime, RuntimeConfig, SanitizerReport, Span, SpanKind, Track,
};
